"""Coset enumeration, representations, and quotient chains."""

import math
import time
import tracemalloc
import warnings
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from conftest import (
    all_coset_separation,
    closure_order,
    coset_act,
    fraction_determinant,
    lattice_index,
    random_word,
    slow_matmul,
    slow_todd_coxeter,
    slow_word_perm,
)

from coholap import (
    ChainOrderError,
    CoholapError,
    CosetTable,
    EnumerationOverflowError,
    GroupRingElement,
    InvariantError,
    MalformedInputError,
    Presentation,
    Representation,
    SeparationWarning,
    ShapeMismatchError,
    Word,
    parse_word,
    quotient_chain,
    surface_genus2_complex,
    todd_coxeter,
)
from coholap import cosets

F2 = Presentation(("a", "b"), ())
ABELIAN = ("a*b*a^-1*b^-1",)


def presentation(gens, relators):
    names = list(gens)
    return Presentation(tuple(names),
                        tuple(parse_word(r, names) for r in relators))


def words(p, texts):
    return [parse_word(t, p.generator_names) for t in texts]


class TestKnownOrders:
    """Enumerated index against orders known from elementary group theory."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_cyclic(self, m):
        p = presentation("a", [f"a^{m}"])
        assert todd_coxeter(p).coset_count == m

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_free_square_quotients(self, m):
        table = todd_coxeter(F2, words(F2, [f"a^{m}", f"b^{m}",
                                            "a*b*a^-1*b^-1"]))
        assert table.coset_count == m * m

    def test_symmetric_group_s3(self):
        p = presentation("ab", ["a^2", "b^3", "a*b*a*b"])
        assert todd_coxeter(p).coset_count == 6

    def test_quaternion_q8(self):
        p = presentation("ab", ["a^4", "a^2*b^-2", "b^-1*a*b*a"])
        assert todd_coxeter(p).coset_count == 8

    def test_elementary_abelian_two_four(self):
        p = presentation("abcd", ["a^2", "b^2", "c^2", "d^2",
                                  "a*b*a^-1*b^-1", "a*c*a^-1*c^-1",
                                  "a*d*a^-1*d^-1", "b*c*b^-1*c^-1",
                                  "b*d*b^-1*d^-1", "c*d*c^-1*d^-1"])
        assert todd_coxeter(p).coset_count == 16

    def test_coincidence_collapse(self):
        # gcd(6, 4) = 2: the second relator collapses most cosets
        p = presentation("a", ["a^6", "a^4"])
        assert todd_coxeter(p).coset_count == 2
        # one generator always takes the abelian front door; scan-and-fill
        # collapses the same way
        assert cosets._scan_and_fill(1, p.relators, 10**6).shape == (2, 2)

    def test_trivial_quotient(self):
        table = todd_coxeter(F2, words(F2, ["a", "b"]))
        assert table.coset_count == 1


class TestTableProperties:
    def test_closure_size_matches_regular_action(self):
        # the right-multiplication permutations generate a group of order
        # exactly coset_count (regular action is faithful and transitive)
        for gens, relators in [
            ("a", ["a^5"]),
            ("ab", ["a^2", "b^3", "a*b*a*b"]),
            ("ab", ["a^3", "b^3", "a*b*a^-1*b^-1"]),
        ]:
            p = presentation(gens, relators)
            table = todd_coxeter(p)
            perms = table.columns[0::2].tolist()
            assert closure_order(perms) == table.coset_count

    def test_relators_act_trivially(self):
        p = presentation("ab", ["a^2", "b^3", "a*b*a*b"])
        rep = Representation.from_coset_table(todd_coxeter(p))
        for relator in p.relators:
            assert rep.word_is_identity(relator)

    def test_extra_relators_act_trivially(self):
        extra = words(F2, ["a^4", "b^4", "a*b*a^-1*b^-1"])
        rep = Representation.from_coset_table(todd_coxeter(F2, extra))
        for word in extra:
            assert rep.word_is_identity(word)

    def test_action_is_right_action(self):
        table = todd_coxeter(F2, words(F2, ["a^3", "b^3", "a*b*a^-1*b^-1"]))
        rng = Random(61)
        for _ in range(50):
            u = random_word(rng, 2)
            v = random_word(rng, 2)
            for x in range(table.coset_count):
                assert (coset_act(table, x, u * v)
                        == coset_act(table, coset_act(table, x, u), v))

    def test_determinism(self):
        spec = words(F2, ["a^4", "b^2", "a*b*a^-1*b^-1"])
        t1 = todd_coxeter(F2, spec)
        t2 = todd_coxeter(F2, spec)
        assert t1.columns.tolist() == t2.columns.tolist()

    def test_canonical_numbering_starts_at_identity(self):
        table = todd_coxeter(F2, words(F2, ["a^3", "b^3", "a*b*a^-1*b^-1"]))
        assert coset_act(table, 0, Word()) == 0
        # coset 1 is reached from 0 by the first generator
        assert coset_act(table, 0, Word([1])) == 1

    def test_overflow(self):
        with pytest.raises(EnumerationOverflowError):
            todd_coxeter(F2, max_cosets=200)

    def test_overflow_budget_respected(self):
        with pytest.raises(EnumerationOverflowError):
            todd_coxeter(F2, words(F2, ["a^2"]), max_cosets=1000)

    def test_identity_relator_rejected(self):
        with pytest.raises(MalformedInputError):
            todd_coxeter(F2, [Word([1, -1])])


class TestRepresentation:
    def test_permutations_form_homomorphism(self):
        table = todd_coxeter(F2, words(F2, ["a^3", "b^2", "a*b*a^-1*b^-1"]))
        rep = Representation.from_coset_table(table)
        rng = Random(67)
        for _ in range(60):
            u = random_word(rng, 2)
            v = random_word(rng, 2)
            pu, pv, puv = (rep.word_perm(u), rep.word_perm(v),
                           rep.word_perm(u * v))
            # pi(uv) = pi(u) pi(v) as functions
            assert all(puv[x] == pu[pv[x]] for x in range(rep.dimension))

    def test_word_perm_against_composed_rows(self):
        """The one walk through the table layout, from the table's own
        columns and from columns built from ``perms=``, against the rows
        of ``perms`` composed in plain Python."""
        p = presentation("ab", ["a^2", "b^3", "a*b*a*b"])
        rep = Representation.from_coset_table(todd_coxeter(p))
        twin = Representation(rep.dimension, perms=rep.perms)
        assert np.array_equal(twin.columns, rep.columns)
        rng = Random(5)
        for _ in range(40):
            word = random_word(rng, 2)
            expected = slow_word_perm(rep, word)
            for r in (rep, twin):
                assert r.word_perm(word).tolist() == expected
                assert r.word_perm(word, 0) == expected[0]

    def test_regular_representation_shares_the_table_columns(self):
        genus2 = surface_genus2_complex().presentation
        table = todd_coxeter(genus2, _abelian_stages(genus2, (16,))[0])
        tracemalloc.start()
        try:
            rep = Representation.from_coset_table(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.columns is table.columns
        assert rep.table is table and rep.dimension == 65536
        assert peak < 64 << 10  # a copy of the generator rows is 2 MiB

    @pytest.mark.parametrize("call, match", [
        (lambda: Representation(2), "exactly one of"),
        (lambda: Representation(2, perms=[[0, 1]],
                                matrices=[[[1, 0], [0, 1]]]), "exactly one of"),
        (lambda: Representation(4, perms=[[0, 1, 2, 3]] * 2,
                                table=todd_coxeter(F2, words(
                                    F2, ["a^2", "b^2", *ABELIAN]))),
         "exactly one of"),
        (lambda: Representation(3, table=todd_coxeter(F2, words(
            F2, ["a^2", "b^2", *ABELIAN]))),
         "a table of 4 cosets in dimension 3"),
        (lambda: Representation(2, perms=[[0, 0]]), "is not a permutation"),
        (lambda: Representation(2, perms=[[1, 2]]), "is not a permutation"),
        (lambda: Representation(2, perms=[[0, 1], [-1, 0]]),
         "is not a permutation"),
        (lambda: Representation(2, matrices=[[[1, 1], [0, 1]]]),
         "image is not orthogonal"),
        (lambda: Representation(1, matrices=[[[-1]]]).word_perm(Word([1])),
         "not a permutation representation"),
    ], ids=["no-images", "perms-and-matrices", "perms-and-table",
            "table-of-another-order", "repeated-image", "image-out-of-range",
            "negative-image", "not-orthogonal", "word-perm-of-matrices"])
    def test_malformed_images_raise(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_faults_are_package_errors(self):
        for call in (
                lambda: Representation(2),
                lambda: Representation(2, perms=[[0, 0]]),
                lambda: Representation(2, matrices=[[[1, 1], [0, 1]]]),
                lambda: Representation(1, matrices=[[[-1]]]).word_perm(
                    Word([1])),
                lambda: GroupRingElement.generator(1) ** -1):
            with pytest.raises(CoholapError):
                call()

    def test_word_matrix_is_exact_orthogonal(self):
        from coholap import exact  # type: ignore[attr-defined]

        table = todd_coxeter(F2, words(F2, ["a^2", "b^2", "a*b*a^-1*b^-1"]))
        rep = Representation.from_coset_table(table)
        m = rep.word_matrix(Word([1, 2]))
        assert exact.is_orthogonal(m)

    def test_trivial_representation(self):
        rep = Representation.trivial(2)
        assert rep.dimension == 1
        assert rep.word_is_identity(Word([1, 2, -1]))

    def test_matrix_representation_sign(self):
        from fractions import Fraction

        sign = Representation(1, matrices=[((Fraction(-1),),)], label="sign")
        assert sign.word_matrix(Word([1, 1])) == ((Fraction(1),),)
        assert not sign.word_is_identity(Word([1]))
        assert sign.word_is_identity(Word([1, 1]))

    @pytest.mark.parametrize("rep, text", [
        (Representation(2, perms=[[1, 0]], label="swap"),
         "Representation(perm, dim=2, label='swap')"),
        (Representation(1, matrices=[[[-1]]], label="sign"),
         "Representation(orth, dim=1, label='sign')"),
    ], ids=["permutation", "orthogonal"])
    def test_repr_names_the_kind(self, rep, text):
        assert repr(rep) == text


class TestQuotientChain:
    def test_chain_orders_and_labels(self):
        chain = quotient_chain(F2, [
            words(F2, ["a^2", "b^2", "a*b*a^-1*b^-1"]),
            words(F2, ["a^4", "b^4", "a*b*a^-1*b^-1"]),
        ], ball_radius=3)
        assert chain.indices == (4, 16)
        stages = list(chain.stages())
        assert [order for _i, order, _r in stages] == [4, 16]

    def test_each_stage_is_its_representation(self):
        texts = [["a^2", "b^2", "a*b*a^-1*b^-1"],
                 ["a^4", "b^4", "a*b*a^-1*b^-1"]]
        chain = quotient_chain(F2, texts, ball_radius=2)
        rep0, rep1 = chain.representations
        assert list(chain.stages()) == [(0, 4, rep0), (1, 16, rep1)]
        for rep, stage in zip(chain.representations, texts):
            assert rep.table.extra_relators == tuple(words(F2, stage))
        assert chain.indices == (4, 16)

    def test_strictly_increasing_required(self):
        with pytest.raises(ChainOrderError):
            quotient_chain(F2, [
                words(F2, ["a^2", "b^2", "a*b*a^-1*b^-1"]),
                words(F2, ["b^2", "a^2", "a*b*a^-1*b^-1"]),
            ], ball_radius=2)

    def test_empty_chain_rejected(self):
        with pytest.raises(MalformedInputError):
            quotient_chain(F2, [])

    def test_radius_zero_checks_no_word(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a is killed by the quotient, yet no word is walked
            chain = quotient_chain(F2, [words(F2, ["a", "b^2"])],
                                   ball_radius=0)
        report = chain.separation
        assert (report.radius, report.words_checked) == (0, 0)
        assert report.separated and report.failure_count == 0
        assert report.first_failure is None
        one = quotient_chain(F2, [words(F2, ["a", "b^2"])], ball_radius=1,
                             warn=False)
        assert one.separation.words_checked == 4

    @pytest.mark.parametrize("radius", [-1, -5])
    def test_negative_radius_rejected(self, radius):
        with pytest.raises(MalformedInputError, match="ball radius"):
            quotient_chain(F2, [words(F2, ["a^2", "b^2"])],
                           ball_radius=radius)

    def test_separation_failure_warns(self):
        with pytest.warns(SeparationWarning):
            chain = quotient_chain(F2, [words(F2, ["a", "b^2"])],
                                   ball_radius=2)
        assert not chain.separation.separated
        assert chain.separation.failure_count > 0
        # the quotient kills a, so some power of a is the recorded witness
        assert set(chain.separation.first_failure) <= set("a^-0123456789")

    def test_separating_chain_is_quiet(self):
        p = presentation("a", [])  # the infinite cyclic group
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = quotient_chain(
                p, [words(p, ["a^7"]), words(p, ["a^49"])], ball_radius=6)
        assert chain.separation.separated
        assert chain.separation.words_checked == 12

    def test_stage_representations_kill_stage_relators(self):
        chain = quotient_chain(F2, [
            words(F2, ["a^2", "b^2", "a*b*a^-1*b^-1"]),
            words(F2, ["a^4", "b^4", "a*b*a^-1*b^-1"]),
        ], ball_radius=2)
        for rep in chain.representations:
            for word in rep.table.extra_relators:
                assert rep.word_is_identity(word)


class TestOrthogonalImages:
    def test_ragged_or_wrong_size_images_rejected(self):
        for image in ([[0, 1], [1, 0, 0]], [[1, 0], [0]], [[1]]):
            with pytest.raises(ShapeMismatchError):
                Representation(2, matrices=[image])

    def test_word_images_are_exact(self):
        rotation = Representation(2, matrices=[[["3/5", "-4/5"],
                                                ["4/5", "3/5"]]])
        assert rotation.word_matrix(Word([1, 1])) == (
            (Fraction(-7, 25), Fraction(-24, 25)),
            (Fraction(24, 25), Fraction(-7, 25)))
        assert rotation.word_is_identity(Word([1, -1]))
        assert not rotation.word_is_identity(Word([1, 1, 1, 1]))
        assert rotation.word_matrix(Word([-1])) == (
            (Fraction(3, 5), Fraction(4, 5)),
            (Fraction(-4, 5), Fraction(3, 5)))


def _abelian_stages(p, ms):
    names = p.generator_names
    commutators = [f"{x}*{y}*{x}^-1*{y}^-1"
                   for i, x in enumerate(names) for y in names[i + 1:]]
    return [words(p, [f"{g}^{m}" for g in names] + commutators) for m in ms]


def _respelled(p, extras, rng):
    """The same group spelled differently: every relator rotated
    cyclically and both relator lists shuffled."""
    def respell(relators):
        rotated = []
        for word in relators:
            k = rng.randrange(len(word))
            rotated.append(Word(tuple(word)[k:] + tuple(word)[:k]))
        rng.shuffle(rotated)
        return rotated
    return (Presentation(p.generator_names, tuple(respell(p.relators))),
            respell(extras))


def _inverted(p, extras):
    """The same group with every commutator [x, y] written as [y, x]."""
    def invert(relators):
        return [w.inverse() if len(w) == 4 and w[2] == -w[0]
                and w[3] == -w[1] else w for w in relators]
    return (Presentation(p.generator_names, tuple(invert(p.relators))),
            invert(extras))


def _enumeration_corpus():
    """(name, presentation, extra relators, quotient order)."""
    genus2 = surface_genus2_complex().presentation
    torus = presentation("ab", ["a*b*a^-1*b^-1"])
    cases = [(f"genus2-(Z/{m})^4", genus2, _abelian_stages(genus2, (m,))[0],
              m ** 4) for m in range(2, 7)]
    cases += [(f"torus-(Z/{m})^2", torus,
               words(torus, [f"a^{m}", f"b^{m}"]), m * m) for m in (2, 3, 4)]
    for name, gens, relators, order in [
        ("S4", "ab", ["a^2", "b^3", "a*b*a*b*a*b*a*b"], 24),
        ("S4-coxeter", "rst", ["r^2", "s^2", "t^2", "r*s*r*s*r*s",
                               "s*t*s*t*s*t", "r*t*r*t"], 24),
        ("PSL(2,7)", "ab", ["a^2", "b^3", "*".join(["a*b"] * 7),
                            "*".join(["a*b*a^-1*b^-1"] * 4)], 168),
        ("D7", "ab", ["a^7", "b^2", "a*b*a*b"], 14),
        ("Z/5xZ/5", "ab", ["a^5", "b^5", "a*b*a^-1*b^-1"], 25),
        ("Z/2xZ/4-inverse-powers", "ab",
         ["a^-2", "b^-4", "a*b*a^-1*b^-1"], 8),
        ("Z/3xZ/3xZ/6-inverse-powers", "abc",
         ["a^-3", "b^-3", "c^-6", "a*b*a^-1*b^-1", "a*c*a^-1*c^-1",
          "b*c*b^-1*c^-1"], 54),
        # abelian, but no relator is a commutator: scan-and-fill
        ("klein-enumerated", "ab", ["a^2", "b^2", "a*b*a*b"], 4),
        ("Z/2xZ/6-enumerated", "ab", ["a^2", "b^6", "a*b*a*b^-1"], 12),
    ]:
        cases.append((name, presentation(gens, relators), [], order))
    return cases


NON_ABELIAN = ("S4", "S4-coxeter", "PSL(2,7)", "D7")
ENUMERATED_ABELIAN = ("klein-enumerated", "Z/2xZ/6-enumerated")


class TestEnumerationOracle:
    """Scan-and-fill against the first-undefined-entry enumeration."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_columns(self, seed):
        """The front door (abelian cases), scan-and-fill and the oracle
        agree on every spelling, commutators inverted or not."""
        rng = Random(seed)
        for name, p, extras, order in _enumeration_corpus():
            table = todd_coxeter(p, extras)
            assert table.coset_count == order, name
            columns = table.columns.tolist()
            spellings = [(p, extras), _respelled(p, extras, rng)]
            spellings += [_inverted(*spelling) for spelling in spellings]
            for q, spelled in spellings:
                assert todd_coxeter(q, spelled).columns.tolist() == columns, \
                    name
                assert list(map(list, slow_todd_coxeter(q, spelled))) \
                    == columns, name
                assert cosets._scan_and_fill(
                    q.generator_count, (*q.relators, *spelled), 10**6
                ).tolist() == columns, name

    def test_front_door_takes_exactly_the_commuting_stages(self):
        for name, p, extras, order in _enumeration_corpus():
            for q, spelled in ((p, extras), _inverted(p, extras)):
                assert cosets._commuting((*q.relators, *spelled),
                                         q.generator_count) == (
                    name not in NON_ABELIAN + ENUMERATED_ABELIAN), name
            characters = todd_coxeter(p, extras).characters
            assert (characters is None) == (name in NON_ABELIAN), name

    def test_enumerated_abelian_stages_carry_characters(self):
        """Stages that miss the front door carry certified characters and
        the columns of the same group spelled with its commutator."""
        for name, p, extras, order in _enumeration_corpus():
            if name not in ENUMERATED_ABELIAN:
                continue
            table = todd_coxeter(p, extras)
            orders, codes = table.characters
            assert math.prod(orders) == order, name
            assert sorted(codes.tolist()) == list(range(order)), name
            spelled = todd_coxeter(p, [*extras, *words(p, ABELIAN)])
            assert spelled.characters is not None, name
            assert np.array_equal(table.columns, spelled.columns), name

    def test_inverse_powers_give_positive_orders(self):
        table = todd_coxeter(F2, words(F2, ["a^-2", "b^-4",
                                            "a*b*a^-1*b^-1"]))
        assert table.coset_count == 8
        assert table.characters[0] == (2, 4)

    def test_diagonal_form_against_the_minor_oracle(self):
        """Orders multiply to the gcd of the n x n minors, and U, V are
        unimodular with U R V = diag(+-orders) over zero rows."""
        rng = Random(0)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 3)
            rows = [[rng.randint(-6, 6) for _ in range(n)]
                    for _ in range(rng.randint(n, 5))]
            if not (index := lattice_index(rows, n)):
                continue  # rank below n
            orders, u, v = cosets._diagonal_form(rows, n)
            assert math.prod(orders) == index, rows
            assert abs(fraction_determinant(u)) == 1, rows
            assert abs(fraction_determinant(v)) == 1, rows
            product = slow_matmul(slow_matmul(u, rows), v)
            assert [[abs(x) for x in row] for row in product] == [
                [orders[i] if i == j else 0 for j in range(n)]
                for i in range(len(rows))], rows
            checked += 1

    def test_a_missing_commutator_still_enumerates(self):
        genus2 = surface_genus2_complex().presentation
        extras = _abelian_stages(genus2, (3,))[0]
        columns = todd_coxeter(genus2, extras).columns
        # [a, b] and [c, d] follow from the rest and [a, b][c, d] = 1
        for k in (4, len(extras) - 1):
            partial = extras[:k] + extras[k + 1:]
            assert not cosets._commuting((*genus2.relators, *partial), 4)
            table = todd_coxeter(genus2, partial)
            assert np.array_equal(table.columns, columns)
            assert table.characters is not None
            assert np.array_equal(slow_todd_coxeter(genus2, partial),
                                  columns)

    def test_infinite_abelian_quotients_overflow(self):
        torus = presentation("ab", ["a*b*a^-1*b^-1"])
        for p, extras in ((torus, []), (F2, words(F2, ["b*a*b^-1*a^-1"])),
                          (presentation("a", []), []),
                          (torus, words(torus, ["a^3"]))):
            with pytest.raises(EnumerationOverflowError, match="infinity"):
                todd_coxeter(p, extras)

    def test_budget_bounds_the_abelian_order(self):
        genus2 = surface_genus2_complex().presentation
        extras = _abelian_stages(genus2, (6,))[0]
        assert todd_coxeter(genus2, extras, max_cosets=1296).coset_count \
            == 1296
        with pytest.raises(EnumerationOverflowError, match="1296"):
            todd_coxeter(genus2, extras, max_cosets=1295)

    def test_huge_abelian_quotient_refused_before_allocating(self):
        genus2 = surface_genus2_complex().presentation
        extras = _abelian_stages(genus2, (1000,))[0]
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationOverflowError):
                todd_coxeter(genus2, extras)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # |Q| = 10^12 cosets would need 64 TB

    @pytest.mark.parametrize("orders, v, match", [
        # b translates by 2 in Z/4: the level walk stops at 4 of 8 cosets
        ([2, 4], [[1, 0], [0, 2]], "reach 4 of 8"),
        # a goes to (1, 1), of order 4, so a^2 fails to act trivially
        ([2, 4], [[1, 1], [0, 1]], "relator"),
        # both translations are zero: one level, one coset reached
        ([2, 4], [[0, 0], [0, 0]], "reach 1 of 8"),
        # Z/2 x Z/2 satisfies every relator; only U R V = diag sees it
        ([2, 2], [[1, 0], [0, 1]], "do not certify"),
    ])
    def test_a_corrupted_form_raises_promptly(self, monkeypatch, orders, v,
                                              match):
        identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        monkeypatch.setattr(cosets, "_diagonal_form",
                            lambda rows, n: (orders, identity, v))
        extras = words(F2, ["a^2", "b^4", "a*b*a^-1*b^-1"])
        start = time.perf_counter()
        with pytest.raises(InvariantError, match=match):
            todd_coxeter(F2, extras)
        assert time.perf_counter() - start < 1.0

    def test_a_form_certified_through_a_non_unimodular_u_is_refused(
            self, monkeypatch):
        """U = diag(2, 1, 1) and V = I give U R V = diag(4, 4) for the
        relators a^2, b^4 and [a, b], yet a^2 moves Z/4 x Z/4: the
        certificate does not check that U is unimodular, so R V = 0
        (mod orders) must refuse it."""
        u, identity = [[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]]
        extras = words(F2, ["a^2", "b^4", "a*b*a^-1*b^-1"])
        rows = cosets._exponent_sums(extras, 2)
        assert slow_matmul(slow_matmul(u, rows), identity) == (
            (4, 0), (0, 4), (0, 0))
        monkeypatch.setattr(cosets, "_diagonal_form",
                            lambda rows, n: ([4, 4], u, identity))
        with pytest.raises(InvariantError, match="relator"):
            todd_coxeter(F2, extras)

    def test_only_tables_without_characters_walk_their_relators(
            self, monkeypatch):
        """Abelian tables are proved from their exponent sums; the
        non-abelian ones walk each relator once, over every coset."""
        walk, walked = cosets._walk, []
        monkeypatch.setattr(cosets, "_walk", lambda columns, word, x: (
            walked.append(word) or walk(columns, word, x)))
        for name, p, extras, order in _enumeration_corpus():
            walked.clear()
            table = todd_coxeter(p, extras)
            assert (table.characters is None) == (name in NON_ABELIAN), name
            assert walked == (list(p.relators) if name in NON_ABELIAN
                              else []), name

    @pytest.mark.parametrize("orders, v", [
        ([2, 6], [[1, 1], [0, 1]]),  # a of order 6: the columns differ
        ([2, 6], [[1, 0], [0, 2]]),  # reaches 6 of 12 cosets
        ([2, 2], [[1, 0], [0, 1]]),  # 4 cosets, not 12
    ])
    def test_a_corrupted_form_contradicts_an_enumerated_table(
            self, monkeypatch, orders, v):
        identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        monkeypatch.setattr(cosets, "_diagonal_form",
                            lambda rows, n: (orders, identity, v))
        with pytest.raises(InvariantError,
                           match="contradict the coset table"):
            todd_coxeter(F2, words(F2, ["a^2", "b^6", "a*b*a*b^-1"]))

    @pytest.mark.parametrize("orders, v", [
        ([4, 6], [[-1, -5], [-3, -4]]),               # negative entries
        ([4, 6], [[7, 13], [2**70 + 1, 6 * 2**70 + 2]]),  # past the orders
        ([3, 1, 5], [[-4, 9, 2**64 + 3], [0, 1, 0], [-2**65, -1, 7]]),
    ])
    def test_translations_reduce_any_entry_of_v(self, orders, v):
        # the reference reduces every sum explicitly, in Python ints
        digits = np.unravel_index(np.arange(math.prod(orders)), orders)
        reference = np.array([np.ravel_multi_index(
            [((x.astype(object) + sign * a) % d).astype(np.int64)
             for x, a, d in zip(digits, row, orders)], orders)
            for row in v for sign in (1, -1)])
        order, columns = cosets._breadth_first(reference)
        built, codes = cosets._translations(orders, v)
        assert np.array_equal(built, columns) and np.array_equal(codes, order)

    def test_a_scan_and_fill_table_that_is_not_transitive(self,
                                                          monkeypatch):
        walk = cosets._breadth_first
        monkeypatch.setattr(cosets, "_breadth_first", lambda columns: (
            walk(columns)[0][:-1], walk(columns)[1]))
        with pytest.raises(InvariantError, match="not transitive"):
            todd_coxeter(F2, words(F2, ["a^3", "b^2", "a*b*a*b"]))

    def test_columns_are_one_read_only_int64_array(self):
        for name, p, extras, order in _enumeration_corpus():
            columns = todd_coxeter(p, extras).columns
            assert isinstance(columns, np.ndarray), name
            assert columns.dtype == np.int64, name
            assert columns.shape == (2 * p.generator_count, order), name
            assert not columns.flags.writeable, name
            with pytest.raises(ValueError):
                columns[0, 0] = columns[0, 1]
            assert np.array_equal(columns, slow_todd_coxeter(p, extras)), name

    def test_budget_counts_defined_cosets(self):
        genus2 = surface_genus2_complex().presentation
        extras = _abelian_stages(genus2, (6,))[0]
        budget = 4 * 1296
        assert todd_coxeter(genus2, extras, max_cosets=budget).coset_count \
            == 1296
        # the first-undefined-entry enumeration defines 12392 cosets
        with pytest.raises(EnumerationOverflowError):
            slow_todd_coxeter(genus2, extras, max_cosets=budget)

    def test_broken_table_fails_validation(self):
        table = todd_coxeter(F2, words(F2, ["a^3", "b^3", "a*b*a^-1*b^-1"]))
        columns = table.columns.copy()
        columns[1, [0, 1]] = columns[1, [1, 0]]
        with pytest.raises(InvariantError, match="inverse column"):
            cosets._validate_table(CosetTable(
                F2, table.extra_relators, columns))
        columns = table.columns.copy()
        columns[0:2] = columns[2:4]  # a acts as b, so a*b acts as b^2
        with pytest.raises(InvariantError, match="relator"):
            cosets._validate_table(CosetTable(
                F2, words(F2, ["a*b"]), columns))


class TestSeparationWalkOracle:
    """The identity-coset walk against the walk that carries every coset."""

    def _corpus(self):
        genus2 = surface_genus2_complex().presentation
        torus = presentation("ab", ["a*b*a^-1*b^-1"])
        cyclic = presentation("a", [])
        small = [
            (F2, _abelian_stages(F2, (2, 3, 4, 5))),
            (F2, [words(F2, ["a", "b^2"])]),
            (genus2, _abelian_stages(genus2, (2,))),
            (torus, [words(torus, ["a^2", "b^2"]),
                     words(torus, ["a^4", "b^4"])]),
            (cyclic, [words(cyclic, ["a^7"]), words(cyclic, ["a^49"])]),
        ]
        return small, [(genus2, _abelian_stages(genus2, (2, 3)))]

    def _check(self, p, stages, radius):
        chain = quotient_chain(p, stages, ball_radius=radius, warn=False)
        report = chain.separation
        assert (report.words_checked, report.failure_count,
                report.first_failure) == all_coset_separation(
                    p, [rep.table for rep in chain.representations],
                    radius)
        assert report.separated == (report.failure_count == 0)
        return report

    def test_every_radius_up_to_five(self):
        small, large = self._corpus()
        for p, stages in small + large:
            for radius in range(6):
                self._check(p, stages, radius)

    def test_radius_six_on_small_chains(self):
        small, _ = self._corpus()
        reports = [self._check(p, stages, 6) for p, stages in small]
        # genus-2 (Z/2)^4: many failures, and a level of the ball (19208
        # words) larger than one expansion of the walk
        assert reports[2].failure_count == 16776
        assert 19208 > cosets._WALK_BLOCK

    def test_small_blocks(self, monkeypatch):
        monkeypatch.setattr(cosets, "_WALK_BLOCK", 5)
        small, large = self._corpus()
        for p, stages in small[:3] + large:
            self._check(p, stages, 4)

    def test_corpus_chains(self):
        genus2 = surface_genus2_complex().presentation
        torus = presentation("ab", ["a*b*a^-1*b^-1"])
        cyclic = presentation("a", [])
        cases = [
            (F2, _abelian_stages(F2, (2, 3, 4, 5)), 3),
            (F2, _abelian_stages(F2, (2, 3)), 5),
            (F2, [words(F2, ["a", "b^2"])], 3),
            (genus2, _abelian_stages(genus2, (2, 3)), 4),
            (torus, [words(torus, ["a^2", "b^2"]),
                     words(torus, ["a^4", "b^4"])], 4),
            (cyclic, [words(cyclic, ["a^7"]), words(cyclic, ["a^49"])], 6),
        ]
        failing = 0
        for p, stages, radius in cases:
            chain = quotient_chain(p, stages, ball_radius=radius, warn=False)
            report = chain.separation
            assert (report.words_checked, report.failure_count,
                    report.first_failure) == all_coset_separation(
                        p, [rep.table for rep in chain.representations],
                        radius)
            assert report.separated == (report.failure_count == 0)
            failing += not report.separated
        assert failing >= 3
