"""The character form of abelian quotients against the dense path.

A regular representation rebuilt from the same permutations but without
its coset table always takes the dense path, so every operator below is
evaluated twice, once each way, and the two must agree: exactly on every
integer and exact check, bit for bit on the lazily built shadow, and to
1e-9 on the eigenvalue-derived floats.  Rational operators, the integral
ones scaled, take the character form too.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import slow_word_perm

from coholap import (
    GapClaim,
    GroupRingElement,
    GroupRingMatrix,
    InvariantError,
    Presentation,
    QuotientChain,
    Representation,
    ShapeMismatchError,
    SizeBudgetError,
    Word,
    build_complex,
    build_laplacian,
    check_claim_soundness,
    evaluate,
    free_group_complex,
    ghost_diagnostic,
    heat_projection,
    higher_kazhdan_projection,
    kernel_projection,
    spectral_gap,
    surface_genus2_complex,
    todd_coxeter,
)
from coholap import cosets, exact, pipeline

TORUS = build_complex(Presentation(("a", "b"), (Word((1, 2, -1, -2)),)),
                      aspherical=True)
FREE2 = free_group_complex(2)
GENUS2 = surface_genus2_complex()
HALF, TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)


def abelian_words(names, m):
    """m-th powers of the generators and all their commutators."""
    return [f"{x}^{m}" for x in names] + [
        f"{x}*{y}*{x}^-1*{y}^-1"
        for i, x in enumerate(names) for y in names[i + 1:]]


def quotient(spec, extra):
    return Representation.from_coset_table(
        todd_coxeter(spec.presentation, extra))


def dense_twin(rep):
    """The same permutations with no coset table: the dense path."""
    return Representation(rep.dimension, perms=rep.perms, label=rep.label)


CORPUS = [
    *[(f"genus2-(Z/{m})^4", GENUS2, abelian_words("abcd", m))
      for m in (2, 3, 4)],
    *[(f"free2-(Z/{m})^2", FREE2, abelian_words("ab", m))
      for m in range(2, 21)],
    ("torus-(Z/2)^2", TORUS, ["a^2", "b^2"]),
    ("torus-(Z/4)^2", TORUS, ["a^4", "b^4"]),
    ("torus-Z/2xZ/6", TORUS, ["a^2", "b^6"]),
    ("torus-Z/5xZ/5", TORUS, ["a^5", "b^5"]),
    ("torus-trivial", TORUS, ["a", "b"]),
    # abelian, but no relator is a commutator: enumerated by scan-and-fill
    ("free2-klein-enumerated", FREE2, ["a^2", "b^2", "a*b*a*b"]),
    ("free2-Z/2xZ/6-enumerated", FREE2, ["a^2", "b^6", "a*b*a*b^-1"]),
]


def convolution_grid(op, rep):
    """The dense grid read off the coefficients: block (i, j) holds
    v_ij[phi(y) - phi(x)] in row y, column x."""
    orders, codes = rep.table.characters
    phi = np.stack(np.unravel_index(codes, orders))  # one row per order
    offsets = (phi[:, :, None] - phi[:, None, :]) % np.array(orders)[:, None,
                                                                      None]
    flat = np.ravel_multi_index(tuple(offsets), orders)
    rows, cols = op.coefficients.shape[:2]
    v = op.coefficients.reshape(rows, cols, -1)
    return np.block([[v[i, j][flat] for j in range(cols)]
                     for i in range(rows)])


def agree(x: float, y: float, integral: bool) -> bool:
    """Equal for an integral operator.  A rational character form sums
    its kernels' floats in another order than the dense columns, so its
    one-norm, and the scale and threshold read from it, may differ in the
    last bit."""
    return x == y if integral else math.isclose(x, y, rel_tol=1e-12)


def operators(spec):
    """Laplacians and their parts, differentials (rectangular) and the
    chain-identity products d d, all of one complex."""
    out = []
    for degree in range(spec.top_degree + 1):
        bundle = build_laplacian(spec, degree)
        out += [bundle.laplacian, bundle.plus_part, bundle.minus_part]
    ds = [spec.differential(n) for n in range(spec.top_degree)]
    return out, ds + [b @ a for a, b in zip(ds, ds[1:])]


@pytest.mark.parametrize("name, spec, extra", CORPUS,
                         ids=[name for name, *_ in CORPUS])
def test_character_form_matches_the_dense_path(name, spec, extra):
    rep = quotient(spec, extra)
    dense = dense_twin(rep)
    assert rep.table.characters is not None
    laplacians, others = operators(spec)

    def twins(matrices, integral):
        return [(evaluate(m, rep), evaluate(m, dense), integral)
                for m in matrices]

    square = (twins(laplacians, True)
              + twins([m.scale(HALF) for m in laplacians], False))
    for fast, slow, integral in square:
        assert (fast.backend, slow.backend) == ("characters", "dense")
        a, b = spectral_gap(fast), spectral_gap(slow)
        assert (a.backend, b.backend) == ("characters", "dense")
        for field in ("kernel_dim", "dimension", "resolved"):
            assert getattr(a, field) == getattr(b, field), field
        for field in ("scale", "threshold"):
            assert agree(getattr(a, field), getattr(b, field), integral), field
        assert abs(a.gap - b.gap) <= 1e-9 or a.gap == b.gap
        assert len(a.lowest) == len(b.lowest)
        assert all(abs(x - y) <= 1e-9 for x, y in zip(a.lowest, b.lowest))
    for fast, slow, integral in square + twins(others, True):
        assert (fast.rows, fast.cols) == (slow.rows, slow.cols)
        assert agree(fast.one_norm(), slow.one_norm(), integral)
        assert fast.is_symmetric_exact() == slow.is_symmetric_exact()
        assert fast.is_zero_exact() == slow.is_zero_exact()
        assert fast.shadow.dtype == slow.shadow.dtype
        assert fast.shadow.tobytes() == slow.shadow.tobytes()
        if integral:  # the halves share the integral operators' layout
            assert np.array_equal(convolution_grid(fast, rep), slow.shadow)
        assert fast.exact_matrix == slow.exact_matrix


@pytest.mark.parametrize("name, spec, extra", CORPUS,
                         ids=[name for name, *_ in CORPUS])
def test_coefficients_match_the_word_perm_route(name, spec, extra):
    """The coset-0 walk of ``evaluate`` against reading coset 0's image
    off the whole permutation pi(word), composed by an oracle that does
    not walk the table."""
    rep = quotient(spec, extra)
    orders, codes = rep.table.characters
    laplacians, others = operators(spec)
    for matrix in laplacians + others:
        v = np.zeros((matrix.rows, matrix.cols, rep.dimension),
                     dtype=np.int64)
        for i in range(matrix.rows):
            for j in range(matrix.cols):
                for word, coeff in matrix.entry(i, j).terms():
                    v[i, j, codes[slow_word_perm(rep, word)[0]]] += (
                        coeff.numerator)
        op = evaluate(matrix, rep)
        assert op.backend == "characters"
        assert np.array_equal(
            op.coefficients, v.reshape(matrix.rows, matrix.cols, *orders))


def test_float_kernels_are_converted_once():
    rep = quotient(TORUS, ["a^2", "b^6"])
    laplacian = build_laplacian(TORUS, 1).laplacian
    rational = evaluate(laplacian.scale(HALF), rep)
    floats = rational._numeric_coefficients()
    assert rational.coefficients.dtype == object
    assert floats.dtype == np.float64
    assert rational._numeric_coefficients() is floats
    integral = evaluate(laplacian, rep)
    assert integral._numeric_coefficients() is integral.coefficients


def test_a_rational_one_norm_is_the_exact_column_sum_rounded_once():
    """Each column of (a + b + ab)/10 holds three tenths: summed as
    floats they give 0.30000000000000004, rounded once 0.3."""
    rep = quotient(TORUS, ["a^3", "b^4"])
    a, b = GroupRingElement.generator(1), GroupRingElement.generator(2)
    matrix = GroupRingMatrix.from_element(a + b + a * b).scale(
        Fraction(1, 10))
    fast, slow = evaluate(matrix, rep), evaluate(matrix, dense_twin(rep))
    assert (fast.backend, slow.backend) == ("characters", "dense")
    assert fast.coefficients.dtype == slow.coefficients.dtype == object
    exact_max = max(sum(abs(x) for x in column)
                    for column in slow.exact_matrix.array.T)
    assert exact_max == Fraction(3, 10)
    assert fast.one_norm() == slow.one_norm() == float(exact_max) == 0.3


def test_checks_see_asymmetric_and_nonzero_operators():
    rep = quotient(TORUS, ["a^3", "b^4"])
    dense = dense_twin(rep)
    a, b = GroupRingElement.generator(1), GroupRingElement.generator(2)
    for element in (a, a - b, 2 * a * b - a.star()):
        matrix = GroupRingMatrix.from_element(element)
        fast, slow = evaluate(matrix, rep), evaluate(matrix, dense)
        assert not fast.is_symmetric_exact()
        assert not slow.is_symmetric_exact()
        assert not fast.is_zero_exact() and not slow.is_zero_exact()
        assert fast.one_norm() == slow.one_norm()
    d = evaluate(TORUS.differential(0), rep)  # rectangular
    assert d.rows != d.cols and not d.is_symmetric_exact()


@pytest.mark.parametrize("relators", [
    ["a^2", "b^3", "a*b*a*b*a*b*a*b"],                      # S4
    ["a^2", "b^3", "a*b*a*b*a*b*a*b*a*b*a*b*a*b",
     "a*b*a^-1*b^-1*a*b*a^-1*b^-1*a*b*a^-1*b^-1*a*b*a^-1*b^-1"],  # PSL(2,7)
], ids=["S4", "PSL(2,7)"])
def test_non_abelian_stages_take_the_dense_path(relators):
    presentation = Presentation(("a", "b"), ())
    rep = Representation.from_coset_table(
        todd_coxeter(presentation, relators))
    assert rep.dimension in (24, 168)
    assert rep.table.characters is None
    laplacian = build_laplacian(FREE2, 1).laplacian
    op = evaluate(laplacian, rep)
    assert op.backend == "dense"
    assert spectral_gap(op).backend == "dense"


def test_the_table_carries_read_only_codes():
    table = todd_coxeter(FREE2.presentation, abelian_words("ab", 4))
    orders, codes = table.characters
    assert orders == (4, 4)
    assert sorted(codes.tolist()) == list(range(16))
    assert not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0] = codes[1]
    rep = Representation.from_coset_table(table)
    laplacian = build_laplacian(FREE2, 0).laplacian
    assert evaluate(laplacian, rep).backend == "characters"
    assert evaluate(laplacian, dense_twin(rep)).backend == "dense"


class TestCorruptedCoordinates:
    """Every fault in the coordinates raises before a table exists."""

    RELATORS = ["a^2", "b^4", "a*b*a^-1*b^-1"]  # Z/2 x Z/4, |Q| = 8
    U = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def build_with(self, monkeypatch, orders, v, match):
        monkeypatch.setattr(cosets, "_diagonal_form",
                            lambda rows, n: (orders, self.U, v))
        with pytest.raises(InvariantError, match=match):
            todd_coxeter(FREE2.presentation, self.RELATORS)

    def test_true_form(self):
        orders, u, v = cosets._diagonal_form([[2, 0], [0, 4], [0, 0]], 2)
        assert orders == [2, 4] and u == self.U and v == [[1, 0], [0, 1]]

    def test_orders_that_miss_the_quotient_order(self, monkeypatch):
        # Z/2 x Z/2 satisfies every relator: only the certificate sees it
        self.build_with(monkeypatch, [2, 2], [[1, 0], [0, 1]],
                        "do not certify the abelian invariants")

    def test_images_that_break_a_relator(self, monkeypatch):
        # a (order 2) goes to (1, 1), of order 4: spread from coset 0,
        # phi is still a bijection, but phi(x * a) = phi(x) + (1, 1) fails
        self.build_with(monkeypatch, [2, 4], [[1, 1], [0, 1]], "relator")

    def test_coordinates_that_are_not_a_bijection(self, monkeypatch):
        # b goes to 2 in Z/4: consistent with every relator, not onto
        self.build_with(monkeypatch, [2, 4], [[1, 0], [0, 2]], "reach")


@pytest.mark.parametrize("method", ["eigen", "heat"])
@pytest.mark.parametrize("name, spec, extra", CORPUS,
                         ids=[name for name, *_ in CORPUS])
def test_projections_match_the_dense_path(name, spec, extra, method):
    rep = quotient(spec, extra)
    dense = dense_twin(rep)
    for degree in range(spec.top_degree + 1):
        fast = higher_kazhdan_projection(spec, degree, rep, method=method)
        slow = higher_kazhdan_projection(spec, degree, dense, method=method)
        for part in ("gap", "gap_plus", "gap_minus"):
            a, b = getattr(fast, part), getattr(slow, part)
            assert a.kernel_dim == b.kernel_dim
            assert (a.backend, b.backend) == ("characters", "dense")
        # ker Delta^+ = ker d_n and ker Delta^- = ker d_(n-1)*
        dim = fast.projection.dimension
        for n, part in ((degree, "gap_plus"), (degree - 1, "gap_minus")):
            d = spec.differential(n)
            for result in (fast, slow):
                gap = getattr(result, part)
                rank = 0 if d is None else np.linalg.matrix_rank(
                    evaluate(d, dense).shadow, tol=math.sqrt(gap.threshold))
                assert gap.kernel_dim == dim - rank
        assert fast.product_defect <= 1e-12
        assert slow.product_defect <= 1e-12
        for a, b in ((fast.projection, slow.projection),
                     (fast.plus, slow.plus), (fast.minus, slow.minus)):
            assert (a.backend, b.backend) == ("characters", "dense")
            assert a.method == b.method == method
            assert a.dimension == b.dimension
            assert abs(a.trace() - b.trace()) <= 1e-9
            assert abs(a.max_abs_entry() - b.max_abs_entry()) <= 1e-9
            assert np.linalg.norm(a.matrix - b.matrix, 2) <= 1e-9
            for p in (a, b):
                assert p.idempotency_defect <= 1e-12
                assert p.selfadjoint_defect <= 1e-12


RATIONAL_PROJECTION_CORPUS = [case for case in CORPUS if case[0] in (
    "genus2-(Z/2)^4", "genus2-(Z/3)^4", "torus-Z/2xZ/6",
    "free2-klein-enumerated")]


@pytest.mark.parametrize("name, spec, extra", RATIONAL_PROJECTION_CORPUS,
                         ids=[name for name, *_ in RATIONAL_PROJECTION_CORPUS])
def test_projections_of_rational_operators_match_the_dense_path(name, spec,
                                                                extra):
    rep = quotient(spec, extra)
    dense = dense_twin(rep)
    for degree in range(spec.top_degree + 1):
        half = build_laplacian(spec, degree).laplacian.scale(HALF)
        fast, slow = evaluate(half, rep), evaluate(half, dense)
        assert (fast.backend, slow.backend) == ("characters", "dense")
        for project in (kernel_projection, heat_projection):
            a, b = project(fast), project(slow)
            assert (a.backend, b.backend) == ("characters", "dense")
            assert abs(a.trace() - b.trace()) <= 1e-9
            assert abs(a.max_abs_entry() - b.max_abs_entry()) <= 1e-9


GHOST_CORPUS = [case for case in CORPUS if case[0] in (
    "genus2-(Z/2)^4", "genus2-(Z/3)^4", "free2-(Z/3)^2", "torus-Z/2xZ/6",
    "torus-trivial", "free2-klein-enumerated")]


@pytest.mark.parametrize("method", ["eigen", "heat"])
@pytest.mark.parametrize("name, spec, extra", GHOST_CORPUS,
                         ids=[name for name, *_ in GHOST_CORPUS])
def test_ghost_projects_delta_n_alone(monkeypatch, name, spec, extra,
                                      method):
    """One quotient as two stages, one per form: each ghost record is the
    p_n of ``higher_kazhdan_projection``, and ghost evaluates d_n and
    d_(n-1) for the exact check, then Delta_n, and no Delta_n^+-."""
    rep = quotient(spec, extra)
    chain = QuotientChain(spec.presentation, (rep, dense_twin(rep)), None)
    evaluated, evaluate = [], pipeline.evaluate

    def spy(matrix, rep, provenance=""):
        evaluated.append(provenance.split("@")[0])
        return evaluate(matrix, rep, provenance)

    monkeypatch.setattr(pipeline, "evaluate", spy)
    for degree in range(spec.top_degree + 1):
        evaluated.clear()
        ghost = ghost_diagnostic(spec, degree, chain, method=method)
        checked = 0 < degree < len(spec.differentials)
        assert evaluated == ([f"d_{degree}", f"d_{degree - 1}"] * checked
                             + [f"Delta_{degree}"]) * 2
        assert [r.backend for r in ghost.records] == ["characters", "dense"]
        for record, stage in zip(ghost.records, chain.representations):
            p = higher_kazhdan_projection(spec, degree, stage,
                                          method=method).projection
            assert (record.max_abs_entry, record.trace, record.backend) == (
                p.max_abs_entry(), p.trace(), p.backend)


@pytest.mark.parametrize("name, spec, extra", CORPUS,
                         ids=[name for name, *_ in CORPUS])
def test_soundness_and_gap_share_one_zero_threshold(name, spec, extra):
    claim = GapClaim("psd", "psd-only", None, "", True,
                     (Fraction(0), Fraction(1)))
    rep = quotient(spec, extra)
    for degree in range(spec.top_degree + 1):
        for stage in (rep, dense_twin(rep)):
            op = evaluate(build_laplacian(spec, degree).laplacian, stage)
            for tolerance in (1e-8, 1e-6):
                check = check_claim_soundness(claim, op, tolerance)
                assert check.holds
                assert (check.zero_threshold
                        == spectral_gap(op, tolerance).threshold)


@pytest.mark.parametrize("name, spec, extra", CORPUS,
                         ids=[name for name, *_ in CORPUS])
def test_exact_product_check_matches_the_dense_product(name, spec, extra):
    """The oracle is the dense exact product of the integral operators.
    Scaling by 2/3 keeps every zero, so it is the oracle of the rational
    character forms too, whose dense product would be slow."""
    rep = quotient(spec, extra)
    dense = dense_twin(rep)
    for degree in range(spec.top_degree + 1):
        bundle = build_laplacian(spec, degree)
        plus, minus = bundle.plus_part, bundle.minus_part
        for left, right in ((plus, minus), (plus, plus),
                            (minus, bundle.laplacian)):
            oracle = exact.is_zero(exact.matmul(
                evaluate(left, dense).exact_matrix,
                evaluate(right, dense).exact_matrix))
            for backend in (rep, dense):
                product_is_zero = evaluate(left, backend).product_is_zero_exact(
                    evaluate(right, backend))
                assert product_is_zero == oracle
            if left is plus:  # rational Delta^+ Delta^- and Delta^+ Delta^+
                thirds = [evaluate(m.scale(TWO_THIRDS), rep)
                          for m in (left, right)]
                assert thirds[0].backend == "characters"
                assert thirds[0].product_is_zero_exact(thirds[1]) == oracle
        # one operator in character form, the other dense: two quotients
        fast, slow = evaluate(plus, rep), evaluate(minus, dense)
        for left, right in ((fast, slow), (slow, fast)):
            with pytest.raises(ShapeMismatchError, match="quotients"):
                left.product_is_zero_exact(right)
        assert evaluate(plus, rep).product_is_zero_exact(evaluate(minus, rep))
        # Delta^+ is self-adjoint: its square vanishes only when it does
        assert (evaluate(plus, rep).product_is_zero_exact(evaluate(plus, rep))
                == evaluate(plus, rep).is_zero_exact())


def test_a_projection_wider_than_the_budget_refuses_its_matrix():
    # genus 2 over (Z/6)^4 in degree 1: 5184 wide, projected on characters
    rep = quotient(GENUS2, abelian_words("abcd", 6))
    projection = higher_kazhdan_projection(GENUS2, 1, rep).projection
    assert projection.backend == "characters"
    assert abs(projection.trace() - 2594) < 1e-6
    with pytest.raises(SizeBudgetError, match="5184"):
        _ = projection.matrix


def test_a_rational_laplacian_past_the_dense_budget():
    # genus 2 over (Z/16)^4 in degree 1: 262144 wide, held in character
    # form although its coefficients are halves
    rep = quotient(GENUS2, abelian_words("abcd", 16))
    half = build_laplacian(GENUS2, 1).laplacian.scale(HALF)
    report = spectral_gap(evaluate(half, rep))
    assert report.backend == "characters"
    assert report.kernel_dim == 131074
    assert abs(report.gap - 0.0761204675) <= 1e-9
