"""Acceptance checks: the package's headline guarantees, end to end.

Nine numbered criteria, each with its own test and (where stated) a
runtime budget.  Every test prints one ``[PASS]``/``[FAIL]`` line (run
pytest with ``-s`` to see them alongside the verdicts):

1. rank-two free group: quotient Betti numbers m^2 + 1 and exact
   normalized ratios 5/4, 10/9, 17/16, 26/25 approaching 1;
2. unit trace discrepancy persisting across the abelianized chain,
   with decaying degree-one gaps;
3. genus-two surface complex: Betti numbers 34/164 and 1, Euler trace
   -2 per quotient, persistent degree-two obstruction, ghost decay;
4. Hodge dimension count, exact over the whole corpus;
5. projection algebra defect norms within tolerance on the corpus;
6. chain-complex identity under every corpus quotient and the
   free-derivative fundamental identity, both in exact arithmetic;
7. certificate verifier: accepts the order-three gap witness, rejects
   a tampered epsilon, accepts the squares form, soundness holds;
8. trace-ring membership vs a prime-factorization oracle, and integral
   limit candidates for the torsion-free corpus entries;
9. upper-bound sequences reaching the limiting normalized Betti values.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import exact_kernel_dim

from coholap import (
    BetaRef,
    Certificate,
    GroupRingElement,
    GroupRingMatrix,
    IdealWitness,
    Presentation,
    Representation,
    Word,
    betti_finite_quotient,
    box_obstruction_report,
    build_complex,
    build_laplacian,
    check_claim_soundness,
    cyclic_group_complex,
    cyclic_presentation,
    euler_class_trace,
    evaluate,
    exact,
    free_group_complex,
    free_presentation,
    ghost_diagnostic,
    higher_kazhdan_projection,
    l2_betti_upper_bounds,
    lambda_ring_membership,
    laplacian_operator,
    luck_approximation,
    presentation_differentials,
    quotient_chain,
    todd_coxeter,
    verify_certificate,
)

# ---------------------------------------------------------------------------
# The corpus: presentation complexes paired with finite quotients
# ---------------------------------------------------------------------------

CYCLIC = {m: cyclic_group_complex(m) for m in (3, 5, 8)}
LINE = free_group_complex(1)
FREE2 = free_group_complex(2)
TORUS = build_complex(Presentation(("a", "b"), (Word((1, 2, -1, -2)),)),
                      aspherical=True)
from coholap import surface_genus2_complex  # noqa: E402

GENUS2 = surface_genus2_complex()
S3 = build_complex(Presentation(
    ("a", "b"), (Word((1, 1)), Word((2, 2, 2)), Word((1, 2, 1, 2)))))


def abelianized_power_words(presentation, m):
    """Generator m-th powers plus all pairwise commutators."""
    names = presentation.generator_names
    words = [presentation.word(f"{g}^{m}") for g in names]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            words.append(presentation.word(
                f"{names[i]}*{names[j]}*{names[i]}^-1*{names[j]}^-1"))
    return words


def quotient_rep(presentation, words, label):
    table = todd_coxeter(presentation, tuple(words))
    return Representation.from_coset_table(table, label)


def regular_rep(presentation, label):
    return Representation.from_coset_table(todd_coxeter(presentation), label)


CORPUS = [
    ("cyclic-3", CYCLIC[3], regular_rep(CYCLIC[3].presentation, "Z/3")),
    ("cyclic-5", CYCLIC[5], regular_rep(CYCLIC[5].presentation, "Z/5")),
    ("cyclic-8", CYCLIC[8], regular_rep(CYCLIC[8].presentation, "Z/8")),
    ("line-Z/4", LINE,
     quotient_rep(LINE.presentation, [LINE.presentation.word("a^4")], "Z/4")),
    ("line-Z/6", LINE,
     quotient_rep(LINE.presentation, [LINE.presentation.word("a^6")], "Z/6")),
    ("free2-(Z/2)^2", FREE2,
     quotient_rep(FREE2.presentation,
                  abelianized_power_words(FREE2.presentation, 2), "(Z/2)^2")),
    ("free2-(Z/3)^2", FREE2,
     quotient_rep(FREE2.presentation,
                  abelianized_power_words(FREE2.presentation, 3), "(Z/3)^2")),
    ("torus-(Z/2)^2", TORUS,
     quotient_rep(TORUS.presentation,
                  [TORUS.presentation.word("a^2"),
                   TORUS.presentation.word("b^2")], "(Z/2)^2")),
    ("torus-(Z/4)^2", TORUS,
     quotient_rep(TORUS.presentation,
                  [TORUS.presentation.word("a^4"),
                   TORUS.presentation.word("b^4")], "(Z/4)^2")),
    ("genus2-(Z/2)^4", GENUS2,
     quotient_rep(GENUS2.presentation,
                  abelianized_power_words(GENUS2.presentation, 2),
                  "(Z/2)^4")),
    ("s3-regular", S3, regular_rep(S3.presentation, "S3")),
]

CHAIN_RADIUS = 3  # length-3 balls separate every chain used here


def free2_square_chain():
    stages = [abelianized_power_words(FREE2.presentation, m)
              for m in (2, 3, 4, 5)]
    return quotient_chain(FREE2.presentation, stages,
                          ball_radius=CHAIN_RADIUS)


def _criterion(number, description, body, limit=None):
    start = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - start
        if limit is not None:
            assert elapsed < limit, (
                f"runtime {elapsed:.1f}s exceeds the {limit}s budget")
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description}")


# ---------------------------------------------------------------------------
# The nine criteria
# ---------------------------------------------------------------------------


def test_criterion_1_free_group_betti_and_ratios():
    def body():
        luck = luck_approximation(FREE2, 1, free2_square_chain())
        assert [r.betti for r in luck.records] == [5, 10, 17, 26]
        assert [r.quotient_order for r in luck.records] == [4, 9, 16, 25]
        ratios = [r.ratio for r in luck.records]
        assert ratios == [Fraction(5, 4), Fraction(10, 9),
                          Fraction(17, 16), Fraction(26, 25)]
        # strictly decreasing toward the limit 1, never reaching it
        assert all(a > b > 1 for a, b in zip(ratios, ratios[1:]))

    _criterion(1, "rank-two free group: Betti numbers m^2+1, exact "
                  "ratios falling to 1", body, limit=10)


def test_criterion_2_trace_discrepancy_shadow():
    def body():
        report = box_obstruction_report(
            FREE2, 1, free2_square_chain(),
            BetaRef(value=Fraction(1), provenance="user-cited",
                    citation="closed form for the limiting ratio"))
        for record in report.records:
            order = record.quotient_order
            assert record.d_star_value == order + 1  # m^2 + 1
            assert record.lifted_value == order      # [G:N] * 1
            assert record.discrepancy == 1
        assert report.verdict == "persistent-discrepancy"
        assert report.gap_decay  # degree-1 gaps shrink along the chain
        gaps = [r.gap for r in report.records]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    _criterion(2, "unit trace discrepancy at every abelianized quotient, "
                  "decaying gaps", body, limit=10)


def test_criterion_3_surface_group_full_complex():
    def body():
        stages = [abelianized_power_words(GENUS2.presentation, m)
                  for m in (2, 3)]
        chain = quotient_chain(GENUS2.presentation, stages,
                               ball_radius=CHAIN_RADIUS)
        orders = []
        for _position, order, rep in chain.stages():
            orders.append(order)
            assert betti_finite_quotient(GENUS2, 1, rep) == 2 + 2 * order
            assert betti_finite_quotient(GENUS2, 2, rep) == 1
        assert orders == [16, 81]

        euler = euler_class_trace(GENUS2, chain)
        assert euler.euler_characteristic == -2
        assert euler.all_match
        assert all(r.euler_trace == -2 for r in euler.records)

        obstruction = box_obstruction_report(
            GENUS2, 2, chain,
            BetaRef(value=Fraction(0), provenance="user-cited",
                    citation="top-degree vanishing"))
        assert obstruction.verdict == "persistent-discrepancy"
        assert [r.discrepancy for r in obstruction.records] == [1, 1]

        ghost = ghost_diagnostic(GENUS2, 2, chain)
        assert ghost.ghost_like
        first, second = ghost.records
        assert first.max_abs_entry <= 1 / 16 + 1e-12
        assert second.max_abs_entry <= 1 / 81 + 1e-12

    _criterion(3, "genus-two complex: Betti 34/164 and 1, Euler trace -2, "
                  "persistent obstruction, ghost decay", body, limit=120)


def test_criterion_4_hodge_dimension_count():
    def body():
        failures = []
        for name, spec, rep in CORPUS:
            for degree in range(len(spec.cell_counts)):
                bundle = build_laplacian(spec, degree)
                full = evaluate(bundle.laplacian, rep)
                plus = evaluate(bundle.plus_part, rep)
                minus = evaluate(bundle.minus_part, rep)
                left = (exact_kernel_dim(plus.exact_matrix)
                        + exact_kernel_dim(minus.exact_matrix))
                right = full.rows + exact_kernel_dim(full.exact_matrix)
                if left != right:
                    failures.append((name, degree, left, right))
        assert failures == []

    _criterion(4, "dim ker(+) + dim ker(-) = dim + dim ker, exact, "
                  "zero failures on the corpus", body)


def test_criterion_5_projection_algebra():
    def body():
        for _name, spec, rep in CORPUS:
            for degree in range(len(spec.cell_counts)):
                proj = higher_kazhdan_projection(spec, degree, rep)
                op = laplacian_operator(spec, degree, rep)
                p = proj.projection.matrix
                assert proj.projection.idempotency_defect <= 1e-8
                assert (np.linalg.norm(op.shadow @ p, 2)
                        <= 1e-6 * proj.gap.gap)
                assert proj.product_defect <= 1e-6
                heat = higher_kazhdan_projection(spec, degree, rep,
                                                 method="heat")
                for eigen_part, heat_part in (
                        (proj.projection, heat.projection),
                        (proj.plus, heat.plus),
                        (proj.minus, heat.minus)):
                    assert np.linalg.norm(
                        eigen_part.matrix - heat_part.matrix, 2) <= 1e-6

    _criterion(5, "P^2 = P, Delta P = 0, p = p+ p-, heat = eigen, all "
                  "within tolerance on the corpus", body)


def test_criterion_6_chain_and_jacobian_identities():
    def body():
        # fundamental identity of the free derivative, in the free ring:
        # the Jacobian row applied to the column (1 - s) returns 1 - r,
        # i.e. sum_s (dr/ds)(s - 1) = r - 1 up to an overall sign
        one = GroupRingElement.one()
        for presentation in (cyclic_presentation(3), cyclic_presentation(5),
                             cyclic_presentation(8), TORUS.presentation,
                             GENUS2.presentation, S3.presentation):
            d0, d1 = presentation_differentials(presentation)
            composite = d1 @ d0
            for j, relator in enumerate(presentation.relators):
                expected = one - GroupRingElement.from_word(relator)
                assert composite.entry(j, 0) == expected

        # evaluated chain identity: consecutive differentials compose to
        # the exact zero matrix under every corpus quotient
        checked = 0
        for _name, spec, rep in CORPUS:
            top = len(spec.cell_counts) - 1
            for k in range(top - 1):
                lower = evaluate(spec.differential(k), rep)
                upper = evaluate(spec.differential(k + 1), rep)
                assert exact.is_zero(exact.matmul(upper.exact_matrix,
                                                  lower.exact_matrix))
                checked += 1
        assert checked >= 6

    _criterion(6, "d_(k+1) d_k = 0 under every corpus quotient; free "
                  "derivative rows recover 1 - r exactly", body)


def test_criterion_7_certificate_verifier():
    def body():
        z3 = cyclic_presentation(3)
        target = GroupRingMatrix.from_element(z3.degree_zero_laplacian())
        witness = IdealWitness(
            left=GroupRingMatrix.from_element(z3.element("4*a^-1 - 4*a^-2")),
            relator_index=0, right=GroupRingMatrix.identity(1))

        good = Certificate(z3, target, (1, -6), witnesses=[witness],
                           label="rotation-gap")
        good_report = verify_certificate(good)
        assert good_report.verified
        assert good_report.residual_terms == 0

        tampered = Certificate(z3, target, (1, -5), witnesses=[witness],
                               label="tampered")
        tampered_report = verify_certificate(tampered)
        assert not tampered_report.verified
        assert tampered_report.residual_terms > 0

        # squares form of the degree-zero operator: d0* d0 as one square
        f2 = free_presentation(2)
        (d0,) = presentation_differentials(f2)
        squares_cert = Certificate(f2, d0.adjoint() @ d0, (0, 1),
                                   squares=[d0], label="squares")
        squares_report = verify_certificate(squares_cert)
        assert squares_report.verified

        # soundness of the verified claims on every loaded representation
        for rep in (CORPUS[0][2], Representation.trivial(1)):
            op = evaluate(target, rep)
            assert check_claim_soundness(good_report, op).holds
        for _name, spec, rep in CORPUS:
            if spec.presentation.generator_count < 2:
                continue
            op = evaluate(squares_cert.target, rep)
            assert check_claim_soundness(squares_report, op).holds

    _criterion(7, "gap witness accepted, tamper rejected with residual, "
                  "squares form accepted, soundness holds", body, limit=1)


def test_criterion_8_trace_ring_membership():
    def prime_factors(n):
        factors, d = set(), 2
        while d * d <= n:
            while n % d == 0:
                factors.add(d)
                n //= d
            d += 1
        if n > 1:
            factors.add(n)
        return factors

    def body():
        orders = [24]  # admissible primes {2, 3}
        allowed = prime_factors(24)
        for denominator in range(1, 101):
            expected = prime_factors(denominator) <= allowed
            for numerator in (1, 7, denominator + 1):
                value = Fraction(numerator, denominator)
                got = lambda_ring_membership(value, orders)
                # the reduced denominator is what matters, so membership
                # may only widen when the fraction cancels
                reduced = prime_factors(value.denominator) <= allowed
                assert got == reduced
                if value.denominator == denominator:
                    assert got == expected

        # torsion-free corpus entries: every limit candidate is integral
        chains = [
            (LINE, [["a^4"], ["a^6"]]),
            (FREE2, [abelianized_power_words(FREE2.presentation, 2),
                     abelianized_power_words(FREE2.presentation, 3)]),
            (TORUS, [["a^2", "b^2"], ["a^4", "b^4"]]),
            (GENUS2, [abelianized_power_words(GENUS2.presentation, 2),
                      abelianized_power_words(GENUS2.presentation, 3)]),
        ]
        limits = []
        for spec, stages in chains:
            words = [[w if isinstance(w, Word) else spec.presentation.word(w)
                      for w in stage] for stage in stages]
            chain = quotient_chain(spec.presentation, words,
                                   ball_radius=CHAIN_RADIUS)
            luck = luck_approximation(spec, 1, chain)
            assert luck.extrapolated is not None
            assert luck.extrapolated.denominator == 1
            limits.append(luck.extrapolated)
        assert limits == [0, 1, 0, 2]

    _criterion(8, "membership matches the factorization oracle for all "
                  "denominators <= 100; torsion-free limits integral", body)


def test_criterion_9_upper_bound_sequence():
    def body():
        z5 = l2_betti_upper_bounds(CYCLIC[5], 0, m_max=16)
        assert z5.backend == "finite-regular"
        assert abs(float(z5.values[-1]) - 0.2) <= 1e-3

        f2 = l2_betti_upper_bounds(FREE2, 1, m_max=12)
        assert f2.backend == "free-ring"
        assert f2.norm_bound == 8
        assert len(f2.values) == 12
        assert all(a >= b for a, b in zip(f2.values, f2.values[1:]))
        assert all(float(v) >= 1 - 1e-12 for v in f2.values)

    _criterion(9, "finite-quotient sequence reaches 1/5 within 1e-3; "
                  "free sequence nonincreasing and >= 1", body, limit=30)
