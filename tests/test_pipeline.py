"""Betti numbers, trace bounds, Euler traces, and chain diagnostics.

Oracles used here and nowhere else in the library:

* exact kernel dimensions from Fraction-arithmetic Gaussian elimination;
* covering-space Euler counts (a degree-d cover of a wedge of two
  circles has first Betti number d + 1, a degree-d cover of the genus-2
  surface has 2 + 2d);
* closed-walk counts on the 4-regular tree from a distance-profile
  recursion, which give the free-group trace of adjacency powers.
"""

import json
import math
import signal
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

from conftest import (
    exact_kernel_dim,
    projection_distance,
    random_element,
    slow_free_power_traces,
    slow_upper_bounds,
    tree_walk_counts,
)

from coholap import (
    BetaRef,
    Certificate,
    ChainIdentityError,
    GapClaim,
    GroupRingElement,
    GroupRingMatrix,
    IdealWitness,
    IncompleteComplexError,
    InvariantError,
    MalformedInputError,
    Presentation,
    Representation,
    TraceBackendError,
    Word,
    betti_finite_quotient,
    betti_report,
    box_obstruction_report,
    build_complex,
    build_laplacian,
    cyclic_group_complex,
    cyclic_presentation,
    euler_class_trace,
    evaluate,
    free_group_complex,
    ghost_diagnostic,
    higher_kazhdan_projection,
    l2_betti_upper_bounds,
    lambda_ring_membership,
    luck_approximation,
    quotient_chain,
    surface_genus2_complex,
    todd_coxeter,
)
from coholap import pipeline, spectral
from coholap.pipeline import (_exact_dot, _free_power_traces,
                              _regular_power_traces)


def torus_complex():
    return build_complex(
        Presentation(("a", "b"), (Word((1, 2, -1, -2)),)), aspherical=True)


def s4_complex():
    # S4 = <a, b | a^2, b^3, (ab)^4>, truncated at its relator cells
    return build_complex(Presentation(
        ("a", "b"), (Word((1, 1)), Word((2, 2, 2)), Word((1, 2) * 4))))


def regular_rep(presentation, extra):
    return Representation.from_coset_table(todd_coxeter(presentation, extra))


def square_quotient_words(m):
    return [f"a^{m}", f"b^{m}", "a*b*a^-1*b^-1"]


def genus2_abelian_words(m):
    """Relators of the quotient (Z/m)^4 of the genus-2 surface group."""
    commutators = [f"{x}*{y}*{x}^-1*{y}^-1"
                   for i, x in enumerate("abcd") for y in "abcd"[i + 1:]]
    return [f"{x}^{m}" for x in "abcd"] + commutators


def chain_of_squares(presentation, orders, **kwargs):
    kwargs.setdefault("warn", False)
    return quotient_chain(
        presentation, [square_quotient_words(m) for m in orders], **kwargs)


class TestBettiNumbers:
    @pytest.mark.parametrize("m", [2, 3])
    def test_free_cover_rank(self, m):
        # index-d subgroups of a rank-2 free group are free of rank d + 1
        spec = free_group_complex(2)
        rep = regular_rep(spec.presentation, square_quotient_words(m))
        assert betti_finite_quotient(spec, 1, rep) == m * m + 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_torus_cover_betti(self, m):
        spec = torus_complex()
        rep = regular_rep(spec.presentation, square_quotient_words(m))
        assert betti_finite_quotient(spec, 0, rep) == 1
        assert betti_finite_quotient(spec, 1, rep) == 2
        assert betti_finite_quotient(spec, 2, rep) == 1

    def test_genus2_cover_betti(self):
        spec = surface_genus2_complex()
        rep = regular_rep(spec.presentation, genus2_abelian_words(2))
        assert rep.dimension == 16
        # a degree-16 cover of the genus-2 surface has genus 17
        assert betti_finite_quotient(spec, 0, rep) == 1
        assert betti_finite_quotient(spec, 1, rep) == 34
        assert betti_finite_quotient(spec, 2, rep) == 1

    def test_dense_report_peaks_near_two_copies_of_the_laplacian(self):
        # genus-2 (Z/4)^4, degree 1: Delta_1 is 1024 x 1024.  The integer
        # operator is held once, as its exact float64 shadow, and the
        # eigensolver's working copy is the second array
        spec = surface_genus2_complex()
        rep = regular_rep(spec.presentation, genus2_abelian_words(4))
        n = 4 * rep.dimension
        tracemalloc.start()
        try:
            kernel_dim, _ = betti_report(spec, 1, rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (n, kernel_dim) == (1024, 514)
        assert peak < 2.5 * 8 * n * n

    def test_matches_exact_kernel_dimension(self):
        cases = [
            (torus_complex(), 1, square_quotient_words(2)),
            (torus_complex(), 2, square_quotient_words(3)),
            (free_group_complex(2), 1, square_quotient_words(2)),
            (cyclic_group_complex(4), 1, []),
            (cyclic_group_complex(5), 2, []),
        ]
        for spec, degree, extra in cases:
            rep = regular_rep(spec.presentation, extra)
            op = evaluate(build_laplacian(spec, degree).laplacian, rep)
            oracle = exact_kernel_dim(op.exact_matrix)
            assert betti_finite_quotient(spec, degree, rep) == oracle

    def test_report_carries_resolved_gap(self):
        spec = torus_complex()
        rep = regular_rep(spec.presentation, square_quotient_words(2))
        kernel_dim, report = betti_report(spec, 1, rep)
        assert kernel_dim == 2
        assert report.resolved
        assert report.gap > 0


class TestKazhdanProjections:
    def test_torus_degree_one_traces(self):
        spec = torus_complex()
        rep = regular_rep(spec.presentation, square_quotient_words(2))
        bundle = higher_kazhdan_projection(spec, 1, rep)
        trace, trace_plus, trace_minus = bundle.traces()
        # Hodge counts: dim ker d_1 = 5, dim ker d_0* = 5, overlap 2
        assert abs(trace - 2.0) < 1e-8
        assert abs(trace_plus - 5.0) < 1e-8
        assert abs(trace_minus - 5.0) < 1e-8
        assert bundle.product_defect < 1e-8

    def test_degree_zero_entry_profile(self):
        spec = torus_complex()
        for m, expected in ((2, 0.25), (4, 0.0625)):
            rep = regular_rep(spec.presentation, square_quotient_words(m))
            bundle = higher_kazhdan_projection(spec, 0, rep)
            assert abs(bundle.projection.max_abs_entry() - expected) < 1e-9
            assert abs(bundle.projection.trace() - 1.0) < 1e-9

    def test_heat_method_agrees_with_eigen(self):
        spec = torus_complex()
        rep = regular_rep(spec.presentation, square_quotient_words(2))
        eigen = higher_kazhdan_projection(spec, 1, rep, method="eigen")
        heat = higher_kazhdan_projection(spec, 1, rep, method="heat")
        assert projection_distance(eigen.projection, heat.projection) < 1e-6
        assert projection_distance(eigen.plus, heat.plus) < 1e-6
        assert projection_distance(eigen.minus, heat.minus) < 1e-6

    def test_unknown_method_rejected(self):
        spec = torus_complex()
        rep = regular_rep(spec.presentation, square_quotient_words(2))
        with pytest.raises(MalformedInputError):
            higher_kazhdan_projection(spec, 1, rep, method="newton")

    def test_a_non_complex_fails_the_product_check(self):
        # d_2 = [[1]] after d_1 = [[1 + a]] on <a | a^2>: d_2 d_1 = 1 + a
        # does not vanish
        spec = top_complex(cyclic_group_complex(2), "1")
        rep = regular_rep(spec.presentation, ["a^2"])
        with pytest.raises(InvariantError, match="nonzero under 'regular"):
            higher_kazhdan_projection(spec, 2, rep)

    def test_a_non_complex_is_refused_before_any_eigenvalue(self,
                                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an eigenvalue was computed")

        for module, name in ((pipeline, "spectral_gap"),
                             (spectral, "spectral_gap"),
                             (np.linalg, "eigvalsh"), (np.linalg, "eigh")):
            monkeypatch.setattr(module, name, refuse)
        spec = top_complex(cyclic_group_complex(2), "1")
        rep = regular_rep(spec.presentation, ["a^2"])
        with pytest.raises(InvariantError, match="d_2 d_1 is nonzero"):
            higher_kazhdan_projection(spec, 2, rep)

    def test_a_dense_stage_solves_once_per_gap(self, monkeypatch):
        # genus 2 onto S4 in degree 1: Delta, Delta^+ and Delta^- are
        # all nonzero and dense; no defect is computed until it is read
        spec = surface_genus2_complex()
        rep = regular_rep(spec.presentation, ["a*d^-1", "b*c^-1", "a^2",
                                              "b^3", "a*b*a*b*a*b*a*b"])
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: (
            shapes.append(m.shape) or eigvalsh(m)))
        bundle = higher_kazhdan_projection(spec, 1, rep)
        assert bundle.projection.backend == "dense"
        assert shapes == [(1, 96, 96)] * 3
        assert bundle.projection.idempotency_defect < 1e-8
        assert shapes == [(1, 96, 96)] * 4

    @pytest.mark.parametrize("method", ["eigen", "heat"])
    @pytest.mark.parametrize("stage", ["dense-S4", "characters-(Z/2)^4"])
    def test_no_defect_runs_an_svd(self, monkeypatch, stage, method):
        # genus 2 onto the first stage of the non-abelian demo chain, and
        # onto (Z/2)^4; every defect norm is a Hermitian eigensolve
        spec = surface_genus2_complex()
        path = Path(__file__).parents[1] / "demos" / "specs"
        extra = (json.loads((path / "genus2_nonabelian_chain.json").read_text())
                 ["chain"][0] if stage == "dense-S4" else genus2_abelian_words(2))
        rep = regular_rep(spec.presentation, extra)
        # np.linalg.norm reaches the SVD through numpy.linalg's own module
        inner = sys.modules.get("numpy.linalg._linalg",
                                sys.modules.get("numpy.linalg.linalg"))
        svd, calls = np.linalg.svd, []
        for module in {np.linalg, inner}:
            monkeypatch.setattr(module, "svd", lambda *args, **kwargs: (
                calls.append(1) or svd(*args, **kwargs)))
        bundle = higher_kazhdan_projection(spec, 1, rep, method=method)
        assert bundle.projection.backend == stage.split("-")[0]
        assert bundle.product_defect < 1e-8
        assert bundle.projection.idempotency_defect < 1e-8
        assert bundle.projection.selfadjoint_defect < 1e-8
        assert calls == []


class TestLuckApproximation:
    def test_free_group_ratios(self):
        spec = free_group_complex(2)
        chain = chain_of_squares(spec.presentation, [2, 3])
        report = luck_approximation(spec, 1, chain)
        assert report.ratios == (Fraction(5, 4), Fraction(10, 9))
        assert report.tail_estimates == (Fraction(5, 36),)
        # Betti growth is exactly affine in the index, so the slope
        # recovers the limiting normalized value
        assert report.extrapolated == Fraction(1)

    def test_torus_ratios_vanish(self):
        spec = torus_complex()
        chain = chain_of_squares(spec.presentation, [2, 4])
        report = luck_approximation(spec, 1, chain)
        assert report.ratios == (Fraction(1, 2), Fraction(1, 8))
        assert report.extrapolated == Fraction(0)

    def test_single_stage(self):
        spec = torus_complex()
        chain = chain_of_squares(spec.presentation, [2])
        report = luck_approximation(spec, 1, chain)
        assert report.extrapolated == Fraction(1, 2)
        assert report.tail_estimates == ()
        assert "single stage" in report.extrapolation_note

    def test_records_fields(self):
        spec = free_group_complex(2)
        chain = chain_of_squares(spec.presentation, [2, 3])
        report = luck_approximation(spec, 1, chain)
        first = report.records[0]
        assert (first.position, first.quotient_order, first.betti) == (0, 4, 5)
        assert first.gap > 0


class TestUpperBounds:
    def test_free_rank2_degree1_first_values(self):
        spec = free_group_complex(2)
        report = l2_betti_upper_bounds(spec, 1, m_max=2)
        assert report.backend == "free-ring"
        assert report.norm_bound == 8
        assert report.values[0] == Fraction(3, 2)
        assert report.values[1] == Fraction(21, 16)

    def test_free_rank2_degree1_tree_walk_oracle(self):
        m_max = 8
        spec = free_group_complex(2)
        report = l2_betti_upper_bounds(spec, 1, m_max=m_max)
        walks = tree_walk_counts(4, m_max)
        # tau((d0* d0)^j) expands through tau(A^i) = closed tree walks
        traces = [
            sum(math.comb(j, i) * 4 ** (j - i) * (-1) ** i * walks[i]
                for i in range(j + 1))
            for j in range(m_max + 1)]
        for m in range(1, m_max + 1):
            expected = Fraction(2) + sum(
                (math.comb(m, j) * Fraction(-1) ** j
                 * Fraction(traces[j], 8 ** j) for j in range(1, m + 1)),
                Fraction(0))
            assert report.values[m - 1] == expected

    def test_free_rank2_degree0_frozen_values(self):
        spec = free_group_complex(2)
        report = l2_betti_upper_bounds(spec, 0, m_max=4)
        assert report.norm_bound == 16
        assert report.values == (Fraction(1, 2), Fraction(5, 16),
                                 Fraction(7, 32), Fraction(167, 1024))

    def test_free_rank2_degree0_tree_walk_oracle(self):
        spec = free_group_complex(2)
        report = l2_betti_upper_bounds(spec, 0, m_max=6)
        walks = tree_walk_counts(4, 6)
        for m in range(1, 7):
            # I - Delta_0/16 = (4 + A)/8 with A the adjacency element
            numerator = sum(
                math.comb(m, i) * 4 ** (m - i) * walks[i]
                for i in range(m + 1))
            assert report.values[m - 1] == Fraction(numerator, 8 ** m)

    def test_values_nonincreasing_and_above_limit(self):
        spec = free_group_complex(2)
        report = l2_betti_upper_bounds(spec, 1, m_max=10)
        for earlier, later in zip(report.values, report.values[1:]):
            assert later <= earlier
        # the limiting normalized kernel dimension in degree one is 1
        assert all(u >= 1 for u in report.values)

    def test_finite_backend_cyclic5(self):
        spec = cyclic_group_complex(5)
        report = l2_betti_upper_bounds(spec, 0, m_max=16)
        assert report.backend == "finite-regular"
        assert not report.cutoff
        # spectrum {0, 6 +- ..., ...} inside [0, 8]; kernel is the
        # constants, so u_m -> 1/5 geometrically
        assert abs(float(report.values[-1]) - 0.2) < 1e-3
        oracle = [
            sum((1 - lam / 8) ** m
                for lam in (2 * (2 - 2 * math.cos(2 * math.pi * j / 5))
                            for j in range(5))) / 5
            for m in range(1, 17)]
        for value, want in zip(report.values, oracle):
            assert abs(float(value) - want) < 1e-12

    def test_cutoff_flag(self):
        spec = free_group_complex(2)
        report = l2_betti_upper_bounds(spec, 1, m_max=12, term_budget=50)
        assert report.cutoff
        assert len(report.values) < 12

    def test_norm_bound_validation(self):
        spec = free_group_complex(2)
        with pytest.raises(MalformedInputError):
            l2_betti_upper_bounds(spec, 1, m_max=2, norm_bound=Fraction(7))
        relaxed = l2_betti_upper_bounds(spec, 1, m_max=3,
                                        norm_bound=Fraction(16))
        assert relaxed.norm_bound == 16
        assert all(u >= 1 for u in relaxed.values)

    def test_m_max_validation(self):
        with pytest.raises(MalformedInputError):
            l2_betti_upper_bounds(free_group_complex(2), 1, m_max=0)

    @pytest.mark.parametrize("spec", [free_group_complex(2),
                                      cyclic_group_complex(3)],
                             ids=["free-ring", "finite-regular"])
    def test_term_budget_validation(self, spec):
        # refused as input on both backends, before any trace
        for budget in (0, -1):
            with pytest.raises(MalformedInputError, match="term_budget"):
                l2_betti_upper_bounds(spec, 0, m_max=2, term_budget=budget)

    def test_gap_hint_lower_bounds(self):
        spec = cyclic_group_complex(3)
        report = l2_betti_upper_bounds(spec, 0, m_max=8, gap_hint=6.0)
        assert report.lower_bounds is not None
        assert len(report.lower_bounds) == len(report.values)
        for low, high in zip(report.lower_bounds, report.values):
            assert low <= float(high) + 1e-12
        # cell count 1, spectrum {0, 6, 6}, R = 8: the sandwich pins
        # the kernel fraction 1/3 between the bounds
        assert report.lower_bounds[-1] <= 1 / 3 <= float(report.values[-1])

    def test_long_sequence_closed_form(self):
        # spectrum {0, 6, 6}, R = 8: u_m = (1 + 2 / 4^m) / 3.  The terms
        # take quadratic big-integer work; a binomial sum per term took
        # over 3 s here
        start = time.perf_counter()
        report = l2_betti_upper_bounds(cyclic_group_complex(3), 0, m_max=800)
        elapsed = time.perf_counter() - start
        assert report.values == tuple((1 + Fraction(2, 4 ** m)) / 3
                                      for m in range(1, 801))
        assert elapsed < 2

    def test_one_float_range_rule_for_epsilon_and_norm_bound(self):
        """A claim's epsilon and the norm bound R are read by one rule:
        the largest float stays itself, and any rational above it reads
        as inf, even within half an ulp, where float() rounds down."""
        top = Fraction(sys.float_info.max)
        assert float(top + 1) == sys.float_info.max
        spec = cyclic_group_complex(3)  # degree 0: one cell
        for value, read in ((top, sys.float_info.max), (top + 1, math.inf)):
            claim = GapClaim(label="sos", kind="spectral-gap", epsilon=value,
                             scope="quotients", verified=True,
                             polynomial_form=(Fraction(1), -value))
            assert claim.float_epsilon() == read
            report = l2_betti_upper_bounds(spec, 0, m_max=3, norm_bound=value,
                                           gap_hint=sys.float_info.max)
            # shrink 1 - gap_hint/R: 0 at R = max, 1 once R reads as inf
            shrink = 1.0 - sys.float_info.max / read
            assert shrink == (0.0 if read < math.inf else 1.0)
            assert report.lower_bounds == tuple(
                float(u) - shrink ** (m + 1)
                for m, u in enumerate(report.values))

    def test_gap_hint_validation(self):
        spec = cyclic_group_complex(3)
        with pytest.raises(MalformedInputError):
            l2_betti_upper_bounds(spec, 0, m_max=2, gap_hint=9.0)
        with pytest.raises(MalformedInputError):
            l2_betti_upper_bounds(spec, 0, m_max=2, gap_hint=0.0)

    def test_refuse_differentials_that_are_no_complex_over_the_group(self):
        # d_2 d_1 = (1 + a)(1 + a + ... + a^4) = 2 (1 + a + ... + a^4),
        # which is not zero in Z[Z/5]
        spec = top_complex(cyclic_group_complex(5), "1 + a")
        with pytest.raises(ChainIdentityError, match="under representation"):
            l2_betti_upper_bounds(spec, 2, m_max=4)

    def test_no_backend_for_infinite_presented_group(self):
        with pytest.raises(TraceBackendError):
            l2_betti_upper_bounds(torus_complex(), 1, m_max=2,
                                  max_cosets=500)

    @pytest.mark.parametrize("spec, backend", [
        (free_group_complex(1), "free-ring"),
        (cyclic_group_complex(3), "finite-regular")])
    def test_zero_laplacian_gives_the_cell_count(self, spec, backend):
        # d = 0 on a new top cell: Delta = 0 there, its certified norm
        # bound is 0, and (I - Delta/R)^m = I for every R > 0
        top = len(spec.differentials) + 1
        spec = top_complex(spec, "0")
        report = l2_betti_upper_bounds(spec, top, m_max=5)
        assert (report.norm_bound, report.backend) == (0, backend)
        assert report.values == (Fraction(1),) * 5 and not report.cutoff
        with pytest.raises(MalformedInputError, match="gap hint"):
            l2_betti_upper_bounds(spec, top, m_max=5, gap_hint=0.5)


def top_complex(spec, entry):
    """``spec`` with d = [[entry]] onto one new top cell."""
    presentation = spec.presentation
    return build_complex(presentation, higher_differentials={
        len(spec.differentials): GroupRingMatrix.from_element(
            presentation.element(entry))})


def halved_top_complex(spec):
    """``spec`` with d = [[1/2 - 1/2 a]] on its one top cell: the operator
    the upper bounds take has denominators, cleared by c = 4."""
    return top_complex(spec, "1/2 - 1/2*a")


class TestUpperBoundsOracle:
    """One trace sequence assembled by the shift recurrence, against three
    routes (``slow_upper_bounds``): powers of R - Delta and of d* d over
    the free group ring, and powers of c(R - Delta) in the regular
    representation of a finite group."""

    @pytest.mark.parametrize("name,spec,degree,kwargs", [
        ("F2 degree 0", free_group_complex(2), 0,
         {"m_max": 8, "gap_hint": 2.0}),
        ("F3 degree 0", free_group_complex(3), 0, {"m_max": 6}),
        ("F2 degree 1", free_group_complex(2), 1, {"m_max": 10}),
        ("F2 degree 1 rational R", free_group_complex(2), 1,
         {"m_max": 8, "norm_bound": Fraction(17, 2), "gap_hint": 0.5}),
        ("Z/5 degree 0", cyclic_group_complex(5), 0,
         {"m_max": 12, "gap_hint": 1.0}),
        ("S4 degree 1", s4_complex(), 1, {"m_max": 6}),
        ("S4 degree 2", s4_complex(), 2,
         {"m_max": 6, "norm_bound": Fraction(157, 3), "gap_hint": 3.0}),
        ("F1 degree 1 rational d_1", halved_top_complex(free_group_complex(1)),
         1, {"m_max": 8, "gap_hint": 0.5}),
        ("Z/5 degree 2 rational d_2",
         halved_top_complex(cyclic_group_complex(5)), 2, {"m_max": 10}),
    ])
    def test_matches_three_routes(self, name, spec, degree, kwargs):
        if name == "F1 degree 1 rational d_1":
            # d_1 d_0 = (1 - a)^2 / 2 in Z[F_1]: over a free group only
            # d_1 = 0 makes a complex, so the bounds refuse this one
            with pytest.raises(ChainIdentityError, match="free-group ring"):
                l2_betti_upper_bounds(spec, degree, **kwargs)
            return
        report = l2_betti_upper_bounds(spec, degree, **kwargs)
        values, cutoff, lower = slow_upper_bounds(spec, degree, **kwargs)
        assert report.values == values
        assert report.cutoff == cutoff
        assert report.lower_bounds == lower
        assert len(values) == kwargs["m_max"] and not cutoff
        assert all(isinstance(u, Fraction) for u in report.values)

    def test_s4_top_degree_uses_the_smaller_operator(self, monkeypatch):
        import coholap.pipeline as pipeline

        seen = []
        original = pipeline._regular_power_traces

        def spy(matrix, m_max, table):
            seen.append((matrix.rows, matrix.cols))
            return original(matrix, m_max, table)

        monkeypatch.setattr(pipeline, "_regular_power_traces", spy)
        l2_betti_upper_bounds(s4_complex(), 2, m_max=2)
        l2_betti_upper_bounds(s4_complex(), 1, m_max=2)
        # d1* d1 on the two edges, then Delta_1 itself
        assert seen == [(2, 2), (2, 2)]

    def test_every_term_budget(self):
        spec = free_group_complex(2)
        full = 1 + 4 + 12 + 36 + 108      # X^4 lives on the radius-4 ball
        seen = set()
        for budget in range(1, full + 3):
            report = l2_betti_upper_bounds(spec, 0, m_max=8,
                                           term_budget=budget)
            values, cutoff, _ = slow_upper_bounds(spec, 0, m_max=8,
                                                  term_budget=budget)
            assert (report.values, report.cutoff) == (values, cutoff)
            seen.add((len(values), cutoff))
        assert (8, False) in seen and (2, True) in seen

    def test_term_budget_bounds_the_work_not_m_max(self):
        # the budget stops F2 at 8 terms whatever m_max asks for; no
        # width check may form a power that grows with m_max
        spec = free_group_complex(2)
        small = l2_betti_upper_bounds(spec, 1, m_max=30, term_budget=200)
        start = time.perf_counter()
        huge = l2_betti_upper_bounds(spec, 1, m_max=10**12, term_budget=200)
        assert time.perf_counter() - start < 2.0
        assert (huge.values, huge.cutoff) == (small.values, small.cutoff)
        assert len(small.values) == 8 and small.cutoff

    def test_huge_m_max_keeps_the_widths_of_the_powers_formed(
            self, monkeypatch):
        # the budget stops F2 at M^7 whatever m_max asks for, so every
        # power is sized by its own exponent, never by ceil(m_max / 2)
        import coholap.pipeline as pipeline

        kinds = set()
        original = pipeline._times_base

        def spy(power, *args):
            out = original(power, *args)
            kinds.update(array.dtype.kind for matrix in (power, out)
                         for row in matrix for entry in row
                         for array in entry)
            return out

        monkeypatch.setattr(pipeline, "_times_base", spy)
        spec = free_group_complex(2)
        small = l2_betti_upper_bounds(spec, 1, m_max=30, term_budget=10**4)
        huge = l2_betti_upper_bounds(spec, 1, m_max=10**9, term_budget=10**4)
        assert (huge.values, huge.cutoff) == (small.values, small.cutoff)
        assert len(small.values) == 14 and small.cutoff
        assert kinds == {"i"}        # fixed-width integers, never objects

    def test_term_budget_caps_a_slowly_growing_free_ring(self):
        # M^a of F1 in degree 1 has 2a + 1 words, far below the budget;
        # the budget of 20000 still stops it at L = 199 terms
        spec = free_group_complex(1)
        capped = l2_betti_upper_bounds(spec, 1, m_max=400, term_budget=20_000)
        whole = l2_betti_upper_bounds(spec, 1, m_max=199, term_budget=20_000)
        assert (len(capped.values), capped.cutoff) == (199, True)
        assert capped.values == whole.values and not whole.cutoff

    @pytest.mark.parametrize("degree", [0, 1])
    def test_only_the_paired_powers_are_formed(self, monkeypatch, degree):
        # h = ceil(m_max / 2): M^1 .. M^(h-1) are multiplied out, and the
        # words of M^2 come from M's own terms, so no other power is formed
        import coholap.pipeline as pipeline

        original = pipeline._times_base

        def spy(power, *args):
            out = original(power, *args)
            exponents[id(out)] = exponents.get(id(power), 0) + 1
            formed.append(exponents[id(out)])
            return out

        monkeypatch.setattr(pipeline, "_times_base", spy)
        spec = free_group_complex(2)
        for m_max in range(1, 7):
            formed, exponents = [], {}    # ids of freed powers are reused
            report = l2_betti_upper_bounds(spec, degree, m_max=m_max)
            assert len(report.values) == m_max and not report.cutoff
            assert formed == list(range(1, (m_max + 1) // 2))

    def test_streamed_regular_traces_match_python_columns(self, monkeypatch):
        # S4 in degree 1 at m_max 400: one exact product per further
        # term, each trace that of Python-int column products
        from coholap import exact

        spec = s4_complex()
        table = todd_coxeter(spec.presentation, ())
        matrix = build_laplacian(spec, 1).laplacian      # 2 x 2, integral
        products = []
        original = exact.matmul
        monkeypatch.setattr(exact, "matmul",
                            lambda a, b: products.append(1) or original(a, b))
        traces = _regular_power_traces(matrix, 400, table)
        assert len(products) == 399
        rows = evaluate(matrix, Representation.from_coset_table(table)) \
            .exact_matrix.array.tolist()
        size = table.coset_count
        starts = range(0, len(rows), size)
        columns = [[row[s] for s in starts] for row in rows]
        expected = []
        for _ in range(400):
            expected.append(sum(columns[s][i] for i, s in enumerate(starts)))
            columns = [[sum(a * col[c] for a, col in zip(row, columns))
                        for c in range(len(starts))] for row in rows]
        assert traces == expected

    def test_finite_regular_terms_honour_the_term_budget(self):
        # L terms take L(L + 1)/2 steps of the shift recurrence: a budget
        # of 10 allows 4, and the default budget 1999
        spec = cyclic_group_complex(3)
        cut = l2_betti_upper_bounds(spec, 0, m_max=5, term_budget=10)
        whole = l2_betti_upper_bounds(spec, 0, m_max=4, term_budget=10)
        assert (len(cut.values), cut.cutoff) == (4, True)
        assert (len(whole.values), whole.cutoff) == (4, False)
        assert cut.values == whole.values == slow_upper_bounds(
            spec, 0, m_max=4)[0]
        start = time.perf_counter()
        huge = l2_betti_upper_bounds(spec, 0, m_max=10**400)
        assert time.perf_counter() - start < 2.0
        assert (len(huge.values), huge.cutoff) == (1999, True)
        assert huge.values[:4] == whole.values

    def test_gap_hint_checked_before_enumeration(self):
        # the torus does not enumerate within 500 cosets; a bad gap hint
        # is reported before the enumeration is tried
        for gap_hint in (0.0, 100.0):
            with pytest.raises(MalformedInputError, match="gap hint"):
                l2_betti_upper_bounds(torus_complex(), 1, m_max=2,
                                      gap_hint=gap_hint, max_cosets=500)


def shifted_laplacian(spec, degree):
    bundle = build_laplacian(spec, degree)
    return (GroupRingMatrix.identity(bundle.cell_count)
            .scale(bundle.laplacian.l1_operator_bound()) - bundle.laplacian)


def down_square(spec, degree):
    down = spec.differential(degree - 1)
    return down.adjoint() @ down


def element_matrix(terms):
    return GroupRingMatrix.from_element(GroupRingElement(terms))


def cleared_free_power_traces(matrix, m_max, term_budget):
    """``_free_power_traces`` on cM, c clearing the denominators of M: its
    traces T_j are ints, read back as tau(M^j) = T_j / c^j."""
    clear = math.lcm(*(coeff.denominator for i in range(matrix.rows)
                       for j in range(matrix.cols)
                       for _w, coeff in matrix.entry(i, j).terms()))
    traces = _free_power_traces(matrix.scale(clear), m_max, term_budget)
    assert all(type(t) is int for t in traces)
    return [Fraction(t, clear ** j) for j, t in enumerate(traces, start=1)]


def rational_gram():
    """X* X for a 2x2 X with rational entries in every position."""
    rng = Random(11)
    x = GroupRingMatrix(2, 2, [
        [random_element(rng, 2, terms=2, max_length=2) for _ in range(2)]
        for _ in range(2)])
    gram = x.adjoint() @ x
    assert any(c.denominator > 1 for i in range(2) for j in range(2)
               for _w, c in gram.entry(i, j).terms())
    return gram


class TestFreePowerTracesOracle:
    """The word-code power traces against dicts of words multiplied term
    by term (``slow_free_power_traces``)."""

    @pytest.mark.parametrize("name,matrix,m_max", [
        ("F2 R - Delta_0", shifted_laplacian(free_group_complex(2), 0), 10),
        ("F2 d0* d0", down_square(free_group_complex(2), 1), 12),
        ("F3 R - Delta_0", shifted_laplacian(free_group_complex(3), 0), 8),
        ("F3 d0* d0", down_square(free_group_complex(3), 1), 8),
        ("F2 2x2 R - Delta_1", shifted_laplacian(free_group_complex(2), 1),
         6),
        *((f"F2 2x2 R - Delta_1 at {m_max}",
           shifted_laplacian(free_group_complex(2), 1), m_max)
          for m_max in range(1, 5)),
        *((f"F3 d0* d0 at {m_max}", down_square(free_group_complex(3), 1),
           m_max) for m_max in range(1, 5)),
    ])
    def test_matches_dict_convolution(self, name, matrix, m_max):
        traces = cleared_free_power_traces(matrix, m_max, 2_000_000)
        assert traces == slow_free_power_traces(matrix, m_max, 2_000_000)[0]
        assert len(traces) == m_max

    def test_rational_coefficients(self):
        rng = Random(7)
        for _ in range(4):
            x = random_element(rng, 2, terms=3, max_length=2)
            matrix = GroupRingMatrix.from_element(x.star() * x)
            assert any(c.denominator > 1 for _w, c in matrix.entry(0, 0)
                       .terms())
            assert cleared_free_power_traces(matrix, 6, 10**6) == \
                slow_free_power_traces(matrix, 6, 10**6)[0]
        # a 2x2 matrix X* X with rational entries in every position
        x = GroupRingMatrix(2, 2, [
            [random_element(rng, 2, terms=2, max_length=2)
             for _ in range(2)] for _ in range(2)])
        matrix = x.adjoint() @ x
        assert cleared_free_power_traces(matrix, 5, 10**6) == \
            slow_free_power_traces(matrix, 5, 10**6)[0]

    def test_every_term_budget(self):
        matrix = down_square(free_group_complex(2), 1)
        full = 1 + 4 + 12 + 36 + 108      # M^4 lives on the radius-4 ball
        seen = set()
        for budget in range(1, full + 3):
            got = _free_power_traces(matrix, 8, budget)
            assert got == slow_free_power_traces(matrix, 8, budget)[0]
            seen.add((len(got), len(got) < 8))
        assert (8, False) in seen and (2, True) in seen

    def test_long_words_use_python_int_codes(self):
        w = Word((1, 2) * 7)
        matrix = element_matrix({w: 1, w.inverse(): 1, Word(): 2})
        for m_max in (4, 6):
            # radix 5, words of length 14 * ceil(m_max / 2) pass 2**63
            assert 5 ** (14 * ((m_max + 1) // 2)) >= 2**63
            assert _free_power_traces(matrix, m_max, 10**6) == \
                slow_free_power_traces(matrix, m_max, 10**6)[0]

    def test_large_coefficients_use_python_int_coefficients(self):
        big = 999_983
        matrix = element_matrix({Word((1,)): big, Word((-1,)): big,
                                 Word((2,)): 1, Word((-2,)): 1, Word(): 3})
        # l1 norm 2 * big + 5; (l1)^4 passes 2**62
        assert (2 * big + 5) ** 4 >= 2**62
        traces = _free_power_traces(matrix, 8, 10**6)
        assert traces == slow_free_power_traces(matrix, 8, 10**6)[0]
        assert traces[-1] > 2**63

    @staticmethod
    def pairing_bound_crossed(matrix, m_max):
        """int64 coefficients (l1^top < 2**62) whose pairing leaves int64
        partway: l1^m_max >= 2**63."""
        l1 = sum(abs(coeff) for i in range(matrix.rows)
                 for j in range(matrix.cols)
                 for _w, coeff in matrix.entry(i, j).terms())
        top = (m_max + 1) // 2
        return l1 ** top < 2**62 <= 2**63 <= l1 ** m_max

    def test_pairing_crosses_the_int64_bound(self):
        # 1000 (2 + a + a^-1): l1 = 4000, and tau(M^8) = 1000^8 C(16, 8)
        matrix = element_matrix({Word((1,)): 1000, Word((-1,)): 1000,
                                 Word(): 2000})
        assert self.pairing_bound_crossed(matrix, 8)
        traces = _free_power_traces(matrix, 8, 10**6)
        assert traces == slow_free_power_traces(matrix, 8, 10**6)[0]
        assert traces[-1] == 1000**8 * math.comb(16, 8) > 2**63

    def test_pairing_crosses_the_int64_bound_on_the_tree(self):
        m_max = 22
        matrix = down_square(free_group_complex(2), 1)
        assert self.pairing_bound_crossed(matrix, m_max)
        traces = _free_power_traces(matrix, m_max, 2_000_000)
        # d0* d0 = 4 - A with A the adjacency element of the 4-regular tree
        walks = tree_walk_counts(4, m_max)
        assert traces == [
            sum(math.comb(j, i) * 4 ** (j - i) * (-1) ** i * walks[i]
                for i in range(j + 1)) for j in range(1, m_max + 1)]

    # (matrix, m_max, the code and coefficient dtypes of the powers formed,
    # M^1 .. M^(h-1) with h = ceil(m_max / 2))
    WIDTH_CASES = [
        # radix 5 and words of length 7: codes fit int32 in M^1, int64 in
        # M^2 and M^3, not in M^4; l1 = 32770, so l1^a < 2**31 holds up to
        # a = 2 (l1^2 = 1073872900) and l1^a < 2**63 up to a = 4
        (element_matrix({Word((1, 2) * 3 + (1,)): 16000,
                         Word((-1,) + (-2, -1) * 3): 16000,
                         Word((2,)): 1, Word((-2,)): 1, Word(): 768}), 12,
         ["int32 int32", "int64 int32", "int64 int64", "object int64",
          "object object"]),
        # words of length 4 and l1 = 2**25 + 2: the coefficients leave
        # int64 at M^3, before the codes leave int32 at M^4
        (element_matrix({Word((1, 2, 1, 2)): 2**24,
                         Word((-2, -1, -2, -1)): 2**24, Word(): 2}), 16,
         ["int32 int32", "int32 int64", "int32 object", "int64 object",
          "int64 object", "int64 object", "object object"]),
    ]

    @pytest.mark.parametrize("matrix, m_max, widths", WIDTH_CASES)
    def test_widths_change_within_one_sequence(self, monkeypatch, matrix,
                                               m_max, widths):
        import coholap.pipeline as pipeline

        seen = []
        original = pipeline._times_base

        def spy(*args):
            out = original(*args)
            codes, coeffs = out[0][0]
            seen.append(f"{codes.dtype} {coeffs.dtype}")
            return out

        monkeypatch.setattr(pipeline, "_times_base", spy)
        traces = _free_power_traces(matrix, m_max, 10**6)
        assert seen == widths
        assert traces == slow_free_power_traces(matrix, m_max, 10**6)[0]

    def test_empty_entries(self):
        # [[0, x], [x*, 0]]: odd powers have an empty diagonal, even ones
        # empty off-diagonal entries, so every odd pairing meets an empty
        # entry on one side and every even one on both
        x = GroupRingElement({Word(): 1, Word((1,)): 1, Word((2,)): 2})
        zero = GroupRingElement.zero()
        matrix = GroupRingMatrix(2, 2, [[zero, x], [x.star(), zero]])
        traces = _free_power_traces(matrix, 7, 10**6)
        assert traces == slow_free_power_traces(matrix, 7, 10**6)[0]
        assert traces[::2] == [0] * 4 and all(traces[1::2])

    def test_two_powers_and_one_buffer_bound_the_memory(self):
        # M^9 of F2 d0* d0 (39365 terms) is the largest power formed, as
        # M^10 is never multiplied out; every earlier power and every
        # spent merge buffer is freed before the top traces are read
        matrix = down_square(free_group_complex(2), 1)
        tracemalloc.start()
        try:
            traces = _free_power_traces(matrix, 20, 2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traces) == 20
        assert peak < 7 * 2**20

    @pytest.mark.parametrize("m_max, mib", [(20, 2.5), (24, 25)])
    def test_the_top_power_is_never_formed(self, m_max, mib):
        # M^(m_max / 2) would hold 118097 terms at m_max 20 and 1062881 at
        # 24; the top traces read M^(m_max / 2 - 1) against M and M^2, and
        # from tau(M^21) on they pass 2**63 and sum in int64 limbs
        matrix = down_square(free_group_complex(2), 1)
        tracemalloc.start()
        try:
            traces = _free_power_traces(matrix, m_max, 2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20
        walks = tree_walk_counts(4, m_max)
        assert traces == [
            sum(math.comb(j, i) * 4 ** (j - i) * (-1) ** i * walks[i]
                for i in range(j + 1)) for j in range(1, m_max + 1)]

    @pytest.mark.parametrize("name,matrix", [
        ("F2 d0* d0", down_square(free_group_complex(2), 1)),
        ("F2 2x2 R - Delta_1", shifted_laplacian(free_group_complex(2), 1)),
        ("F3 d0* d0", down_square(free_group_complex(3), 1)),
        ("[[0, x], [x*, 0]]", GroupRingMatrix(2, 2, [
            [GroupRingElement.zero(),
             GroupRingElement({Word(): 1, Word((1,)): 1, Word((2,)): 2})],
            [GroupRingElement({Word(): 1, Word((-1,)): 1, Word((-2,)): 2}),
             GroupRingElement.zero()]])),
        ("rational 2x2 X* X", rational_gram()),
    ])
    def test_every_m_max_reads_its_top_traces(self, name, matrix):
        # h = ceil(m_max / 2) runs from 1 to 6: P = M^(h-1) is the
        # identity, M itself and larger powers, and the top is
        # tau(P M P) alone (m_max odd) or with tau(P M^2 P)
        for m_max in range(1, 13):
            traces = cleared_free_power_traces(matrix, m_max, 2_000_000)
            assert traces == slow_free_power_traces(
                matrix, m_max, 2_000_000)[0]
            assert len(traces) == m_max

    @pytest.mark.parametrize("m_max", [9, 10])
    def test_the_top_power_is_formed_only_to_count(self, monkeypatch, m_max):
        # F2 d0* d0 at h = 5: P = M^4 has 161 terms, M^5 has 485, and
        # M^5's product count is 161 * 5 = 805
        import coholap.pipeline as pipeline

        formed = []
        original = pipeline._times_base

        def spy(*args):
            out = original(*args)
            formed.append(sum(codes.size for row in out for codes, _ in row))
            return out

        monkeypatch.setattr(pipeline, "_times_base", spy)
        matrix = down_square(free_group_complex(2), 1)
        for budget, length, top_formed in ((805, m_max, False),  # above
                                           (804, m_max, True),   # between
                                           (485, m_max, True),
                                           (484, 8, True)):      # below
            formed.clear()
            traces = _free_power_traces(matrix, m_max, budget)
            assert traces == slow_free_power_traces(matrix, m_max, budget)[0]
            assert len(traces) == length
            assert formed == [5, 17, 53, 161] + [485] * top_formed

    @pytest.mark.parametrize("m_max", [3, 4, 9, 10])
    def test_budgets_around_the_top_power(self, m_max):
        # h = 2: M^2 has 17 terms and a product count of 25; h = 5: M^5
        # has 485 terms and a product count of 805
        matrix = down_square(free_group_complex(2), 1)
        for budget in (1, 5, 16, 17, 24, 25, 26, 160, 161, 484, 485, 804,
                       805, 806):
            assert _free_power_traces(matrix, m_max, budget) == \
                slow_free_power_traces(matrix, m_max, budget)[0]

    def test_top_traces_cross_the_int64_bound(self):
        # 100 d0* d0 of F2: l1 = 800, so P = M^4 holds int64 coefficients
        # while tau(M^9) and tau(M^10) pass 2**63, summed in int64 limbs
        matrix = down_square(free_group_complex(2), 1).scale(100)
        walks = tree_walk_counts(4, 10)
        for m_max in (9, 10):
            assert self.pairing_bound_crossed(matrix, m_max)
            traces = _free_power_traces(matrix, m_max, 10**6)
            assert traces == slow_free_power_traces(matrix, m_max, 10**6)[0]
            assert traces[-1] == 100 ** m_max * sum(
                math.comb(m_max, i) * 4 ** (m_max - i) * (-1) ** i * walks[i]
                for i in range(m_max + 1)) > 2**63

    @pytest.mark.parametrize("matrix", [
        element_matrix({Word((1,)): 1, Word(): 2}),
        GroupRingMatrix(2, 2, [
            [GroupRingElement.one(), GroupRingElement.generator(1)],
            [GroupRingElement.generator(1), GroupRingElement.one()]]),
    ])
    def test_rejects_non_self_adjoint(self, matrix):
        with pytest.raises(InvariantError, match="self-adjoint"):
            _free_power_traces(matrix, 4, 10**6)


@pytest.mark.parametrize("x_bits, y_bits, dtype", [
    (20, 9, np.int32),     # l1 bounds whose product fits: one int64 dot
    (40, 30, np.int64),    # three limbs of 24 bits
    (62, 1, np.int64),     # two limbs of 52 bits
    (30, 30, np.int32),    # int32 factors: two limbs of 24 bits
    (61, 61, np.int64),    # y's l1 bound leaves no bits: Python ints
])
def test_exact_dot_matches_python_ints(x_bits, y_bits, dtype):
    rng = np.random.default_rng(x_bits * 64 + y_bits)
    x, y = (rng.integers(-2**bits, 2**bits, 1000, endpoint=True,
                         dtype=np.int64).astype(dtype)
            for bits in (x_bits, y_bits))
    x_bound, y_bound = (sum(abs(v) for v in a.tolist()) for a in (x, y))
    expected = sum(a * b for a, b in zip(x.tolist(), y.tolist()))
    assert _exact_dot(x, y, x_bound, y_bound) == expected


def test_power_traces_refuse_a_matrix_with_denominators():
    matrix = element_matrix({Word((1,)): Fraction(1, 2),
                             Word((-1,)): Fraction(1, 2), Word(): 1})
    with pytest.raises(InvariantError, match="free-ring.*integral"):
        _free_power_traces(matrix, 4, 10**6)
    table = todd_coxeter(cyclic_presentation(5), ())
    with pytest.raises(InvariantError, match="finite-regular.*integral"):
        _regular_power_traces(matrix, 4, table)


class TestLambdaRingMembership:
    def test_exhaustive_small_denominators(self):
        orders = [4, 6]
        clearing = (4 * 6) ** 20
        for denominator in range(1, 101):
            value = Fraction(1, denominator)
            oracle = (value * clearing).denominator == 1
            assert lambda_ring_membership(value, orders) == oracle

    def test_torsion_free_accepts_integers_only(self):
        assert lambda_ring_membership(Fraction(3), [])
        assert lambda_ring_membership(Fraction(-7), [])
        assert not lambda_ring_membership(Fraction(1, 2), [])

    def test_numerator_is_irrelevant(self):
        assert lambda_ring_membership(Fraction(7, 10), [10])
        assert not lambda_ring_membership(Fraction(7, 10), [5])

    def test_order_validation(self):
        with pytest.raises(MalformedInputError):
            lambda_ring_membership(Fraction(1, 2), [0])

    def test_random_orders_against_clearing(self):
        rng = Random(2024)
        for _ in range(500):
            orders = [rng.randint(1, 60) for _ in range(rng.randint(0, 3))]
            value = Fraction(rng.randint(-50, 50), rng.randint(1, 5000))
            # every prime power in the denominator divides product^bits
            clearing = math.prod(orders) ** value.denominator.bit_length()
            oracle = (value * clearing).denominator == 1
            assert lambda_ring_membership(value, orders) == oracle

    def test_large_prime_factors_answer_quickly(self):
        # Mersenne primes: trial division up to the square root of the
        # denominator would run for years
        p, q = 2**61 - 1, 2**89 - 1

        def expire(signum, frame):
            raise TimeoutError("lambda_ring_membership did not return")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            assert not lambda_ring_membership(Fraction(1, p * q * q), [p])
            assert lambda_ring_membership(Fraction(5, p * q * q), [3 * p, q])
            assert lambda_ring_membership(Fraction(1, p ** 3), [2 * p])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestEulerTrace:
    def test_torus_chain(self):
        spec = torus_complex()
        chain = chain_of_squares(spec.presentation, [2, 4])
        report = euler_class_trace(spec, chain)
        assert report.euler_characteristic == 0
        assert report.all_match
        for record in report.records:
            assert record.kernel_dims == (1, 2, 1)
            assert record.euler_trace == 0

    def test_genus2_single_stage(self):
        spec = surface_genus2_complex()
        squares = [f"{x}^2" for x in "abcd"]
        commutators = [f"{x}*{y}*{x}^-1*{y}^-1"
                       for i, x in enumerate("abcd")
                       for y in "abcd"[i + 1:]]
        chain = quotient_chain(spec.presentation, [squares + commutators],
                               ball_radius=1, warn=False)
        report = euler_class_trace(spec, chain)
        assert report.euler_characteristic == -2
        assert report.records[0].kernel_dims == (1, 34, 1)
        assert report.records[0].euler_trace == Fraction(-2)
        assert report.all_match

    def test_truncated_complex_rejected(self):
        spec = cyclic_group_complex(3)
        chain = quotient_chain(spec.presentation, [["a^3"]],
                               ball_radius=1, warn=False)
        with pytest.raises(IncompleteComplexError):
            euler_class_trace(spec, chain)


class TestObstructionReport:
    def chain_f2(self):
        spec = free_group_complex(2)
        return spec, chain_of_squares(spec.presentation, [2, 3])

    def cyclic8_chain(self):
        spec = cyclic_group_complex(8)
        chain = quotient_chain(spec.presentation,
                               [["a^2"], ["a^4"], ["a^8"]],
                               ball_radius=1, warn=False)
        return spec, chain

    def test_persistent_discrepancy(self):
        spec, chain = self.chain_f2()
        ref = BetaRef(Fraction(1), "user-cited", citation="limit value 1")
        report = box_obstruction_report(spec, 1, chain, ref)
        assert [r.d_star_value for r in report.records] == [5, 10]
        assert [r.lifted_value for r in report.records] == [4, 9]
        assert [r.discrepancy for r in report.records] == [1, 1]
        assert report.verdict == "persistent-discrepancy"
        assert not report.uniform_gap_certified

    def test_eventually_equal(self):
        spec, chain = self.cyclic8_chain()
        ref = BetaRef(Fraction(0), "user-cited")
        report = box_obstruction_report(spec, 1, chain, ref)
        assert all(r.d_star_value == 0 for r in report.records)
        assert report.verdict == "eventually-equal"

    def test_inconclusive_mixed_tail(self):
        spec, chain = self.cyclic8_chain()
        ref = BetaRef(Fraction(1, 8), "user-cited")
        report = box_obstruction_report(spec, 0, chain, ref)
        assert [r.discrepancy for r in report.records] == [
            Fraction(3, 4), Fraction(1, 2), Fraction(0)]
        assert report.verdict == "inconclusive"

    def test_extrapolated_reference_downgrades(self):
        spec, chain = self.chain_f2()
        fractional = BetaRef(Fraction(1, 7), "luck-extrapolated")
        report = box_obstruction_report(spec, 1, chain, fractional)
        # discrepancies 31/7 and 61/7 are nonzero but not integral, so an
        # extrapolated reference cannot support the strong verdict
        assert report.verdict == "inconclusive"
        cited = BetaRef(Fraction(1, 7), "user-cited")
        assert box_obstruction_report(
            spec, 1, chain, cited).verdict == "persistent-discrepancy"

    def test_extrapolated_integral_discrepancy_keeps_verdict(self):
        spec, chain = self.chain_f2()
        ref = BetaRef(Fraction(1), "luck-extrapolated")
        report = box_obstruction_report(spec, 1, chain, ref)
        assert report.verdict == "persistent-discrepancy"

    def test_single_stage_inconclusive(self):
        spec = free_group_complex(2)
        chain = chain_of_squares(spec.presentation, [2])
        ref = BetaRef(Fraction(1), "user-cited")
        report = box_obstruction_report(spec, 1, chain, ref)
        assert report.verdict == "inconclusive"

    def test_provenance_validated(self):
        with pytest.raises(MalformedInputError):
            BetaRef(Fraction(1), "guessed")

    @pytest.mark.parametrize("citation", [{"x": [1, 2]}, 3, ["a"]])
    def test_citation_must_be_a_string_or_absent(self, citation):
        with pytest.raises(MalformedInputError, match="citation"):
            BetaRef(Fraction(1), "user-cited", citation=citation)
        assert BetaRef(Fraction(1), "user-cited").citation is None

    @staticmethod
    def rotation_certificate(spec, epsilon=6):
        """M^2 - epsilon M = (4a^-1 - 4a^-2)(a^3 - 1) for M = Delta_0 of a
        one-generator complex, exact for epsilon = 6."""
        p = spec.presentation
        witness = IdealWitness(
            GroupRingMatrix.from_element(p.element("4*a^-1 - 4*a^-2")), 0,
            GroupRingMatrix.identity(1))
        return Certificate(p, build_laplacian(spec, 0).laplacian,
                           (1, -epsilon), witnesses=[witness],
                           ideal_generators=[Word((1, 1, 1))],
                           label="rotation-gap")

    def cyclic3_chain(self):
        spec = cyclic_group_complex(3)
        return spec, quotient_chain(spec.presentation, [["a"], []],
                                    ball_radius=1, warn=False)

    def test_verified_claim_certifies_uniform_gap(self):
        spec, chain = self.cyclic3_chain()
        ref = BetaRef(Fraction(1, 3), "user-cited")
        report = box_obstruction_report(
            spec, 0, chain, ref, certificate=self.rotation_certificate(spec))
        assert report.uniform_gap_certified
        assert report.certified_epsilon == 6.0
        assert report.gap_claim.epsilon == 6
        tampered = self.rotation_certificate(spec, epsilon=5)
        report = box_obstruction_report(spec, 0, chain, ref,
                                        certificate=tampered)
        assert not report.gap_claim.verified
        assert not report.uniform_gap_certified
        assert report.certified_epsilon is None

    def test_certificate_certifies_only_stages_it_covers(self):
        # the claim holds where a^3 = 1; Z/9 does not kill a^3, and its own
        # gap is 4 - 4 cos(2 pi / 9) < 6
        spec = free_group_complex(1)
        chain = quotient_chain(spec.presentation, [["a^3"], ["a^9"]],
                               ball_radius=1, warn=False)
        certificate = self.rotation_certificate(spec)
        assert [certificate.covers(rep)
                for rep in chain.representations] == [True, False]
        report = box_obstruction_report(spec, 0, chain,
                                        BetaRef(0, "user-cited"),
                                        certificate=certificate)
        assert report.gap_claim.verified
        assert not report.uniform_gap_certified
        assert report.certified_epsilon is None
        assert report.min_gap == pytest.approx(4 - 4 * math.cos(
            2 * math.pi / 9))

    def test_certificate_about_another_operator_is_refused(self):
        spec, chain = self.cyclic3_chain()
        zero = Certificate(spec.presentation, GroupRingMatrix.zero(1, 1),
                           (1, -6), label="zero")
        with pytest.raises(MalformedInputError, match="Delta_0"):
            box_obstruction_report(spec, 0, chain,
                                   BetaRef(Fraction(1, 3), "user-cited"),
                                   certificate=zero)

    def test_box_metric_note_recorded(self):
        spec, chain = self.chain_f2()
        ref = BetaRef(Fraction(1), "user-cited")
        report = box_obstruction_report(spec, 1, chain, ref)
        assert "2^(i+j)" in report.box_metric_note


class TestGhostDiagnostic:
    def test_torus_degree_zero_decay(self):
        spec = torus_complex()
        chain = chain_of_squares(spec.presentation, [2, 4])
        report = ghost_diagnostic(spec, 0, chain)
        maxima = [r.max_abs_entry for r in report.records]
        assert abs(maxima[0] - 1 / 4) < 1e-9
        assert abs(maxima[1] - 1 / 16) < 1e-9
        assert report.ghost_like
        for record in report.records:
            assert abs(record.trace - 1.0) < 1e-8

    def test_single_stage_is_not_ghost_like(self):
        spec = torus_complex()
        chain = chain_of_squares(spec.presentation, [2])
        report = ghost_diagnostic(spec, 0, chain)
        assert not report.ghost_like

    def test_top_degree_decay(self):
        # ker Delta_2 of the torus complex is again the constants
        spec = torus_complex()
        chain = chain_of_squares(spec.presentation, [2, 4])
        report = ghost_diagnostic(spec, 2, chain)
        maxima = [r.max_abs_entry for r in report.records]
        assert abs(maxima[0] - 1 / 4) < 1e-9
        assert abs(maxima[1] - 1 / 16) < 1e-9
        assert report.ghost_like

    def test_a_non_complex_fails_the_product_check(self):
        # as in higher_kazhdan_projection: d_2 d_1 = 1 + a on <a | a^2>
        spec = top_complex(cyclic_group_complex(2), "1")
        chain = quotient_chain(spec.presentation, [["a^2"]], ball_radius=1,
                               warn=False)
        with pytest.raises(InvariantError, match="d_2 d_1 is nonzero"):
            ghost_diagnostic(spec, 2, chain)

    def test_zero_projections_are_not_ghost_like(self):
        # every kernel along this chain is trivial, so the projections
        # vanish identically; decaying zeros must not count as a ghost
        spec = cyclic_group_complex(8)
        chain = quotient_chain(spec.presentation, [["a^2"], ["a^4"]],
                               ball_radius=1, warn=False)
        report = ghost_diagnostic(spec, 1, chain)
        assert all(r.max_abs_entry < 1e-10 for r in report.records)
        assert all(abs(r.trace) < 1e-8 for r in report.records)
        assert not report.ghost_like
