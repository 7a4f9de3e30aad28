"""Exact evaluation, eigenvalue extraction, and kernel projections.

Eigenvalue oracles come from the discrete Fourier transform: the
degree-zero combinatorial laplacian of a free group evaluated in the
regular representation of an abelian quotient is a circulant (or a
tensor product of circulants), so its spectrum is known in closed form.
"""

import math
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from conftest import operator_difference, projection_distance, random_element

from coholap import (
    EvaluatedOperator,
    GroupRingElement,
    GroupRingMatrix,
    NotPositiveSemidefiniteError,
    Presentation,
    Representation,
    ShapeMismatchError,
    SizeBudgetError,
    UnknownGeneratorError,
    UnresolvedGapError,
    Word,
    evaluate,
    free_group_complex,
    heat_projection,
    kernel_projection,
    lanczos_lowest,
    spectral_gap,
    todd_coxeter,
)
from coholap import exact, spectral
from coholap.spectral import _projection_from_array

F1 = Presentation(("a",), ())
F2 = Presentation(("a", "b"), ())


def regular_rep(presentation, extra):
    return Representation.from_coset_table(
        todd_coxeter(presentation, extra))


def laplacian_operator(presentation, rep):
    matrix = GroupRingMatrix.from_element(presentation.degree_zero_laplacian())
    return evaluate(matrix, rep)


class TestEvaluate:
    def test_star_homomorphism_on_random_elements(self):
        rep = regular_rep(F2, ["a^3", "b^3", "a*b*a^-1*b^-1"])
        rng = Random(71)
        for _ in range(8):
            x = GroupRingMatrix.from_element(random_element(rng, 2))
            y = GroupRingMatrix.from_element(random_element(rng, 2))
            left = evaluate(x @ y, rep)
            right = exact.matmul(evaluate(x, rep).exact_matrix,
                                 evaluate(y, rep).exact_matrix)
            assert left.exact_matrix == right
            assert (evaluate(x.adjoint(), rep).exact_matrix
                    == exact.transpose(evaluate(x, rep).exact_matrix))

    def test_self_adjoint_evaluates_to_symmetric(self):
        rep = regular_rep(F2, ["a^2", "b^2", "a*b*a^-1*b^-1"])
        op = laplacian_operator(F2, rep)
        assert op.is_symmetric_exact()
        assert op.rows == op.cols == 4

    def test_block_structure_dimensions(self):
        rep = regular_rep(F1, ["a^3"])
        matrix = GroupRingMatrix(
            1, 2, [[GroupRingElement.one(), GroupRingElement.zero()]])
        op = evaluate(matrix, rep)
        assert (op.rows, op.cols) == (3, 6)

    def test_sign_representation_exact_value(self):
        p = Presentation(("a",), (Word([1, 1]),))
        sign = Representation(1, matrices=[((Fraction(-1),),)], label="sign")
        op = evaluate(GroupRingMatrix.from_element(
            p.degree_zero_laplacian()), sign)
        # 2 * (2 - a - a^-1) with a -> -1 gives exactly 8
        assert op.exact_matrix == ((Fraction(8),),)

    def test_one_norm(self):
        rep = regular_rep(F1, ["a^3"])
        op = laplacian_operator(F1, rep)
        # columns of 2*(2 - a - a^-1) in the regular representation
        # each hold |4| + |-2| + |-2|
        assert op.one_norm() == 8.0

    def test_operator_algebra(self):
        rep = regular_rep(F1, ["a^4"])
        op = laplacian_operator(F1, rep)
        zero = operator_difference(op, op)
        assert zero.is_zero_exact()

    def test_integer_operator_is_held_once(self):
        # entries strictly inside (-2**53, 2**53): the float64 shadow is
        # exact and the only copy; the int64 matrix is rebuilt on demand
        for top in (2**53 - 1, -(2**53) + 1):
            grid = np.array([[0, top], [top, 1]], dtype=np.int64)
            op = EvaluatedOperator(grid)
            assert op.coefficients is op.shadow
            assert op.exact_matrix.array.dtype == np.int64
            assert op.exact_matrix == grid.tolist()
            assert op.is_symmetric_exact()
            assert not op.is_zero_exact()

    def test_entries_from_2_53_keep_the_exact_matrix(self):
        # 2**53 and 2**53 + 1 share a float64: only the exact matrix shows
        # that this matrix is not symmetric
        grid = np.array([[0, 2**53], [2**53 + 1, 0]], dtype=np.int64)
        op = EvaluatedOperator(grid)
        assert op.coefficients.dtype == np.int64
        assert np.array_equal(op.shadow, op.shadow.T)
        assert not op.is_symmetric_exact()
        low = EvaluatedOperator(np.array([[-(2**53)]]))
        assert low.coefficients.dtype == np.int64
        assert low.exact_matrix == ((-(2**53),),)

    def test_product_check_requires_matching_shapes(self):
        rep = regular_rep(F1, ["a^3"])
        matrix = GroupRingMatrix(
            1, 2, [[GroupRingElement.one(), GroupRingElement.one()]])
        square = GroupRingMatrix.from_element(GroupRingElement.one())
        for r in (rep, Representation(3, perms=rep.perms)):
            row, one = evaluate(matrix, r), evaluate(square, r)
            for left, right in ((row, row), (row, one)):
                with pytest.raises(ShapeMismatchError):
                    left.product_is_zero_exact(right)
            assert not one.product_is_zero_exact(row)


def generator_matrix(index):
    return GroupRingMatrix.from_element(GroupRingElement.generator(index))


def regular_f2():
    return regular_rep(F2, ["a^3", "b^3", "a*b*a^-1*b^-1"])


@pytest.mark.parametrize("call, error, match", [
    (lambda: evaluate(generator_matrix(3), regular_f2()),
     UnknownGeneratorError,
     r"s3 is outside the 2 generator\(s\) of 'regular\[9\]'"),
    (lambda: evaluate(generator_matrix(3), Representation(
        9, perms=regular_f2().perms, label="twin")),
     UnknownGeneratorError, "s3 is outside the 2 generator.* of 'twin'"),
    (lambda: evaluate(generator_matrix(2), Representation(
        1, matrices=[[[-1]]], label="sign")),
     UnknownGeneratorError, "s2 is outside the 1 generator.* of 'sign'"),
    (lambda: spectral_gap(evaluate(free_group_complex(2).differential(0),
                                   regular_f2())),
     ShapeMismatchError, "requires a square operator"),
], ids=["characters", "dense-permutations", "orthogonal", "rectangular-gap"])
def test_malformed_operands_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("rep, text", [
    (regular_f2(), "EvaluatedOperator(9x9, backend='characters', "
                   "provenance='1x1@regular[9]')"),
    (Representation(9, perms=regular_f2().perms, label="twin"),
     "EvaluatedOperator(9x9, backend='dense', provenance='1x1@twin')"),
], ids=["characters", "dense"])
def test_repr_names_size_backend_and_provenance(rep, text):
    assert repr(laplacian_operator(F2, rep)) == text


class TestEigenvalueOracles:
    """Closed-form circulant spectra versus the numerical path."""

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 12])
    def test_cyclic_laplacian_spectrum(self, m):
        rep = regular_rep(F1, [f"a^{m}"])
        op = laplacian_operator(F1, rep)
        values = np.linalg.eigvalsh(op.shadow)
        oracle = sorted(2 * (2 - 2 * math.cos(2 * math.pi * j / m))
                        for j in range(m))
        assert np.allclose(values, oracle, atol=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_free_square_quotient_spectrum(self, m):
        rep = regular_rep(F2, [f"a^{m}", f"b^{m}", "a*b*a^-1*b^-1"])
        op = laplacian_operator(F2, rep)
        values = np.linalg.eigvalsh(op.shadow)
        oracle = sorted(
            2 * (4 - 2 * math.cos(2 * math.pi * j / m)
                 - 2 * math.cos(2 * math.pi * k / m))
            for j in range(m) for k in range(m))
        assert np.allclose(values, oracle, atol=1e-9)

    def test_cyclic_three_gap_report(self):
        rep = regular_rep(F1, ["a^3"])
        report = spectral_gap(laplacian_operator(F1, rep))
        assert report.dimension == 3
        assert report.kernel_dim == 1
        assert report.resolved
        assert abs(report.gap - 6.0) < 1e-9
        assert abs(report.lowest[0]) < 1e-9

    def test_zero_operator_gap(self):
        rep = regular_rep(F1, ["a^4"])
        zero = GroupRingMatrix.zero(2, 2)
        report = spectral_gap(evaluate(zero, rep))
        assert report.kernel_dim == report.dimension == 8
        assert report.gap == math.inf
        assert report.resolved

    def test_eigenvalues_computed_once_per_operator(self, monkeypatch):
        # a 9-cycle and a transposition do not commute: a dense operator
        cycle, swap = [*range(1, 9), 0], [1, 0, *range(2, 9)]
        rep = Representation(9, perms=[cycle, swap], label="S9")
        op = laplacian_operator(F2, rep)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(m.shape) or eigvalsh(m))
        first = spectral_gap(op)
        kernel_projection(op)
        assert spectral_gap(op) == first
        # the operator's eigenvalues once, on its one-symbol stack; the
        # projection's one-block stack P^2 - P once, for its idempotency
        # defect
        assert calls == [(1, 9, 9), (1, 9, 9)]

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "characters"])
    def test_gap_report_kept_per_tolerance(self, monkeypatch, dense):
        rep = regular_rep(F2, ["a^3", "b^3", "a*b*a^-1*b^-1"])
        if dense:
            rep = Representation(rep.dimension, perms=rep.perms)
        equal, compared = np.array_equal, []
        monkeypatch.setattr(np, "array_equal",
                            lambda a, b: compared.append(a) or equal(a, b))
        op = laplacian_operator(F2, rep)
        assert op.backend == ("dense" if dense else "characters")
        calls = []
        for name in ("is_symmetric_exact", "one_norm"):
            method = getattr(EvaluatedOperator, name)
            monkeypatch.setattr(
                EvaluatedOperator, name,
                lambda self, name=name, method=method:
                    calls.append(name) or method(self))
        first = spectral_gap(op)
        kernel_projection(op)
        assert spectral_gap(op) is first
        assert calls == ["is_symmetric_exact", "one_norm"]
        other = spectral_gap(op, 1e-6)
        assert other.zero_tolerance == 1e-6 and other.kernel_dim == 1
        assert calls == ["is_symmetric_exact", "one_norm"] * 2
        # evaluate compared the coefficients with their adjoint, and both
        # gap reports reused its verdict
        assert sum(a is op.coefficients for a in compared) == 1


class TestLanczos:
    def test_matches_dense_on_moderate_operator(self):
        rep = regular_rep(F2, ["a^8", "b^8", "a*b*a^-1*b^-1"])
        op = laplacian_operator(F2, rep)  # 64 x 64
        dense = np.linalg.eigvalsh(op.shadow)
        low = lanczos_lowest(op.shadow, 6)
        assert np.allclose(low, dense[:6], atol=1e-6)


class TestSizeBudget:
    def test_refused_before_the_grid_exists(self, monkeypatch):
        # F2 over (Z/20)^2 in degree 0: n = 400, beta_0 = 1.  The quotient
        # is abelian, so the grid is first built when the shadow is read
        rep = regular_rep(F2, ["a^20", "b^20", "a*b*a^-1*b^-1"])
        matrix = GroupRingMatrix.from_element(F2.degree_zero_laplacian())
        monkeypatch.setattr(spectral, "DENSE_EIG_CUTOFF", 399)
        tracemalloc.start()
        try:
            op = evaluate(matrix, rep)
            with pytest.raises(SizeBudgetError, match="400"):
                _ = op.shadow
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 400**2
        monkeypatch.setattr(spectral, "DENSE_EIG_CUTOFF", 400)
        report = spectral_gap(evaluate(matrix, rep))
        assert report.kernel_dim == 1
        assert report.resolved
        assert evaluate(matrix, rep).shadow.shape == (400, 400)


class TestGapPolicy:
    def test_unresolved_when_tolerance_swamps_gap(self):
        rep = regular_rep(F1, ["a^3"])
        op = laplacian_operator(F1, rep)
        # threshold = 0.2 * 8 = 1.6; gap 6 < 10 * 1.6 so not resolved
        report = spectral_gap(op, zero_tolerance=0.2)
        assert not report.resolved
        with pytest.raises(UnresolvedGapError):
            report.require_resolved()

    def test_non_psd_detected(self):
        rep = regular_rep(F1, ["a^3"])
        generator = GroupRingElement.generator(1)
        op = evaluate(GroupRingMatrix.from_element(
            generator + generator.star()), rep)
        # eigenvalues of a + a^-1 on Z/3 are {2, -1, -1}
        with pytest.raises(NotPositiveSemidefiniteError):
            spectral_gap(op)

    def test_non_symmetric_rejected(self):
        rep = regular_rep(F1, ["a^3"])
        op = evaluate(GroupRingMatrix.from_element(
            GroupRingElement.generator(1)), rep)
        with pytest.raises(NotPositiveSemidefiniteError):
            spectral_gap(op)


class TestProjections:
    def test_eigen_projection_cyclic(self):
        rep = regular_rep(F1, ["a^5"])
        op = laplacian_operator(F1, rep)
        proj = kernel_projection(op)
        # kernel of the laplacian on a transitive action: constants only,
        # so every entry of the projection is 1/dimension
        assert np.allclose(proj.matrix, np.full((5, 5), 0.2), atol=1e-9)
        assert proj.idempotency_defect < 1e-10
        assert proj.selfadjoint_defect < 1e-12
        assert abs(proj.trace() - 1.0) < 1e-9

    def test_selfadjoint_defect(self):
        # one dense symbol each
        sym = _projection_from_array(
            np.array([[[1.0, 0.5], [0.5, 0.0]]]), "eigen", "")
        assert sym.selfadjoint_defect == 0.0
        skew = _projection_from_array(
            np.array([[[1.0, 0.5], [0.25, 0.0]]]), "eigen", "")
        assert skew.selfadjoint_defect == pytest.approx(0.25)

    def test_heat_agrees_with_eigen(self):
        rep = regular_rep(F2, ["a^3", "b^3", "a*b*a^-1*b^-1"])
        op = laplacian_operator(F2, rep)
        eigen = kernel_projection(op)
        heat = heat_projection(op, zero_tolerance=1e-10)
        assert projection_distance(eigen, heat) < 1e-6
        assert heat.method == "heat"
        assert eigen.method == "eigen"

    def test_heat_that_cannot_converge_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "HEAT_MAX_DOUBLINGS", 1)
        op = laplacian_operator(F2, regular_f2())
        with pytest.raises(UnresolvedGapError, match="failed to converge"):
            heat_projection(op)

    def test_heat_on_zero_operator_is_identity(self):
        rep = regular_rep(F1, ["a^3"])
        op = evaluate(GroupRingMatrix.zero(1, 1), rep)
        proj = heat_projection(op)
        assert np.array_equal(proj.matrix, np.eye(3))

    @pytest.mark.parametrize("dense", [False, True],
                             ids=["characters", "dense"])
    def test_heat_takes_no_norm_before_its_bound_can_stop_it(
            self, monkeypatch, dense):
        rep = regular_rep(F2, ["a^8", "b^8", "a*b*a^-1*b^-1"])
        if dense:
            rep = Representation(rep.dimension, perms=rep.perms)
        op = laplacian_operator(F2, rep)
        report = spectral_gap(op)
        # doubling k symmetrizes its square, one _adjoint call, before it
        # may take the norm of its difference
        adjoints, norms = [], []
        adjoint, stack_norm = spectral._adjoint, spectral._stack_norm
        monkeypatch.setattr(spectral, "_adjoint", lambda stack: (
            adjoints.append(1) or adjoint(stack)))
        monkeypatch.setattr(spectral, "_stack_norm", lambda stack: (
            norms.append(len(adjoints)) or stack_norm(stack)))
        heat_projection(op)
        bounds = [max(0.0, 1.0 - report.gap / report.scale)]
        while len(bounds) <= max(norms):
            bounds.append(bounds[-1] * bounds[-1])
        half = report.zero_tolerance / 2
        first = next(k for k, bound in enumerate(bounds) if bound <= half)
        assert first > 1
        assert norms[0] == first
        assert all(bounds[k] <= half for k in norms)

    @pytest.mark.parametrize("project", [kernel_projection, heat_projection],
                             ids=["eigen", "heat"])
    def test_unresolved_gap_blocks_projection(self, project):
        rep = regular_rep(F1, ["a^3"])
        op = laplacian_operator(F1, rep)
        with pytest.raises(UnresolvedGapError):
            project(op, zero_tolerance=0.2)

    def test_projection_annihilates_operator_range(self):
        rep = regular_rep(F2, ["a^2", "b^4", "a*b*a^-1*b^-1"])
        op = laplacian_operator(F2, rep)
        proj = kernel_projection(op)
        assert float(np.abs(proj.matrix @ op.shadow).max()) < 1e-8
