"""Spectral analysis of group-ring matrices under exact representations.

``evaluate`` turns a k x k matrix over the group ring into an exact
(k * dim) x (k * dim) block matrix, block (i, j) being
``sum_w coeff * pi(w)``, held in one :class:`exact.Matrix` (int64 for
integer coefficients under permutations, Python rationals otherwise).
An evaluated operator keeps its float64 shadow, and the exact matrix
beside it only when the shadow is not exact: int64 entries strictly
between -2**53 and 2**53 are held once, as floats.  The exact-to-float
boundary sits immediately before eigenvalue computation.

An integral matrix under the regular representation of a quotient whose
generators commute (an abelian quotient) is held in character form: its
eigenvalues are those of one k x k symbol per character and its checks
read k x k coefficient arrays, so ``betti``, ``spectrum`` and ``luck``
there meet no dense size budget.  Any other operator, and a character
form's shadow when a dense consumer (projections, rank checks, exact
products) first reads it, is a dense grid, refused with SizeBudgetError
before allocation when wider than ``DENSE_EIG_CUTOFF``.
``GapReport.backend`` names the eigenvalue path: "dense" or "characters".

Spectral quantities follow one convention throughout:

* the zero cluster of a PSD operator is every eigenvalue at most
  ``zero_tolerance * max(1, ||M||_1)``;
* the spectral gap is the first eigenvalue above that cluster, and it is
  "resolved" when it exceeds ten times the cluster threshold.

Kernel projections come from two independent routes, eigenvector outer
products and repeated squaring of I - M/s with s = max(1, ||M||_1) (a
discrete heat semigroup), which the tests require to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .cosets import Representation
from .errors import (
    InvariantError,
    NotPositiveSemidefiniteError,
    ShapeMismatchError,
    SizeBudgetError,
    UnresolvedGapError,
)
from .groupring import GroupRingMatrix

DEFAULT_ZERO_TOLERANCE = 1e-8
DENSE_EIG_CUTOFF = 4096
GAP_RESOLUTION_FACTOR = 10.0
HEAT_MAX_DOUBLINGS = 64


class EvaluatedOperator:
    """A group-ring matrix pushed through a representation.

    Carries a float64 shadow and, when the shadow is not exact, the exact
    matrix beside it.  ``rows`` and ``cols`` are total dimensions (ring
    rows/cols times representation dimension).
    """

    __slots__ = ("_exact", "_shadow", "_scatter", "rows", "cols",
                 "provenance", "_eigenvalues")
    backend = "dense"

    def __init__(self, exact_matrix: exact.Matrix, provenance: str = ""):
        self.rows, self.cols = exact_matrix.array.shape
        self.provenance = provenance
        self._eigenvalues = self._scatter = None
        self._hold(exact_matrix)

    def _hold(self, exact_matrix: exact.Matrix) -> None:
        array = exact_matrix.array
        self._shadow = exact.to_float(exact_matrix)
        shadow_is_exact = (array.dtype == np.int64 and exact.max_abs(array)
                           < exact.FLOAT_EXACT_LIMIT)
        self._exact = None if shadow_is_exact else exact_matrix

    @property
    def shadow(self) -> np.ndarray:
        if self._shadow is None:
            self._hold(self._scatter())
        return self._shadow

    @property
    def exact_matrix(self) -> exact.Matrix:
        shadow = self.shadow
        if self._exact is None:
            return exact.Matrix(shadow.astype(np.int64))
        return self._exact

    @property
    def dimension(self) -> int:
        if self.rows != self.cols:
            raise ShapeMismatchError("dimension is defined for square operators")
        return self.rows

    # an exact shadow holds integer-valued floats: float equality is exact
    def is_symmetric_exact(self) -> bool:
        if self._exact is None:
            return (self.rows == self.cols
                    and np.array_equal(self.shadow, self.shadow.T))
        return exact.is_symmetric(self._exact)

    def is_zero_exact(self) -> bool:
        if self._exact is None:
            return not np.count_nonzero(self.shadow)
        return exact.is_zero(self._exact)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the symmetric shadow, computed once."""
        if self._eigenvalues is None:
            self._eigenvalues = np.linalg.eigvalsh(self.shadow)
        return self._eigenvalues

    def one_norm(self) -> float:
        return _one_norm(self.shadow)

    def __repr__(self) -> str:
        return (f"EvaluatedOperator({self.rows}x{self.cols}, "
                f"provenance={self.provenance!r})")


class CharacterOperator(EvaluatedOperator):
    """An integral operator of an abelian quotient Q, held in character form.

    Block (i, j) is the convolution x -> v_ij * x on Z[Q], v_ij being the
    int64 array ``coefficients[i, j]`` of shape Q's orders: the checks,
    norm and eigenvalues (those of the symbols fftn(v)(chi), one k x k
    matrix per character chi) need no n x n array.  The dense shadow and
    exact matrix are scattered on first access.
    """

    __slots__ = ("coefficients",)
    backend = "characters"

    def __init__(self, coefficients: np.ndarray, rows: int, cols: int,
                 scatter, provenance: str):
        self.coefficients, self.rows, self.cols = coefficients, rows, cols
        self._scatter, self.provenance = scatter, provenance
        self._eigenvalues = self._shadow = self._exact = None

    def is_symmetric_exact(self) -> bool:
        """v_ij[y] = v_ji[-y] for every y (arrays of two shapes differ)."""
        v = self.coefficients
        axes = tuple(range(2, v.ndim))
        return np.array_equal(v, np.roll(np.flip(v, axes), 1, axes)
                              .swapaxes(0, 1))

    def is_zero_exact(self) -> bool:
        return not np.count_nonzero(self.coefficients)

    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            v = self.coefficients
            symbols = np.fft.fftn(v, axes=range(2, v.ndim))
            symbols = symbols.reshape(*v.shape[:2], -1).transpose(2, 0, 1)
            self._eigenvalues = np.sort(np.linalg.eigvalsh(symbols).ravel())
        return self._eigenvalues

    def one_norm(self) -> float:
        v = np.abs(self.coefficients)
        return _one_norm(v.sum(axis=tuple(range(2, v.ndim))))


def _one_norm(array: np.ndarray) -> float:
    """Largest column sum of absolute values; 0.0 for an empty array."""
    return float(np.abs(array).sum(axis=0).max()) if array.size else 0.0


def evaluate(matrix: GroupRingMatrix, rep: Representation,
             provenance: str = "") -> EvaluatedOperator:
    """Exact block evaluation of a group-ring matrix under a representation.

    A *-homomorphism: products, sums, and adjoints commute with
    evaluation, and self-adjoint inputs give exactly symmetric outputs.
    An entry of a permutation evaluation is a sum of coefficients, so
    with integer coefficients of absolute sum below 2**62 it is int64.
    Such an integral matrix under the regular representation of a
    quotient whose generators commute is held in character form: each
    term adds its coefficient to v_ij at the coset its word sends coset 0
    to.  Otherwise each term is one scatter into the dense grid, which
    raises SizeBudgetError, before allocating, when its larger side
    exceeds ``DENSE_EIG_CUTOFF``.
    """
    provenance = provenance or f"{matrix.rows}x{matrix.cols}@{rep.label or 'rep'}"
    terms = [(i, j, word, coeff)
             for i in range(matrix.rows) for j in range(matrix.cols)
             for word, coeff in matrix.entry(i, j).terms()]
    integral = (rep.perms is not None
                and all(coeff.denominator == 1 for *_, coeff in terms)
                and sum(abs(coeff) for *_, coeff in terms) < 2**62)
    characters = rep.characters if integral else None
    if characters is None:
        result = EvaluatedOperator(
            _scatter(matrix, rep, terms, integral, provenance), provenance)
    else:
        orders, codes = characters
        v = np.zeros((matrix.rows, matrix.cols, rep.dimension), dtype=np.int64)
        for i, j, word, coeff in terms:
            v[i, j, codes[rep.word_perm(word)[0]]] += coeff.numerator
        result = CharacterOperator(
            v.reshape(matrix.rows, matrix.cols, *orders),
            matrix.rows * rep.dimension, matrix.cols * rep.dimension,
            lambda: _scatter(matrix, rep, terms, True, provenance), provenance)
    if matrix.is_self_adjoint() and not result.is_symmetric_exact():
        raise InvariantError(
            "self-adjoint input evaluated to a non-symmetric matrix")
    return result


def _scatter(matrix: GroupRingMatrix, rep: Representation, terms: list,
             integral: bool, provenance: str) -> exact.Matrix:
    """The dense exact grid, int64 when ``integral``."""
    dim = rep.dimension
    side = max(matrix.rows, matrix.cols) * dim
    if side > DENSE_EIG_CUTOFF:
        raise SizeBudgetError(
            f"operator {provenance!r} has dimension {side}, above the dense "
            f"size budget of {DENSE_EIG_CUTOFF}")
    grid = np.zeros((matrix.rows * dim, matrix.cols * dim),
                    dtype=np.int64 if integral else object)
    columns = np.arange(dim)
    for i, j, word, coeff in terms:
        row0, col0 = i * dim, j * dim
        if rep.perms is not None:
            grid[row0 + rep.word_perm(word), col0 + columns] += (
                coeff.numerator if integral else coeff)
        else:
            grid[row0:row0 + dim, col0:col0 + dim] += (
                coeff * rep.word_matrix(word).array)
    return exact.Matrix(grid)


@dataclass(frozen=True)
class GapReport:
    """Zero cluster and first nonzero eigenvalue of a PSD operator."""

    dimension: int
    kernel_dim: int
    gap: float
    resolved: bool
    zero_tolerance: float
    threshold: float
    scale: float
    lowest: tuple[float, ...]
    provenance: str
    backend: str = "dense"

    def require_resolved(self) -> "GapReport":
        if not self.resolved:
            raise UnresolvedGapError(
                f"zero cluster of {self.provenance!r} is not separated: "
                f"gap={self.gap:.3e} threshold={self.threshold:.3e}")
        return self


def lanczos_lowest(shadow: np.ndarray, count: int,
                   iterations: int | None = None) -> np.ndarray:
    """Lowest eigenvalues of a large symmetric matrix, with multiplicity.

    Rayleigh-Ritz on a block Krylov subspace whose block width equals the
    number of requested values.  The width matters: a single-vector
    Krylov space carries at most one copy of each eigenvalue, so a block
    at least as wide as the largest expected cluster is required to count
    multiplicities correctly.  Full reorthogonalization keeps the basis
    orthonormal, and a fixed-seed start block makes every run identical.

    ``iterations`` bounds the number of block expansions; the default
    grows the subspace to roughly four blocks (or the full space when
    that is smaller) and stops early once the requested values stop
    moving.  No kernel dimension is read from it: nothing certifies that
    its lowest Ritz values have converged to a zero cluster.
    """
    n = shadow.shape[0]
    count = min(count, n)
    if count <= 0:
        return np.array([])
    scale = _one_norm(shadow) + 1.0
    block = min(n, max(count, 2))
    if iterations is None:
        target = min(n, max(8 * block, 256))
        iterations = max(1, -(-target // block))

    start = np.random.Generator(np.random.PCG64(20080514))
    basis, _ = np.linalg.qr(start.standard_normal((n, block)))

    def ritz_lowest(q: np.ndarray) -> np.ndarray:
        projected = q.T @ (shadow @ q)
        projected = 0.5 * (projected + projected.T)
        return np.linalg.eigvalsh(projected)[:count]

    q = basis
    lowest = None
    for _ in range(iterations):
        w = shadow @ q[:, -block:]
        w = w - q @ (q.T @ w)
        w = w - q @ (q.T @ w)  # second pass for numerical orthogonality
        w, r = np.linalg.qr(w)
        alive = np.abs(np.diag(r)) > 1e-10 * scale
        w = w[:, alive]
        if w.shape[1] == 0:
            break  # invariant subspace: Ritz values there are exact
        block = w.shape[1]
        q = np.concatenate([q, w], axis=1)
        current = ritz_lowest(q)
        if (lowest is not None and len(current) == len(lowest)
                and np.all(np.abs(current - lowest) <= 1e-13 * scale)):
            return current
        lowest = current
    return ritz_lowest(q) if lowest is None else lowest


def spectral_gap(op: EvaluatedOperator,
                 zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> GapReport:
    """Locate the zero cluster of a PSD operator and the gap above it.

    The cluster threshold is ``zero_tolerance * max(1, ||M||_1)``; the
    report is marked resolved only when the first eigenvalue above the
    cluster exceeds ten times that threshold.
    """
    if op.rows != op.cols:
        raise ShapeMismatchError("spectral gap requires a square operator")
    if not op.is_symmetric_exact():
        raise NotPositiveSemidefiniteError(
            f"operator {op.provenance!r} is not symmetric")
    scale = max(1.0, op.one_norm())
    threshold = zero_tolerance * scale
    values = op.eigenvalues()
    if len(values) and values[0] < -threshold:
        raise NotPositiveSemidefiniteError(
            f"operator {op.provenance!r} has eigenvalue {values[0]:.6e} "
            f"below -threshold={-threshold:.3e}")

    kernel_dim = int(np.searchsorted(values, threshold, side="right"))
    gap = float(values[kernel_dim]) if kernel_dim < len(values) else math.inf
    resolved = gap >= GAP_RESOLUTION_FACTOR * threshold
    return GapReport(
        dimension=op.rows,
        kernel_dim=kernel_dim,
        gap=gap,
        resolved=resolved,
        zero_tolerance=zero_tolerance,
        threshold=threshold,
        scale=scale,
        lowest=tuple(float(v) for v in values[:10]),
        provenance=op.provenance,
        backend=op.backend,
    )


@dataclass(frozen=True)
class ProjectionMatrix:
    """A numerical spectral projection with its invariant defects."""

    matrix: np.ndarray
    method: str
    idempotency_defect: float
    selfadjoint_defect: float
    provenance: str

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def max_abs_entry(self) -> float:
        return float(np.abs(self.matrix).max()) if self.matrix.size else 0.0


def _projection_from_array(matrix: np.ndarray, method: str,
                           provenance: str) -> ProjectionMatrix:
    idem = float(np.linalg.norm(matrix @ matrix - matrix, 2)) if matrix.size else 0.0
    # an exactly symmetric matrix has defect 0.0 without an SVD
    sym = (0.0 if np.array_equal(matrix, matrix.T)
           else float(np.linalg.norm(matrix - matrix.T, 2)))
    return ProjectionMatrix(
        matrix=matrix, method=method,
        idempotency_defect=idem, selfadjoint_defect=sym,
        provenance=provenance)


def kernel_projection(op: EvaluatedOperator,
                      zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> ProjectionMatrix:
    """Orthogonal projection onto the zero cluster via eigenvectors.

    Requires the gap to be resolved; raises UnresolvedGapError otherwise.
    """
    report = spectral_gap(op, zero_tolerance).require_resolved()
    # spectral_gap has rejected operators that are not square and exactly
    # symmetric, so the float shadow goes straight to the eigensolver
    vectors = np.linalg.eigh(op.shadow)[1] if op.rows else np.empty((0, 0))
    basis = vectors[:, :report.kernel_dim]
    matrix = basis @ basis.T
    return _projection_from_array(
        matrix, "eigen", f"ker[{op.provenance}]")


def heat_projection(op: EvaluatedOperator, gap_hint: float,
                    tolerance: float = DEFAULT_ZERO_TOLERANCE) -> ProjectionMatrix:
    """Kernel projection as the limit of (I - M/s)^(2^k), s = max(1, ||M||_1).

    I - M/s has eigenvalue 1 on the kernel and eigenvalues in
    [0, 1 - gap/s] above it.  Squaring it until successive iterates differ
    by less than the tolerance and the a-priori bound
    (1 - gap_hint/s)^(2^k) <= tolerance certifies that the iterate is
    within tolerance of the exact projection.
    """
    if op.rows != op.cols:
        raise ShapeMismatchError("heat projection requires a square operator")
    if not (gap_hint > 0) or not math.isfinite(gap_hint):
        if gap_hint == math.inf:
            # Zero operator: the heat semigroup is constant at the identity.
            return _projection_from_array(
                np.eye(op.rows), "heat", f"heat[{op.provenance}]")
        raise UnresolvedGapError(
            f"heat projection needs a positive resolved gap hint, "
            f"got {gap_hint!r}")
    scale = max(1.0, op.one_norm())
    current = np.eye(op.rows) - op.shadow / scale
    bound = max(0.0, 1.0 - gap_hint / scale)  # bounds |eigenvalues| off the kernel
    for _ in range(HEAT_MAX_DOUBLINGS):
        squared = current @ current
        squared = 0.5 * (squared + squared.T)
        bound *= bound
        diff = float(np.linalg.norm(squared - current, 2)) if current.size else 0.0
        current = squared
        if diff <= tolerance / 2 and bound <= tolerance / 2:
            break
    else:
        raise UnresolvedGapError(
            f"heat iteration failed to converge for {op.provenance!r}; "
            f"the gap hint {gap_hint} may be wrong")
    return _projection_from_array(current, "heat", f"heat[{op.provenance}]")
