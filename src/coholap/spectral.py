"""Spectral analysis of group-ring matrices under exact representations.

``evaluate`` turns a k x k matrix over the group ring into an exact
(k * dim) x (k * dim) block matrix, block (i, j) being
``sum_w coeff * pi(w)``, held in one :class:`exact.Matrix` (int64 for
integer coefficients under permutations, Python rationals otherwise).
An evaluated operator keeps its float64 shadow, and the exact matrix
beside it only when the shadow is not exact: int64 entries strictly
between -2**53 and 2**53 are held once, as floats.  The exact-to-float
boundary sits immediately before eigenvalue computation.

An integral matrix under the regular representation of an abelian
quotient, whose coset table carries its characters, is held in character
form: one k x k symbol per character.  Its eigenvalues, kernel and heat
projections, rank checks and the exact Delta^+ Delta^- = 0 check run on
those symbols and on the k x k arrays of group-ring coefficients, so
``betti``, ``spectrum``, ``luck``, ``project`` and ``ghost`` there meet no
dense size budget.  Every routine below reads an operator as a stack of
symbols: a dense operator has one, its n x n shadow.  Only a non-abelian
or orthogonal stage, and the ``shadow``, ``exact_matrix`` or projection
``matrix`` of a character form when read, build the dense grid, refused
with SizeBudgetError before allocation when wider than
``DENSE_EIG_CUTOFF``.  ``GapReport.backend`` and
``ProjectionMatrix.backend`` name the path: "dense" or "characters".

Spectral quantities follow one convention throughout:

* the zero cluster of a PSD operator is every eigenvalue at most
  ``zero_tolerance * max(1, ||M||_1)``;
* the spectral gap is the first eigenvalue above that cluster, and it is
  "resolved" when it exceeds ten times the cluster threshold.

Kernel projections come from two independent routes, eigenvector outer
products and repeated squaring of I - M/s with s = max(1, ||M||_1) (a
discrete heat semigroup), which the tests require to agree.  Both take
``(op, zero_tolerance)`` and read the gap from ``spectral_gap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .cosets import CosetTable, Representation
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

    __slots__ = ("_exact", "_shadow", "rows", "cols", "provenance",
                 "_eigenvalues")
    backend = "dense"
    characters = None  # the (orders, codes) pair of a character form

    def __init__(self, exact_matrix: exact.Matrix, provenance: str = ""):
        self.rows, self.cols = exact_matrix.array.shape
        self.provenance = provenance
        self._eigenvalues = None
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
            self._hold(self._grid())
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

    def symbols(self) -> np.ndarray:
        """The operator as a stack of blocks it is the direct sum of; a
        dense operator is one block, its shadow."""
        return self.shadow[None]

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

    def product_is_zero_exact(self, right: "EvaluatedOperator") -> bool:
        """Whether this operator times ``right`` is exactly zero."""
        return exact.is_zero(exact.matmul(self.exact_matrix,
                                          right.exact_matrix))

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the symmetric shadow, computed once."""
        if self._eigenvalues is None:
            self._eigenvalues = np.linalg.eigvalsh(self.shadow)
        return self._eigenvalues

    def one_norm(self) -> float:
        return _one_norm(self.shadow)

    def rank(self, threshold: float) -> int:
        """Numerical rank: singular values above sqrt(threshold), summed
        over the symbols."""
        return int(np.linalg.matrix_rank(self.symbols(),
                                         tol=math.sqrt(threshold)).sum())

    def __repr__(self) -> str:
        return (f"EvaluatedOperator({self.rows}x{self.cols}, "
                f"provenance={self.provenance!r})")


class CharacterOperator(EvaluatedOperator):
    """An integral operator of an abelian quotient Q, held in character form.

    Block (i, j) is the convolution x -> v_ij * x on Z[Q], v_ij being the
    int64 array ``coefficients[i, j]`` of shape Q's orders, and
    ``characters`` is the quotient's (orders, codes) pair.  Its symbols
    are fftn(v)(chi), one k x k matrix per character chi, so the checks,
    norm, eigenvalues, projections and rank need no n x n array.  The
    dense shadow and exact matrix are built on first access.
    """

    __slots__ = ("coefficients", "characters")
    backend = "characters"

    def __init__(self, coefficients: np.ndarray, characters, provenance: str):
        self.coefficients, self.characters = coefficients, characters
        size = characters[1].size
        self.rows = coefficients.shape[0] * size
        self.cols = coefficients.shape[1] * size
        self.provenance = provenance
        self._eigenvalues = self._shadow = self._exact = None

    def _grid(self) -> exact.Matrix:
        return exact.Matrix(_circulant(self.coefficients, self.characters[1],
                                       self.provenance))

    def symbols(self) -> np.ndarray:
        v = self.coefficients
        symbols = np.fft.fftn(v, axes=range(2, v.ndim))
        return symbols.reshape(*v.shape[:2], -1).transpose(2, 0, 1)

    def is_symmetric_exact(self) -> bool:
        """v_ij[y] = v_ji[-y] for every y (arrays of two shapes differ)."""
        v = self.coefficients
        axes = tuple(range(2, v.ndim))
        return np.array_equal(v, np.roll(np.flip(v, axes), 1, axes)
                              .swapaxes(0, 1))

    def is_zero_exact(self) -> bool:
        return not np.count_nonzero(self.coefficients)

    def product_is_zero_exact(self, right: EvaluatedOperator) -> bool:
        """Checked on the product's coset-0 columns, which fix an operator
        that commutes with translation: (a * b)_il = sum over the pairs
        (j, y) with a_ij[y] != 0 of a_ij[y] roll(b_jl, y), one exact
        product of a k x S matrix with an S x k|Q| matrix."""
        if not isinstance(right, CharacterOperator):
            return super().product_is_zero_exact(right)
        a, b = self.coefficients, right.coefficients
        orders, axes = a.shape[2:], tuple(range(1, b.ndim - 1))
        flat = a.reshape(*a.shape[:2], -1)
        js, ys = np.nonzero(flat.any(axis=0))
        shifted = np.array(
            [np.roll(b[j], np.unravel_index(y, orders), axes).ravel()
             for j, y in zip(js, ys)], dtype=np.int64).reshape(len(js),
                                                               right.cols)
        return exact.is_zero(exact.matmul(exact.Matrix(flat[:, js, ys]),
                                          exact.Matrix(shifted)))

    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            self._eigenvalues = np.sort(
                np.linalg.eigvalsh(self.symbols()).ravel())
        return self._eigenvalues

    def one_norm(self) -> float:
        v = np.abs(self.coefficients)
        return _one_norm(v.sum(axis=tuple(range(2, v.ndim))))


def _one_norm(array: np.ndarray) -> float:
    """Largest column sum of absolute values; 0.0 for an empty array."""
    return float(np.abs(array).sum(axis=0).max()) if array.size else 0.0


def _check_budget(side: int, provenance: str) -> None:
    if side > DENSE_EIG_CUTOFF:
        raise SizeBudgetError(
            f"operator {provenance!r} has dimension {side}, above the dense "
            f"size budget of {DENSE_EIG_CUTOFF}")


def evaluate(matrix: GroupRingMatrix, rep: Representation,
             provenance: str = "") -> EvaluatedOperator:
    """Exact block evaluation of a group-ring matrix under a representation.

    A *-homomorphism: products, sums, and adjoints commute with
    evaluation, and self-adjoint inputs give exactly symmetric outputs.
    An entry of a permutation evaluation is a sum of coefficients, so
    with integer coefficients of absolute sum below 2**62 it is int64.
    Such an integral matrix under a representation whose coset table
    carries characters is held in character form: each term adds its
    coefficient to v_ij at coset 0 * word^-1, walked letter by letter
    through the table.  Otherwise (no table included) each term is one
    scatter into the dense grid, which raises SizeBudgetError, before
    allocating, when its larger side exceeds ``DENSE_EIG_CUTOFF``.
    """
    provenance = provenance or f"{matrix.rows}x{matrix.cols}@{rep.label or 'rep'}"
    terms = [(i, j, word, coeff)
             for i in range(matrix.rows) for j in range(matrix.cols)
             for word, coeff in matrix.entry(i, j).terms()]
    integral = (rep.perms is not None
                and all(coeff.denominator == 1 for *_, coeff in terms)
                and sum(abs(coeff) for *_, coeff in terms) < 2**62)
    characters = rep.table.characters if integral and rep.table else None
    if characters is None:
        result = EvaluatedOperator(
            _scatter(matrix, rep, terms, integral, provenance), provenance)
    else:
        orders, codes = characters
        v = np.zeros((matrix.rows, matrix.cols, rep.dimension), dtype=np.int64)
        for i, j, word, coeff in terms:
            coset = 0
            for letter in reversed(word):
                coset = rep.table.columns[CosetTable._column(-letter), coset]
            v[i, j, codes[coset]] += coeff.numerator
        result = CharacterOperator(
            v.reshape(matrix.rows, matrix.cols, *orders), characters,
            provenance)
    if matrix.is_self_adjoint() and not result.is_symmetric_exact():
        raise InvariantError(
            "self-adjoint input evaluated to a non-symmetric matrix")
    return result


def _scatter(matrix: GroupRingMatrix, rep: Representation, terms: list,
             integral: bool, provenance: str) -> exact.Matrix:
    """The dense exact grid, int64 when ``integral``."""
    dim = rep.dimension
    _check_budget(max(matrix.rows, matrix.cols) * dim, provenance)
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


def _circulant(v: np.ndarray, codes: np.ndarray,
               provenance: str) -> np.ndarray:
    """The dense grid of the convolutions v_ij on cosets numbered by
    ``codes``: block (i, j) holds v_ij[phi(y) - phi(x)] in row y, column x."""
    rows, cols, *orders = v.shape
    size = codes.size
    _check_budget(max(rows, cols) * size, provenance)
    phi = np.unravel_index(codes, orders)
    offsets = np.ravel_multi_index(
        tuple((p[:, None] - p[None, :]) % m for p, m in zip(phi, orders)),
        orders)
    grid = np.empty((rows * size, cols * size), dtype=v.dtype)
    for i in range(rows):
        for j in range(cols):
            grid[i * size:(i + 1) * size, j * size:(j + 1) * size] = (
                v[i, j].ravel()[offsets])
    return grid


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
    """A numerical spectral projection with its invariant defects.

    ``symbols`` is the projection as a stack of blocks, one per symbol of
    the operator it projects for; ``characters`` is the (orders, codes)
    pair of a character form and None for a dense one.  Each defect is
    the 2-norm of the block-diagonal operator: the largest over the
    stack.
    """

    symbols: np.ndarray
    method: str
    idempotency_defect: float
    selfadjoint_defect: float
    provenance: str
    characters: tuple | None = None

    @property
    def backend(self) -> str:
        return "dense" if self.characters is None else "characters"

    @property
    def dimension(self) -> int:
        return self.symbols.shape[0] * self.symbols.shape[1]

    def trace(self) -> float:
        return float(np.trace(self.symbols, axis1=1, axis2=2).real.sum())

    def _kernels(self) -> np.ndarray:
        """Block (i, j) as the real convolution kernel p_ij on Q."""
        k = self.symbols.shape[1]
        stacked = self.symbols.transpose(1, 2, 0).reshape(
            k, k, *self.characters[0])
        return np.fft.ifftn(stacked, axes=range(2, stacked.ndim)).real

    def max_abs_entry(self) -> float:
        entries = self.symbols if self.characters is None else self._kernels()
        return float(np.abs(entries).max(initial=0.0))

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n projection; built on each read for a character
        form, and refused above ``DENSE_EIG_CUTOFF``."""
        if self.characters is None:
            return self.symbols[0]
        return _circulant(self._kernels(), self.characters[1],
                          self.provenance)


def _adjoint(stack: np.ndarray) -> np.ndarray:
    # conj() of a real array is the array itself, not a copy
    return stack.swapaxes(-1, -2).conj()


def _stack_norm(stack: np.ndarray) -> float:
    """2-norm of a stack of Hermitian blocks: the largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(stack)).max())


def _projection_from_array(symbols: np.ndarray, method: str,
                           provenance: str,
                           characters: tuple | None = None) -> ProjectionMatrix:
    idem = _stack_norm(symbols @ symbols - symbols)
    adjoint = _adjoint(symbols)
    # an exactly self-adjoint stack has defect 0.0 without an SVD
    sym = (0.0 if np.array_equal(symbols, adjoint)
           else float(np.linalg.norm(symbols - adjoint, 2, (1, 2)).max()))
    return ProjectionMatrix(
        symbols=symbols, method=method,
        idempotency_defect=idem, selfadjoint_defect=sym,
        provenance=provenance, characters=characters)


def kernel_projection(op: EvaluatedOperator,
                      zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> ProjectionMatrix:
    """Orthogonal projection onto the zero cluster via eigenvectors.

    Each symbol keeps the eigenvectors whose eigenvalue is at most the
    cluster threshold, and together they must number the reported kernel
    dimension.  Requires the gap to be resolved; raises
    UnresolvedGapError otherwise.
    """
    report = spectral_gap(op, zero_tolerance).require_resolved()
    # spectral_gap has rejected operators that are not square and exactly
    # symmetric, so the symbols go straight to the eigensolver
    values, vectors = np.linalg.eigh(op.symbols())
    # eigenvalues ascend, so each symbol keeps a leading block of columns
    kept = np.count_nonzero(values <= report.threshold, axis=1)
    if kept.sum() != report.kernel_dim:
        raise InvariantError(
            f"{kept.sum()} eigenvectors of {op.provenance!r} lie in the zero "
            f"cluster, which has {report.kernel_dim} eigenvalues")
    width = kept.max()
    basis = vectors[..., :width] * (np.arange(width) < kept[:, None, None])
    return _projection_from_array(basis @ _adjoint(basis), "eigen",
                                  f"ker[{op.provenance}]", op.characters)


def heat_projection(op: EvaluatedOperator,
                    zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> ProjectionMatrix:
    """Kernel projection as the limit of (I - M/s)^(2^k), s = max(1, ||M||_1).

    I - M/s has eigenvalue 1 on the kernel and eigenvalues in
    [0, 1 - gap/s] above it, gap and s as ``spectral_gap`` reports them.
    Squaring it until the a-priori bound (1 - gap/s)^(2^k), and only then
    the difference of successive iterates, is at most half the tolerance
    certifies that the iterate is within tolerance of the exact
    projection.  Each symbol is squared on its own and made self-adjoint
    at every step.  Raises UnresolvedGapError for an unresolved gap.
    """
    report = spectral_gap(op, zero_tolerance).require_resolved()
    symbols, provenance = op.symbols(), f"heat[{op.provenance}]"
    identity = np.eye(symbols.shape[1])
    if report.gap == math.inf:
        # every eigenvalue is in the zero cluster: the projection is I
        return _projection_from_array(
            np.broadcast_to(identity, symbols.shape), "heat", provenance,
            op.characters)
    current = identity - symbols / report.scale
    bound = max(0.0, 1.0 - report.gap / report.scale)
    half = zero_tolerance / 2
    for _ in range(HEAT_MAX_DOUBLINGS):
        squared = current @ current
        squared = 0.5 * (squared + _adjoint(squared))
        bound *= bound
        converged = bound <= half and _stack_norm(squared - current) <= half
        current = squared
        if converged:
            break
    else:
        raise UnresolvedGapError(
            f"heat iteration failed to converge for {op.provenance!r}")
    return _projection_from_array(current, "heat", provenance, op.characters)


def product_defect(p: ProjectionMatrix, plus: ProjectionMatrix,
                   minus: ProjectionMatrix) -> float:
    """||p - p^+ p^-||_2, symbol by symbol, by SVD: it is not Hermitian."""
    return float(np.linalg.norm(p.symbols - plus.symbols @ minus.symbols, 2,
                                (1, 2)).max())
