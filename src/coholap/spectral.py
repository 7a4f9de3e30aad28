"""Spectral analysis of group-ring matrices under exact representations.

``evaluate`` turns a k x k matrix over the group ring into an
:class:`EvaluatedOperator`: a k x k matrix of exact convolution kernels
on a finite abelian quotient Q, with one k x k symbol per character of Q.
The stage alone picks the form: under the regular representation of an
abelian quotient, whose coset table carries its characters, a matrix is
held over that quotient.  Under any other it is dense, held over the
trivial quotient Q = 1, whose one symbol is the whole (k * dim) x
(k * dim) block matrix, block (i, j) being ``sum_w coeff * pi(w)``.
Either form is int64 for integer coefficients under permutations, Python
rationals otherwise (dense int64 entries strictly between -2**53 and
2**53 held once, as floats).  The exact-to-float boundary sits
immediately before eigenvalue computation.

Eigenvalues, kernel and heat projections, rank checks and the exact
Delta^+ Delta^- = 0 check run on the symbols and on the arrays of
convolution kernels, so ``betti``, ``spectrum``, ``luck``, ``project``
and ``ghost`` on an abelian stage meet no dense size budget.  Only a
non-abelian or orthogonal stage, and the ``shadow``, ``exact_matrix`` or
projection ``matrix`` of a character form when read, build the dense
grid, refused with SizeBudgetError before allocation when wider than
``DENSE_EIG_CUTOFF``.  ``GapReport.backend`` and
``ProjectionMatrix.backend`` name the path: "dense" over Q = 1, else
"characters".

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
from typing import NamedTuple

import numpy as np

from . import exact
from .cosets import Representation
from .errors import (
    InvariantError,
    NotPositiveSemidefiniteError,
    ShapeMismatchError,
    SizeBudgetError,
    UnknownGeneratorError,
    UnresolvedGapError,
)
from .groupring import GroupRingMatrix

DEFAULT_ZERO_TOLERANCE = 1e-8
DENSE_EIG_CUTOFF = 4096
GAP_RESOLUTION_FACTOR = 10.0
HEAT_MAX_DOUBLINGS = 64


# The trivial quotient Q = 1: no orders, one coset, no codes to lay out.
TRIVIAL = ((), None)


class EvaluatedOperator:
    """A group-ring matrix pushed through a representation, held over a
    finite abelian quotient Q.

    ``characters`` is Q's (orders, codes) pair, and block (i, j) is the
    convolution x -> v_ij * x on C[Q], v_ij being the exact array
    ``coefficients[i, j]`` of shape Q's orders.  Its symbols are
    fftn(v)(chi), one k x k matrix per character chi, so the checks,
    norm, eigenvalues, projections and rank need no n x n array.  A dense
    operator lives over the trivial quotient ``TRIVIAL``: no orders, one
    character, and its one symbol is the whole matrix.  Its int64 entries
    strictly between -2**53 and 2**53 are held once, as float64, both
    coefficients and shadow.  Any other shadow, and the exact matrix, are
    built when read.  ``rows`` and ``cols`` are total dimensions (ring
    rows/cols times |Q|, the product of the orders).
    """

    __slots__ = ("coefficients", "characters", "rows", "cols", "provenance",
                 "_floats", "_eigenvalues", "_gap", "_symmetric")

    def __init__(self, coefficients: np.ndarray, characters: tuple = TRIVIAL,
                 provenance: str = ""):
        if (not characters[0] and coefficients.dtype == np.int64
                and exact.max_abs(coefficients) < exact.FLOAT_EXACT_LIMIT):
            coefficients = exact.to_float(exact.Matrix(coefficients))
        self.coefficients, self.characters = coefficients, characters
        self.rows, self.cols = (side * math.prod(characters[0])
                                for side in coefficients.shape[:2])
        self.provenance = provenance
        self._floats = self._eigenvalues = self._gap = self._symmetric = None

    @property
    def backend(self) -> str:
        return "characters" if self.characters[0] else "dense"

    def _numeric_coefficients(self) -> np.ndarray:
        """The kernels as held, rationals converted to float64 once."""
        if self._floats is None:
            v = self.coefficients
            self._floats = v.astype(np.float64) if v.dtype == object else v
        return self._floats

    @property
    def shadow(self) -> np.ndarray:
        """The dense float64 matrix: the held coefficients themselves for
        a dense float64 operator, else laid out when read."""
        return _circulant(self._numeric_coefficients(), self.characters[1],
                          self.provenance).astype(np.float64, copy=False)

    @property
    def exact_matrix(self) -> exact.Matrix:
        return exact.Matrix(_exact(_circulant(
            self.coefficients, self.characters[1], self.provenance)))

    def symbols(self) -> np.ndarray:
        """The stack of k x k symbols the operator is the direct sum of."""
        v = self._numeric_coefficients()
        symbols = np.fft.fftn(v, axes=range(2, v.ndim))
        return symbols.reshape(*v.shape[:2], -1).transpose(2, 0, 1)

    def is_symmetric_exact(self) -> bool:
        """v_ij[y] = v_ji[-y] for every y (arrays of two shapes differ),
        compared once."""
        if self._symmetric is None:
            v = self.coefficients
            axes = tuple(range(2, v.ndim))
            self._symmetric = np.array_equal(
                v, _roll(np.flip(v, axes), 1, axes).swapaxes(0, 1))
        return self._symmetric

    def is_zero_exact(self) -> bool:
        return not np.count_nonzero(self.coefficients)

    def product_is_zero_exact(self, right: "EvaluatedOperator") -> bool:
        """Whether this operator times ``right`` is exactly zero.

        Checked on the product's coset-0 columns, which fix an operator
        that commutes with translation: (a * b)_il = sum over the S pairs
        (j, y) with some a_ij[y] != 0 of a_ij[y] roll(b_jl, y), one exact
        product of a k x S matrix with an S x k'|Q| matrix.  Both operators
        must live over one quotient, as two evaluations on one stage do.
        """
        if self.cols != right.rows:
            raise ShapeMismatchError(f"cannot multiply {self.rows}x{self.cols}"
                                     f" by {right.rows}x{right.cols}")
        if right.characters is not self.characters:
            raise ShapeMismatchError(
                "cannot multiply operators over different quotients")
        a, b = self.coefficients, _exact(right.coefficients)
        axes = tuple(range(1, b.ndim - 1))  # the orders' axes of a b_j
        flat = a.reshape(a.shape[0], -1)  # column j |Q| + y holds a_ij[y]
        pairs = np.flatnonzero(flat.any(axis=0))
        # pair (j, y)'s row is b_j rolled by y; the dtype types no pairs
        shifted = np.array([_roll(b[j], y, axes) for j, *y in zip(
            *np.unravel_index(pairs, a.shape[1:]))], dtype=b.dtype)
        return exact.is_zero(exact.matmul(
            exact.Matrix(_exact(flat[:, pairs])),
            exact.Matrix(shifted.reshape(len(pairs), right.cols))))

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the symbols, computed once."""
        if self._eigenvalues is None:
            self._eigenvalues = np.sort(
                np.linalg.eigvalsh(self.symbols()).ravel())
        return self._eigenvalues

    def one_norm(self) -> float:
        """Largest column sum of absolute values; 0.0 when empty."""
        v = self._numeric_coefficients()
        columns = np.abs(v).sum(axis=(0, *range(2, v.ndim)))
        return float(columns.max()) if v.size else 0.0

    def rank(self, threshold: float) -> int:
        """Numerical rank: singular values above sqrt(threshold), summed
        over the symbols."""
        return int(np.linalg.matrix_rank(self.symbols(),
                                         tol=math.sqrt(threshold)).sum())

    def __repr__(self) -> str:
        return (f"EvaluatedOperator({self.rows}x{self.cols}, "
                f"backend={self.backend!r}, provenance={self.provenance!r})")


def _roll(v: np.ndarray, shift, axes: tuple) -> np.ndarray:
    """np.roll, without its copy over the trivial quotient's no axes."""
    return np.roll(v, shift, axes) if axes else v


def _exact(v: np.ndarray) -> np.ndarray:
    """Exact entries of coefficients: float64 ones are held integers."""
    return v.astype(np.int64) if v.dtype == np.float64 else v


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
    Under a representation whose coset table carries characters the
    matrix is held in character form: each term adds its coefficient to
    v_ij at coset 0 * word^-1, which ``rep.word_perm(word, 0)`` walks
    through the table layout.  Under any other (no table included) it is
    dense, over the trivial quotient: each term is one scatter into the
    grid, which raises SizeBudgetError, before allocating, when its larger
    side exceeds ``DENSE_EIG_CUTOFF``.  An entry of a permutation
    evaluation is a sum of coefficients, so with integer coefficients of
    absolute sum below 2**62 either form is int64; otherwise it holds
    Python rationals.  A generator the representation lacks raises
    UnknownGeneratorError before any walk or scatter.
    """
    provenance = provenance or f"{matrix.rows}x{matrix.cols}@{rep.label or 'rep'}"
    count = len(rep.matrices if rep.perms is None else rep.perms)
    if (top := matrix.max_generator()) > count:
        raise UnknownGeneratorError(f"generator s{top} is outside the {count} "
                                    f"generator(s) of {rep.label or 'rep'!r}")
    terms = [(i, j, word, coeff)
             for i in range(matrix.rows) for j in range(matrix.cols)
             for word, coeff in matrix.entry(i, j).terms()]
    integral = (rep.perms is not None
                and all(coeff.denominator == 1 for *_, coeff in terms)
                and sum(abs(coeff) for *_, coeff in terms) < 2**62)
    characters = (rep.table and rep.table.characters) or TRIVIAL
    if characters is TRIVIAL:
        v = _scatter(matrix, rep, terms, integral, provenance)
    else:
        orders, codes = characters
        v = np.zeros((matrix.rows, matrix.cols, rep.dimension),
                     dtype=np.int64 if integral else object)
        for i, j, word, coeff in terms:
            v[i, j, codes[rep.word_perm(word, 0)]] += (
                coeff.numerator if integral else coeff)
        v = v.reshape(matrix.rows, matrix.cols, *orders)
    result = EvaluatedOperator(v, characters, provenance)
    if matrix.is_self_adjoint() and not result.is_symmetric_exact():
        raise InvariantError(
            "self-adjoint input evaluated to a non-symmetric matrix")
    return result


def _scatter(matrix: GroupRingMatrix, rep: Representation, terms: list,
             integral: bool, provenance: str) -> np.ndarray:
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
    return grid


def _circulant(v: np.ndarray, codes: np.ndarray,
               provenance: str) -> np.ndarray:
    """The dense grid of the convolutions v_ij on cosets numbered by
    ``codes``: block (i, j) holds v_ij[phi(y) - phi(x)] in row y, column x.
    Over the trivial quotient, no orders, that is ``v`` itself."""
    rows, cols, *orders = v.shape
    if not orders:
        return v
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


class GapReport(NamedTuple):
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
    scale = float(np.abs(shadow).sum(axis=0).max()) + 1.0
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
    cluster exceeds ten times that threshold.  The report is kept on the
    operator and returned again for the same tolerance.
    """
    if op._gap is not None and op._gap.zero_tolerance == zero_tolerance:
        return op._gap
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
    op._gap = GapReport(
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
    return op._gap


class ProjectionMatrix(NamedTuple):
    """A numerical spectral projection with its invariant defects.

    ``symbols`` is the projection as a stack of blocks, one per symbol of
    the operator it projects for, and ``characters`` is that operator's
    quotient: ``TRIVIAL`` for a dense one, whose one block is the matrix.
    Each defect is the 2-norm of the block-diagonal operator: the largest
    over the stack.
    """

    symbols: np.ndarray
    method: str
    idempotency_defect: float
    selfadjoint_defect: float
    provenance: str
    characters: tuple = TRIVIAL

    @property
    def backend(self) -> str:
        return "characters" if self.characters[0] else "dense"

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
        return float(np.abs(self._kernels()).max(initial=0.0))

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n projection; built on each read for a character
        form, and refused above ``DENSE_EIG_CUTOFF``."""
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
                           characters: tuple = TRIVIAL) -> ProjectionMatrix:
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
