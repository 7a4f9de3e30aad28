"""Betti numbers of finite quotients and trace asymptotics along chains.

For a chain of finite quotients G/N_i with quasi-regular representations
lambda_i, the degree-n Betti number of N_i equals the kernel dimension of
lambda_i(Delta_n) (restriction/induction moves coefficients between the
subgroup and the quotient module).  This module computes those integers,
their normalized ratios beta_n(N_i) / [G : N_i], exact group-ring upper
bounds on the limiting normalized Betti number, Euler-characteristic
traces, and the diagnostic reports that compare kernel dimensions against
a lifted reference value along the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from . import exact
from .complexes import (CochainComplexSpec, build_laplacian,
                        validate_chain_identity)
from .cosets import (DEFAULT_MAX_COSETS, QuotientChain, Representation,
                     todd_coxeter)
from .errors import (
    EnumerationOverflowError,
    IncompleteComplexError,
    InvariantError,
    MalformedInputError,
    TraceBackendError,
)
from .groupring import IDENTITY_WORD, GroupRingMatrix, Word
from .spectral import (
    DEFAULT_ZERO_TOLERANCE,
    EvaluatedOperator,
    GapReport,
    ProjectionMatrix,
    evaluate,
    float_or_inf,
    heat_projection,
    kernel_projection,
    operator_norm,
    spectral_gap,
)


def laplacian_operator(spec: CochainComplexSpec, degree: int,
                       rep: Representation) -> EvaluatedOperator:
    bundle = build_laplacian(spec, degree)
    return evaluate(bundle.laplacian, rep,
                    provenance=f"Delta_{degree}@{rep.label or 'rep'}")


def betti_report(spec: CochainComplexSpec, degree: int, rep: Representation,
                 zero_tolerance: float = DEFAULT_ZERO_TOLERANCE
                 ) -> tuple[int, GapReport]:
    """Kernel dimension of the evaluated Laplacian, with its gap report."""
    op = laplacian_operator(spec, degree, rep)
    report = spectral_gap(op, zero_tolerance).require_resolved()
    return report.kernel_dim, report


def betti_finite_quotient(spec: CochainComplexSpec, degree: int,
                          rep: Representation,
                          zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> int:
    """dim ker lambda(Delta_degree): the degree-n Betti number of the
    finite-index subgroup the representation comes from."""
    kernel_dim, _ = betti_report(spec, degree, rep, zero_tolerance)
    return kernel_dim


# ---------------------------------------------------------------------------
# Higher Kazhdan projections
# ---------------------------------------------------------------------------


class KazhdanProjections(NamedTuple):
    """Spectral projections onto ker Delta_n, ker Delta_n^+, ker Delta_n^-."""

    degree: int
    projection: ProjectionMatrix
    plus: ProjectionMatrix
    minus: ProjectionMatrix
    gap: GapReport
    gap_plus: GapReport
    gap_minus: GapReport

    @property
    def product_defect(self) -> float:
        """||p - p^+ p^-||_2, computed from the symbols each time it is read."""
        return operator_norm(
            self.projection.symbols - self.plus.symbols @ self.minus.symbols)

    def traces(self) -> tuple[float, float, float]:
        return (self.projection.trace(), self.plus.trace(), self.minus.trace())


def _checked_projection(spec: CochainComplexSpec, degree: int,
                        rep: Representation, method: str):
    """``kernel_projection`` or ``heat_projection``, as ``method`` "eigen"
    or "heat" names it, once d_n d_(n-1) = 0 holds exactly on the
    evaluated differentials (skipped in degree 0 and the top degree,
    where one of them is missing)."""
    if method not in ("eigen", "heat"):
        raise MalformedInputError(f"unknown projection method {method!r}")
    tag = rep.label or "rep"
    up, down = spec.differential(degree), spec.differential(degree - 1)
    if (up is not None and down is not None
            and not evaluate(up, rep, f"d_{degree}@{tag}").product_is_zero_exact(
                evaluate(down, rep, f"d_{degree - 1}@{tag}"))):
        raise InvariantError(
            f"d_{degree} d_{degree - 1} is nonzero under {tag!r}; the chain "
            "identity must have failed upstream")
    return heat_projection if method == "heat" else kernel_projection


def higher_kazhdan_projection(spec: CochainComplexSpec, degree: int,
                              rep: Representation,
                              zero_tolerance: float = DEFAULT_ZERO_TOLERANCE,
                              method: str = "eigen") -> KazhdanProjections:
    """Projections p_n, p_n^+, p_n^- for one representation.

    ``_checked_projection`` proves d_n d_(n-1) = 0 before any eigenvalue
    is computed; it gives Delta^+ Delta^- = 0, so p = p^+ p^- holds, and
    the record's ``product_defect`` measures it when read.  All three
    gaps must resolve.  Every step runs on the operators' symbols: one
    k x k block per character on an abelian stage, the n x n shadow
    otherwise.  No defect norm is computed here.
    """
    project = _checked_projection(spec, degree, rep, method)
    bundle, tag = build_laplacian(spec, degree), rep.label or "rep"
    parts = ((bundle.laplacian, ""), (bundle.plus_part, "^+"),
             (bundle.minus_part, "^-"))
    ops = [evaluate(m, rep, f"Delta_{degree}{s}@{tag}") for m, s in parts]
    gaps = [spectral_gap(op, zero_tolerance).require_resolved() for op in ops]
    return KazhdanProjections(
        degree, *(project(op, zero_tolerance) for op in ops), *gaps)


# ---------------------------------------------------------------------------
# Luck approximation along a chain
# ---------------------------------------------------------------------------


class LuckRecord(NamedTuple):
    position: int
    quotient_order: int
    betti: int
    ratio: Fraction
    gap: float


class LuckReport(NamedTuple):
    degree: int
    records: tuple[LuckRecord, ...]
    tail_estimates: tuple[Fraction, ...]
    extrapolated: Fraction | None
    extrapolation_note: str

    @property
    def ratios(self) -> tuple[Fraction, ...]:
        return tuple(r.ratio for r in self.records)


def luck_approximation(spec: CochainComplexSpec, degree: int,
                       chain: QuotientChain,
                       zero_tolerance: float = DEFAULT_ZERO_TOLERANCE
                       ) -> LuckReport:
    """Normalized Betti numbers beta_n(N_i) / [G : N_i] along the chain.

    The ratios are exact rationals.  Successive absolute differences are
    reported as a Cauchy-tail estimate, and a limit candidate is
    extrapolated from the slope of the Betti numbers against the index
    (exact whenever Betti growth is affine in the index); both are
    reported, never asserted.
    """
    records = []
    for position, order, rep in chain.stages():
        betti, report = betti_report(spec, degree, rep, zero_tolerance)
        records.append(LuckRecord(
            position=position, quotient_order=order, betti=betti,
            ratio=Fraction(betti, order), gap=report.gap))
    ratios = [r.ratio for r in records]
    tails = tuple(abs(b - a) for a, b in zip(ratios, ratios[1:]))
    if len(records) >= 2:
        last, prev = records[-1], records[-2]
        slope = Fraction(last.betti - prev.betti,
                         last.quotient_order - prev.quotient_order)
        note = ("slope of Betti numbers against quotient order over the "
                "last two stages")
    else:
        slope = ratios[-1] if ratios else None
        note = "single stage; the ratio itself is the only candidate"
    return LuckReport(
        degree=degree, records=tuple(records), tail_estimates=tails,
        extrapolated=slope, extrapolation_note=note)


# ---------------------------------------------------------------------------
# Exact group-ring upper bounds u_M = tau((I - Delta/R)^M)
# ---------------------------------------------------------------------------


class UpperBoundReport(NamedTuple):
    degree: int
    norm_bound: Fraction
    values: tuple[Fraction, ...]          # u_1 .. u_M, nonincreasing
    lower_bounds: tuple[float, ...] | None
    cutoff: bool
    backend: str
    term_budget: int
    gap_hint: float | None


def _denominators(matrix: GroupRingMatrix) -> list[int]:
    return [coeff.denominator
            for i in range(matrix.rows) for j in range(matrix.cols)
            for _w, coeff in matrix.entry(i, j).terms()]


def _right_multiply(codes: np.ndarray, coeffs: np.ndarray, word: Word,
                    radix: int) -> list:
    """(codes of w * v, coefficients) for every code w, v = ``word``.

    A code is a reduced word in base ``radix``, its last letter the least
    significant digit: s_i is 2i - 1, s_i^-1 is 2i.  Both words are
    reduced, so each letter either cancels the last digit or becomes the
    new last digit.  Either way sorted codes stay sorted, in runs, and a
    run the last letter extended cannot cancel the next one.
    """
    runs = [(codes, coeffs, False)]
    for letter in word:
        digit = 2 * abs(letter) - (letter > 0)
        inverse = 2 * abs(letter) - (letter < 0)
        split = []
        for codes, coeffs, extended in runs:
            if extended:
                split.append((codes * radix + digit, coeffs, True))
                continue
            quotient = codes // radix     # a division, not the slower %
            cancel = codes - quotient * radix == inverse
            keep = ~cancel                # np.compress beats mask indexing
            split += [(np.compress(cancel, quotient),
                       np.compress(cancel, coeffs), False),
                      (np.compress(keep, codes) * radix + digit,
                       np.compress(keep, coeffs), True)]
        runs = split
    return [(codes, coeffs) for codes, coeffs, _ in runs]


def _times_base(power, base, radix: int, code_type, coeff_type):
    """M^(j+1) = M^j M in the given dtypes, one sorted buffer per entry."""
    out = [[] for _ in power]
    for row, products in zip(power, out):
        row = [(c.astype(code_type, copy=False), v) for c, v in row]
        for column in zip(*base):
            size = sum(c.size * len(entry) for (c, _), entry in zip(row, column))
            codes, coeffs = np.empty(size, code_type), np.empty(size, coeff_type)
            end = 0
            for (left_codes, left_coeffs), entry in zip(row, column):
                for word, coeff in entry:
                    for run_codes, run_coeffs in _right_multiply(
                            left_codes, left_coeffs, word, radix):
                        start, end = end, end + run_codes.size
                        codes[start:end] = run_codes
                        np.multiply(run_coeffs, coeff, out=coeffs[start:end],
                                    dtype=coeff_type)
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            coeffs = coeffs[order]
            del order  # free each temporary before the next is made
            starts = np.flatnonzero(np.diff(codes, prepend=-1))
            codes = codes[starts]
            coeffs = np.add.reduceat(coeffs, starts, dtype=coeff_type)
            keep = coeffs != 0
            products.append((codes[keep], coeffs[keep]))
    return out


def _int_type(bound: int):
    """int32, else int64, else object (Python ints) for |values| <= bound."""
    return np.int32 if bound < 2**31 else np.int64 if bound < 2**63 else object


def _exact_dot(x, y, x_bound: int, y_bound: int) -> int:
    """sum x * y exactly, for sum |x| <= x_bound and sum |y| <= y_bound.

    One int64 dot when x_bound y_bound < 2**63 bounds every partial sum.
    Else |x| is cut into limbs of ``bits`` bits and each limb is dotted in
    int64 with y carrying the sign of x: a limb below 2**bits times
    sum |y| < 2**(63 - bits) fits, and Python ints combine the limb sums.
    Arrays of objects, or a y_bound that leaves no bits, dot as Python ints.
    """
    if x_bound * y_bound < 2**63:
        return int(x.astype(np.int64, copy=False) @ y.astype(np.int64, copy=False))
    bits = 63 - y_bound.bit_length()
    if bits < 1 or object in (x.dtype, y.dtype):
        return int(x.astype(object) @ y.astype(object))
    y = np.where(x < 0, -y, y)
    x = np.abs(x.astype(np.int64, copy=False))
    mask = (1 << bits) - 1
    return sum(int(((x >> shift) & mask) @ y) << shift
               for shift in range(0, x_bound.bit_length(), bits))


def _paired_traces(left, right, middles, radix: int, code_type,
                   bounds: tuple[int, int]) -> list[int]:
    """tau(L W R) for each self-adjoint W in ``middles``, R self-adjoint.

    A middle maps each term (j, l, w), w a ``Word``, to its coefficient c,
    and tau(L W R) = sum c S(j, l, w), S(j, l, w) = sum_i <L[i][j] w, R[i][l]>
    since R[l][i](v^-1) = R[i][l](v): L[i][j]'s codes, cast to
    ``code_type``, are right-multiplied by w and searched in R[i][l]'s.
    Each S is found once for all middles; when L is R, a term and its
    adjoint (l, j, w^-1) give equal S, so one of each pair is found and
    counted twice.  ``bounds`` bound the l1 norms of L and R.
    """
    same = left is right
    weights = {}
    for n, middle in enumerate(middles):
        for (j, l, word), coeff in middle.items():
            if same:
                adjoint = (l, j, word.inverse())
                if adjoint < (j, l, word):
                    continue
                if adjoint > (j, l, word):
                    coeff *= 2
            weights.setdefault((j, l, word), [0] * len(middles))[n] += coeff
    totals = [0] * len(middles)
    for (j, l, word), coeffs in weights.items():
        s = 0
        for row_l, row_r in zip(left, right):
            (codes, x), (codes_r, y) = row_l[j], row_r[l]
            if not (codes.size and codes_r.size):
                continue
            if same and j == l and not word:  # every code meets itself
                s += _exact_dot(x, y, *bounds)
                continue
            for codes, x in _right_multiply(codes.astype(code_type, copy=False),
                                            x, word, radix):
                where = np.searchsorted(codes_r, codes).clip(0, codes_r.size - 1)
                hit = codes_r[where] == codes
                s += _exact_dot(np.compress(hit, x), y[np.compress(hit, where)],
                                *bounds)
        for n, coeff in enumerate(coeffs):
            totals[n] += coeff * s
    return totals


def l2_betti_upper_bounds(spec: CochainComplexSpec, degree: int,
                          m_max: int,
                          gap_hint: float | None = None,
                          norm_bound: Fraction | None = None,
                          term_budget: int = 2_000_000,
                          max_cosets: int = DEFAULT_MAX_COSETS) -> UpperBoundReport:
    """Exact values u_M = tau_k((I - Delta_n / R)^M) for M = 1..m_max.

    Each u_M bounds the limiting normalized Betti number from above when
    the spectrum lies in {0} union [gap, R]; with a gap hint epsilon the
    slack k_n (1 - epsilon/R)^M also yields reported lower bounds.  The
    trace is the free-group-ring trace when the presentation has no
    relators, and the exact normalized regular trace when the presented
    group is finite; other groups have no exact backend here.  A complex
    whose d_{k+1} d_k does not vanish there raises ChainIdentityError.

    X is d* d when Delta_n = d d* (no part above), since
    tau((d d*)^j) = tau((d* d)^j) for j >= 1 and d* d is the smaller
    matrix with the shorter words; otherwise X is Delta_n.  Its
    denominators are cleared once, c their lcm, and both backends take
    the integer traces T_j = tau((cX)^j).  This is the only place that
    divides: with R = p/q, a = -q and b = cp, each term is one fraction
    u_M = ((b + aE)^M T)_0 / b^M, T = (k, T_1, T_2, ...), k the cell
    count and E the left shift: M steps that each replace consecutive
    entries s, t of T by b s + a t.

    ``term_budget`` stops both backends by one rule: at most L terms,
    whose recurrence takes L(L+1)/2 big-integer steps within the budget,
    and no power of the free ring whose support is over it.  Past either
    the sequence stops early and sets the ``cutoff`` flag instead of
    raising.
    """
    bundle = build_laplacian(spec, degree)
    l1_bound = bundle.laplacian.l1_operator_bound()
    norm_bound = l1_bound if norm_bound is None else Fraction(norm_bound)
    if norm_bound < l1_bound:
        raise MalformedInputError(f"norm bound {norm_bound} is below the "
                                  f"certified l1 bound {l1_bound}")
    if m_max < 1 or term_budget < 1:
        raise MalformedInputError("m_max and term_budget must be at least 1")
    # R past the float range reads as inf: its shrink 1 - gap_hint/R is 1
    r = float_or_inf(norm_bound)
    if gap_hint is not None and not (0 < gap_hint <= r):
        raise MalformedInputError(f"gap hint {gap_hint} outside (0, {r}]")

    down = spec.differential(degree - 1)
    if down is None or not bundle.plus_part.is_zero():
        x = bundle.laplacian
    else:
        x = down.adjoint() @ down
    clear = math.lcm(*_denominators(x))
    x = x.scale(clear)

    table = None
    if spec.presentation.relators:
        try:
            table = todd_coxeter(spec.presentation, (), max_cosets=max_cosets)
        except EnumerationOverflowError as exc:
            raise TraceBackendError(
                "exact traces are available only for free presentations "
                "(free-ring backend) or finite groups (regular backend); "
                "this group did not enumerate within the coset budget") from exc
    if spec.extends_presentation:       # over G itself, which no stage sees
        validate_chain_identity(spec, None if table is None else
                                Representation.from_coset_table(table))
    terms = min(m_max, (math.isqrt(8 * term_budget + 1) - 1) // 2)
    traces = (_free_power_traces(x, terms, term_budget) if table is None
              else _regular_power_traces(x, terms, table))
    backend = "free-ring" if table is None else "finite-regular"

    k = bundle.cell_count
    # R = 0 only when Delta_n = 0: then every T_j is 0 and u_M = k
    a, b = -norm_bound.denominator, clear * norm_bound.numerator or 1
    level, values = [k, *traces], []
    for m in range(1, len(traces) + 1):
        level = [b * s + a * t for s, t in zip(level, level[1:])]
        values.append(Fraction(level[0], b ** m))
    lower = None
    if gap_hint is not None:
        shrink = 1.0 - gap_hint / r
        lower = tuple(float(u) - k * shrink ** (m + 1)
                      for m, u in enumerate(values))
    return UpperBoundReport(
        degree=degree, norm_bound=norm_bound, values=tuple(values),
        lower_bounds=lower, cutoff=len(values) < m_max, backend=backend,
        term_budget=term_budget, gap_hint=gap_hint)


def _free_power_traces(matrix: GroupRingMatrix, m_max: int,
                       term_budget: int) -> list[int]:
    """Integer traces tau(M^j), j = 1..m_max, of a self-adjoint integral
    M, fewer when support growth beyond ``term_budget`` cuts them short.

    An entry of M^a is a sorted array of word codes (``_right_multiply``)
    with an array of coefficients, each int32, else int64, when every code
    and partial sum of M^a provably fits, else Python ints.  With
    h = ceil(m_max / 2), each M^a, a < h, gives tau(M^(2a-1)) with
    M^(a-1) and tau(M^(2a)) with itself, and then M^(a-1) is dropped.
    M^h is never multiplied out: P = M^(h-1) gives tau(M^(2h-1)) =
    tau(P M P) and tau(M^(2h)) = tau(P M^2 P) against middles keyed by
    (j, l, ``Word``), the words of M and their products, those of M^2.
    M^h's support is bounded by its product count, and M^h is formed to
    count it only when that bound passes the budget.
    """
    if not matrix.is_self_adjoint() or math.lcm(*_denominators(matrix)) > 1:
        raise InvariantError("free-ring power traces need a self-adjoint "
                             "integral matrix")
    k = matrix.rows
    radix = 2 * matrix.max_generator() + 1
    base = [[[(word, int(coeff)) for word, coeff in matrix.entry(i, j).terms()]
             for j in range(k)] for i in range(k)]
    terms = [term for row in base for entry in row for term in entry]
    # M^a's words have length at most max_len * a; l1^a bounds its l1 norm
    # and so every product and partial sum.  Capping exponents at 64 keeps
    # each answer, as 2**64 passes every limit, and powers small
    max_len = max((len(word) for word, _ in terms), default=0)
    l1 = sum(abs(coeff) for _, coeff in terms)

    def code_type(a):
        return _int_type(radix ** min(max_len * a, 64))

    def norm(a):
        return l1 ** min(a, 64)

    def times_base(power, a):           # M^a from M^(a-1)
        return _times_base(power, base, radix, code_type(a),
                           _int_type(norm(a)))

    def size(power):
        return sum(codes.size for row in power for codes, _ in row)

    identity = [{(j, j, IDENTITY_WORD): 1 for j in range(k)}]
    h = (m_max + 1) // 2
    power = [[(np.zeros(int(i == j), np.int32), np.ones(int(i == j), np.int32))
              for j in range(k)] for i in range(k)]        # M^0
    traces = []
    for a in range(1, h):
        previous, power = power, times_base(power, a)
        if a > 1 and size(power) > term_budget:
            return traces
        traces += _paired_traces(previous, power, identity, radix,
                                 code_type(a), (norm(a - 1), norm(a)))
        traces += _paired_traces(power, power, identity, radix,
                                 code_type(a), (norm(a), norm(a)))
    previous = None                      # only P = M^(h-1) is held on
    products = sum(codes.size * sum(map(len, base[j]))
                   for row in power for j, (codes, _) in enumerate(row))
    if h > 1 and products > term_budget and size(
            times_base(power, h)) > term_budget:
        return traces

    middles = [{(j, l, word): coeff for j, row in enumerate(base)
                for l, entry in enumerate(row) for word, coeff in entry}]
    if 2 * h <= m_max:                   # M^2[j][l] = sum_m M[j][m] M[m][l]
        square = {}
        for (j, m, u), c in middles[0].items():
            for l, entry in enumerate(base[m]):
                for v, d in entry:
                    key = (j, l, u * v)
                    square[key] = square.get(key, 0) + c * d
        middles.append({key: c for key, c in square.items() if c})
    return traces + _paired_traces(power, power, middles, radix,
                                   code_type(h + 1), (norm(h - 1), norm(h - 1)))


def _regular_power_traces(matrix: GroupRingMatrix, m_max: int,
                          table) -> list[int]:
    """Integer normalized regular traces tau(M^j), j = 1..m_max, of an
    integral M over the finite group with regular coset table ``table``.

    Every diagonal entry of a regular block of A = pi(M) holds the
    identity coefficient, so tau(M^j) sums the k diagonal entries of A^j
    at coset 0 (cell i at index i |G|): only A^j's k columns there are held.
    """
    if math.lcm(*_denominators(matrix)) > 1:
        raise InvariantError("finite-regular traces need an integral matrix")
    rep = Representation.from_coset_table(table, label="full-regular")
    base = evaluate(matrix, rep, provenance="cX@full-regular").exact_matrix
    size = table.coset_count
    column = exact.Matrix(base.array[:, ::size])
    # Python ints: int64 could overflow; a base past 2**62 holds rationals
    traces = [int(sum(column.array[::size].diagonal().tolist()))]
    while len(traces) < m_max:
        if column.array.dtype == object:  # cast the base once
            base = exact.Matrix(base.array.astype(object, copy=False))
        column = exact.matmul(base, column)
        traces.append(int(sum(column.array[::size].diagonal().tolist())))
    return traces


# ---------------------------------------------------------------------------
# Membership in the ring of fractions with finite-subgroup denominators
# ---------------------------------------------------------------------------


def lambda_ring_membership(value: Fraction,
                           finite_subgroup_orders: Iterable[int]) -> bool:
    """Whether a rational lies in Z extended by inverses of the orders.

    True exactly when every prime factor of the reduced denominator
    divides at least one of the listed finite-subgroup orders; integers
    always belong (torsion-free case: empty order list).
    """
    orders = [int(o) for o in finite_subgroup_orders]
    if any(o <= 0 for o in orders):
        raise MalformedInputError("finite subgroup orders must be positive")
    denominator = Fraction(value).denominator
    product = math.prod(orders)
    # strip every prime the orders share with the denominator; what is
    # left is 1 exactly when no other prime divides it
    shared = math.gcd(denominator, product)
    while shared > 1:
        denominator //= shared
        shared = math.gcd(denominator, product)
    return denominator == 1


# ---------------------------------------------------------------------------
# Euler-characteristic traces
# ---------------------------------------------------------------------------


class EulerRecord(NamedTuple):
    position: int
    quotient_order: int
    kernel_dims: tuple[int, ...]
    euler_trace: Fraction


class EulerReport(NamedTuple):
    euler_characteristic: int
    records: tuple[EulerRecord, ...]
    all_match: bool


def euler_class_trace(spec: CochainComplexSpec, chain: QuotientChain,
                      zero_tolerance: float = DEFAULT_ZERO_TOLERANCE
                      ) -> EulerReport:
    """Alternating normalized kernel dimensions along the chain.

    Needs the full classifying complex; each quotient's alternating sum
    of Betti numbers divided by the order must reproduce the Euler
    characteristic exactly (multiplicativity under finite index).
    """
    if not spec.aspherical:
        raise IncompleteComplexError(
            "Euler traces need the full classifying complex; this one is "
            "only a truncation")
    chi = spec.euler_characteristic()
    records = []
    for position, order, rep in chain.stages():
        dims = tuple(
            betti_report(spec, n, rep, zero_tolerance)[0]
            for n in range(spec.top_degree + 1))
        trace = Fraction(
            sum((-1) ** n * d for n, d in enumerate(dims)), order)
        records.append(EulerRecord(
            position=position, quotient_order=order,
            kernel_dims=dims, euler_trace=trace))
    return EulerReport(
        euler_characteristic=chi, records=tuple(records),
        all_match=all(r.euler_trace == chi for r in records))


# ---------------------------------------------------------------------------
# Box-space obstruction and ghost-projection diagnostics
# ---------------------------------------------------------------------------

BETA_REF_PROVENANCES = ("user-cited", "luck-extrapolated")


@dataclass(frozen=True)
class BetaRef:
    """Reference normalized Betti value to lift along the chain."""

    value: Fraction
    provenance: str
    citation: str | None = None

    def __post_init__(self):
        if self.provenance not in BETA_REF_PROVENANCES:
            raise MalformedInputError(
                f"beta_ref provenance must be one of {BETA_REF_PROVENANCES}, "
                f"got {self.provenance!r}")
        if self.citation is not None and not isinstance(self.citation, str):
            raise MalformedInputError(
                "beta_ref citation must be a string or absent")
        object.__setattr__(self, "value", Fraction(self.value))


class ObstructionRecord(NamedTuple):
    position: int
    quotient_order: int
    d_star_value: int
    lifted_value: Fraction
    discrepancy: Fraction
    gap: float


class ObstructionReport(NamedTuple):
    degree: int
    beta_ref: BetaRef
    records: tuple[ObstructionRecord, ...]
    verdict: str
    gap_decay: bool
    min_gap: float
    uniform_gap_certified: bool
    certified_epsilon: float | None
    gap_claim: object             # the certificate's GapClaim, or None
    box_metric_note: str = ("pairwise separation 2^(i+j) between the i-th "
                            "and j-th quotient blocks; recorded only")


def box_obstruction_report(spec: CochainComplexSpec, degree: int,
                           chain: QuotientChain, beta_ref: BetaRef,
                           certificate=None,
                           zero_tolerance: float = DEFAULT_ZERO_TOLERANCE
                           ) -> ObstructionReport:
    """Compare kernel dimensions against the lifted reference value.

    For each quotient the kernel dimension of lambda_i(Delta_n) is set
    against [G : N_i] * beta_ref.  Verdicts:

    * ``persistent-discrepancy``: nonzero for every stage beyond the
      first (downgraded to inconclusive for an extrapolated reference
      unless the discrepancies are integers bounded away from zero);
    * ``eventually-equal``: zero for every stage beyond the first;
    * ``inconclusive`` otherwise, or when only one stage was computed.

    A certificate about Delta_n is verified once, and its claim is
    reported; a verified gap claim upgrades the decaying per-quotient
    gaps to a certified uniform gap when the certificate covers every
    stage.  A certificate about another operator is malformed input.
    """
    claim = None
    if certificate is not None:
        from .certificates import verify_certificate

        if certificate.target != build_laplacian(spec, degree).laplacian:
            raise MalformedInputError(
                f"certificate {certificate.label!r} is not about "
                f"Delta_{degree}")
        claim = verify_certificate(certificate)
    records = []
    for position, order, rep in chain.stages():
        kernel_dim, report = betti_report(spec, degree, rep, zero_tolerance)
        lifted = order * beta_ref.value
        records.append(ObstructionRecord(
            position=position, quotient_order=order, d_star_value=kernel_dim,
            lifted_value=lifted, discrepancy=kernel_dim - lifted,
            gap=report.gap))

    tail = [r.discrepancy for r in records[1:]]
    if not tail:
        verdict = "inconclusive"
    elif all(d != 0 for d in tail):
        verdict = "persistent-discrepancy"
        if beta_ref.provenance == "luck-extrapolated":
            integral = all(d.denominator == 1 and abs(d) >= 1 for d in tail)
            if not integral:
                verdict = "inconclusive"
    elif all(d == 0 for d in tail):
        verdict = "eventually-equal"
    else:
        verdict = "inconclusive"

    gaps = [r.gap for r in records]
    decaying = len(gaps) >= 2 and all(
        later < earlier for earlier, later in zip(gaps, gaps[1:]))
    certified = claim is not None and claim.epsilon is not None and all(
        certificate.covers(rep) for rep in chain.representations)
    epsilon = claim.float_epsilon() if certified else None
    return ObstructionReport(
        degree=degree, beta_ref=beta_ref, records=tuple(records),
        verdict=verdict, gap_decay=decaying,
        min_gap=min(gaps) if gaps else math.inf,
        uniform_gap_certified=epsilon is not None,
        certified_epsilon=epsilon, gap_claim=claim)


class GhostRecord(NamedTuple):
    position: int
    quotient_order: int
    max_abs_entry: float
    trace: float
    backend: str


class GhostReport(NamedTuple):
    degree: int
    records: tuple[GhostRecord, ...]
    ghost_like: bool


def ghost_diagnostic(spec: CochainComplexSpec, degree: int,
                     chain: QuotientChain,
                     zero_tolerance: float = DEFAULT_ZERO_TOLERANCE,
                     method: str = "eigen") -> GhostReport:
    """Largest matrix entry of the kernel projection p_n along the chain.

    Entry decay (strictly decreasing maxima) is the finite-dimensional
    shadow of a ghost projection: blockwise the operator vanishes
    entrywise while staying a nonzero projection.  Each stage passes the
    method and exact d_n d_(n-1) = 0 checks of
    ``higher_kazhdan_projection``, then evaluates and projects Delta_n
    alone, so only its gap must resolve.
    """
    records = []
    for position, order, rep in chain.stages():
        project = _checked_projection(spec, degree, rep, method)
        p = project(laplacian_operator(spec, degree, rep), zero_tolerance)
        records.append(GhostRecord(position, order, p.max_abs_entry(),
                                   p.trace(), p.backend))
    maxima = [r.max_abs_entry for r in records]
    ghost_like = (len(maxima) >= 2
                  and all(later <= earlier * (1 - 1e-9)
                          for earlier, later in zip(maxima, maxima[1:]))
                  # a ghost must stay a nonzero projection: kernel
                  # dimensions are integers, so any true kernel has
                  # trace at least one at every stage
                  and all(r.trace > 0.5 for r in records))
    return GhostReport(degree=degree, records=tuple(records),
                       ghost_like=ghost_like)
