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
from .complexes import CochainComplexSpec, build_laplacian
from .cosets import (DEFAULT_MAX_COSETS, QuotientChain, Representation,
                     todd_coxeter)
from .errors import (
    EnumerationOverflowError,
    IncompleteComplexError,
    InvariantError,
    MalformedInputError,
    TraceBackendError,
)
from .groupring import GroupRingMatrix
from .spectral import (
    DEFAULT_ZERO_TOLERANCE,
    EvaluatedOperator,
    GapReport,
    ProjectionMatrix,
    evaluate,
    heat_projection,
    kernel_projection,
    product_defect,
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
    product_defect: float

    def traces(self) -> tuple[float, float, float]:
        return (self.projection.trace(), self.plus.trace(), self.minus.trace())


def higher_kazhdan_projection(spec: CochainComplexSpec, degree: int,
                              rep: Representation,
                              zero_tolerance: float = DEFAULT_ZERO_TOLERANCE,
                              method: str = "eigen") -> KazhdanProjections:
    """Projections p_n, p_n^+, p_n^- for one representation.

    All three gaps must resolve.  Delta^+ Delta^- = 0 is checked exactly
    by the operators.  Kernel identifications ker Delta_n^+ = ker d_n and
    ker Delta_n^- = ker d_{n-1}* are verified against the numerical
    ``rank`` of the evaluated differentials, and the factorization
    p = p^+ p^- (exact in the limit because Delta^+ Delta^- = 0) is
    recorded as a defect norm.  ``method`` "eigen" or "heat" picks
    ``kernel_projection`` or ``heat_projection``; each reads its gap from
    ``spectral_gap``.  Every step runs on the operators' symbols:
    one k x k block per character on an abelian stage, the n x n shadow
    otherwise.
    """
    if method not in ("eigen", "heat"):
        raise MalformedInputError(f"unknown projection method {method!r}")
    bundle = build_laplacian(spec, degree)
    tag = rep.label or "rep"
    ops = {
        "": evaluate(bundle.laplacian, rep, f"Delta_{degree}@{tag}"),
        "+": evaluate(bundle.plus_part, rep, f"Delta_{degree}^+@{tag}"),
        "-": evaluate(bundle.minus_part, rep, f"Delta_{degree}^-@{tag}"),
    }
    gaps = {key: spectral_gap(op, zero_tolerance).require_resolved()
            for key, op in ops.items()}

    # The evaluated parts must annihilate each other exactly.
    if not ops["+"].product_is_zero_exact(ops["-"]):
        raise InvariantError(
            f"Delta^+ Delta^- is nonzero under {tag!r}; the chain identity "
            "must have failed upstream")

    dim = ops[""].rows
    for key, n, kernel in (("+", degree, "ker d_n"),
                           ("-", degree - 1, "ker d_(n-1)*")):
        d = spec.differential(n)
        rank = 0
        if d is not None:
            rank = evaluate(d, rep, f"d_{n}@{tag}").rank(gaps[key].threshold)
        if gaps[key].kernel_dim != dim - rank:
            raise InvariantError(
                f"ker Delta^{key} ({gaps[key].kernel_dim}) differs from "
                f"{kernel} ({dim - rank}) under {tag!r}")

    project = heat_projection if method == "heat" else kernel_projection
    p, p_plus, p_minus = (project(op, zero_tolerance) for op in ops.values())
    return KazhdanProjections(
        degree=degree, projection=p, plus=p_plus, minus=p_minus,
        gap=gaps[""], gap_plus=gaps["+"], gap_minus=gaps["-"],
        product_defect=product_defect(p, p_plus, p_minus))


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
    for position, order, _table, rep in chain.stages():
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


def _right_multiply(codes: np.ndarray, digits: tuple[int, ...],
                    radix: int) -> np.ndarray:
    """Codes of w * v for every code w; v is given by its letter digits.

    Both words are reduced, so each letter either cancels the last digit
    or becomes the new last digit.
    """
    for digit in digits:
        inverse = digit + 1 if digit % 2 else digit - 1
        codes = np.where(codes % radix == inverse, codes // radix,
                         codes * radix + digit)
    return codes


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
                for digits, coeff in entry:
                    start, end = end, end + left_codes.size
                    codes[start:end] = _right_multiply(left_codes, digits, radix)
                    np.multiply(left_coeffs, coeff, out=coeffs[start:end],
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


def _paired_trace(a, b, dtype) -> int:
    """tau(A B) = sum_{i,j} <A[i][j], B[i][j]> for self-adjoint B, since
    B[j][i](w^-1) = B[i][j](w); B codes searched in A's, summed in dtype."""
    total = 0
    for row_a, row_b in zip(a, b):
        for (codes_a, coeffs_a), (codes_b, coeffs_b) in zip(row_a, row_b):
            if not codes_a.size:
                continue
            if codes_b is not codes_a:  # else every code meets itself
                where = np.searchsorted(codes_a, codes_b).clip(0, codes_a.size - 1)
                coeffs_b = np.where(codes_a[where] == codes_b, coeffs_b, 0)
                coeffs_a = coeffs_a[where]
            total += int(coeffs_a.astype(dtype, copy=False)
                         @ coeffs_b.astype(dtype, copy=False))
    return total


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
    group is finite; other groups have no exact backend here.

    X is d* d when Delta_n = d d* (no part above), since
    tau((d d*)^j) = tau((d* d)^j) for j >= 1 and d* d is the smaller
    matrix with the shorter words; otherwise X is Delta_n.  Its
    denominators are cleared once, c their lcm, and both backends take
    the integer traces T_j = tau((cX)^j).  This is the only place that
    divides: with R = p/q, a = -q and b = cp, each term is one fraction
    u_M = k + (sum_j C(M, j) a^j b^(M-j) T_j) / b^M, k the cell count.

    Support growth beyond ``term_budget`` stops the sequence early and
    sets the ``cutoff`` flag instead of raising.
    """
    bundle = build_laplacian(spec, degree)
    l1_bound = bundle.laplacian.l1_operator_bound()
    norm_bound = l1_bound if norm_bound is None else Fraction(norm_bound)
    if norm_bound < l1_bound:
        raise MalformedInputError(f"norm bound {norm_bound} is below the "
                                  f"certified l1 bound {l1_bound}")
    if m_max < 1:
        raise MalformedInputError("m_max must be at least 1")
    if gap_hint is not None and not (0 < gap_hint <= float(norm_bound)):
        raise MalformedInputError(
            f"gap hint {gap_hint} outside (0, {float(norm_bound)}]")

    down = spec.differential(degree - 1)
    if down is None or not bundle.plus_part.is_zero():
        x = bundle.laplacian
    else:
        x = down.adjoint() @ down
    clear = math.lcm(*_denominators(x))
    x = x.scale(clear)

    if not spec.presentation.relators:
        traces, cutoff = _free_power_traces(x, m_max, term_budget)
        backend = "free-ring"
    else:
        try:
            table = todd_coxeter(spec.presentation, (), max_cosets=max_cosets)
        except EnumerationOverflowError as exc:
            raise TraceBackendError(
                "exact traces are available only for free presentations "
                "(free-ring backend) or finite groups (regular backend); "
                "this group did not enumerate within the coset budget") from exc
        traces, cutoff = _regular_power_traces(x, m_max, table), False
        backend = "finite-regular"

    k = bundle.cell_count
    # R = 0 only when Delta_n = 0: then every T_j is 0 and u_M = k
    a, b = -norm_bound.denominator, clear * norm_bound.numerator or 1
    values = tuple(
        Fraction(k * b ** m + sum(math.comb(m, j) * a ** j * b ** (m - j) * t
                                  for j, t in enumerate(traces[:m], 1)),
                 b ** m)
        for m in range(1, len(traces) + 1))
    lower = None
    if gap_hint is not None:
        shrink = 1.0 - gap_hint / float(norm_bound)
        lower = tuple(float(u) - k * shrink ** (m + 1)
                      for m, u in enumerate(values))
    return UpperBoundReport(
        degree=degree, norm_bound=norm_bound, values=values,
        lower_bounds=lower, cutoff=cutoff, backend=backend,
        term_budget=term_budget, gap_hint=gap_hint)


def _free_power_traces(matrix: GroupRingMatrix, m_max: int, term_budget: int
                       ) -> tuple[list[int], bool]:
    """Integer traces tau(M^j), j = 1..m_max, of a self-adjoint integral
    M, and whether support growth beyond ``term_budget`` cut them short.

    A reduced word over n generators is an integer code in base 2n + 1,
    its last letter the least significant digit (s_i is 2i - 1, s_i^-1 is
    2i); an entry of M^a is a sorted array of codes with an array of
    coefficients, each int32, else int64, when every code and partial sum
    of M^a provably fits, else Python ints.  M^a gives tau(M^(2a-1)) with
    M^(a-1) and tau(M^(2a)) with itself, summed in the width l1^j fits;
    then M^(a-1) is dropped, so at most two powers are held.
    """
    if not matrix.is_self_adjoint() or math.lcm(*_denominators(matrix)) > 1:
        raise InvariantError("free-ring power traces need a self-adjoint "
                             "integral matrix")
    k = matrix.rows
    radix = 2 * matrix.max_generator() + 1
    base = [[[(tuple(2 * abs(s) - (s > 0) for s in word), int(coeff))
              for word, coeff in matrix.entry(i, j).terms()]
             for j in range(k)] for i in range(k)]
    terms = [term for row in base for entry in row for term in entry]
    # M^a's words have length at most max_len * a; l1^a bounds its l1 norm
    # and so every product and partial sum.  Capping exponents at 64 keeps
    # each answer, as 2**64 passes every limit, and powers small
    max_len = max((len(digits) for digits, _ in terms), default=0)
    l1 = sum(abs(coeff) for _, coeff in terms)
    previous = [[(np.zeros(int(i == j), np.int32), np.ones(int(i == j), np.int32))
                 for j in range(k)] for i in range(k)]      # M^0
    traces = []
    for a in range(1, (m_max + 1) // 2 + 1):
        power = _times_base(previous, base, radix,
                            _int_type(radix ** min(max_len * a, 64)),
                            _int_type(l1 ** min(a, 64)))
        if a > 1 and sum(c.size for row in power for c, _ in row) > term_budget:
            return traces, True
        for j, other in zip(range(2 * a - 1, m_max + 1), (previous, power)):
            traces.append(_paired_trace(power, other, _int_type(l1 ** min(j, 64))))
        previous = power
    return traces, False


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
    for position, order, _table, rep in chain.stages():
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
    box_metric_note: str = ("pairwise separation 2^(i+j) between the i-th "
                            "and j-th quotient blocks; recorded only")


def box_obstruction_report(spec: CochainComplexSpec, degree: int,
                           chain: QuotientChain, beta_ref: BetaRef,
                           gap_claim=None,
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

    A verified certificate gap claim upgrades the decaying per-quotient
    gaps to a certified uniform gap in the report.
    """
    records = []
    for position, order, _table, rep in chain.stages():
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
    certified = bool(gap_claim is not None and
                     getattr(gap_claim, "verified", False) and
                     getattr(gap_claim, "epsilon", None) is not None)
    return ObstructionReport(
        degree=degree, beta_ref=beta_ref, records=tuple(records),
        verdict=verdict, gap_decay=decaying,
        min_gap=min(gaps) if gaps else math.inf,
        uniform_gap_certified=certified,
        certified_epsilon=float(gap_claim.epsilon) if certified else None)


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
    """Largest matrix entry of the kernel projection along the chain.

    Entry decay (strictly decreasing maxima) is the finite-dimensional
    shadow of a ghost projection: blockwise the operator vanishes
    entrywise while staying a nonzero projection.
    """
    records = []
    for position, order, _table, rep in chain.stages():
        projections = higher_kazhdan_projection(
            spec, degree, rep, zero_tolerance, method=method)
        records.append(GhostRecord(
            position=position, quotient_order=order,
            max_abs_entry=projections.projection.max_abs_entry(),
            trace=projections.projection.trace(),
            backend=projections.projection.backend))
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
