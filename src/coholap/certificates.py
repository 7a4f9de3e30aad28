"""Verification of sum-of-squares spectral-gap certificates.

A certificate asserts an exact identity in the matrix algebra over the
free-group ring,

    c2 M^2 + c1 M  =  sum_i g_i* g_i  +  sum_j a_j (r_j - 1) b_j,

where M is a self-adjoint k x k group-ring matrix, the g_i are arbitrary
matrices with k columns, and the r_j are ideal generators (relators).
Verification recomputes both sides with exact rational arithmetic and
reports the residual; nothing here searches for certificates.

A verified identity with coefficients (1, -epsilon) proves that in every
orthogonal representation of the quotient group, the spectrum of the
image of M avoids (0, epsilon): x^2 - epsilon x is a sum of squares plus
ideal terms, hence PSD wherever the relators vanish.  Coefficients
(0, 1) prove positive semidefiniteness alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import MalformedInputError, ShapeMismatchError
from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    Presentation,
    Word,
)
from .spectral import (DEFAULT_ZERO_TOLERANCE, EvaluatedOperator,
                       float_or_inf, zero_threshold)

# eigenvalues down to epsilon - SOUNDNESS_SLACK still honour a gap claim
SOUNDNESS_SLACK = 1e-6


class IdealWitness(NamedTuple):
    """One term a (r - 1) b with r an ideal generator."""

    left: GroupRingMatrix
    relator_index: int
    right: GroupRingMatrix


@dataclass(frozen=True)
class Certificate:
    """A claimed sum-of-squares decomposition of c2 M^2 + c1 M."""

    presentation: Presentation
    target: GroupRingMatrix
    polynomial_form: tuple[Fraction, Fraction]
    squares: tuple[GroupRingMatrix, ...] = ()
    witnesses: tuple[IdealWitness, ...] = ()
    ideal_generators: tuple[Word, ...] | None = None
    label: str = ""

    def __post_init__(self):
        if self.target.rows != self.target.cols:
            raise ShapeMismatchError("certificate target must be square")
        if not self.target.is_self_adjoint():
            raise MalformedInputError("certificate target must be self-adjoint")
        c2, c1 = self.polynomial_form
        object.__setattr__(self, "polynomial_form",
                           (Fraction(c2), Fraction(c1)))
        generators = self.ideal_generators
        if generators is None:
            generators = self.presentation.relators
        generators = tuple(self.presentation.check_word(w) for w in generators)
        object.__setattr__(self, "ideal_generators", generators)
        k = self.target.rows
        for g in self.squares:
            if g.cols != k:
                raise ShapeMismatchError(
                    f"square term must have {k} columns, has {g.cols}")
        for witness in self.witnesses:
            if not 0 <= witness.relator_index < len(generators):
                raise MalformedInputError(
                    f"witness references relator {witness.relator_index}, "
                    f"but only {len(generators)} ideal generators are listed")
            if witness.left.cols != witness.right.rows:
                raise ShapeMismatchError(
                    "witness factors have incompatible inner dimensions")
            if witness.left.rows != k or witness.right.cols != k:
                raise ShapeMismatchError(
                    f"witness term must produce a {k}x{k} matrix")

    @staticmethod
    def gap_form(presentation: Presentation, target: GroupRingMatrix,
                 epsilon, squares: Sequence[GroupRingMatrix] = (),
                 witnesses: Sequence[IdealWitness] = (),
                 ideal_generators: Sequence[Word] | None = None,
                 label: str = "") -> "Certificate":
        """Certificate for M^2 - epsilon M, the spectral-gap form."""
        return Certificate(
            presentation=presentation, target=target,
            polynomial_form=(Fraction(1), -Fraction(epsilon)),
            squares=tuple(squares), witnesses=tuple(witnesses),
            ideal_generators=None if ideal_generators is None
            else tuple(ideal_generators),
            label=label)

    @staticmethod
    def psd_form(presentation: Presentation, target: GroupRingMatrix,
                 squares: Sequence[GroupRingMatrix] = (),
                 witnesses: Sequence[IdealWitness] = (),
                 label: str = "") -> "Certificate":
        """Certificate that M itself is a sum of squares modulo the ideal."""
        return Certificate(
            presentation=presentation, target=target,
            polynomial_form=(Fraction(0), Fraction(1)),
            squares=tuple(squares), witnesses=tuple(witnesses),
            label=label)

    def claimed_epsilon(self) -> Fraction | None:
        """The gap this certificate would prove if verified."""
        c2, c1 = self.polynomial_form
        if c2 > 0 and c1 < 0:
            return -c1 / c2
        return None


class CertificateReport(NamedTuple):
    verified: bool
    residual: GroupRingMatrix
    residual_terms: int
    label: str

    def residual_text(self, presentation: Presentation) -> list[list[str]]:
        from .textform import format_element

        return [
            [format_element(self.residual.entry(i, j), presentation)
             for j in range(self.residual.cols)]
            for i in range(self.residual.rows)
        ]


def verify_certificate(certificate: Certificate) -> CertificateReport:
    """Recompute the certificate identity exactly and report the residual.

    The certificate is verified exactly when

        c2 M^2 + c1 M - sum g_i* g_i - sum a_j (r_j - 1) b_j

    is the zero matrix of the free-group ring.
    """
    m = certificate.target
    c2, c1 = certificate.polynomial_form
    residual = GroupRingMatrix.zero(m.rows, m.cols)
    if c2:
        residual = residual + (m @ m).scale(c2)
    if c1:
        residual = residual + m.scale(c1)
    for g in certificate.squares:
        residual = residual - (g.adjoint() @ g)
    one = GroupRingElement.one()
    for witness in certificate.witnesses:
        relator = certificate.ideal_generators[witness.relator_index]
        middle = GroupRingElement.from_word(relator) - one
        residual = residual - (witness.left.scale(middle) @ witness.right)
    terms = sum(
        residual.entry(i, j).support_size
        for i in range(residual.rows) for j in range(residual.cols))
    return CertificateReport(
        verified=terms == 0, residual=residual, residual_terms=terms,
        label=certificate.label)


class GapClaim(NamedTuple):
    """What a verified certificate proves, as a structured record."""

    label: str
    kind: str                     # "spectral-gap" | "psd-only" | "none"
    epsilon: Fraction | None
    scope: str
    verified: bool
    polynomial_form: tuple[Fraction, Fraction]

    def float_epsilon(self) -> float | None:
        """epsilon as a float; one past the float range reads as inf."""
        return None if self.epsilon is None else float_or_inf(self.epsilon)


def certificate_gap_claim(certificate: Certificate,
                          report: CertificateReport) -> GapClaim:
    """Turn a verification outcome into an explicit claim record.

    Only coefficients (1, -epsilon) with epsilon > 0 yield a spectral-gap
    claim: spectrum inside {0} union [epsilon, infinity) in every
    orthogonal representation killing the ideal generators.  Coefficients
    (0, 1) yield a positive-semidefiniteness claim with no gap.
    """
    from .textform import format_word

    quotient = ", ".join(
        format_word(w, certificate.presentation)
        for w in certificate.ideal_generators)
    scope = (f"all orthogonal representations of the quotient by the normal "
             f"closure of [{quotient}]")
    c2, c1 = certificate.polynomial_form
    epsilon = certificate.claimed_epsilon()
    if epsilon is not None:
        kind = "spectral-gap"
    elif (c2, c1) == (0, 1):
        kind = "psd-only"
    else:
        kind = "none"
    return GapClaim(
        label=certificate.label, kind=kind,
        epsilon=epsilon if report.verified else None,
        scope=scope, verified=report.verified,
        polynomial_form=(c2, c1))


class SoundnessCheck(NamedTuple):
    holds: bool
    offending_eigenvalue: float | None
    zero_threshold: float
    epsilon: float | None


def check_claim_soundness(claim: GapClaim, operator: EvaluatedOperator,
                          zero_tolerance: float = DEFAULT_ZERO_TOLERANCE
                          ) -> SoundnessCheck:
    """Numerically test a claim against one evaluated representation.

    For a spectral-gap claim the spectrum must lie in
    {0} union [epsilon - SOUNDNESS_SLACK, infinity); for a PSD claim it
    must be nonnegative up to the zero threshold.
    """
    values = operator.eigenvalues()
    threshold = zero_threshold(operator, zero_tolerance)
    bad = values < -threshold
    epsilon = claim.float_epsilon()
    if claim.kind == "spectral-gap" and claim.verified and epsilon is not None:
        bad |= (threshold < values) & (values < epsilon - SOUNDNESS_SLACK)
    # eigenvalues() is ascending, so this is the lowest offending eigenvalue
    offender = float(values[bad][0]) if bad.any() else None
    return SoundnessCheck(
        holds=offender is None,
        offending_eigenvalue=offender,
        zero_threshold=threshold,
        epsilon=epsilon)
