"""Verification of sum-of-squares spectral-gap certificates.

A certificate asserts an exact identity in the matrix algebra over the
free-group ring,

    c2 M^2 + c1 M  =  sum_i g_i* g_i  +  sum_j a_j (r_j - 1) b_j,

where M is a self-adjoint k x k group-ring matrix, the g_i are arbitrary
matrices with k columns, and the r_j are ideal generators (relators).
Verification recomputes both sides with exact rational arithmetic and
reports the residual; nothing here searches for certificates.

A verified identity holds as an operator inequality c2 M^2 + c1 M >= 0
in every orthogonal representation that kills the ideal generators, and
the signs of (c2, c1) say what that proves.  With c2 > 0 > c1 the
spectrum of the image of M avoids (0, epsilon), epsilon = -c1/c2; with
c2 <= 0 < c1 the image of M is positive semidefinite; any other pair
proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
    """A claimed sum-of-squares decomposition of c2 M^2 + c1 M: the
    ``polynomial_form`` (c2, c1) = (1, -epsilon) claims the gap epsilon,
    and (0, 1) claims M >= 0, in the representations it ``covers``."""

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
        object.__setattr__(self, "squares", tuple(self.squares))
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
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

    def covers(self, rep) -> bool:
        """Whether ``rep`` kills every ideal generator, so that what the
        certificate proves holds in it."""
        return all(rep.word_is_identity(w) for w in self.ideal_generators)


class GapClaim(NamedTuple):
    """What a certificate proves, with the residual that decides whether
    it is verified."""

    label: str
    kind: str                     # "spectral-gap" | "psd-only" | "none"
    epsilon: Fraction | None
    scope: str
    verified: bool
    polynomial_form: tuple[Fraction, Fraction]
    residual: GroupRingMatrix | None = None
    residual_terms: int = 0

    def float_epsilon(self) -> float | None:
        """epsilon as a float; one past the float range reads as inf."""
        return None if self.epsilon is None else float_or_inf(self.epsilon)

    def residual_text(self, presentation: Presentation) -> list[list[str]]:
        from .textform import format_element

        return [
            [format_element(self.residual.entry(i, j), presentation)
             for j in range(self.residual.cols)]
            for i in range(self.residual.rows)
        ]


def verify_certificate(certificate: Certificate) -> GapClaim:
    """Recompute the certificate identity exactly and state what it proves.

    The certificate is verified exactly when

        c2 M^2 + c1 M - sum g_i* g_i - sum a_j (r_j - 1) b_j

    is the zero matrix of the free-group ring.  The claim's kind reads
    the signs of (c2, c1): c2 > 0 > c1 claims the spectral gap
    epsilon = -c1/c2 (kept only when verified), c2 <= 0 < c1 claims
    positive semidefiniteness, and any other pair claims nothing.  Its
    scope is every orthogonal representation the certificate covers.
    """
    from .textform import format_word

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
    kind = ("spectral-gap" if c2 > 0 > c1
            else "psd-only" if c2 <= 0 < c1 else "none")
    quotient = ", ".join(
        format_word(w, certificate.presentation)
        for w in certificate.ideal_generators)
    return GapClaim(
        label=certificate.label, kind=kind,
        epsilon=-c1 / c2 if kind == "spectral-gap" and terms == 0 else None,
        scope=(f"all orthogonal representations of the quotient by the "
               f"normal closure of [{quotient}]"),
        verified=terms == 0, polynomial_form=(c2, c1),
        residual=residual, residual_terms=terms)


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
