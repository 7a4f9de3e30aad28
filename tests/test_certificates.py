"""Exact verification of sum-of-squares spectral-gap certificates.

The running example: for the order-three rotation presentation, the
degree-zero laplacian M = 4 - 2a - 2a^-1 has spectrum {0, 6, 6} in the
regular representation, and

    M^2 - 6M = (4a^-1 - 4a^-2)(a^3 - 1)

is an exact ring identity, so the gap 6 is certified with a single
ideal witness and no squares.
"""

from fractions import Fraction

import pytest

from coholap import (
    Certificate,
    GapClaim,
    GroupRingElement,
    GroupRingMatrix,
    IdealWitness,
    MalformedInputError,
    Presentation,
    Representation,
    ShapeMismatchError,
    Word,
    check_claim_soundness,
    cyclic_presentation,
    evaluate,
    free_presentation,
    presentation_differentials,
    todd_coxeter,
    verify_certificate,
)

Z3 = cyclic_presentation(3)
F2 = free_presentation(2)


def z3_target():
    return GroupRingMatrix.from_element(Z3.degree_zero_laplacian())


def z3_witness():
    left = GroupRingMatrix.from_element(Z3.element("4*a^-1 - 4*a^-2"))
    return IdealWitness(left=left, relator_index=0,
                        right=GroupRingMatrix.identity(1))


def z3_gap_certificate(epsilon=6):
    return Certificate(
        Z3, z3_target(), (1, -epsilon), witnesses=[z3_witness()],
        label="rotation-gap")


def regular_operator(presentation, element):
    rep = Representation.from_coset_table(todd_coxeter(presentation))
    return evaluate(GroupRingMatrix.from_element(element), rep)


class TestVerification:
    def test_cyclic_gap_certificate_verifies(self):
        report = verify_certificate(z3_gap_certificate())
        assert report.verified
        assert report.residual_terms == 0
        assert report.residual.is_zero()
        assert report.label == "rotation-gap"

    def test_tampered_epsilon_leaves_exact_residual(self):
        # with epsilon 5 instead of 6 the residual is exactly M
        report = verify_certificate(z3_gap_certificate(epsilon=5))
        assert not report.verified
        assert report.residual == z3_target()
        assert report.residual_terms == 3
        assert report.residual_text(Z3) == [["4 - 2*a^-1 - 2*a"]]

    def test_free_laplacian_psd_by_duplicated_squares(self):
        target = GroupRingMatrix.from_element(F2.degree_zero_laplacian())
        squares = [
            GroupRingMatrix.from_element(F2.element(text))
            for text in ("1 - a", "1 - a", "1 - b", "1 - b")
        ]
        report = verify_certificate(
            Certificate(F2, target, (0, 1), squares=squares))
        assert report.verified

    def test_rectangular_square_term(self):
        # sum g* g with g the 2 x 1 differential column certifies the
        # 1 x 1 product d0* d0 in one stroke
        (d0,) = presentation_differentials(F2)
        target = d0.adjoint() @ d0
        report = verify_certificate(
            Certificate(F2, target, (0, 1), squares=[d0]))
        assert report.verified

    def test_matrix_certificate_for_degree_one(self):
        (d0,) = presentation_differentials(F2)
        target = d0 @ d0.adjoint()          # 2 x 2
        report = verify_certificate(
            Certificate(F2, target, (0, 1), squares=[d0.adjoint()]))
        assert report.verified
        assert report.residual.rows == 2

    def test_missing_witness_fails_with_nonzero_residual(self):
        cert = Certificate(Z3, z3_target(), (1, -6), label="no-witness")
        report = verify_certificate(cert)
        assert not report.verified
        assert report.residual_terms > 0

    def test_explicit_ideal_generators(self):
        # the same identity over the free group, the ideal given by hand
        p = free_presentation(1)
        target = GroupRingMatrix.from_element(p.element("4 - 2*a - 2*a^-1"))
        left = GroupRingMatrix.from_element(p.element("4*a^-1 - 4*a^-2"))
        cert = Certificate(
            p, target, (1, -6),
            witnesses=[IdealWitness(left, 0, GroupRingMatrix.identity(1))],
            ideal_generators=[Word((1, 1, 1))])
        assert verify_certificate(cert).verified


class TestCertificateValidation:
    def test_target_must_be_self_adjoint(self):
        target = GroupRingMatrix.from_element(Z3.element("a"))
        with pytest.raises(MalformedInputError):
            Certificate(Z3, target, (0, 1))

    def test_target_must_be_square(self):
        with pytest.raises(ShapeMismatchError):
            Certificate(Z3, GroupRingMatrix.zero(1, 2), (0, 1))

    def test_witness_index_range(self):
        bad = IdealWitness(GroupRingMatrix.identity(1), 5,
                           GroupRingMatrix.identity(1))
        with pytest.raises(MalformedInputError):
            Certificate(Z3, z3_target(), (1, -6), witnesses=[bad])

    def test_square_column_count(self):
        wide = GroupRingMatrix.zero(1, 2)
        with pytest.raises(ShapeMismatchError):
            Certificate(Z3, z3_target(), (0, 1), squares=[wide])

    def test_witness_shapes_must_chain(self):
        mismatched = IdealWitness(GroupRingMatrix.identity(1), 0,
                                  GroupRingMatrix.zero(2, 1))
        with pytest.raises(ShapeMismatchError):
            Certificate(Z3, z3_target(), (1, -6), witnesses=[mismatched])

    def test_witness_must_land_in_target_shape(self):
        tall = IdealWitness(GroupRingMatrix.zero(2, 1), 0,
                            GroupRingMatrix.identity(1))
        with pytest.raises(ShapeMismatchError):
            Certificate(Z3, z3_target(), (1, -6), witnesses=[tall])


class TestGapClaims:
    def test_verified_gap_claim(self):
        cert = z3_gap_certificate()
        claim = verify_certificate(cert)
        assert claim.kind == "spectral-gap"
        assert claim.verified
        assert claim.epsilon == Fraction(6)
        assert claim.polynomial_form == (Fraction(1), Fraction(-6))
        assert "a*a*a" in claim.scope
        assert claim.scope.startswith("all orthogonal representations")

    def test_unverified_claim_has_no_epsilon(self):
        cert = z3_gap_certificate(epsilon=5)
        claim = verify_certificate(cert)
        assert claim.kind == "spectral-gap"
        assert not claim.verified
        assert claim.epsilon is None

    def test_psd_claim(self):
        target = GroupRingMatrix.from_element(F2.degree_zero_laplacian())
        squares = [
            GroupRingMatrix.from_element(F2.element(text))
            for text in ("1 - a", "1 - a", "1 - b", "1 - b")
        ]
        cert = Certificate(F2, target, (0, 1), squares=squares)
        claim = verify_certificate(cert)
        assert claim.kind == "psd-only"
        assert claim.epsilon is None
        assert claim.verified

    def test_claimed_epsilon_scaling(self):
        # 2 M^2 - 12 M is twice the rotation identity: the gap is -c1/c2
        witness = z3_witness()
        cert = Certificate(
            Z3, z3_target(), (2, -12),
            witnesses=[witness._replace(left=witness.left.scale(2))])
        claim = verify_certificate(cert)
        assert claim.verified
        assert claim.kind == "spectral-gap"
        assert claim.epsilon == Fraction(6)

    def test_positive_linear_coefficient_claims_nothing(self):
        cert = Certificate(
            presentation=Z3, target=z3_target(),
            polynomial_form=(Fraction(1), Fraction(1)))
        claim = verify_certificate(cert)
        assert claim.kind == "none"
        assert claim.epsilon is None

    def test_scaled_and_concave_forms_claim_psd(self):
        # with c2 <= 0 < c1, x (c1 + c2 x) >= 0 forces x >= 0
        square = GroupRingMatrix.from_element(Z3.element("1 - a"))
        witness = z3_witness()
        scaled = Certificate(Z3, z3_target(), (0, 2), squares=[square] * 4)
        # 6M - M^2 = -(4a^-1 - 4a^-2)(a^3 - 1)
        concave = Certificate(Z3, z3_target(), (-1, 6), witnesses=[
            witness._replace(left=witness.left.scale(-1))])
        for cert in (scaled, concave):
            claim = verify_certificate(cert)
            assert claim.verified
            assert claim.kind == "psd-only"
            assert claim.epsilon is None


class TestSoundness:
    def test_verified_claim_matches_spectrum(self):
        cert = z3_gap_certificate()
        claim = verify_certificate(cert)
        op = regular_operator(Z3, Z3.degree_zero_laplacian())
        check = check_claim_soundness(claim, op)
        assert check.holds
        assert check.offending_eigenvalue is None
        assert check.epsilon == 6.0

    def test_overstated_gap_is_caught(self):
        claim = GapClaim(label="overstated", kind="spectral-gap",
                         epsilon=Fraction(7), scope="",
                         verified=True,
                         polynomial_form=(Fraction(1), Fraction(-7)))
        op = regular_operator(Z3, Z3.degree_zero_laplacian())
        check = check_claim_soundness(claim, op)
        assert not check.holds
        assert abs(check.offending_eigenvalue - 6.0) < 1e-9

    def test_negative_spectrum_fails_any_claim(self):
        claim = GapClaim(label="psd", kind="psd-only", epsilon=None,
                         scope="", verified=True,
                         polynomial_form=(Fraction(0), Fraction(1)))
        generator = GroupRingElement.generator(1)
        op = regular_operator(Z3, generator + generator.star())
        check = check_claim_soundness(claim, op)
        assert not check.holds
        assert check.offending_eigenvalue < -0.5
