"""Spectral gaps you can check by hand: sum-of-squares certificates.

A numeric eigenvalue says "the gap looked like 6 on this machine"; an
algebraic certificate says "the gap IS 6, in every orthogonal
representation of the quotient, and here is the ring identity that
proves it".  This script verifies such an identity for the order-three
rotation group, tampers with the claimed gap to watch the verifier
refuse, and cross-checks the verified claim against an actual spectrum.

Run:  python3 demos/tour_certificates.py
"""

from coholap import (
    Certificate,
    GapClaim,
    GroupRingMatrix,
    IdealWitness,
    Representation,
    check_claim_soundness,
    cyclic_presentation,
    evaluate,
    format_element,
    spectral_gap,
    todd_coxeter,
    verify_certificate,
)


def main():
    z3 = cyclic_presentation(3)
    target = GroupRingMatrix.from_element(z3.degree_zero_laplacian())
    print("target M =", format_element(target.entry(0, 0),
                                        z3.generator_names))

    # M^2 - 6M = (4a^-1 - 4a^-2)(a^3 - 1) is an exact identity, so the
    # single ideal witness below certifies the gap 6 with no squares.
    witness = IdealWitness(
        left=GroupRingMatrix.from_element(z3.element("4*a^-1 - 4*a^-2")),
        relator_index=0,
        right=GroupRingMatrix.identity(1))
    certificate = Certificate(z3, target, (1, -6), witnesses=[witness],
                              label="rotation-gap")

    claim = verify_certificate(certificate)
    print("\nverifier accepts the epsilon = 6 certificate:", claim.verified)
    print("residual term count:", claim.residual_terms)
    print("claim kind:", claim.kind, "  epsilon:", claim.epsilon)
    print("scope:", claim.scope)

    # Tamper: claim a gap of 5 with the same witness.  The residual is
    # M itself, printed exactly, and no epsilon survives into the claim.
    tampered = Certificate(z3, target, (1, -5), witnesses=[witness],
                           label="tampered")
    tampered_claim = verify_certificate(tampered)
    print("\nverifier accepts the epsilon = 5 tamper:",
          tampered_claim.verified)
    print("leftover residual:", tampered_claim.residual_text(z3)[0][0])
    print("claimed epsilon after the failed check:", tampered_claim.epsilon)

    # Soundness: the verified claim must be consistent with the actual
    # spectrum in the regular representation.
    rep = Representation.from_coset_table(todd_coxeter(z3), "regular")
    operator = evaluate(target, rep)
    gap = spectral_gap(operator)
    print("\nregular-representation spectrum:",
          [round(x, 9) for x in gap.lowest])
    check = check_claim_soundness(claim, operator)
    print("spectrum consistent with the certified gap:", check.holds)

    overstated = GapClaim(
        label="overstated", kind="spectral-gap", epsilon=7, scope="",
        verified=True, polynomial_form=claim.polynomial_form)
    check = check_claim_soundness(overstated, operator)
    print("an overstated epsilon = 7 claim is caught:", not check.holds,
          f"(offending eigenvalue {check.offending_eigenvalue:.3f})")


if __name__ == "__main__":
    main()
