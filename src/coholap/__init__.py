"""Exact computational toolkit for cohomological Laplacians over group rings.

The package computes spectra, kernel projections, and normalized Betti
numbers of the Laplacians Delta_n = d_n* d_n + d_{n-1} d_{n-1}* attached
to a group presentation, exactly where possible: group-ring arithmetic,
Fox derivatives, and coset enumeration are rational/integer, and floats
only enter immediately before eigenvalue computations.

``import coholap`` loads no submodule: each public name is imported from
its defining module on first access (PEP 562), so a caller pays only for
the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# The public names, by defining module.
_EXPORTS = {name: module for module, names in (
    ("certificates", "Certificate GapClaim IdealWitness SoundnessCheck "
                     "check_claim_soundness verify_certificate"),
    ("complexes", "CochainComplexSpec LaplacianBundle build_complex "
                  "build_laplacian cyclic_group_complex cyclic_presentation "
                  "free_group_complex free_presentation "
                  "presentation_differentials surface_genus2_complex "
                  "surface_genus2_presentation validate_chain_identity"),
    ("cosets", "ChainOrderError CosetTable QuotientChain Representation "
               "SeparationReport SeparationWarning quotient_chain "
               "todd_coxeter"),
    ("errors", "ChainIdentityError CoholapError EnumerationOverflowError "
               "IncompleteComplexError InvariantError MalformedInputError "
               "NotPositiveSemidefiniteError ShapeMismatchError "
               "SizeBudgetError TraceBackendError UnknownGeneratorError "
               "UnresolvedGapError"),
    ("groupring", "GroupRingElement GroupRingMatrix MalformedPresentation "
                  "Presentation Word fox_derivative generator_word"),
    ("pipeline", "BetaRef EulerReport GhostReport KazhdanProjections "
                 "LuckReport ObstructionReport UpperBoundReport "
                 "betti_finite_quotient betti_report box_obstruction_report "
                 "euler_class_trace ghost_diagnostic higher_kazhdan_projection "
                 "l2_betti_upper_bounds lambda_ring_membership "
                 "laplacian_operator luck_approximation"),
    ("spectral", "EvaluatedOperator GapReport ProjectionMatrix evaluate "
                 "heat_projection kernel_projection lanczos_lowest "
                 "spectral_gap"),
    ("textform", "format_element format_word parse_element parse_word"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """A public name, read from its module (imported on first use)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"),
                   name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
