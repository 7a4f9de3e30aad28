"""Exact computational toolkit for cohomological Laplacians over group rings.

The package computes spectra, kernel projections, and normalized Betti
numbers of the Laplacians Delta_n = d_n* d_n + d_{n-1} d_{n-1}* attached
to a group presentation, exactly where possible: group-ring arithmetic,
Fox derivatives, and coset enumeration are rational/integer, and floats
only enter immediately before eigenvalue computations.
"""

import types

from .certificates import (
    Certificate,
    CertificateReport,
    GapClaim,
    IdealWitness,
    SoundnessCheck,
    certificate_gap_claim,
    check_claim_soundness,
    verify_certificate,
)
from .complexes import (
    CochainComplexSpec,
    LaplacianBundle,
    build_complex,
    build_laplacian,
    cyclic_group_complex,
    cyclic_presentation,
    free_group_complex,
    free_presentation,
    presentation_differentials,
    surface_genus2_complex,
    surface_genus2_presentation,
    validate_chain_identity,
)
from .cosets import (
    ChainOrderError,
    CosetTable,
    QuotientChain,
    Representation,
    SeparationReport,
    SeparationWarning,
    quotient_chain,
    todd_coxeter,
)
from .errors import (
    ChainIdentityError,
    CoholapError,
    EnumerationOverflowError,
    IncompleteComplexError,
    InvariantError,
    MalformedInputError,
    NotPositiveSemidefiniteError,
    ShapeMismatchError,
    SizeBudgetError,
    TraceBackendError,
    UnknownGeneratorError,
    UnresolvedGapError,
)
from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    MalformedPresentation,
    Presentation,
    Word,
    fox_derivative,
    generator_word,
)
from .pipeline import (
    BetaRef,
    EulerReport,
    GhostReport,
    KazhdanProjections,
    LuckReport,
    ObstructionReport,
    UpperBoundReport,
    betti_finite_quotient,
    betti_report,
    box_obstruction_report,
    euler_class_trace,
    ghost_diagnostic,
    higher_kazhdan_projection,
    l2_betti_upper_bounds,
    lambda_ring_membership,
    laplacian_operator,
    luck_approximation,
)
from .spectral import (
    EvaluatedOperator,
    GapReport,
    ProjectionMatrix,
    evaluate,
    heat_projection,
    kernel_projection,
    lanczos_lowest,
    spectral_gap,
)
from .textform import format_element, format_word, parse_element, parse_word

__version__ = "0.1.0"

# The public names are exactly the ones imported above; deriving the list
# keeps one place to edit when a name is added or removed.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
