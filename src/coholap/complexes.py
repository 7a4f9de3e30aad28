"""Cochain complexes of finitely presented groups and their Laplacians.

From a presentation <s_1..s_n | r_1..r_m> the associated two-skeleton
has one 0-cell, one 1-cell per generator, and one 2-cell per relator;
the differentials over the group ring are

* ``d_0`` : the n x 1 column with entries ``1 - s_i``;
* ``d_1`` : the m x n Fox Jacobian ``(dr_j / ds_i)``.

Callers may extend the complex with explicit higher differentials.  The
degree-n cohomological Laplacian splits as ``Delta_n = Delta_n^+ +
Delta_n^-`` with ``Delta_n^+ = d_n* d_n`` and ``Delta_n^- = d_{n-1}
d_{n-1}*`` (missing differentials act as zero).  In degree zero the
Laplacian carries its conventional factor two,

    Delta_0 = 2 (#S - sum_{s in S} s),   S = {s_i, s_i^-1},

so reported degree-zero spectra match that normalization; kernels and
Betti numbers are unaffected by the scalar.

The chain identity d_{n+1} d_n = 0 generally fails in the free-group
ring (the composite is 1 - r_j in degree 0 -> 2) and is therefore
validated under representations, where it must vanish exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .cosets import Representation
from .errors import (
    ChainIdentityError,
    InvariantError,
    MalformedInputError,
    ShapeMismatchError,
)
from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    Presentation,
    Word,
    fox_derivative,
)


class CochainComplexSpec(NamedTuple):
    """A finite cochain complex over the group ring of a presentation.

    ``differentials[n]`` is d_n : C^n -> C^{n+1}, a k_{n+1} x k_n matrix;
    ``cell_counts[n]`` is k_n.  ``aspherical`` records the caller's claim
    that the complex is a full classifying complex, a precondition for
    Euler-characteristic bookkeeping.
    """

    presentation: Presentation
    differentials: tuple[GroupRingMatrix, ...]
    cell_counts: tuple[int, ...]
    aspherical: bool = False

    @property
    def top_degree(self) -> int:
        return len(self.cell_counts) - 1

    def differential(self, n: int) -> GroupRingMatrix | None:
        """d_n, or None when the complex has no cells above degree n."""
        if 0 <= n < len(self.differentials):
            return self.differentials[n]
        return None

    @property
    def extends_presentation(self) -> bool:
        """Whether it has differentials past its presentation's d_0 (and
        d_1): only those can break d_{n+1} d_n = 0 over the group."""
        return len(self.differentials) > 1 + bool(self.presentation.relators)

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * k for n, k in enumerate(self.cell_counts))


def presentation_differentials(
        presentation: Presentation) -> tuple[GroupRingMatrix, ...]:
    """d_0 (and d_1 when there are relators) of the presentation complex."""
    n = presentation.generator_count
    one = GroupRingElement.one()
    d0 = GroupRingMatrix(n, 1, [
        [one - GroupRingElement.generator(i)] for i in range(1, n + 1)])
    if not presentation.relators:
        return (d0,)
    d1 = GroupRingMatrix(len(presentation.relators), n, [
        [fox_derivative(relator, i) for i in range(1, n + 1)]
        for relator in presentation.relators])
    return (d0, d1)


def build_complex(presentation: Presentation,
                  higher_differentials: Mapping[int, GroupRingMatrix] | None = None,
                  aspherical: bool = False) -> CochainComplexSpec:
    """Assemble the presentation complex, optionally extended upward.

    ``higher_differentials`` maps degree n >= 2 to d_n; degrees must be
    consecutive and shapes must chain.  :func:`validate_chain_identity`
    checks d_{n+1} d_n = 0 in a representation.
    """
    differentials = list(presentation_differentials(presentation))
    cell_counts = [1, presentation.generator_count]
    if presentation.relators:
        cell_counts.append(len(presentation.relators))

    if higher_differentials:
        for degree in sorted(higher_differentials):
            if degree != len(differentials):
                raise MalformedInputError(
                    f"higher differentials must be consecutive; expected "
                    f"degree {len(differentials)}, got {degree}")
            d = higher_differentials[degree]
            if d.cols != cell_counts[degree]:
                raise ShapeMismatchError(
                    f"d_{degree} must have {cell_counts[degree]} columns, "
                    f"has {d.cols}")
            if d.max_generator() > presentation.generator_count:
                raise MalformedInputError(
                    f"d_{degree} uses a generator outside the presentation")
            differentials.append(d)
            cell_counts.append(d.rows)

    return CochainComplexSpec(
        presentation=presentation,
        differentials=tuple(differentials),
        cell_counts=tuple(cell_counts),
        aspherical=aspherical,
    )


def validate_chain_identity(spec: CochainComplexSpec,
                            rep: Representation | None = None) -> None:
    """Check d_{n+1} d_n = 0 exactly under one representation, or, when
    ``rep`` is None, in the free-group ring (over G when G is free).

    Evaluation is a homomorphism, so the small group-ring product is
    evaluated once instead of multiplying the two evaluated matrices.
    """
    from .spectral import evaluate

    where = ("in the free-group ring" if rep is None
             else f"under representation {rep.label!r}")
    for n in range(len(spec.differentials) - 1):
        product = spec.differentials[n + 1] @ spec.differentials[n]
        if not (product.is_zero() if rep is None else evaluate(
                product, rep, f"d_{n + 1} d_{n}").is_zero_exact()):
            raise ChainIdentityError(f"d_{n + 1} d_{n} does not vanish {where}")


@dataclass(frozen=True)
class LaplacianBundle:
    """Degree-n Laplacian with its positive and negative parts.

    ``laplacian = plus_part + minus_part`` holds exactly in the group
    ring; under any representation the two parts multiply to zero.
    """

    degree: int
    cell_count: int
    laplacian: GroupRingMatrix
    plus_part: GroupRingMatrix
    minus_part: GroupRingMatrix

    def __post_init__(self):
        if self.plus_part + self.minus_part != self.laplacian:
            raise InvariantError("Laplacian parts do not sum to the Laplacian")


def build_laplacian(spec: CochainComplexSpec, degree: int) -> LaplacianBundle:
    """Delta_degree = d*d + d d* on C^degree (degree-0 scaled by two)."""
    if degree < 0 or degree > spec.top_degree:
        raise MalformedInputError(
            f"degree {degree} out of range 0..{spec.top_degree}")
    k = spec.cell_counts[degree]
    d_up = spec.differential(degree)
    d_down = spec.differential(degree - 1)

    if d_up is not None:
        plus = d_up.adjoint() @ d_up
    else:
        plus = GroupRingMatrix.zero(k, k)
    if degree == 0:
        plus = plus.scale(2)
    if d_down is not None:
        minus = d_down @ d_down.adjoint()
    else:
        minus = GroupRingMatrix.zero(k, k)
    return LaplacianBundle(
        degree=degree,
        cell_count=k,
        laplacian=plus + minus,
        plus_part=plus,
        minus_part=minus,
    )


# ---------------------------------------------------------------------------
# Built-in families used throughout the tests and demo scripts.
# ---------------------------------------------------------------------------


def free_presentation(rank: int, names: Sequence[str] | None = None) -> Presentation:
    if names is None:
        names = [chr(ord("a") + i) for i in range(rank)]
    return Presentation(tuple(names), ())


def free_group_complex(rank: int) -> CochainComplexSpec:
    """Wedge-of-circles complex of a free group (a full classifying space)."""
    return build_complex(free_presentation(rank), aspherical=True)


def cyclic_presentation(order: int, name: str = "a") -> Presentation:
    if order < 1:
        raise MalformedInputError("cyclic order must be >= 1")
    return Presentation((name,), (Word((1,) * order),))


def cyclic_group_complex(order: int) -> CochainComplexSpec:
    """Two-skeleton of the cyclic group Z/order (not a full complex)."""
    return build_complex(cyclic_presentation(order), aspherical=False)


def surface_genus2_presentation() -> Presentation:
    """<a, b, c, d | [a,b][c,d]>, the closed orientable genus-2 surface group."""
    a, b, c, d = 1, 2, 3, 4
    relator = Word((a, b, -a, -b, c, d, -c, -d))
    return Presentation(("a", "b", "c", "d"), (relator,))


def surface_genus2_complex() -> CochainComplexSpec:
    """One 0-cell, four 1-cells, one 2-cell; aspherical, Euler number -2."""
    return build_complex(surface_genus2_presentation(), aspherical=True)
