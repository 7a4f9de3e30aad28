"""Cochain complexes, differentials, and Laplacian bundles."""

import pytest

from coholap import (
    ChainIdentityError,
    GroupRingElement,
    GroupRingMatrix,
    InvariantError,
    MalformedInputError,
    Presentation,
    Representation,
    ShapeMismatchError,
    Word,
    build_complex,
    build_laplacian,
    cyclic_group_complex,
    cyclic_presentation,
    evaluate,
    exact,
    free_group_complex,
    free_presentation,
    presentation_differentials,
    surface_genus2_complex,
    surface_genus2_presentation,
    todd_coxeter,
    validate_chain_identity,
)
from coholap.complexes import LaplacianBundle


def torus_presentation():
    return Presentation(("a", "b"), (Word((1, 2, -1, -2)),))


def torus_complex():
    return build_complex(torus_presentation(), aspherical=True)


def regular_rep(presentation, extra):
    return Representation.from_coset_table(todd_coxeter(presentation, extra))


S3 = Presentation(("a", "b"),
                  (Word((1, 1)), Word((2, 2, 2)), Word((1, 2, 1, 2))))


class TestDifferentials:
    def test_degree_zero_column(self):
        p = free_presentation(2)
        (d0,) = presentation_differentials(p)
        assert (d0.rows, d0.cols) == (2, 1)
        assert d0.entry(0, 0) == p.element("1 - a")
        assert d0.entry(1, 0) == p.element("1 - b")

    def test_torus_jacobian(self):
        p = torus_presentation()
        d0, d1 = presentation_differentials(p)
        assert (d1.rows, d1.cols) == (1, 2)
        assert d1.entry(0, 0) == p.element("1 - a*b*a^-1")
        assert d1.entry(0, 1) == p.element("a - a*b*a^-1*b^-1")

    def test_genus2_jacobian_spot_entries(self):
        p = surface_genus2_presentation()
        _d0, d1 = presentation_differentials(p)
        assert d1.entry(0, 0) == p.element("1 - a*b*a^-1")
        assert d1.entry(0, 2) == p.element(
            "a*b*a^-1*b^-1 - a*b*a^-1*b^-1*c*d*c^-1")

    @pytest.mark.parametrize("p", [
        torus_presentation(),
        surface_genus2_presentation(),
        S3,
    ])
    def test_composite_is_one_minus_relator(self, p):
        # the fundamental derivation identity makes (d1 d0)_j = 1 - r_j,
        # which dies under any representation of the quotient
        d0, d1 = presentation_differentials(p)
        composite = d1 @ d0
        for j, relator in enumerate(p.relators):
            expected = (GroupRingElement.one()
                        - GroupRingElement.from_word(relator))
            assert composite.entry(j, 0) == expected


class TestBuildComplex:
    def test_cell_counts(self):
        assert free_group_complex(2).cell_counts == (1, 2)
        assert torus_complex().cell_counts == (1, 2, 1)
        assert surface_genus2_complex().cell_counts == (1, 4, 1)
        assert cyclic_group_complex(4).cell_counts == (1, 1, 1)

    def test_euler_characteristic(self):
        assert free_group_complex(2).euler_characteristic() == -1
        assert torus_complex().euler_characteristic() == 0
        assert surface_genus2_complex().euler_characteristic() == -2
        assert cyclic_group_complex(3).euler_characteristic() == 1

    def test_aspherical_flags(self):
        assert free_group_complex(3).aspherical
        assert surface_genus2_complex().aspherical
        assert not cyclic_group_complex(3).aspherical

    def test_differential_lookup(self):
        spec = torus_complex()
        assert spec.top_degree == 2
        assert spec.differential(0) is spec.differentials[0]
        assert spec.differential(2) is None
        assert spec.differential(-1) is None

    def test_higher_differential_extends_complex(self):
        # extend Z/2's two-skeleton with d_2 = (1 - a): the periodic
        # resolution alternates 1 - a and the norm element 1 + a
        p = cyclic_presentation(2)
        d2 = GroupRingMatrix.from_element(p.element("1 - a"))
        rep = regular_rep(p, [])
        spec = build_complex(p, higher_differentials={2: d2})
        validate_chain_identity(spec, rep)
        assert spec.cell_counts == (1, 1, 1, 1)
        assert spec.top_degree == 3

    def test_non_consecutive_degree_rejected(self):
        p = cyclic_presentation(2)
        d = GroupRingMatrix.from_element(p.element("1 + a"))
        with pytest.raises(MalformedInputError):
            build_complex(p, higher_differentials={3: d})

    def test_wrong_shape_rejected(self):
        p = cyclic_presentation(2)
        bad = GroupRingMatrix.zero(1, 2)
        with pytest.raises(ShapeMismatchError):
            build_complex(p, higher_differentials={2: bad})

    def test_foreign_generator_rejected(self):
        p = cyclic_presentation(2)
        bad = GroupRingMatrix.from_element(GroupRingElement.generator(5))
        with pytest.raises(MalformedInputError):
            build_complex(p, higher_differentials={2: bad})

    def test_chain_identity_catches_bad_extension(self):
        # d_2 = (1) does not satisfy d_2 d_1 = 0 for the torus
        p = torus_presentation()
        rep = regular_rep(p, ["a^2", "b^2"])
        d2 = GroupRingMatrix.identity(1)
        spec = build_complex(p, higher_differentials={2: d2})
        with pytest.raises(ChainIdentityError):
            validate_chain_identity(spec, rep)

    def test_chain_identity_needs_matching_representation(self):
        # the symmetric-group representation does not kill the torus
        # relator, so d_1 d_0 = 1 - r survives and the check fails
        rep = Representation.from_coset_table(todd_coxeter(S3))
        with pytest.raises(ChainIdentityError):
            validate_chain_identity(torus_complex(), rep)

    def test_chain_identity_holds_for_quotients(self):
        spec = torus_complex()
        for extra in (["a^2", "b^2"], ["a^4", "b^4"]):
            validate_chain_identity(spec, regular_rep(spec.presentation, extra))


class TestLaplacianBundle:
    def test_degree_zero_matches_presentation_laplacian(self):
        for p in (free_presentation(2), torus_presentation(),
                  surface_genus2_presentation()):
            spec = build_complex(p)
            bundle = build_laplacian(spec, 0)
            assert bundle.laplacian == GroupRingMatrix.from_element(
                p.degree_zero_laplacian())
            assert bundle.minus_part.is_zero()

    def test_parts_sum_and_shapes(self):
        spec = torus_complex()
        for degree in range(spec.top_degree + 1):
            bundle = build_laplacian(spec, degree)
            assert bundle.plus_part + bundle.minus_part == bundle.laplacian
            assert bundle.cell_count == spec.cell_counts[degree]
            assert bundle.laplacian.rows == bundle.cell_count

    def test_all_parts_self_adjoint(self):
        for spec in (torus_complex(), surface_genus2_complex(),
                     cyclic_group_complex(3)):
            for degree in range(spec.top_degree + 1):
                bundle = build_laplacian(spec, degree)
                assert bundle.laplacian.is_self_adjoint()
                assert bundle.plus_part.is_self_adjoint()
                assert bundle.minus_part.is_self_adjoint()

    def test_torus_degree_one_entries(self):
        p = torus_presentation()
        bundle = build_laplacian(build_complex(p), 1)
        minus = bundle.minus_part
        assert minus.entry(0, 0) == p.element("2 - a - a^-1")
        assert minus.entry(0, 1) == p.element("1 - a - b^-1 + a*b^-1")
        plus = bundle.plus_part
        jac_a = p.element("1 - a*b*a^-1")
        assert plus.entry(0, 0) == jac_a.star() * jac_a

    def test_parts_that_do_not_sum_are_refused(self):
        bundle = build_laplacian(torus_complex(), 1)
        with pytest.raises(InvariantError, match="do not sum"):
            LaplacianBundle(1, bundle.cell_count, bundle.laplacian,
                            bundle.plus_part, bundle.plus_part)

    def test_top_degree_has_no_plus_part(self):
        bundle = build_laplacian(torus_complex(), 2)
        assert bundle.plus_part.is_zero()
        assert not bundle.minus_part.is_zero()
        assert bundle.cell_count == 1

    def test_parts_multiply_to_zero_under_representation(self):
        spec = torus_complex()
        rep = regular_rep(spec.presentation, ["a^3", "b^3"])
        bundle = build_laplacian(spec, 1)
        plus = evaluate(bundle.plus_part, rep)
        minus = evaluate(bundle.minus_part, rep)
        assert exact.is_zero(exact.matmul(plus.exact_matrix,
                                          minus.exact_matrix))

    def test_degree_out_of_range(self):
        spec = torus_complex()
        with pytest.raises(MalformedInputError):
            build_laplacian(spec, 3)
        with pytest.raises(MalformedInputError):
            build_laplacian(spec, -1)

    def test_free_group_degree_one(self):
        spec = free_group_complex(2)
        bundle = build_laplacian(spec, 1)
        # no relators: Delta_1 is purely d_0 d_0*
        assert bundle.plus_part.is_zero()
        p = spec.presentation
        assert bundle.minus_part.entry(0, 0) == p.element("2 - a - a^-1")
        assert bundle.minus_part.entry(1, 0) == p.element("1 - b - a^-1 + b*a^-1")


class TestPresets:
    def test_cyclic_presentation_relator(self):
        p = cyclic_presentation(4)
        assert p.relators == (Word((1, 1, 1, 1)),)
        assert todd_coxeter(p).coset_count == 4

    def test_cyclic_order_validated(self):
        with pytest.raises(MalformedInputError):
            cyclic_presentation(0)

    def test_genus2_relator_is_product_of_commutators(self):
        p = surface_genus2_presentation()
        assert len(p.relators[0]) == 8
        # abelianization kills the relator: exponent sums all vanish
        sums = [0, 0, 0, 0]
        for letter in p.relators[0]:
            sums[abs(letter) - 1] += 1 if letter > 0 else -1
        assert sums == [0, 0, 0, 0]

    def test_free_presentation_names(self):
        assert free_presentation(3).generator_names == ("a", "b", "c")
        assert free_presentation(2, ("x", "y")).generator_names == ("x", "y")
