"""Group-ring arithmetic, Fox derivatives, and presentations."""

from fractions import Fraction
from random import Random

import pytest

from conftest import (
    random_element,
    random_word,
    slow_add,
    slow_mul,
    slow_neg,
    slow_ring_matmul,
    slow_scale,
    slow_star,
    slow_terms,
)

from coholap import (
    GroupRingElement,
    GroupRingMatrix,
    MalformedPresentation,
    Presentation,
    ShapeMismatchError,
    UnknownGeneratorError,
    Word,
    fox_derivative,
    generator_word,
    parse_element,
)


class TestWord:
    def test_free_reduction(self):
        assert Word([1, -1]) == Word()
        assert Word([1, 2, -2, -1]) == Word()
        assert Word([1, 2, -2, 1]) == Word([1, 1])
        assert Word([2, -1, 1, -2, 3]) == Word([3])

    def test_inverse(self):
        w = Word([1, 2, -1])
        assert w.inverse() == Word([1, -2, -1])
        assert w * w.inverse() == Word()
        assert Word().inverse() == Word()

    def test_product_reduces_across_boundary(self):
        u = Word([1, 2])
        v = Word([-2, -1, 3])
        assert u * v == Word([3])

    def test_powers(self):
        a = generator_word(1)
        assert a ** 3 == Word([1, 1, 1])
        assert a ** -2 == Word([-1, -1])
        assert a ** 0 == Word()

    def test_sort_key_orders_by_length_then_letters(self):
        words = [Word([2]), Word([1, 1]), Word([1]), Word(), Word([-1])]
        ordered = sorted(words, key=lambda w: w.sort_key())
        assert ordered[0] == Word()
        assert set(ordered[1:4]) == {Word([1]), Word([-1]), Word([2])}
        assert ordered[-1] == Word([1, 1])

    def test_random_inverse_law(self):
        rng = Random(7)
        for _ in range(200):
            u = random_word(rng, 3)
            v = random_word(rng, 3)
            assert (u * v).inverse() == v.inverse() * u.inverse()

    def test_products_match_reducing_the_concatenation(self):
        rng = Random(11)
        for _ in range(500):
            u = random_word(rng, 3, max_length=8)
            v = random_word(rng, 3, max_length=8)
            # half the pairs cancel deep into the junction
            if rng.random() < 0.5:
                v = u.inverse() * v
            product = u * v
            assert type(product) is Word
            assert product == Word(tuple(u) + tuple(v))
            inverse = u.inverse()
            assert type(inverse) is Word
            assert inverse == Word(-letter for letter in reversed(u))
            assert u * inverse == Word()


class TestElementArithmetic:
    def test_zero_and_one(self):
        zero = GroupRingElement.zero()
        one = GroupRingElement.one()
        assert zero.is_zero()
        assert one.coefficient(Word()) == 1
        assert one * one == one

    def test_coefficients_are_fractions(self):
        x = GroupRingElement({Word([1]): Fraction(1, 3)})
        assert isinstance(x.coefficient(Word([1])), Fraction)
        assert x.coefficient(Word([2])) == 0

    def test_zero_coefficients_dropped(self):
        x = GroupRingElement({Word([1]): 1}) - GroupRingElement({Word([1]): 1})
        assert x.is_zero()
        assert x.support_size == 0

    def test_convolution_matches_hand_value(self):
        a = GroupRingElement.generator(1)
        b = GroupRingElement.generator(2)
        # (1 + a)(1 - b) = 1 - b + a - ab
        product = (GroupRingElement.one() + a) * (GroupRingElement.one() - b)
        assert product.coefficient(Word()) == 1
        assert product.coefficient(Word([2])) == -1
        assert product.coefficient(Word([1])) == 1
        assert product.coefficient(Word([1, 2])) == -1
        assert product.support_size == 4

    def test_convolution_cancellation(self):
        a = GroupRingElement.generator(1)
        a_inv = GroupRingElement.from_word(Word([-1]))
        assert a * a_inv == GroupRingElement.one()

    def test_ring_axioms_random(self):
        rng = Random(11)
        for _ in range(60):
            x = random_element(rng, 2)
            y = random_element(rng, 2)
            z = random_element(rng, 2)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert x + y == y + x
            assert x - x == GroupRingElement.zero()

    def test_scalar_multiplication(self):
        x = GroupRingElement.generator(1)
        assert 3 * x == x.scale(3)
        assert x * Fraction(1, 2) == x.scale(Fraction(1, 2))
        assert (Fraction(2, 3) * x).coefficient(Word([1])) == Fraction(2, 3)

    def test_powers(self):
        a = GroupRingElement.generator(1)
        x = GroupRingElement.one() + a
        assert x ** 0 == GroupRingElement.one()
        assert x ** 3 == x * x * x
        with pytest.raises(ValueError):
            x ** -1

    def test_l1_norm(self):
        x = parse_element("2*a - 1/2*b + 1", ["a", "b"])
        assert x.l1_norm() == Fraction(7, 2)


class TestInvolutionAndTrace:
    def test_star_reverses_and_inverts(self):
        x = parse_element("a*b - 2*a", ["a", "b"])
        y = x.star()
        assert y.coefficient(Word([-2, -1])) == 1
        assert y.coefficient(Word([-1])) == -2

    def test_star_is_antihomomorphism(self):
        rng = Random(13)
        for _ in range(60):
            x = random_element(rng, 2)
            y = random_element(rng, 2)
            assert (x * y).star() == y.star() * x.star()
            assert x.star().star() == x

    def test_trace_picks_identity_coefficient(self):
        x = parse_element("5 - 2*a + 1/3*b", ["a", "b"])
        assert x.trace() == 5

    def test_trace_symmetry(self):
        rng = Random(17)
        for _ in range(60):
            x = random_element(rng, 2)
            y = random_element(rng, 2)
            assert (x * y).trace() == (y * x).trace()
            assert x.star().trace() == x.trace()

    def test_trace_of_star_square_is_sum_of_squares(self):
        rng = Random(19)
        for _ in range(40):
            x = random_element(rng, 2)
            expected = sum((c * c for _w, c in x.terms()), Fraction(0))
            assert (x.star() * x).trace() == expected
            assert (x.star() * x).trace() >= 0

    def test_augmentation_is_ring_homomorphism(self):
        rng = Random(23)
        for _ in range(40):
            x = random_element(rng, 2)
            y = random_element(rng, 2)
            assert (x * y).augmentation() == x.augmentation() * y.augmentation()
            assert (x + y).augmentation() == x.augmentation() + y.augmentation()


class TestFoxDerivative:
    def test_generator_rules(self):
        a = Word([1])
        assert fox_derivative(a, 1) == GroupRingElement.one()
        assert fox_derivative(a, 2) == GroupRingElement.zero()
        assert fox_derivative(a.inverse(), 1) == \
            GroupRingElement.from_word(Word([-1]), -1)

    def test_power_rule(self):
        # d(a^3)/da = 1 + a + a^2
        value = fox_derivative(Word([1, 1, 1]), 1)
        expected = parse_element("1 + a + a*a", ["a"])
        assert value == expected

    def test_negative_power_rule(self):
        # d(a^-2)/da = -a^-1 - a^-2
        value = fox_derivative(Word([-1, -1]), 1)
        expected = parse_element("-a^-1 - a^-1*a^-1", ["a"])
        assert value == expected

    def test_commutator_frozen_values(self):
        commutator = Word([1, 2, -1, -2])
        names = ["a", "b"]
        assert fox_derivative(commutator, 1) == \
            parse_element("1 - a*b*a^-1", names)
        assert fox_derivative(commutator, 2) == \
            parse_element("a - a*b*a^-1*b^-1", names)

    def test_surface_relator_frozen_values(self):
        # [a,b][c,d] differentiated by a and by c
        relator = Word([1, 2, -1, -2, 3, 4, -3, -4])
        names = ["a", "b", "c", "d"]
        assert fox_derivative(relator, 1) == \
            parse_element("1 - a*b*a^-1", names)
        assert fox_derivative(relator, 3) == \
            parse_element("a*b*a^-1*b^-1 - a*b*a^-1*b^-1*c*d*c^-1", names)

    def test_leibniz_rule(self):
        rng = Random(29)
        for _ in range(60):
            u = random_word(rng, 2)
            v = random_word(rng, 2)
            for g in (1, 2):
                left = fox_derivative(u * v, g)
                right = fox_derivative(u, g) + \
                    GroupRingElement.from_word(u) * fox_derivative(v, g)
                assert left == right

    def test_fundamental_identity(self):
        # sum_s (dw/ds)(s - 1) = w - 1 for every word
        rng = Random(31)
        one = GroupRingElement.one()
        for _ in range(100):
            w = random_word(rng, 3)
            total = GroupRingElement.zero()
            for g in (1, 2, 3):
                total = total + fox_derivative(w, g) * \
                    (GroupRingElement.generator(g) - one)
            assert total == GroupRingElement.from_word(w) - one


class TestGroupRingMatrix:
    def test_identity_and_matmul(self):
        names = ["a", "b"]
        m = GroupRingMatrix(2, 2, [
            [parse_element("a", names), parse_element("1", names)],
            [parse_element("0", names), parse_element("b", names)],
        ])
        eye = GroupRingMatrix.identity(2)
        assert eye @ m == m
        assert m @ eye == m

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            GroupRingMatrix.identity(2) @ GroupRingMatrix.identity(3)
        with pytest.raises(ShapeMismatchError):
            GroupRingMatrix.identity(2) + GroupRingMatrix.zero(2, 3)

    def test_adjoint_of_product(self):
        rng = Random(37)
        for _ in range(20):
            a = GroupRingMatrix(2, 2, [
                [random_element(rng, 2, terms=2), random_element(rng, 2, terms=2)],
                [random_element(rng, 2, terms=2), random_element(rng, 2, terms=2)],
            ])
            b = GroupRingMatrix(2, 2, [
                [random_element(rng, 2, terms=2), random_element(rng, 2, terms=2)],
                [random_element(rng, 2, terms=2), random_element(rng, 2, terms=2)],
            ])
            assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()

    def test_star_square_self_adjoint(self):
        rng = Random(41)
        for _ in range(20):
            a = GroupRingMatrix(2, 1, [
                [random_element(rng, 2, terms=3)],
                [random_element(rng, 2, terms=3)],
            ])
            assert (a @ a.adjoint()).is_self_adjoint()
            assert (a.adjoint() @ a).is_self_adjoint()

    def test_trace_cyclic(self):
        rng = Random(43)
        for _ in range(20):
            a = GroupRingMatrix(2, 3, [
                [random_element(rng, 2, terms=2) for _ in range(3)]
                for _ in range(2)])
            b = GroupRingMatrix(3, 2, [
                [random_element(rng, 2, terms=2) for _ in range(2)]
                for _ in range(3)])
            assert (a @ b).trace() == (b @ a).trace()

    def test_l1_operator_bound(self):
        names = ["a"]
        m = GroupRingMatrix(2, 2, [
            [parse_element("2*a", names), parse_element("1", names)],
            [parse_element("0", names), parse_element("a - 3", names)],
        ])
        # max row sum = max(3, 4) = 4; max column sum = max(2, 5) = 5
        assert m.l1_operator_bound() == 5


def _terms(x: GroupRingElement) -> dict:
    return dict(x.terms())


def _grid(m: GroupRingMatrix) -> list[list[dict]]:
    return [[_terms(m.entry(i, j)) for j in range(m.cols)]
            for i in range(m.rows)]


class TestAgainstLoopOracles:
    """The shared accumulation rule gives the terms the hand-written
    merge loops gave, zero sums dropped; short words over two generators
    make products collide and cancel often."""

    @staticmethod
    def _element(rng: Random) -> GroupRingElement:
        if rng.random() < 0.1:
            return GroupRingElement.zero()
        return random_element(rng, 2, terms=rng.randint(1, 5), max_length=2)

    def _matrix(self, rng: Random, rows: int, cols: int) -> GroupRingMatrix:
        return GroupRingMatrix(rows, cols, [
            [self._element(rng) if rng.random() < 0.7
             else GroupRingElement.zero() for _ in range(cols)]
            for _ in range(rows)])

    def test_constructor(self):
        rng = Random(61)
        for _ in range(300):
            raw = {}
            for _ in range(rng.randint(0, 6)):
                # unreduced words too, and repeated ones that must merge
                word = (tuple(random_word(rng, 2, 2))
                        + (1, -1) * rng.randint(0, 1))
                raw[word] = rng.choice((0, 1, -1, Fraction(1, 2), 3))
            assert _terms(GroupRingElement(raw)) == slow_terms(raw)

    def test_element_operations(self):
        rng = Random(67)
        for _ in range(400):
            x, y = self._element(rng), self._element(rng)
            tx, ty = _terms(x), _terms(y)
            scalar = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            assert _terms(x + y) == slow_add(tx, ty)
            assert _terms(x - y) == slow_add(tx, slow_neg(ty))
            assert _terms(-x) == slow_neg(tx)
            assert _terms(x * y) == slow_mul(tx, ty)
            assert _terms(x.scale(scalar)) == slow_scale(tx, scalar)
            assert _terms(x * scalar) == slow_scale(tx, scalar)
            assert _terms(x.star()) == slow_star(tx)
            # products and sums that cancel to zero
            assert (x - x).is_zero() and _terms(x - x) == {}
            assert _terms(x * GroupRingElement.zero()) == {}
            assert _terms(x.scale(0)) == {}
            assert _terms(x + (-x)) == slow_add(tx, slow_neg(tx)) == {}

    def test_internal_cancellation(self):
        a, b = GroupRingElement.generator(1), GroupRingElement.generator(2)
        one = GroupRingElement.one()
        x, y = one + a, one - a
        assert _terms(x * y) == slow_mul(_terms(x), _terms(y))
        assert _terms((a * b - b * a) * (a * b - b * a).star()) == slow_mul(
            _terms(a * b - b * a), slow_star(_terms(a * b - b * a)))

    def test_matrix_product_and_scale(self):
        rng = Random(71)
        shapes = [(1, 1, 1), (2, 3, 2), (3, 2, 3), (2, 2, 2), (0, 2, 3),
                  (2, 0, 3), (3, 1, 0)]
        for trial in range(60):
            rows, inner, cols = shapes[trial % len(shapes)]
            a = self._matrix(rng, rows, inner)
            b = self._matrix(rng, inner, cols)
            assert _grid(a @ b) == slow_ring_matmul(a, b)
            assert _grid(a @ b.scale(0)) == [[{}] * cols] * rows
            factor = self._element(rng)
            scalar = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            assert _grid(a.scale(factor)) == [
                [slow_mul(entry, _terms(factor)) for entry in row]
                for row in _grid(a)]
            assert _grid(a.scale(scalar)) == [
                [slow_scale(entry, scalar) for entry in row]
                for row in _grid(a)]
            assert (a - a).is_zero()


class TestPresentation:
    def test_word_and_element_parsing(self):
        p = Presentation(("a", "b"), ())
        assert p.word("a*b^-1") == Word([1, -2])
        assert p.element("a - b").support_size == 2

    def test_duplicate_generator_names_rejected(self):
        with pytest.raises(MalformedPresentation):
            Presentation(("a", "a"), ())

    def test_bad_name_rejected(self):
        with pytest.raises(MalformedPresentation):
            Presentation(("a b",), ())
        with pytest.raises(MalformedPresentation):
            Presentation(("",), ())

    def test_empty_relator_rejected(self):
        with pytest.raises(MalformedPresentation):
            Presentation(("a",), (Word([1, -1]),))

    def test_out_of_range_relator_rejected(self):
        from coholap import UnknownGeneratorError

        with pytest.raises(UnknownGeneratorError):
            Presentation(("a",), (Word([2]),))

    def test_degree_zero_laplacian_value(self):
        p = Presentation(("a", "b"), ())
        expected = parse_element(
            "8 - 2*a - 2*a^-1 - 2*b - 2*b^-1", ("a", "b"))
        assert p.degree_zero_laplacian() == expected
        assert p.symmetric_set_size == 4


@pytest.mark.parametrize("call, error, match", [
    (lambda: Word([1, 0]), UnknownGeneratorError, "letter 0"),
    (lambda: generator_word(0), UnknownGeneratorError, ">= 1, got 0"),
    (lambda: fox_derivative(Word([1]), 0), UnknownGeneratorError,
     ">= 1, got 0"),
    (lambda: GroupRingMatrix(-1, 2), ShapeMismatchError, "nonnegative"),
    (lambda: GroupRingMatrix(1, 2, [[GroupRingElement.one()]]),
     ShapeMismatchError, "does not match declared shape 1x2"),
    (lambda: GroupRingMatrix.zero(1, 2).trace(), ShapeMismatchError,
     "requires a square matrix"),
    (lambda: Presentation((), ()), MalformedPresentation,
     "at least one generator"),
    (lambda: Presentation(("a",), ()).check_word(Word([1, -2])),
     UnknownGeneratorError, r"word \(1, -2\) uses a generator outside"),
    (lambda: GroupRingElement.one() + 1, TypeError, "unsupported operand"),
    (lambda: GroupRingElement.one() * 2.5, TypeError, "unsupported operand"),
    (lambda: 2.5 * GroupRingElement.one(), TypeError, "unsupported operand"),
], ids=["word-letter-0", "generator-word-0", "fox-derivative-0",
        "negative-dimensions", "grid-shape", "trace-not-square",
        "no-generators", "word-beyond-generators", "element-plus-int",
        "element-times-float", "float-times-element"])
def test_malformed_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


def sample_element():
    return GroupRingElement({Word((1, -2)): Fraction(3, 2), Word(): -1})


@pytest.mark.parametrize("value, expected", [
    (lambda: repr(Word((1, -2))), "Word((1, -2))"),
    (lambda: repr(sample_element()), "GroupRingElement('-1 + 3/2*g1*g2^-1')"),
    (lambda: repr(GroupRingMatrix(2, 3)), "GroupRingMatrix(2x3)"),
    (lambda: hash(sample_element()) == hash(
        GroupRingElement({Word(): -1, Word((1, -2)): Fraction(3, 2)})), True),
    (lambda: hash(GroupRingMatrix.from_element(sample_element())) == hash(
        GroupRingMatrix.from_element(sample_element())), True),
    (lambda: sample_element() == 3, False),
    (lambda: GroupRingMatrix.identity(1) == 3, False),
    (lambda: GroupRingMatrix(0, 2).l1_operator_bound(), 0),
], ids=["word-repr", "element-repr", "matrix-repr", "element-hash",
        "matrix-hash", "element-equals-int", "matrix-equals-int",
        "empty-matrix-bound"])
def test_dunder_methods_and_edge_values(value, expected):
    assert value() == expected
