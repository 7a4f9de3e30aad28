"""The exact matrix type and the vectorized paths built on it.

Evaluation, exact products and the finite-group upper bounds are checked
against the slow entry-by-entry oracles in conftest on the acceptance
corpus, on orthogonal representations, on rational coefficients and on
integers too large for int64.
"""

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from conftest import random_element, slow_evaluate, slow_matmul
from test_acceptance import CORPUS, S3
from test_pipeline import s4_complex

from coholap import (
    GroupRingElement,
    GroupRingMatrix,
    Presentation,
    Representation,
    ShapeMismatchError,
    Word,
    build_complex,
    build_laplacian,
    cyclic_group_complex,
    cyclic_presentation,
    evaluate,
    l2_betti_upper_bounds,
    todd_coxeter,
)
from coholap import exact

F2 = Presentation(("a", "b"), ())
# PSL(2, 7) = <a, b | a^7, b^2, (ab)^3, (a^4 b a^4 b)^2>, of order 168
PSL27 = build_complex(Presentation(
    ("a", "b"), (Word((1,) * 7), Word((2, 2)), Word((1, 2) * 3),
                 Word((1, 1, 1, 1, 2) * 4))))


def int_matrix(rows):
    return exact.Matrix(np.array(rows, dtype=np.int64))


def spy_matmul(monkeypatch):
    """Record (left shape, right shape, result dtype) of every exact
    product."""
    products, matmul = [], exact.matmul

    def spy(a, b):
        out = matmul(a, b)
        products.append((a.array.shape, b.array.shape, out.array.dtype))
        return out

    monkeypatch.setattr(exact, "matmul", spy)
    return products


class TestMatrix:
    def test_rows_read_as_fraction_tuples(self):
        m = int_matrix([[1, 2], [3, 4]])
        assert len(m) == 2
        assert m[1] == (Fraction(3), Fraction(4))
        assert all(type(x) is Fraction for row in m for x in row)
        assert list(m) == [(1, 2), (3, 4)]

    def test_nested_rows_become_fractions(self):
        m = exact.Matrix([[1, "1/2"], [Fraction(2, 3), 0]])
        assert m.array.dtype == object
        assert m[0] == (Fraction(1), Fraction(1, 2))
        assert all(type(x) is Fraction for row in m.array for x in row)

    def test_equality(self):
        m = int_matrix([[8, 0], [0, 1]])
        assert m == ((Fraction(8), 0), (0, 1))
        assert m == exact.Matrix([[8, 0], [0, 1]])
        assert m != ((8, 0), (0, 2))
        assert m != ((8, 0),)
        assert m != [[8, 0], [0]]
        assert m != 8

    @pytest.mark.parametrize("rows, text", [
        (np.array([[1, 2]]), "Matrix(array([[1, 2]]))"),
        ([["1/2"]], "Matrix(array([[Fraction(1, 2)]], dtype=object))"),
    ], ids=["int64", "rationals"])
    def test_repr_shows_the_storage(self, rows, text):
        assert repr(exact.Matrix(rows)) == text

    def test_ragged_rows_rejected(self):
        for rows in ([[0, 1], [1, 0, 0]], [[1, 0], [0]], [[[1]]]):
            with pytest.raises(ShapeMismatchError):
                exact.Matrix(rows)

    def test_to_float_matches_float_of_each_entry(self):
        rng = Random(5)
        rows = [[Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20))
                 for _ in range(5)] for _ in range(4)]
        rows[0][0] = Fraction(2**53 + 1)  # rounds to even
        floats = exact.to_float(exact.Matrix(rows))
        assert floats.dtype == np.float64
        assert floats.tolist() == [[float(x) for x in row] for row in rows]
        big = int_matrix([[2**62 + 1, -(2**53 + 1)]])
        assert exact.to_float(big).tolist() == [[float(2**62 + 1),
                                                  float(-(2**53 + 1))]]

    def test_predicates(self):
        sym = exact.Matrix([["1/2", 3], [3, 0]])
        assert exact.is_symmetric(sym)
        assert not exact.is_symmetric(exact.Matrix([[0, 1], [2, 0]]))
        assert not exact.is_symmetric(exact.Matrix([[0, 1]]))
        assert exact.is_zero(exact.Matrix([[0, Fraction(0)]]))
        assert not exact.is_zero(int_matrix([[0, 1]]))
        assert exact.transpose(exact.Matrix([[1, 2]])) == ((1,), (2,))
        assert exact.identity(2) == ((1, 0), (0, 1))
        rotation = exact.Matrix([["3/5", "-4/5"], ["4/5", "3/5"]])
        assert exact.is_orthogonal(rotation)
        assert not exact.is_orthogonal(exact.Matrix([[1, 1], [0, 1]]))


class TestMatmul:
    def test_small_integers_stay_int64(self):
        rng = Random(11)
        a = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        b = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(6)]
        product = exact.matmul(int_matrix(a), int_matrix(b))
        assert product.array.dtype == np.int64
        assert product == slow_matmul(exact.Matrix(a), exact.Matrix(b))

    def test_overflow_bound_is_exact(self):
        # inner * max|a| * max|b| = 2**63 - 2**32 fits, 2**63 does not
        below = exact.matmul(int_matrix([[2**31, 2**31]]),
                             int_matrix([[2**31 - 1], [2**31 - 1]]))
        assert below.array.dtype == np.int64
        assert below == ((2**63 - 2**32,),)
        at = exact.matmul(int_matrix([[2**31, 2**31]]),
                          int_matrix([[2**31], [2**31]]))
        assert at.array.dtype == object
        assert at == ((2**63,),)

    def test_float_bound_is_exact(self):
        # inner * max|a| * max|b| just below 2**53 multiplies in float64,
        # at 2**53 in int64; both must match the oracle entry for entry
        rng = Random(23)
        for top in (2**25 - 1, 2**25):
            a = [[rng.choice((-top, top, rng.randint(-top, top)))
                  for _ in range(8)] for _ in range(5)]
            b = [[rng.choice((-top, top, rng.randint(-top, top)))
                  for _ in range(4)] for _ in range(8)]
            product = exact.matmul(int_matrix(a), int_matrix(b))
            assert product.array.dtype == np.int64
            assert product == slow_matmul(exact.Matrix(a), exact.Matrix(b))
        # an odd product above 2**53, which float64 cannot hold
        odd = exact.matmul(int_matrix([[2**27 + 1]]), int_matrix([[2**26 + 1]]))
        assert odd == (((2**27 + 1) * (2**26 + 1),),)

    def test_max_abs_needs_no_negation(self):
        assert exact.max_abs(np.array([[-(2**63), 5]], dtype=np.int64)) == 2**63
        assert exact.max_abs(np.zeros((0, 3), dtype=np.int64)) == 0

    def test_corpus_hodge_products(self):
        checked = 0
        for _name, spec, rep in CORPUS:
            for degree in range(len(spec.cell_counts)):
                bundle = build_laplacian(spec, degree)
                plus, minus, full = (evaluate(m, rep).exact_matrix for m in (
                    bundle.plus_part, bundle.minus_part, bundle.laplacian))
                product = exact.matmul(plus, minus)
                assert product == slow_matmul(plus, minus)
                assert exact.is_zero(product)
                square = exact.matmul(full, full)
                assert square.array.dtype == np.int64
                assert square == slow_matmul(full, full)
                checked += 1
        assert checked >= 20

    def test_entries_near_2_62_fall_back_to_objects(self):
        rows = [[2**62, -(2**62) + 7], [3, 2**62 - 1]]
        product = exact.matmul(int_matrix(rows), int_matrix(rows))
        assert product.array.dtype == object
        assert product == slow_matmul(exact.Matrix(rows), exact.Matrix(rows))

    def test_fraction_entries(self):
        rng = Random(13)
        a = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6))
              for _ in range(5)] for _ in range(5)]
        three = [[3 * int(i == j) for j in range(5)] for i in range(5)]
        product = exact.matmul(exact.Matrix(a), int_matrix(three))
        assert product == slow_matmul(a, three)
        square = exact.matmul(exact.Matrix(a), exact.Matrix(a))
        assert square == slow_matmul(a, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            exact.matmul(exact.identity(2), exact.identity(3))


def corpus_matrices(spec):
    for degree in range(len(spec.cell_counts)):
        bundle = build_laplacian(spec, degree)
        yield bundle.laplacian
        yield bundle.plus_part
        yield bundle.minus_part
        if spec.differential(degree) is not None:
            yield spec.differential(degree)


def orthogonal_rep():
    """F2 -> O(2): a rotation with rational entries of infinite order, and
    a reflection."""
    return Representation(2, matrices=[
        [["3/5", "-4/5"], ["4/5", "3/5"]],
        [[1, 0], [0, -1]],
    ], label="O(2)")


class TestEvaluateOracle:
    def test_corpus_permutation_representations(self):
        checked = 0
        for _name, spec, rep in CORPUS:
            for matrix in corpus_matrices(spec):
                op = evaluate(matrix, rep)
                assert op.exact_matrix.array.dtype == np.int64
                assert op.exact_matrix == slow_evaluate(matrix, rep)
                checked += 1
        assert checked >= 60

    def test_rational_coefficients_use_an_object_grid(self):
        rep = Representation.from_coset_table(
            todd_coxeter(F2, [Word([1, 1, 1]), Word([2, 2]),
                              Word([1, 2, -1, -2])]))
        rng = Random(17)
        for _ in range(4):
            matrix = GroupRingMatrix(2, 2, [
                [random_element(rng, 2) for _ in range(2)] for _ in range(2)])
            op = evaluate(matrix, rep)
            assert op.exact_matrix == slow_evaluate(matrix, rep)
        half = GroupRingMatrix.from_element(
            GroupRingElement({Word([1]): Fraction(1, 2)}))
        assert evaluate(half, rep).exact_matrix.array.dtype == object

    def test_coefficient_sum_at_2_62_uses_an_object_grid(self):
        # a and b act identically here, so their coefficients add up in
        # the same entries
        rep = Representation.from_coset_table(
            todd_coxeter(F2, [Word([1, 1, 1]), Word([1, -2])]))
        for coeffs, dtype in (((2**61, 2**61 - 1), np.int64),
                              ((2**61, 2**61), object),
                              ((2**62, 2**62), object)):
            element = GroupRingElement({Word([1]): coeffs[0],
                                        Word([2]): coeffs[1]})
            matrix = GroupRingMatrix.from_element(element)
            op = evaluate(matrix, rep)
            assert op.exact_matrix.array.dtype == dtype
            assert op.exact_matrix == slow_evaluate(matrix, rep)
        assert max(max(row) for row in op.exact_matrix) == 2**63

    def test_orthogonal_representations(self):
        rep = orthogonal_rep()
        rng = Random(19)
        matrices = [GroupRingMatrix.from_element(F2.degree_zero_laplacian())]
        matrices += [GroupRingMatrix(1, 2, [[random_element(rng, 2),
                                             random_element(rng, 2)]])
                     for _ in range(4)]
        for matrix in matrices:
            op = evaluate(matrix, rep)
            assert op.exact_matrix == slow_evaluate(matrix, rep)
        sign = Representation(1, matrices=[[[-1]]])
        cyclic = cyclic_presentation(2)
        matrix = GroupRingMatrix.from_element(cyclic.degree_zero_laplacian())
        assert (evaluate(matrix, sign).exact_matrix
                == slow_evaluate(matrix, sign))


def slow_finite_upper_bounds(spec, degree, r_bound, m_max):
    """u_M = tr(T^M) / |G| from whole powers of the regular matrix
    T = I - Delta/R.  T = B / s for the integer matrix B = sT, and each
    power of B is multiplied by B entry by entry, over the nonzeros of
    B's columns."""
    table = todd_coxeter(spec.presentation)
    rep = Representation.from_coset_table(table)
    delta = slow_evaluate(build_laplacian(spec, degree).laplacian, rep)
    n = len(delta)
    t = [[Fraction(int(i == j)) - delta[i][j] / r_bound for j in range(n)]
         for i in range(n)]
    scale = math.lcm(*(entry.denominator for row in t for entry in row))
    base = [[int(entry * scale) for entry in row] for row in t]
    columns = [[(l, row[j]) for l, row in enumerate(base) if row[j]]
               for j in range(n)]
    values, power = [], base
    for m in range(1, m_max + 1):
        values.append(Fraction(sum(power[i][i] for i in range(n)),
                               scale ** m * table.coset_count))
        if m < m_max:
            power = [[sum(row[l] * entry for l, entry in column)
                      for column in columns] for row in power]
    return values


class TestFiniteUpperBoundsOracle:
    @pytest.mark.parametrize("spec,degree,norm_bound,m_max", [
        (cyclic_group_complex(5), 0, None, 16),
        (cyclic_group_complex(3), 1, Fraction(100, 3), 6),
        (S3, 1, None, 8),
        pytest.param(s4_complex(), 1, None, 16, id="S4-1-16"),
        pytest.param(s4_complex(), 2, None, 16, id="S4-2-16"),
        pytest.param(PSL27, 1, None, 3, id="PSL27-1-3"),
    ])
    def test_matches_fraction_powers(self, spec, degree, norm_bound, m_max):
        report = l2_betti_upper_bounds(spec, degree, m_max=m_max,
                                       norm_bound=norm_bound)
        assert report.backend == "finite-regular"
        assert list(report.values) == slow_finite_upper_bounds(
            spec, degree, report.norm_bound, m_max)

    def test_rational_laplacian_coefficients(self):
        presentation = cyclic_presentation(3)
        # d_2 = (a - 1)/2 makes the degree-two Laplacian rational
        d2 = GroupRingMatrix.from_element(GroupRingElement(
            {Word([1]): Fraction(1, 2), Word(): Fraction(-1, 2)}))
        spec = build_complex(presentation, {2: d2})
        report = l2_betti_upper_bounds(spec, 2, m_max=6,
                                       norm_bound=Fraction(28, 3))
        assert report.backend == "finite-regular"
        assert list(report.values) == slow_finite_upper_bounds(
            spec, 2, report.norm_bound, 6)

    def test_only_identity_columns_are_multiplied(self, monkeypatch):
        products = spy_matmul(monkeypatch)
        l2_betti_upper_bounds(s4_complex(), 1, m_max=16)
        # one product per term after the first, each by the k = 2 columns
        # of the 48 x 48 regular matrix at coset 0; the late columns pass
        # 2**63 and are multiplied as Python ints
        assert [(left, right) for left, right, _ in products] == (
            [((48, 48), (48, 2))] * 15)
        assert products[-1][2] == object
