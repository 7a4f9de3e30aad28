"""Exact matrices stored in numpy arrays.

A :class:`Matrix` holds ``int64`` entries when they are integers and the
arithmetic that made them provably fits, and ``object`` entries (Python
``int`` and ``fractions.Fraction``) otherwise, so every result is exact.
Every routine is a whole-array operation.  Floats appear here only where
they are exact: :func:`matmul` multiplies int64 matrices in float64 when
every partial sum stays below 2**53, and :func:`to_float` is used on
such integers.  Rational kernels are rounded to floats in
``spectral.EvaluatedOperator._numeric_coefficients``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ShapeMismatchError

INT64_LIMIT = 2**63
FLOAT_EXACT_LIMIT = 2**53  # float64 holds every integer of smaller magnitude

_to_fraction = np.frompyfunc(Fraction, 1, 1)


class Matrix:
    """An exact matrix; read as a sequence, its rows are tuples of Fraction.

    Built from a 2-D int64 or object array, kept as the storage, or from
    nested rows of rationals, converted to Fraction.  Never mutated.
    """

    __slots__ = ("array",)

    def __init__(self, entries):
        array = entries
        if not isinstance(entries, np.ndarray):
            # ragged rows give a 1-D array of row objects
            array = np.array(entries, dtype=object)
            if array.ndim == 2:
                array = _to_fraction(array)
        if array.ndim != 2:
            raise ShapeMismatchError(
                f"matrix rows must have equal lengths, got shape {array.shape}")
        self.array = array

    def __len__(self) -> int:
        return self.array.shape[0]

    def __getitem__(self, row: int) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.array[row].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            try:
                other = Matrix(other)
            except (ShapeMismatchError, TypeError, ValueError):
                return NotImplemented
        return np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"Matrix({self.array!r})"


def max_abs(array: np.ndarray) -> int:
    """Largest absolute entry, with no temporary array or int64 negation."""
    return max(int(array.max(initial=0)), -int(array.min(initial=0)))


def identity(n: int) -> Matrix:
    return Matrix(np.eye(n, dtype=np.int64))


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.array.T)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product.  Two int64 matrices with inner * max|a| * max|b|
    below 2**53 multiply in float64, where every partial sum is an
    integer held exactly; below 2**63 in int64; else on Python objects."""
    x, y = a.array, b.array
    if x.shape[1] != y.shape[0]:
        raise ShapeMismatchError(f"cannot multiply {x.shape} by {y.shape}")
    if x.dtype == y.dtype == np.int64:
        bound = x.shape[1] * max_abs(x) * max_abs(y)
        if bound < FLOAT_EXACT_LIMIT:
            return Matrix((x.astype(np.float64) @ y.astype(np.float64))
                          .astype(np.int64))
        if bound < INT64_LIMIT:
            return Matrix(x @ y)
    return Matrix(x.astype(object, copy=False)
                  @ y.astype(object, copy=False))


def is_zero(m: Matrix) -> bool:
    return not np.count_nonzero(m.array)


def is_symmetric(m: Matrix) -> bool:
    rows, cols = m.array.shape
    return rows == cols and np.array_equal(m.array, m.array.T)


def is_orthogonal(m: Matrix) -> bool:
    rows, cols = m.array.shape
    return rows == cols and matmul(m, transpose(m)) == identity(rows)


def to_float(m: Matrix) -> np.ndarray:
    """Nearest float64 of every entry, as ``float(Fraction)`` rounds."""
    return m.array.astype(np.float64)
