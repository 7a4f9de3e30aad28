"""Small dense exact-rational matrix helpers.

Matrices are immutable tuples of tuples of ``fractions.Fraction``.  These
are deliberately naive O(n^3) routines: they exist so that representation
images, evaluated operators, and certificate residues can be manipulated
without any floating-point step, at the modest dimensions this package
targets.  Floating point enters only through :func:`to_float`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError

Matrix = tuple[tuple[Fraction, ...], ...]


def from_rows(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    zero, one = Fraction(0), Fraction(1)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m: Matrix) -> Matrix:
    rows, cols = shape(m)
    return tuple(tuple(m[i][j] for i in range(rows)) for j in range(cols))


def sub(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ShapeMismatchError(f"cannot subtract {shape(a)} and {shape(b)}")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(m: Matrix, scalar) -> Matrix:
    factor = Fraction(scalar)
    return tuple(tuple(x * factor for x in row) for row in m)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    (ar, ac), (br, bc) = shape(a), shape(b)
    if ac != br:
        raise ShapeMismatchError(f"cannot multiply {shape(a)} by {shape(b)}")
    bt = transpose(b)
    zero = Fraction(0)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = zero
            for x, y in zip(row, col):
                if x and y:
                    acc += x * y
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def perm_to_matrix(p: Sequence[int]) -> Matrix:
    n = len(p)
    zero, one = Fraction(0), Fraction(1)
    return tuple(
        tuple(one if p[j] == i else zero for j in range(n)) for i in range(n))


def is_zero(m: Matrix) -> bool:
    return all(x == 0 for row in m for x in row)


def is_symmetric(m: Matrix) -> bool:
    rows, cols = shape(m)
    if rows != cols:
        return False
    return all(m[i][j] == m[j][i] for i in range(rows) for j in range(i + 1, cols))


def is_orthogonal(m: Matrix) -> bool:
    rows, cols = shape(m)
    return rows == cols and matmul(m, transpose(m)) == identity(rows)


def to_float(m: Matrix) -> np.ndarray:
    rows, cols = shape(m)
    out = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = float(m[i][j])
    return out
