"""Exact rational group-ring arithmetic over finitely generated free groups.

Elements of the free group F = F(s_1, ..., s_n) are freely reduced words
stored as flat tuples of signed 1-based indices: letter ``+i`` is the
generator ``s_i`` and ``-i`` is its inverse.  An element of the group ring
QF is a finite map from words to nonzero rationals; all arithmetic is done
with ``fractions.Fraction`` so results are exact.

The module also provides matrices over the group ring (with the adjoint
``A* = conjugate-transpose`` induced by the involution ``g -> g^-1``),
free Fox derivatives, and finitely presented groups as thin containers of
generator names plus relator words.  Nothing here solves word problems in
quotients: relations are only ever applied later, through representations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import MalformedInputError, ShapeMismatchError, UnknownGeneratorError

Scalar = Union[int, Fraction]
# A generator name, as the element grammar reads it
NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"


def _reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent x, x^-1 pairs)."""
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise UnknownGeneratorError("letter 0 is not a valid generator index")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class Word(tuple):
    """A freely reduced word in a free group.

    Immutable and hashable; the tuple content is the letter sequence.
    The constructor reduces its input, so ``Word((1, -1)) == Word(())``.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()):
        return super().__new__(cls, _reduce_letters(letters))

    def inverse(self) -> "Word":
        return Word(-letter for letter in reversed(self))

    def __mul__(self, other: "Word") -> "Word":  # type: ignore[override]
        return Word(tuple.__add__(self, other))

    def __pow__(self, exponent: int) -> "Word":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = IDENTITY_WORD
        for _ in range(exponent):
            result = result * self
        return result

    def max_generator(self) -> int:
        """Largest generator index appearing (0 for the identity)."""
        return max((abs(letter) for letter in self), default=0)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Length-then-lexicographic key; the canonical term order."""
        return (len(self), tuple(self))

    def __repr__(self) -> str:
        return f"Word({tuple(self)!r})"


IDENTITY_WORD = Word(())


def _accumulate(terms: dict[Word, Fraction],
                pairs: Iterable[tuple[Word, Fraction]]) -> dict[Word, Fraction]:
    """Add (word, coefficient) pairs into ``terms``, dropping zero sums."""
    for word, coeff in pairs:
        total = terms.get(word, 0) + coeff
        if total:
            terms[word] = total
        else:
            terms.pop(word, None)
    return terms


def generator_word(index: int) -> Word:
    """The word consisting of the single generator ``s_index`` (1-based)."""
    if index <= 0:
        raise UnknownGeneratorError(f"generator index must be >= 1, got {index}")
    return Word((index,))


class GroupRingElement:
    """A finitely supported rational combination of free-group words.

    Internally a dict mapping Word -> nonzero Fraction.  Instances are
    treated as immutable; all operators return new elements.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Scalar] | None = None):
        self._terms = _accumulate({}, (
            (word if isinstance(word, Word) else Word(word), Fraction(coeff))
            for word, coeff in (terms or {}).items()))

    @classmethod
    def _wrap(cls, terms: dict[Word, Fraction]) -> "GroupRingElement":
        """An element holding ``terms``, a finished Word -> nonzero
        Fraction dict that the caller hands over."""
        element = cls.__new__(cls)
        element._terms = terms
        return element

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "GroupRingElement":
        return GroupRingElement._wrap({})

    @staticmethod
    def one() -> "GroupRingElement":
        return GroupRingElement({IDENTITY_WORD: 1})

    @staticmethod
    def from_word(word: Word, coeff: Scalar = 1) -> "GroupRingElement":
        return GroupRingElement({word: coeff})

    @staticmethod
    def generator(index: int) -> "GroupRingElement":
        return GroupRingElement.from_word(generator_word(index))

    # ---- inspection ---------------------------------------------------

    def terms(self) -> Iterator[tuple[Word, Fraction]]:
        """Iterate (word, coefficient) pairs in length-lex word order."""
        for word in sorted(self._terms, key=Word.sort_key):
            yield word, self._terms[word]

    def coefficient(self, word: Word) -> Fraction:
        return self._terms.get(word, Fraction(0))

    @property
    def support_size(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def max_generator(self) -> int:
        return max((w.max_generator() for w in self._terms), default=0)

    def l1_norm(self) -> Fraction:
        """Sum of absolute values of the coefficients."""
        return sum((abs(c) for c in self._terms.values()), Fraction(0))

    # ---- ring operations ----------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return GroupRingElement._wrap(
            _accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self) -> "GroupRingElement":
        return self.scale(-1)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def scale(self, scalar: Scalar) -> "GroupRingElement":
        frac = Fraction(scalar)
        if frac == 0:
            return GroupRingElement.zero()
        return GroupRingElement._wrap(
            {w: c * frac for w, c in self._terms.items()})

    def __mul__(self, other) -> "GroupRingElement":
        """Convolution product; scalar operands scale instead."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return GroupRingElement._wrap(_accumulate({}, (
            (u * v, cu * cv)
            for u, cu in self._terms.items()
            for v, cv in other._terms.items())))

    def __rmul__(self, other) -> "GroupRingElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "GroupRingElement":
        if exponent < 0:
            raise ValueError("negative powers are not defined in the group ring")
        result = GroupRingElement.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def star(self) -> "GroupRingElement":
        """The involution sum c_g g  ->  sum c_g g^-1."""
        return GroupRingElement._wrap(
            {w.inverse(): c for w, c in self._terms.items()})

    # ---- traces ---------------------------------------------------------

    def trace(self) -> Fraction:
        """Coefficient of the identity (the canonical group-ring trace)."""
        return self._terms.get(IDENTITY_WORD, Fraction(0))

    def augmentation(self) -> Fraction:
        """Sum of all coefficients (image under g -> 1)."""
        return sum(self._terms.values(), Fraction(0))

    # ---- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GroupRingElement):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        from .textform import format_element

        return f"GroupRingElement({format_element(self, None)!r})"


class GroupRingMatrix:
    """A dense rows x cols matrix with GroupRingElement entries."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int,
                 entries: Sequence[Sequence[GroupRingElement]] | None = None):
        if rows < 0 or cols < 0:
            raise ShapeMismatchError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        if entries is None:
            self._entries = tuple(
                tuple(GroupRingElement.zero() for _ in range(cols))
                for _ in range(rows)
            )
        else:
            if len(entries) != rows or any(len(row) != cols for row in entries):
                raise ShapeMismatchError(
                    f"entry grid does not match declared shape {rows}x{cols}")
            self._entries = tuple(tuple(row) for row in entries)

    @staticmethod
    def identity(n: int) -> "GroupRingMatrix":
        one = GroupRingElement.one()
        zero = GroupRingElement.zero()
        return GroupRingMatrix(
            n, n, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "GroupRingMatrix":
        return GroupRingMatrix(rows, cols)

    @staticmethod
    def from_element(x: GroupRingElement) -> "GroupRingMatrix":
        return GroupRingMatrix(1, 1, [[x]])

    def entry(self, i: int, j: int) -> GroupRingElement:
        return self._entries[i][j]

    def __add__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        return GroupRingMatrix(self.rows, self.cols, [
            [self._entries[i][j] + other._entries[i][j] for j in range(self.cols)]
            for i in range(self.rows)
        ])

    def __sub__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        return self + other.scale(-1)

    def scale(self, factor: Scalar | GroupRingElement) -> "GroupRingMatrix":
        """Multiply every entry on the right by ``factor``, a scalar or a
        ring element."""
        return GroupRingMatrix(self.rows, self.cols, [
            [e * factor for e in row] for row in self._entries
        ])

    def __matmul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        columns = [[row[j] for row in other._entries] for j in range(other.cols)]
        return GroupRingMatrix(self.rows, other.cols, [
            [sum((left * right for left, right in zip(row, column)
                  if left._terms and right._terms), GroupRingElement.zero())
             for column in columns]
            for row in self._entries
        ])

    def adjoint(self) -> "GroupRingMatrix":
        """Transpose combined with the entrywise involution."""
        return GroupRingMatrix(self.cols, self.rows, [
            [self._entries[i][j].star() for i in range(self.rows)]
            for j in range(self.cols)
        ])

    def is_self_adjoint(self) -> bool:
        return self.rows == self.cols and self == self.adjoint()

    def trace(self) -> Fraction:
        """Sum of the canonical traces of the diagonal entries."""
        if self.rows != self.cols:
            raise ShapeMismatchError("trace requires a square matrix")
        return sum((self._entries[i][i].trace() for i in range(self.rows)),
                   Fraction(0))

    def l1_operator_bound(self) -> Fraction:
        """Upper bound for the operator norm in any unitary representation.

        Uses max(row sum, column sum) of the entrywise coefficient l1
        norms; for self-adjoint matrices this is the usual Schur bound.
        """
        if self.rows == 0 or self.cols == 0:
            return Fraction(0)
        row_sums = [sum((e.l1_norm() for e in row), Fraction(0))
                    for row in self._entries]
        col_sums = [sum((self._entries[i][j].l1_norm() for i in range(self.rows)),
                        Fraction(0)) for j in range(self.cols)]
        return max(max(row_sums), max(col_sums))

    def max_generator(self) -> int:
        return max((e.max_generator() for row in self._entries for e in row),
                   default=0)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self._entries for e in row)

    def __eq__(self, other) -> bool:
        if isinstance(other, GroupRingMatrix):
            return (self.rows, self.cols) == (other.rows, other.cols) and \
                self._entries == other._entries
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        return f"GroupRingMatrix({self.rows}x{self.cols})"


def fox_derivative(word: Word, generator: int) -> GroupRingElement:
    """Free Fox derivative d(word)/d(s_generator) in the group ring.

    Defined by d(s)/d(s) = 1, d(s^-1)/d(s) = -s^-1, and the Leibniz rule
    d(uv) = d(u) + u d(v).  Satisfies the fundamental identity
    sum_s d(w)/d(s) (s - 1) = w - 1.
    """
    if generator <= 0:
        raise UnknownGeneratorError(
            f"generator index must be >= 1, got {generator}")
    terms: dict[Word, Fraction] = {}
    prefix: list[int] = []
    for letter in word:
        if letter == generator:
            key = Word(tuple(prefix))
            terms[key] = terms.get(key, Fraction(0)) + 1
        elif letter == -generator:
            key = Word(tuple(prefix) + (letter,))
            terms[key] = terms.get(key, Fraction(0)) - 1
        prefix.append(letter)
    return GroupRingElement(terms)


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation <s_1, ..., s_n | r_1, ..., r_m>.

    ``generator_names`` are distinct strings that ``NAME_PATTERN`` fully
    matches, so words print and parse back (:mod:`coholap.textform`);
    all internal work uses 1-based indices.  Relators are nonempty freely
    reduced words over those generators (:meth:`check_word`).
    """

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...] = field(default_factory=tuple)

    def __post_init__(self):
        names = tuple(self.generator_names)
        if not names:
            raise MalformedPresentation("at least one generator is required")
        for name in names:
            if not (isinstance(name, str) and re.fullmatch(NAME_PATTERN, name)):
                raise MalformedPresentation(f"invalid generator name {name!r}")
        if len(set(names)) != len(names):
            raise MalformedPresentation("generator names must be distinct")
        object.__setattr__(self, "generator_names", names)
        relators = tuple(map(Word, self.relators))
        for r in relators:  # relator by relator, in the order given
            if not self.check_word(r):
                raise MalformedPresentation("relators must be nonempty after reduction")
        object.__setattr__(self, "relators", relators)

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    @property
    def symmetric_set_size(self) -> int:
        """Size of the symmetric generating set S = {s_i, s_i^-1}."""
        return 2 * len(self.generator_names)

    def word(self, text: str) -> Word:
        from .textform import parse_word

        return parse_word(text, self)

    def element(self, text: str) -> GroupRingElement:
        from .textform import parse_element

        return parse_element(text, self)

    def check_word(self, word: Word) -> Word:
        word = Word(word)
        if word.max_generator() > self.generator_count:
            raise UnknownGeneratorError(
                f"word {tuple(word)} uses a generator outside the presentation")
        return word

    def degree_zero_laplacian(self) -> GroupRingElement:
        """2(#S - sum_{s in S} s), the degree-0 Laplacian as a ring element."""
        terms: dict[Word, Fraction] = {IDENTITY_WORD: Fraction(2 * self.symmetric_set_size)}
        for i in range(1, self.generator_count + 1):
            terms[Word((i,))] = Fraction(-2)
            terms[Word((-i,))] = Fraction(-2)
        return GroupRingElement(terms)


class MalformedPresentation(MalformedInputError):
    """Presentation-level validation failure."""
