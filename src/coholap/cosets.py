"""Coset enumeration and finite-quotient permutation representations.

Quotients G/N of a finitely presented group G are specified by extra
relators whose normal closure is N.  Enumeration of the trivial subgroup
in <generators | relators + extra relators> (relator scanning with
first-undefined-entry definitions and union-find coincidence handling)
yields the regular action of the finite quotient.  Tables are renumbered
by breadth-first search from the identity coset in generator order, so
identical inputs produce identical tables.

Chains of such quotients, with strictly increasing order, feed the
spectral pipeline: each stage carries the exact permutation
representation of G obtained by pulling back the regular representation
of the quotient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from . import exact
from .errors import (
    EnumerationOverflowError,
    InvariantError,
    MalformedInputError,
    ShapeMismatchError,
)
from .groupring import Presentation, Word

DEFAULT_MAX_COSETS = 10**6
DEFAULT_BALL_RADIUS = 6

WordLike = Union[Word, str, Sequence[int]]


class ChainOrderError(MalformedInputError):
    """Quotient chain whose indices fail to increase strictly."""


class SeparationWarning(UserWarning):
    """A short word is invisible to every quotient in a chain."""


def _coerce_words(presentation: Presentation,
                  words: Iterable[WordLike]) -> tuple[Word, ...]:
    out = []
    for item in words:
        word = presentation.word(item) if isinstance(item, str) else Word(item)
        presentation.check_word(word)
        if len(word) == 0:
            raise MalformedInputError(
                "relator reduces to the identity; drop it from the input")
        out.append(word)
    return tuple(out)


class CosetTable:
    """Regular action of a finite quotient on its own elements.

    ``columns[2*(i-1)]`` is the permutation of generator ``s_i`` acting on
    the right (coset -> coset * s_i) and ``columns[2*(i-1)+1]`` its
    inverse.  Coset 0 is the identity coset and numbering is canonical
    (breadth-first from 0 in generator order).
    """

    __slots__ = ("presentation", "extra_relators", "coset_count", "columns")

    def __init__(self, presentation: Presentation,
                 extra_relators: tuple[Word, ...],
                 columns: tuple[tuple[int, ...], ...]):
        self.presentation = presentation
        self.extra_relators = extra_relators
        self.columns = columns
        self.coset_count = len(columns[0]) if columns else 0

    @staticmethod
    def _column(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    def act(self, coset: int, word: Word) -> int:
        """Right action coset * word."""
        for letter in word:
            coset = self.columns[self._column(letter)][coset]
        return coset

    def word_is_identity(self, word: Word) -> bool:
        column_indices = [self._column(letter) for letter in word]
        for x in range(self.coset_count):
            y = x
            for ci in column_indices:
                y = self.columns[ci][y]
            if y != x:
                return False
        return True

    def to_dict(self) -> dict:
        from .textform import format_word

        return {
            "coset_count": self.coset_count,
            "extra_relators": [format_word(w, self.presentation)
                               for w in self.extra_relators],
            "generator_actions": {
                name: list(self.columns[2 * i])
                for i, name in enumerate(self.presentation.generator_names)
            },
        }


def todd_coxeter(presentation: Presentation,
                 extra_relators: Iterable[WordLike] = (),
                 max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate the regular action of <gens | relators + extra_relators>.

    Raises :class:`EnumerationOverflowError` once more than ``max_cosets``
    cosets have been defined (the quotient is too large for the budget,
    or infinite).
    """
    extras = _coerce_words(presentation, extra_relators)
    relators = [tuple(w) for w in (*presentation.relators, *extras)]
    ncols = 2 * presentation.generator_count

    parent: list[int] = []
    table: list[list[int]] = []

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def new_coset() -> int:
        if len(table) >= max_cosets:
            raise EnumerationOverflowError(
                f"enumeration exceeded max_cosets={max_cosets}; "
                "the quotient is too large for the budget or infinite")
        parent.append(len(table))
        table.append([-1] * ncols)
        return len(table) - 1

    def follow(x: int, column: int) -> int:
        y = table[x][column]
        if y == -1:
            y = new_coset()
            table[x][column] = y
            table[y][column ^ 1] = x
            return y
        return find(y)

    def unify(x: int, y: int) -> None:
        queue = [(x, y)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            row_b = table[b]
            row_a = table[a]
            for column in range(ncols):
                nb = row_b[column]
                if nb == -1:
                    continue
                na = row_a[column]
                if na == -1:
                    row_a[column] = nb
                else:
                    queue.append((na, nb))

    column_of = CosetTable._column
    new_coset()  # identity coset
    c = 0
    while c < len(table):
        if find(c) != c:
            c += 1
            continue
        for relator in relators:
            if find(c) != c:
                break
            x = c
            for letter in relator:
                x = follow(x, column_of(letter))
            unify(x, c)
        if find(c) == c:
            for column in range(ncols):
                if find(c) != c:
                    break
                if table[c][column] == -1:
                    follow(c, column)
        c += 1

    live = [x for x in range(len(table)) if find(x) == x]

    # Canonical renumbering: breadth-first from the identity coset,
    # exploring columns in generator order.
    relabel = {find(0): 0}
    order = [find(0)]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for column in range(ncols):
            y = find(table[x][column])
            if y not in relabel:
                relabel[y] = len(order)
                order.append(y)
    if len(order) != len(live):
        raise InvariantError("coset table is not transitive after enumeration")

    columns = tuple(
        tuple(relabel[find(table[x][column])] for x in order)
        for column in range(ncols)
    )
    result = CosetTable(presentation, extras, columns)
    _validate_table(result)
    return result


def _validate_table(table: CosetTable) -> None:
    n = table.coset_count
    for i in range(table.presentation.generator_count):
        forward = table.columns[2 * i]
        backward = table.columns[2 * i + 1]
        if sorted(forward) != list(range(n)):
            raise InvariantError(f"generator {i + 1} does not act bijectively")
        for x in range(n):
            if backward[forward[x]] != x:
                raise InvariantError(f"generator {i + 1} inverse column mismatch")
    for relator in (*table.presentation.relators, *table.extra_relators):
        if not table.word_is_identity(relator):
            raise InvariantError("a relator fails to act as the identity")


class Representation:
    """A finite-dimensional orthogonal representation with exact entries.

    Generator images are either permutations (the standard pipeline) or
    explicit rational orthogonal matrices; inverses are transposes either
    way, so every word image is exact.
    """

    def __init__(self, dimension: int, *,
                 perms: Sequence[Sequence[int]] | None = None,
                 matrices: Sequence[Sequence[Sequence[Fraction]]] | None = None,
                 label: str = ""):
        if (perms is None) == (matrices is None):
            raise ValueError("provide exactly one of perms= or matrices=")
        self.dimension = dimension
        self.label = label
        if perms is not None:
            # one row per generator; a row of the wrong length cannot reshape
            self.perms: np.ndarray | None = np.array(
                perms, dtype=np.int64).reshape(len(perms), dimension)
            for p in self.perms.tolist():
                if sorted(p) != list(range(dimension)):
                    raise ValueError("generator image is not a permutation")
            # Permutations act as index maps; dense images are built per
            # word only when asked for (word_matrix).
            self.matrices = None
        else:
            self.perms = None
            self.matrices = tuple(exact.Matrix(m) for m in matrices)
            for m in self.matrices:
                if m.array.shape != (dimension, dimension):
                    raise ShapeMismatchError(
                        "generator image has the wrong dimension")
                if not exact.is_orthogonal(m):
                    raise ValueError("generator image is not orthogonal")

    @property
    def generator_count(self) -> int:
        return len(self.perms if self.perms is not None else self.matrices)

    @staticmethod
    def trivial(generator_count: int, label: str = "trivial") -> "Representation":
        return Representation(
            1, perms=[(0,)] * generator_count, label=label)

    @staticmethod
    def from_coset_table(table: CosetTable, label: str = "") -> "Representation":
        """Pull back the regular representation of the quotient.

        The image of g sends the basis vector of coset x to that of
        x * g^-1; composing left-to-right then matches word products, so
        the result is a homomorphism on words.
        """
        return Representation(table.coset_count, perms=table.columns[1::2],
                              label=label or f"regular[{table.coset_count}]")

    def word_perm(self, word: Word) -> np.ndarray:
        """pi(word) as an index array: basis vector c goes to out[c]."""
        if self.perms is None:
            raise ValueError("not a permutation representation")
        out = np.arange(self.dimension)
        # pi(w) = pi(l_1) ... pi(l_k) acting on the left: apply letters
        # right-to-left as functions; argsort inverts a permutation.
        for letter in reversed(word):
            p = self.perms[abs(letter) - 1]
            out = p[out] if letter > 0 else np.argsort(p)[out]
        return out

    def word_matrix(self, word: Word) -> exact.Matrix:
        if self.perms is not None:
            # column c holds a 1 in row perm[c]
            out = np.zeros((self.dimension, self.dimension), dtype=np.int64)
            out[self.word_perm(word), np.arange(self.dimension)] = 1
            return exact.Matrix(out)
        out = exact.identity(self.dimension)
        for letter in word:
            m = self.matrices[abs(letter) - 1]
            if letter < 0:
                m = exact.transpose(m)
            out = exact.matmul(out, m)
        return out

    def word_is_identity(self, word: Word) -> bool:
        if self.perms is not None:
            return np.array_equal(self.word_perm(word),
                                  np.arange(self.dimension))
        return self.word_matrix(word) == exact.identity(self.dimension)

    def validate_relators(self, presentation: Presentation,
                          extra_relators: Iterable[Word] = ()) -> None:
        for relator in (*presentation.relators, *extra_relators):
            if not self.word_is_identity(relator):
                raise ValueError(
                    f"relator {tuple(relator)} does not map to the identity "
                    f"under representation {self.label!r}")

    def __repr__(self) -> str:
        kind = "perm" if self.perms is not None else "orth"
        return f"Representation({kind}, dim={self.dimension}, label={self.label!r})"


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of checking that short words survive into some quotient."""

    radius: int
    words_checked: int
    separated: bool
    failure_count: int
    first_failure: str | None

    def warning_text(self) -> str:
        return (f"chain does not separate {self.failure_count} word(s) of "
                f"length <= {self.radius}; first: {self.first_failure}")


@dataclass(eq=False)
class QuotientChain:
    """A strictly increasing chain of finite quotients of one group."""

    presentation: Presentation
    specs: tuple[tuple[Word, ...], ...]
    tables: tuple[CosetTable, ...]
    representations: tuple[Representation, ...]
    separation: SeparationReport

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(t.coset_count for t in self.tables)

    def __len__(self) -> int:
        return len(self.tables)

    def stages(self):
        """Yield (position, quotient order, table, representation)."""
        for i, (table, rep) in enumerate(zip(self.tables, self.representations)):
            yield i, table.coset_count, table, rep


def quotient_chain(presentation: Presentation,
                   chain: Sequence[Iterable[WordLike]],
                   ball_radius: int = DEFAULT_BALL_RADIUS,
                   max_cosets: int = DEFAULT_MAX_COSETS,
                   warn: bool = True) -> QuotientChain:
    """Build the quotients named by successive extra-relator sets.

    Indices must strictly increase along the chain.  A residual
    separation check walks all nontrivial reduced words of length at most
    ``ball_radius`` (none at radius 0; a negative radius is malformed);
    any word that every quotient sends to the identity triggers a
    :class:`SeparationWarning` (the chain cannot distinguish it), never
    an error.
    """
    if not chain:
        raise MalformedInputError("chain must name at least one quotient")
    if ball_radius < 0:
        raise MalformedInputError(
            f"ball radius must be nonnegative, got {ball_radius}")
    specs = tuple(_coerce_words(presentation, spec) for spec in chain)
    tables = [todd_coxeter(presentation, spec, max_cosets=max_cosets)
              for spec in specs]
    indices = [t.coset_count for t in tables]
    for previous, current in zip(indices, indices[1:]):
        if current <= previous:
            raise ChainOrderError(
                f"quotient orders must strictly increase, got {indices}")
    representations = tuple(
        Representation.from_coset_table(
            table, label=f"quotient[{i}]|G/N|={table.coset_count}")
        for i, table in enumerate(tables))
    separation = _separation_check(presentation, tables, ball_radius)
    if warn and not separation.separated:
        warnings.warn(separation.warning_text(), SeparationWarning,
                      stacklevel=2)
    return QuotientChain(presentation, specs, tables,
                         representations, separation)


def _separation_check(presentation: Presentation,
                      tables: Sequence[CosetTable],
                      radius: int) -> SeparationReport:
    """Depth-first walk of the reduced ball, counting words that all
    quotients kill.  Each table is a regular action, which is free, so a
    word acts trivially exactly when it fixes coset 0: the walk carries
    one coset per quotient."""
    from .textform import format_word

    n = presentation.generator_count
    letters = [i for g in range(1, n + 1) for i in (g, -g)]

    words_checked = 0
    failure_count = 0
    first_failure: str | None = None

    stack: list[tuple[list[int], tuple[int, ...]]] = (
        [([], (0,) * len(tables))] if radius > 0 else [])
    while stack:
        prefix, cosets = stack.pop()
        for letter in reversed(letters):
            if prefix and prefix[-1] == -letter:
                continue
            new_prefix = prefix + [letter]
            column = CosetTable._column(letter)
            new_cosets = tuple(table.columns[column][x]
                               for table, x in zip(tables, cosets))
            words_checked += 1
            if not any(new_cosets):  # coset 0 in every quotient
                failure_count += 1
                if first_failure is None:
                    first_failure = format_word(Word(new_prefix), presentation)
            if len(new_prefix) < radius:
                stack.append((new_prefix, new_cosets))

    return SeparationReport(
        radius=radius,
        words_checked=words_checked,
        separated=failure_count == 0,
        failure_count=failure_count,
        first_failure=first_failure,
    )
