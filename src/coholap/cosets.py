"""Coset enumeration and finite-quotient permutation representations.

Quotients G/N of a finitely presented group G are specified by extra
relators whose normal closure is N.  Enumeration of the trivial subgroup
in <generators | relators + extra relators> (HLT scan-and-fill with
Holt's eager coincidence routine) yields the regular action of the
finite quotient; when the relators include every generator commutator,
the action is built as translations of the sum of cyclic groups that the
diagonal form of the exponent sums gives; every abelian table carries
those coordinates.  Tables are renumbered breadth-first from the identity
coset in generator order, so identical inputs produce identical tables.

Chains of such quotients, with strictly increasing order, feed the
spectral pipeline: each stage is the exact permutation representation
of G obtained by pulling back the regular representation of the
quotient, and holds the quotient's coset table as ``rep.table``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence, Union

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
# Most words one expansion of the separation walk produces.
_WALK_BLOCK = 1 << 14

WordLike = Union[Word, str, Sequence[int]]


class ChainOrderError(MalformedInputError):
    """Quotient chain whose indices fail to increase strictly."""


class SeparationWarning(UserWarning):
    """A short word is invisible to every quotient in a chain."""


def _coerce_words(presentation: Presentation,
                  words: Iterable[WordLike]) -> tuple[Word, ...]:
    out = []
    for item in words:
        word = (presentation.word(item) if isinstance(item, str)
                else presentation.check_word(item))
        if not word:
            raise MalformedInputError(
                "relator reduces to the identity; drop it from the input")
        out.append(word)
    return tuple(out)


class CosetTable:
    """Regular action of a finite quotient on its own elements.

    ``columns`` is one read-only int64 array of shape
    (2 * generator_count, coset_count).  Row ``2*(i-1)`` is the
    permutation of generator ``s_i`` acting on the right
    (coset -> coset * s_i) and row ``2*(i-1)+1`` its inverse.  Coset 0 is
    the identity coset and numbering is canonical (breadth-first from 0
    in generator order).  ``characters`` is None, or (orders, codes) when
    Q is abelian: Q is the sum of the Z/orders[j] and codes[x], read-only,
    is the flat index of coset x's coordinates.  Set by ``todd_coxeter``.
    """

    __slots__ = ("presentation", "extra_relators", "coset_count", "columns",
                 "characters")

    def __init__(self, presentation: Presentation,
                 extra_relators: tuple[Word, ...], columns: np.ndarray,
                 characters: tuple[tuple[int, ...], np.ndarray] | None = None):
        self.presentation = presentation
        self.extra_relators = extra_relators
        self.columns = columns
        self.columns.flags.writeable = False
        self.coset_count = columns.shape[1]
        self.characters = characters

    @staticmethod
    def _column(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def todd_coxeter(presentation: Presentation,
                 extra_relators: Iterable[WordLike] = (),
                 max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate the regular action of <gens | relators + extra_relators>.

    If the relators include every commutator [s_i, s_j], Q is abelian and
    built from the diagonal form, ``max_cosets`` bounding |Q|; otherwise
    scan-and-fill enumerates it, ``max_cosets`` bounding the cosets it
    defines, and commuting columns must equal the diagonal form's.  An
    abelian table carries the form's ``characters``, proved from R, the
    exponent sums, with no relator walked: its columns translate by the rows
    of V, so R V = 0 (mod orders) makes every relator act trivially, and
    U R V = diag(orders) over zero rows certifies the orders, not the
    relators, as U is not checked unimodular.  Reaching every coset, the
    table is Q's own.  Raises :class:`EnumerationOverflowError` past the
    budget or on an infinite quotient.
    """
    extras = _coerce_words(presentation, extra_relators)
    relators = (*presentation.relators, *extras)
    n = presentation.generator_count
    columns = characters = None
    if not _commuting(relators, n):
        columns = _scan_and_fill(n, relators, max_cosets)
    if columns is None or all(np.array_equal(p[q], q[p]) for p, q
                              in combinations(columns[::2], 2)):
        rows = _exponent_sums(relators, n)
        orders, u, v = _diagonal_form(rows, n)
        if not 0 < (size := math.prod(orders)) <= max_cosets:
            raise EnumerationOverflowError(
                f"the abelian quotient has order {size or 'infinity'}, "
                f"over max_cosets={max_cosets}")
        built, codes = _translations(orders, v)
        if columns is not None and not np.array_equal(built, columns):
            raise InvariantError(
                "abelian coordinates contradict the coset table")
        if ((moves := np.array(rows, dtype=object) @ v) % orders).any():
            raise InvariantError("a relator fails to act as the identity")
        if not np.array_equal(abs(np.array(u, dtype=object) @ moves),
                              np.eye(len(rows), n, dtype=int) * orders):
            raise InvariantError(f"the relators do not certify the abelian "
                                 f"invariants {orders}: U R V != diag(orders)")
        codes.flags.writeable = False
        columns, characters = built, (tuple(orders), codes)
    result = CosetTable(presentation, extras, columns, characters)
    _validate_table(result)
    return result


def _commuting(relators: Sequence[Word], n: int) -> bool:
    """Whether some relator (a, b, a^-1, b^-1), |a| != |b|, is [s_i, s_j]
    or a rotation or inverse of it, for every pair i < j."""
    pairs = {frozenset((abs(w[0]), abs(w[1]))) for w in relators
             if len(w) == 4 and w[2] == -w[0] and w[3] == -w[1]
             and abs(w[0]) != abs(w[1])}
    return len(pairs) == n * (n - 1) // 2


def _translations(orders: Sequence[int], v: Sequence[Sequence[int]]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Canonical columns of Q = sum of Z/orders[j], where s_i adds row i
    of ``v`` to the mixed-radix coordinates, and each coset's flat
    coordinate.  Raises InvariantError unless the translations reach
    every coset."""
    size = math.prod(orders)
    digits = np.unravel_index(np.arange(size), orders)
    columns = np.array([np.ravel_multi_index(
        [x + sign * a % d for x, a, d in zip(digits, row, orders)],
        orders, mode="wrap") for row in v for sign in (1, -1)])
    order, columns = _breadth_first(columns)
    if order.size != size:
        raise InvariantError("abelian coordinates contradict the coset "
                             f"table: they reach {order.size} of {size} cosets")
    return columns, order


def _breadth_first(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosets reached from coset 0 in canonical order, breadth-first
    one level at a time, a level keeping each new coset's first occurrence
    in (parent, column) order; and the columns renumbered in that order."""
    size = columns.shape[1]
    unseen = columns.size  # above every position in a level
    first = np.full(size, unseen)  # position in its level, once reached
    first[0] = -1
    levels = [np.zeros(1, dtype=np.int64)]
    while levels[-1].size:
        candidates = columns[:, levels[-1]].T.ravel()
        candidates = candidates[first[candidates] == unseen]
        position = np.arange(candidates.size)
        np.minimum.at(first, candidates, position)
        levels.append(candidates[first[candidates] == position])
    order = np.concatenate(levels)
    label = np.full(size, -1)
    label[order] = np.arange(order.size)
    return order, label[columns[:, order]]


def _scan_and_fill(n: int, words: Sequence[Word],
                   max_cosets: int) -> np.ndarray:
    """Canonical columns of <n generators | words>, by scan-and-fill."""
    column_of = CosetTable._column
    # table[column][x] = x * letter(column), or -1; x is live if rep[x] == x.
    # Outside coincidence(), live rows point only at live cosets: no find().
    table: list[list[int]] = [[] for _ in range(2 * n)]
    inverses = [table[column ^ 1] for column in range(len(table))]
    rep: list[int] = []
    relators = [([table[column_of(letter)] for letter in word],
                 [table[column_of(-letter)] for letter in word])
                for word in words]

    def new_coset() -> int:
        if len(rep) >= max_cosets:
            raise EnumerationOverflowError(
                f"enumeration exceeded max_cosets={max_cosets}; "
                "the quotient is too large for the budget or infinite")
        rep.append(len(rep))
        for column in table:
            column.append(-1)
        return len(rep) - 1

    def find(x: int) -> int:
        root = x
        while rep[root] != root:
            root = rep[root]
        while rep[x] != root:
            rep[x], x = root, rep[x]
        return root

    def coincidence(a: int, b: int) -> None:
        """Holt's eager routine: each dead coset hands its entries to its
        live representative, and every entry pointing at it is cleared."""
        dead: list[int] = []

        def merge(k: int, m: int) -> None:
            k, m = find(k), find(m)
            if k != m:
                rep[max(k, m)] = min(k, m)
                dead.append(max(k, m))

        merge(a, b)
        for g in dead:  # grows while it is read
            for column, inverse in zip(table, inverses):
                d = column[g]
                if d < 0:
                    continue
                inverse[d] = -1
                mu, nu = find(g), find(d)
                if column[mu] >= 0:
                    merge(nu, column[mu])
                elif inverse[nu] >= 0:
                    merge(mu, inverse[nu])
                else:
                    column[mu], inverse[nu] = nu, mu

    def scan_and_fill(alpha: int, forward: list, backward: list) -> None:
        """Close one relator's cycle at alpha: scan it from both ends,
        deduce a one-letter gap, define a coset to narrow a longer one."""
        f = b = alpha
        r = len(forward)
        i, j = 0, r - 1
        while True:
            while i < r and (y := forward[i][f]) >= 0:
                f, i = y, i + 1
            if i == r:
                if f != alpha:
                    coincidence(f, alpha)
                return
            while j >= i and (y := backward[j][b]) >= 0:
                b, j = y, j - 1
            if j <= i:
                if j == i:
                    forward[i][f], backward[i][b] = b, f
                elif f != b:
                    coincidence(f, b)
                return
            y = new_coset()
            forward[i][f], backward[i][y] = y, f

    new_coset()  # identity coset
    alpha = 0
    while alpha < len(rep):
        for forward, backward in relators:
            if rep[alpha] != alpha:
                break
            scan_and_fill(alpha, forward, backward)
        if rep[alpha] == alpha:
            for column, inverse in zip(table, inverses):
                if column[alpha] < 0:
                    y = new_coset()
                    column[alpha], inverse[y] = y, alpha
        alpha += 1

    order, columns = _breadth_first(np.array(table, dtype=np.int64))
    if order.size != sum(x == r for x, r in enumerate(rep)):
        raise InvariantError("coset table is not transitive after enumeration")
    return columns


def _walk(columns: np.ndarray, word: Iterable[int], x):
    """x * word for a coset or cosets x: row ``_column(s)`` sends x to x * s."""
    for letter in word:
        x = columns[CosetTable._column(letter), x]
    return x


def _validate_table(table: CosetTable) -> None:
    """Check every coset: inverse columns undo generator columns (so both
    are bijections) and, lacking characters, relators walk to the identity."""
    columns = table.columns
    identity = np.arange(table.coset_count)
    for i in range(table.presentation.generator_count):
        if not np.array_equal(columns[2 * i + 1][columns[2 * i]], identity):
            raise InvariantError(
                f"generator {i + 1} and its inverse column disagree")
    relators = (*table.presentation.relators, *table.extra_relators)
    for relator in relators if table.characters is None else ():
        if not np.array_equal(_walk(columns, relator, identity), identity):
            raise InvariantError("a relator fails to act as the identity")


def _exponent_sums(relators: Sequence[Word], n: int) -> list[list[int]]:
    """Row r, column i - 1: the exponent sum of s_i in relator r."""
    return [[sum((letter > 0) - (letter < 0) for letter in word
                 if abs(letter) == i) for i in range(1, n + 1)]
            for word in relators]


def _diagonal_form(rows: list[list[int]], n: int
                   ) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Orders d and unimodular U, V with U @ ``rows`` @ V = diag(+-d) over
    zero rows: Z^n / (row span) is the sum of the Z/d_j, x -> (x V) mod d.
    Rows carry U past column n, where column operations never reach."""
    a = [[*row, *(int(i == k) for k in range(len(rows)))]
         for i, row in enumerate(rows)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(n):
        while pivots := [(abs(x), i, j) for i in range(t, len(a))
                         for j, x in enumerate(a[i][t:n], t) if x]:
            _, i, j = min(pivots)
            a[t], a[i] = a[i], a[t]
            for row in (*a, *v):
                row[t], row[j] = row[j], row[t]
            a[t + 1:] = [[x - row[t] // a[t][t] * y for x, y in zip(row, a[t])]
                         for row in a[t + 1:]]
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                for row in (*a, *v):
                    row[j] -= q * row[t]
            if not any(a[t][t + 1:n]) and not any(row[t] for row in a[t + 1:]):
                break
    return ([abs(a[t][t]) if t < len(a) else 0 for t in range(n)],
            [row[n:] for row in a], v)


class Representation:
    """A finite-dimensional orthogonal representation with exact entries.

    Generator images are either permutations (the standard pipeline) or
    explicit rational orthogonal matrices; inverses are transposes either
    way, so every word image is exact.  Permutations act through
    ``columns`` in the coset-table layout (``perms = columns[1::2]``),
    shared with ``table``, the coset table of a regular one, else None.
    """

    def __init__(self, dimension: int, *,
                 perms: Sequence[Sequence[int]] | None = None,
                 matrices: Sequence[Sequence[Sequence[Fraction]]] | None = None,
                 table: CosetTable | None = None, label: str = ""):
        if sum(kind is not None for kind in (perms, matrices, table)) != 1:
            raise MalformedInputError(
                "give exactly one of perms=, matrices= or table=")
        if table is not None and table.coset_count != dimension:
            raise ShapeMismatchError(
                f"a table of {table.coset_count} cosets in dimension {dimension}")
        self.dimension = dimension
        self.label = label
        self.table = table
        self.columns = None if table is None else table.columns
        self.matrices = None
        if perms is not None:
            # one row per generator; a row of the wrong length cannot reshape
            perms = np.asarray(perms, dtype=np.int64).reshape(len(perms), dimension)
            inverses = np.argsort(perms, axis=1)  # also sorts the rows once
            if (np.take_along_axis(perms, inverses, 1) != np.arange(dimension)).any():
                raise MalformedInputError(
                    "generator image is not a permutation")
            self.columns = np.stack((inverses, perms), 1).reshape(-1, dimension)
        elif matrices is not None:
            self.matrices = tuple(exact.Matrix(m) for m in matrices)
            for m in self.matrices:
                if m.array.shape != (dimension, dimension):
                    raise ShapeMismatchError(
                        "generator image has the wrong dimension")
                if not exact.is_orthogonal(m):
                    raise MalformedInputError(
                        "generator image is not orthogonal")
        self.perms = None if self.columns is None else self.columns[1::2]

    @staticmethod
    def trivial(generator_count: int, label: str = "trivial") -> "Representation":
        return Representation(
            1, perms=[(0,)] * generator_count, label=label)

    @staticmethod
    def from_coset_table(table: CosetTable, label: str = "") -> "Representation":
        """Pull back the regular representation of the quotient.

        The image of g sends the basis vector of coset x to that of
        x * g^-1, so the result is a homomorphism on words.  It acts
        through the table's own columns, neither copied nor validated.
        """
        return Representation(table.coset_count, table=table,
                              label=label or f"regular[{table.coset_count}]")

    def word_perm(self, word: Word, x=None):
        """pi(word), basis vector c going to out[c]; or only x * word^-1."""
        if self.columns is None:
            raise MalformedInputError("not a permutation representation")
        return _walk(self.columns, [-letter for letter in reversed(word)],
                     np.arange(self.dimension) if x is None else x)

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

    def __repr__(self) -> str:
        kind = "perm" if self.perms is not None else "orth"
        return f"Representation({kind}, dim={self.dimension}, label={self.label!r})"


class SeparationReport(NamedTuple):
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
    """A strictly increasing chain of finite quotients of one group, one
    regular representation per stage (its coset table is ``rep.table``)."""

    presentation: Presentation
    representations: tuple[Representation, ...]
    separation: SeparationReport

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(rep.dimension for rep in self.representations)

    def stages(self):
        """Yield (position, quotient order, representation)."""
        for i, rep in enumerate(self.representations):
            yield i, rep.dimension, rep


def quotient_chain(presentation: Presentation,
                   chain: Sequence[Iterable[WordLike]],
                   ball_radius: int = DEFAULT_BALL_RADIUS,
                   max_cosets: int = DEFAULT_MAX_COSETS,
                   warn: bool = True) -> QuotientChain:
    """Build the quotients named by successive extra-relator sets, one
    regular :class:`Representation` per stage, whose ``table`` keeps the
    stage's coerced extra relators.  Indices must strictly increase along
    the chain.  A residual separation check walks all nontrivial reduced
    words of length at most ``ball_radius`` (none at radius 0; a negative
    radius is malformed); any word that every quotient sends to the
    identity triggers a :class:`SeparationWarning` (the chain cannot
    distinguish it), never an error.
    """
    if not chain:
        raise MalformedInputError("chain must name at least one quotient")
    if ball_radius < 0:
        raise MalformedInputError(
            f"ball radius must be nonnegative, got {ball_radius}")
    # every stage's words are checked before any stage is enumerated
    specs = [_coerce_words(presentation, spec) for spec in chain]
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
    return QuotientChain(presentation, representations, separation)


def _separation_check(presentation: Presentation,
                      tables: Sequence[CosetTable],
                      radius: int) -> SeparationReport:
    """Walk the reduced ball, one level per block expansion, counting
    words that all quotients kill.  Each table is a regular action, which
    is free, so a word acts trivially exactly when it fixes coset 0: the
    walk carries one coset per quotient.

    Frontier blocks are expanded depth-first and each expansion yields at
    most ``_WALK_BLOCK`` words, so memory does not grow with the ball.
    ``first_failure`` is the first failure of a depth-first walk that
    takes parents in preorder (letters s1, s1^-1, s2, ...) and checks a
    parent's children last letter first: the least failing word under
    (parent letters, -last letter)."""
    from .textform import format_word

    n = presentation.generator_count
    letters = [s * g for g in range(1, n + 1) for s in (1, -1)]
    columns = [table.columns for table in tables]
    step = max(1, _WALK_BLOCK // len(letters))
    words_checked = failure_count = 0
    keys = []
    # A block holds words as rows of column indices, in lexicographic
    # order, and cosets[t, k] = 0 * (word k) in quotient t.
    stack = [(np.zeros((1, 0), int), np.zeros((len(tables), 1), int))]
    while radius > 0 and stack:
        words, cosets = stack.pop()
        allowed = np.ones((len(words), len(letters)), dtype=bool)
        if words.shape[1]:
            allowed[np.arange(len(words)), words[:, -1] ^ 1] = False
        # parent-major, letters ascending: the children stay lexicographic
        parent, letter = np.nonzero(allowed)
        cosets = np.stack([column[letter, x[parent]]
                           for column, x in zip(columns, cosets)])
        failed = np.flatnonzero(~cosets.any(axis=0))
        words_checked += len(letter)
        failure_count += len(failed)
        if len(failed):  # rows are lexicographic: failed[0] has least parent
            least = parent[failed[0]]
            last = letter[failed[parent[failed] == least]].max()
            keys.append((tuple(words[least].tolist()), -int(last)))
        if words.shape[1] + 1 < radius:
            words = np.column_stack((words[parent], letter))
            for start in range(0, len(letter), step):
                stack.append((words[start:start + step],
                              cosets[:, start:start + step]))

    first = min(keys, default=None)
    return SeparationReport(
        radius=radius,
        words_checked=words_checked,
        separated=failure_count == 0,
        failure_count=failure_count,
        first_failure=None if first is None else format_word(
            Word([letters[k] for k in (*first[0], -first[1])]), presentation),
    )
