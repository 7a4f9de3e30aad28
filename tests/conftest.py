"""Shared oracle helpers for the test suite.

Everything here is deliberately independent of the package internals:
exact Gaussian elimination gives kernel dimensions over the rationals,
breadth-first permutation closure gives group orders, and discrete
Fourier analysis gives circulant spectra.  Tests compare package output
against these.
"""

import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from random import Random

import numpy as np

import coholap
from coholap import (
    EvaluatedOperator,
    GroupRingElement,
    MalformedInputError,
    Presentation,
    UnknownGeneratorError,
    Word,
    exact,
)


def random_word(rng: Random, generator_count: int, max_length: int = 6) -> Word:
    letters = []
    for _ in range(rng.randint(0, max_length)):
        letter = rng.randint(1, generator_count)
        letters.append(letter if rng.random() < 0.5 else -letter)
    return Word(letters)


def random_element(rng: Random, generator_count: int, terms: int = 4,
                   max_length: int = 4) -> GroupRingElement:
    out = GroupRingElement.zero()
    for _ in range(terms):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        out = out + GroupRingElement.from_word(
            random_word(rng, generator_count, max_length), coeff)
    return out


def exact_rank(matrix) -> int:
    """Rank of a tuple-of-tuples Fraction matrix by Gaussian elimination."""
    rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [x - factor * y
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def exact_kernel_dim(matrix) -> int:
    """Nullity of a square Fraction matrix, exactly."""
    if not matrix:
        return 0
    return len(matrix[0]) - exact_rank(matrix)


def closure_order(generator_perms) -> int:
    """Order of the permutation group generated by the given permutations."""
    degree = len(generator_perms[0])
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for p in frontier:
            for g in generator_perms:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return len(seen)


def tree_walk_counts(branching: int, max_length: int) -> list[int]:
    """Closed-walk counts at the root of the (branching)-regular tree.

    ``result[i]`` is the number of length-``i`` walks that start and end
    at the root: a distance-profile dynamic program (1 step back, the
    remaining degree steps out).
    """
    counts = []
    state = {0: 1}
    for length in range(max_length + 1):
        counts.append(state.get(0, 0))
        nxt: dict[int, int] = {}
        for dist, ways in state.items():
            if dist == 0:
                nxt[1] = nxt.get(1, 0) + ways * branching
            else:
                nxt[dist - 1] = nxt.get(dist - 1, 0) + ways
                nxt[dist + 1] = nxt.get(dist + 1, 0) + ways * (branching - 1)
        state = nxt
    return counts


def coset_act(table, coset: int, word: Word) -> int:
    """Right action coset * word on a coset table."""
    columns = table.columns.tolist()
    for letter in word:
        column = 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1
        coset = columns[column][coset]
    return coset


def operator_difference(left, right) -> EvaluatedOperator:
    """Exact left - right of two evaluated operators of one shape, on
    Python objects, so no int64 difference can overflow."""
    a, b = left.exact_matrix.array, right.exact_matrix.array
    assert a.shape == b.shape
    return EvaluatedOperator(a.astype(object) - b.astype(object))


def projection_distance(p, q) -> float:
    """Spectral-norm distance between two projection matrices."""
    return float(np.linalg.norm(p.matrix - q.matrix, 2))


# ---------------------------------------------------------------------------
# Slow exact paths kept as oracles for the vectorized package code
# ---------------------------------------------------------------------------


def slow_matmul(a, b):
    """Product of two row-sequence Fraction matrices, entry by entry."""
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
              for col in bt)
        for row in a)


def fraction_determinant(matrix) -> Fraction:
    """Determinant of a square row-sequence matrix by Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return det


def lattice_index(rows, n: int) -> int:
    """|Z^n / row span of ``rows``| as the gcd of the n x n minors, 0 when
    the rows have rank below n."""
    return math.gcd(*(int(fraction_determinant([rows[i] for i in chosen]))
                      for chosen in combinations(range(len(rows)), n)))


def slow_word_matrix(rep, word):
    """Image of a word under an orthogonal representation, as rows of
    Fractions, multiplied letter by letter."""
    dim = rep.dimension
    out = tuple(tuple(Fraction(int(i == j)) for j in range(dim))
                for i in range(dim))
    for letter in word:
        image = tuple(rep.matrices[abs(letter) - 1])
        if letter < 0:
            image = tuple(zip(*image))
        out = slow_matmul(out, image)
    return out


def slow_word_perm(rep, word):
    """pi(word) of a permutation representation as a list, basis vector c
    going to out[c]: the rows of ``rep.perms`` composed letter by letter,
    each inverse letter's row inverted explicitly."""
    dim = rep.dimension
    out = list(range(dim))
    for letter in word:
        image = rep.perms[abs(letter) - 1].tolist()
        if letter < 0:
            inverse = [0] * dim
            for c, target in enumerate(image):
                inverse[target] = c
            image = inverse
        out = [out[image[c]] for c in range(dim)]  # pi(w l) = pi(w) pi(l)
    return out


def slow_evaluate(matrix, rep):
    """Block evaluation of a group-ring matrix into a tuple-of-tuples
    Fraction grid, one grid entry at a time."""
    dim = rep.dimension
    grid = [[Fraction(0)] * (matrix.cols * dim)
            for _ in range(matrix.rows * dim)]
    for i in range(matrix.rows):
        for j in range(matrix.cols):
            row0, col0 = i * dim, j * dim
            for word, coeff in matrix.entry(i, j).terms():
                if rep.perms is not None:
                    perm = slow_word_perm(rep, word)
                    for col in range(dim):
                        grid[row0 + perm[col]][col0 + col] += coeff
                else:
                    block = slow_word_matrix(rep, word)
                    for r in range(dim):
                        for col in range(dim):
                            grid[row0 + r][col0 + col] += coeff * block[r][col]
    return tuple(tuple(row) for row in grid)


def slow_todd_coxeter(presentation, extra_relators=(), max_cosets=10**6):
    """Columns of the canonical regular coset table, enumerated by relator
    scanning with first-undefined-entry definitions and union-find
    coincidences; raises EnumerationOverflowError past max_cosets."""
    from coholap import EnumerationOverflowError

    relators = [tuple(w) for w in (*presentation.relators, *extra_relators)]
    ncols = 2 * presentation.generator_count

    parent = []
    table = []

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def new_coset():
        if len(table) >= max_cosets:
            raise EnumerationOverflowError(
                f"enumeration exceeded max_cosets={max_cosets}; "
                "the quotient is too large for the budget or infinite")
        parent.append(len(table))
        table.append([-1] * ncols)
        return len(table) - 1

    def follow(x, column):
        y = table[x][column]
        if y == -1:
            y = new_coset()
            table[x][column] = y
            table[y][column ^ 1] = x
            return y
        return find(y)

    def unify(x, y):
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

    def column_of(letter):
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

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
    assert len(order) == len(live)

    return tuple(
        tuple(relabel[find(table[x][column])] for x in order)
        for column in range(ncols)
    )


def all_coset_separation(presentation, tables, radius):
    """(words checked, failures, first failure) of the reduced ball walk
    that carries every coset of every quotient, in depth-first order."""
    from coholap import format_word

    n = presentation.generator_count
    letters = [i for g in range(1, n + 1) for i in (g, -g)]
    identity_states = [tuple(range(t.coset_count)) for t in tables]
    table_columns = [t.columns.tolist() for t in tables]
    words_checked = failure_count = 0
    first_failure = None
    stack = [([], identity_states)] if radius > 0 else []
    while stack:
        prefix, states = stack.pop()
        for letter in reversed(letters):
            if prefix and prefix[-1] == -letter:
                continue
            new_prefix = prefix + [letter]
            column = 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1
            new_states = [tuple(columns[column][x] for x in state)
                          for columns, state in zip(table_columns, states)]
            words_checked += 1
            if new_states == identity_states:
                failure_count += 1
                if first_failure is None:
                    first_failure = format_word(Word(new_prefix), presentation)
            if len(new_prefix) < radius:
                stack.append((new_prefix, new_states))
    return words_checked, failure_count, first_failure


def slow_free_power_traces(matrix, m_max, term_budget):
    """Exact tau(M^j) for j = 1..m_max and the cutoff flag, from dicts of
    words multiplied term by term; tau(M^j) = tau(M^a M^b), a = ceil(j/2),
    pairs A[i][j](w) with B[j][i](w^-1)."""
    import math

    k = matrix.rows
    clear = math.lcm(*(coeff.denominator
                       for i in range(k) for j in range(k)
                       for _w, coeff in matrix.entry(i, j).terms()))
    base = [[{word: int(coeff * clear)
              for word, coeff in matrix.entry(i, j).terms()}
             for j in range(k)] for i in range(k)]

    def times(a, b):
        out = [[{} for _ in range(k)] for _ in range(k)]
        for i in range(k):
            for m in range(k):
                for j in range(k):
                    acc = out[i][j]
                    for u, cu in a[i][m].items():
                        for v, cv in b[m][j].items():
                            w = u * v
                            value = acc.get(w, 0) + cu * cv
                            if value:
                                acc[w] = value
                            else:
                                del acc[w]
        return out

    def paired_trace(a, b):
        return sum(c * b[j][i].get(w.inverse(), 0)
                   for i in range(k) for j in range(k)
                   for w, c in a[i][j].items())

    powers = [base]
    cutoff = False
    top = (m_max + 1) // 2
    while len(powers) < top:
        nxt = times(powers[-1], base)
        if sum(len(entry) for row in nxt for entry in row) > term_budget:
            cutoff = True
            break
        powers.append(nxt)

    traces = []
    for j in range(1, m_max + 1):
        a = (j + 1) // 2
        b = j - a
        if a > len(powers):
            cutoff = True
            break
        if b == 0:
            raw = sum(powers[a - 1][i][i].get(Word(), 0) for i in range(k))
        else:
            raw = paired_trace(powers[a - 1], powers[b - 1])
        traces.append(Fraction(raw, clear ** j))
    return traces, cutoff


def slow_upper_bounds(spec, degree, m_max, gap_hint=None, norm_bound=None,
                      term_budget=2_000_000, max_cosets=10**6):
    """(values, cutoff, lower bounds) of u_m = tau((I - Delta/R)^m) by
    three separate routes: powers of R - Delta over the free group ring,
    the binomial sum over tau((d* d)^j) when Delta = d d* over the free
    group ring, and powers of c(R - Delta) in the full regular
    representation of a finite group."""
    import math

    from coholap import (
        GroupRingMatrix,
        Representation,
        build_laplacian,
        evaluate,
        exact,
        todd_coxeter,
    )

    bundle = build_laplacian(spec, degree)
    r_bound = Fraction(norm_bound if norm_bound is not None
                       else bundle.laplacian.l1_operator_bound())
    k = bundle.cell_count
    shifted = GroupRingMatrix.identity(k).scale(r_bound) - bundle.laplacian
    down = spec.differential(degree - 1)
    # at most L terms, L(L + 1)/2 <= term_budget, on every route
    terms = min(m_max, (math.isqrt(8 * term_budget + 1) - 1) // 2)
    if spec.presentation.relators:
        table = todd_coxeter(spec.presentation, (), max_cosets=max_cosets)
        rep = Representation.from_coset_table(table)
        clear = math.lcm(*(coeff.denominator
                           for i in range(k) for j in range(k)
                           for _w, coeff in shifted.entry(i, j).terms()))
        t_matrix = evaluate(shifted.scale(clear), rep).exact_matrix
        values, power = [], t_matrix
        for m in range(1, terms + 1):
            trace = sum(power.array.diagonal().tolist())
            values.append(trace / (clear * r_bound) ** m / table.coset_count)
            if m < terms:
                power = exact.matmul(power, t_matrix)
    elif down is None or not bundle.plus_part.is_zero():
        traces, _ = slow_free_power_traces(shifted, terms, term_budget)
        values = [t / r_bound ** m for m, t in enumerate(traces, start=1)]
    else:
        traces, _ = slow_free_power_traces(
            down.adjoint() @ down, terms, term_budget)
        values = []
        for m in range(1, len(traces) + 1):
            total = Fraction(k)
            for j in range(1, m + 1):
                total += (math.comb(m, j) * Fraction(-1) ** j
                          * traces[j - 1] / r_bound ** j)
            values.append(total)
    lower = None
    if gap_hint is not None:
        shrink = 1.0 - gap_hint / float(r_bound)
        lower = tuple(float(u) - k * shrink ** (m + 1)
                      for m, u in enumerate(values))
    return tuple(values), len(values) < m_max, lower


# ---------------------------------------------------------------------------
# Tokenizer and recursive-descent parser: the oracle for textform
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[\^*+-]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise MalformedInputError(
                f"unexpected character {rest[0]!r} at position {pos} in {text!r}")
        if match.group("number") is not None:
            tokens.append(("number", match.group("number")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str, names: list[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = {name: i + 1 for i, name in enumerate(names)}
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise MalformedInputError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return token

    def parse_exponent(self) -> int:
        sign = 1
        token = self.take()
        if token == ("op", "-"):
            sign = -1
            token = self.take()
        if token[0] != "number" or "/" in token[1]:
            raise MalformedInputError(
                f"exponent must be an integer in {self.text!r}")
        return sign * int(token[1])

    def parse_term(self) -> tuple[Fraction, Word]:
        """One product of rational factors and powered letters."""
        coeff = Fraction(1)
        letters: list[int] = []
        saw_factor = False
        while True:
            token = self.take()
            if token[0] == "number":
                try:
                    coeff *= Fraction(token[1])
                except ZeroDivisionError:
                    raise MalformedInputError(
                        f"zero denominator in {self.text!r}")
            elif token[0] == "name":
                name = token[1]
                if name not in self.index:
                    raise UnknownGeneratorError(
                        f"unknown generator {name!r} in {self.text!r}")
                gen = self.index[name]
                exponent = 1
                if self.peek() == ("op", "^"):
                    self.take()
                    exponent = self.parse_exponent()
                letter = gen if exponent >= 0 else -gen
                letters.extend([letter] * abs(exponent))
            else:
                raise MalformedInputError(
                    f"expected a factor, got {token[1]!r} in {self.text!r}")
            saw_factor = True
            if self.peek() == ("op", "*"):
                self.take()
                continue
            break
        if not saw_factor:
            raise MalformedInputError(f"empty term in {self.text!r}")
        return coeff, Word(letters)

    def parse_element(self) -> GroupRingElement:
        terms: dict[Word, Fraction] = {}
        sign = Fraction(1)
        token = self.peek()
        if token == ("op", "-"):
            self.take()
            sign = Fraction(-1)
        elif token == ("op", "+"):
            self.take()
        while True:
            coeff, word = self.parse_term()
            coeff *= sign
            terms[word] = terms.get(word, Fraction(0)) + coeff
            token = self.peek()
            if token is None:
                break
            if token == ("op", "+"):
                sign = Fraction(1)
            elif token == ("op", "-"):
                sign = Fraction(-1)
            else:
                raise MalformedInputError(
                    f"expected '+' or '-', got {token[1]!r} in {self.text!r}")
            self.take()
        return GroupRingElement(terms)


def _default_names_needed(text: str) -> int:
    """Highest default-name index (g1, g2, ...) mentioned in the text."""
    needed = 0
    for match in re.finditer(r"\bg(\d+)\b", text):
        needed = max(needed, int(match.group(1)))
    return needed


def slow_parse_element(text: str, names) -> GroupRingElement:
    """Parse an element with the tokenizer and the recursive descent."""
    if not text.strip():
        raise MalformedInputError("empty element string")
    if names is None:
        resolved = [f"g{i}" for i in range(1, _default_names_needed(text) + 1)]
    elif isinstance(names, Presentation):
        resolved = list(names.generator_names)
    else:
        resolved = list(names)
    element = _Parser(text, resolved).parse_element()
    if isinstance(names, Presentation):
        if element.max_generator() > names.generator_count:
            raise UnknownGeneratorError(
                f"element {text!r} uses a generator outside the presentation")
    return element


# ---------------------------------------------------------------------------
# Merge-and-drop-zeros loops: the oracle for group-ring arithmetic.  Each
# takes and returns term dicts {Word: nonzero Fraction}, as
# ``dict(x.terms())`` gives them.
# ---------------------------------------------------------------------------


def slow_terms(terms) -> dict:
    """The terms of ``GroupRingElement(terms)``."""
    clean: dict[Word, Fraction] = {}
    for word, coeff in (terms or {}).items():
        if not isinstance(word, Word):
            word = Word(word)
        total = clean.get(word, 0) + Fraction(coeff)
        if total:
            clean[word] = total
        else:
            clean.pop(word, None)
    return clean


def slow_add(left: dict, right: dict) -> dict:
    merged = dict(left)
    for word, coeff in right.items():
        total = merged.get(word, Fraction(0)) + coeff
        if total:
            merged[word] = total
        else:
            merged.pop(word, None)
    return merged


def slow_neg(terms: dict) -> dict:
    return {w: -c for w, c in terms.items()}


def slow_scale(terms: dict, scalar) -> dict:
    frac = Fraction(scalar)
    if frac == 0:
        return {}
    return {w: c * frac for w, c in terms.items()}


def slow_mul(left: dict, right: dict) -> dict:
    product: dict[Word, Fraction] = {}
    for u, cu in left.items():
        for v, cv in right.items():
            w = u * v
            total = product.get(w, Fraction(0)) + cu * cv
            if total:
                product[w] = total
            else:
                product.pop(w, None)
    return product


def slow_star(terms: dict) -> dict:
    return {w.inverse(): c for w, c in terms.items()}


def slow_ring_matmul(a, b) -> list[list[dict]]:
    """The product of two GroupRingMatrix values, as rows of term dicts."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc: dict[Word, Fraction] = {}
            for k in range(a.cols):
                left = dict(a.entry(i, k).terms())
                if not left:
                    continue
                right = dict(b.entry(k, j).terms())
                if not right:
                    continue
                acc = slow_add(acc, slow_mul(left, right))
            row.append(acc)
        out.append(row)
    return out


def fresh_interpreter(script: str, *args: str, path=()) -> str:
    """stdout of ``script`` run with ``args`` in a new interpreter that
    imports this package (and the directories in ``path``), with one BLAS
    thread; fails the test on a non-zero exit."""
    src = os.path.dirname(os.path.dirname(coholap.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join((*map(str, path), src)))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout
