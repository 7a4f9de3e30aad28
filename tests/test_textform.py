"""Text grammar for words and group-ring elements."""

import os
import re
import resource
import subprocess
import sys
import textwrap
from fractions import Fraction
from random import Random

import pytest

from conftest import random_element, slow_parse_element

import coholap
from coholap import (
    GroupRingElement,
    MalformedInputError,
    Presentation,
    UnknownGeneratorError,
    Word,
    format_element,
    format_word,
    parse_element,
    parse_word,
    textform,
)

NAMES = ["a", "b", "c"]


class TestParseWord:
    def test_plain_letters(self):
        assert parse_word("a*b", NAMES) == Word([1, 2])
        assert parse_word("a*a*a", NAMES) == Word([1, 1, 1])

    def test_exponents(self):
        assert parse_word("a^3", NAMES) == Word([1, 1, 1])
        assert parse_word("a^-1", NAMES) == Word([-1])
        assert parse_word("b^-2*a", NAMES) == Word([-2, -2, 1])
        assert parse_word("a^0", NAMES) == Word()

    def test_identity_literal(self):
        assert parse_word("1", NAMES) == Word()

    def test_reduction_happens(self):
        assert parse_word("a*a^-1*b", NAMES) == Word([2])

    def test_whitespace_tolerated(self):
        assert parse_word("  a * b ^ -1 ", NAMES) == Word([1, -2])

    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            parse_word("a*z", NAMES)

    def test_coefficient_rejected(self):
        with pytest.raises(MalformedInputError):
            parse_word("2*a", NAMES)
        with pytest.raises(MalformedInputError):
            parse_word("a + b", NAMES)

    def test_garbage_rejected(self):
        for bad in ("", "a*", "^2", "a**b", "(a)", "a^", "a b"):
            with pytest.raises(MalformedInputError):
                parse_word(bad, NAMES)


class TestParseElement:
    def test_signs_and_coefficients(self):
        x = parse_element("3/2*a*b^-1 - 1", NAMES)
        assert x.coefficient(Word([1, -2])) == Fraction(3, 2)
        assert x.coefficient(Word()) == -1

    def test_leading_minus(self):
        x = parse_element("-a + 2", NAMES)
        assert x.coefficient(Word([1])) == -1
        assert x.coefficient(Word()) == 2

    def test_bare_number(self):
        x = parse_element("7", NAMES)
        assert x == GroupRingElement.from_word(Word(), 7)
        assert parse_element("0", NAMES).is_zero()

    def test_like_terms_collect(self):
        x = parse_element("a + a - 2*a", NAMES)
        assert x.is_zero()

    def test_fraction_without_word(self):
        x = parse_element("-5/3", NAMES)
        assert x.coefficient(Word()) == Fraction(-5, 3)

    def test_coefficient_positions(self):
        x = parse_element("a*2", NAMES)  # trailing scalar also legal
        assert x.coefficient(Word([1])) == 2

    def test_names_from_presentation(self):
        p = Presentation(("x", "y"), ())
        x = parse_element("x*y^-1", p)
        assert x.coefficient(Word([1, -2])) == 1

    def test_default_names(self):
        x = parse_element("g1*g2^-1", None)
        assert x.coefficient(Word([1, -2])) == 1

    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            parse_element("a + q", NAMES)

    def test_malformed(self):
        for bad in ("", "+", "a +", "* a", "a ^ b", "1/0*a"):
            with pytest.raises(MalformedInputError):
                parse_element(bad, NAMES)


class TestFormatting:
    def test_format_word(self):
        assert format_word(Word([1, -2, -2]), NAMES) == "a*b^-1*b^-1"
        assert format_word(Word(), NAMES) == "1"

    def test_format_element_canonical_order(self):
        x = parse_element("b + 1 + a*a - a", NAMES)
        # identity first, then length-1 terms in letter order, then longer
        assert format_element(x, NAMES) == "1 - a + b + a*a"

    def test_format_magnitude_one_elided(self):
        x = parse_element("-a + 2*b", NAMES)
        assert format_element(x, NAMES) == "-a + 2*b"

    def test_format_zero(self):
        assert format_element(GroupRingElement.zero(), NAMES) == "0"

    def test_fraction_coefficients(self):
        x = parse_element("1/2*a - 3/4", NAMES)
        assert format_element(x, NAMES) == "-3/4 + 1/2*a"

    def test_round_trip_random(self):
        rng = Random(47)
        for _ in range(120):
            x = random_element(rng, 3)
            assert parse_element(format_element(x, NAMES), NAMES) == x

    def test_word_round_trip_random(self):
        from conftest import random_word

        rng = Random(53)
        for _ in range(120):
            w = random_word(rng, 3)
            assert parse_word(format_word(w, NAMES), NAMES) == w

    def test_default_names_cost_only_the_printed_letters(self):
        # in a child process under a 1 GiB address-space limit, so code
        # that lists g1..gN for N = 10**10 fails fast instead of filling
        # the machine's memory
        script = textwrap.dedent("""
            import tracemalloc
            from coholap import parse_element
            x = parse_element("g10000000000", None)
            tracemalloc.start()
            text = repr(x)
            peak = tracemalloc.get_traced_memory()[1]
            assert text == "GroupRingElement('g10000000000')", text
            assert peak < 64 * 1024, peak
        """)
        limit = 1 << 30
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(coholap.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)))
        assert done.returncode == 0, done.stderr

    def test_short_name_list_refused(self):
        with pytest.raises(UnknownGeneratorError, match="only 3 names"):
            format_word(Word([4]), NAMES)
        with pytest.raises(UnknownGeneratorError, match="only 3 names"):
            format_element(parse_element("1 + g4", None), NAMES)


class TestLetterLimit:
    def test_exponent_checked_before_expansion(self, monkeypatch):
        monkeypatch.setattr(textform, "MAX_ELEMENT_LETTERS", 5)
        assert parse_word("a^5", NAMES) == Word([1] * 5)
        for bad in ("a^6", "a^-6", "a^3*b^-3", "a^3 + b^3"):
            with pytest.raises(MalformedInputError, match="more than 5"):
                parse_element(bad, NAMES)

    def test_huge_exponent_refused(self):
        # numerals past any list size and past int()'s digit limit
        for bad in ("a^-" + "9" * 30, "a^" + "9" * 5000):
            with pytest.raises(MalformedInputError):
                parse_element(bad, NAMES)


def _outcome(parse, text, names):
    try:
        return parse(text, names)
    except (MalformedInputError, UnknownGeneratorError) as exc:
        return type(exc)


def _random_element_text(rng: Random, known, unknown) -> str:
    def space():
        return rng.choice(("", "", " ", "  ", "\t"))

    def factor():
        if rng.random() < 0.3:
            return rng.choice(("0", "1", "3", "007", "3/2", "12/8", "1/0"))
        name = rng.choice(unknown if rng.random() < 0.05 else known)
        if rng.random() < 0.5:
            name += (space() + "^" + space() + rng.choice(("", "-"))
                     + space() + str(rng.randint(0, 3)))
        return name

    pieces = [rng.choice(("", "", "-", "+"))]
    for position in range(rng.randint(1, 4)):
        if position:
            pieces.append(rng.choice(("+", "-")))
        star = space() + "*" + space()
        pieces.append(star.join(factor() for _ in range(rng.randint(1, 3))))
    return space() + space().join(pieces) + space()


class TestAgainstTokenizerOracle:
    """The anchored patterns agree with the tokenizer and recursive
    descent they replace, on grammatical text and on junk."""

    NAME_POOLS = (
        (NAMES, NAMES, ("z", "ab", "a1", "_")),
        (None, ("g1", "g2", "g3", "g10"), ("g0", "g01", "a")),
        (Presentation(("a", "b"), ()), ("a", "b"), ("c",)),
    )

    def test_differential(self):
        rng = Random(20200813)
        seen = set()
        for names, known, unknown in self.NAME_POOLS:
            for _ in range(3000):
                text = _random_element_text(rng, known, unknown)
                roll = rng.random()
                if roll < 0.3:  # one character inserted, dropped or replaced
                    cut = rng.randint(0, len(text))
                    text = (text[:cut] + rng.choice("ag1/^*+- (")
                            + text[cut + rng.randint(0, 1):])
                elif roll < 0.5:
                    text = "".join(rng.choice("abgz019/^*+- \t(._")
                                   for _ in range(rng.randint(0, 12)))
                expected = _outcome(slow_parse_element, text, names)
                actual = _outcome(parse_element, text, names)
                seen.add(expected if isinstance(expected, type) else "element")
                if (expected is UnknownGeneratorError
                        and actual is MalformedInputError):
                    # an unknown name before a syntax fault: the grammar
                    # is checked first, so the fault is what is reported
                    every_name = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
                    assert (_outcome(slow_parse_element, text, every_name)
                            is MalformedInputError), text
                else:
                    assert actual == expected, text
        assert seen == {"element", MalformedInputError, UnknownGeneratorError}
