"""Parsing and printing of words and group-ring elements.

The textual form is a sum of terms like ``3/2*a*b^-1 + 1 - 2*a^3``:

* terms are separated by ``+`` / ``-``;
* a term is a ``*``-separated product of an optional rational coefficient
  (``p/q`` or an integer) and letters ``name`` or ``name^k`` with integer
  ``k`` (so ``a^-2`` abbreviates ``a^-1*a^-1``);
* the empty word is written ``1``; the zero element is ``0``.

The grammar has no parentheses and no nesting, so it is regular: one
anchored pattern recognizes a whole element, and two more read its
signed terms and the factors of each term.  Exponents are checked
before they are expanded: one element holds at most
``MAX_ELEMENT_LETTERS`` letters before free reduction.

Printing is canonical: terms appear in length-then-lexicographic word
order, letters are printed one at a time (``a*a`` rather than ``a^2``),
and ``parse(print(x)) == x`` holds exactly over every ``Presentation``,
whose names are the ones this grammar reads (``groupring.NAME_PATTERN``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence, Union

from .errors import MalformedInputError, UnknownGeneratorError
from .groupring import NAME_PATTERN, GroupRingElement, Presentation, Word

_NUMBER = r"\d+(?:/\d+)?"
_FACTOR = rf"(?:{_NUMBER}|{NAME_PATTERN}(?:\s*\^\s*(?:-\s*)?\d+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
# No two whitespace runs touch, so a failed match backtracks in linear time.
_ELEMENT_RE = re.compile(rf"\s*(?:[+-]\s*)?{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")
_SIGNED_TERM_RE = re.compile(rf"\s*(?:([+-])\s*)?({_TERM})")
_FACTOR_RE = re.compile(
    rf"({_NUMBER})|({NAME_PATTERN})(?:\s*\^\s*(?:(-)\s*)?(\d+))?")
_DEFAULT_NAME_RE = re.compile(r"g[1-9][0-9]*")
MAX_ELEMENT_LETTERS = 10**7

NamesLike = Union[Presentation, Sequence[str], None]


def _generator_names(source: NamesLike) -> Sequence[str] | None:
    """The explicit name list, or None for the default names g1, g2, ..."""
    if isinstance(source, Presentation):
        return source.generator_names
    return source


def _rational(numeral: str, text: str) -> Fraction:
    try:
        return Fraction(numeral)
    except ZeroDivisionError:
        raise MalformedInputError(f"zero denominator in {text!r}")
    except ValueError:  # more digits than int() reads from a string
        raise MalformedInputError(f"numeral too long in {text!r}")


def parse_element(text: str, names: NamesLike) -> GroupRingElement:
    """Parse the textual form of a group-ring element."""
    if not text.strip():
        raise MalformedInputError("empty element string")
    if _ELEMENT_RE.fullmatch(text) is None:
        raise MalformedInputError(
            f"{text!r} is not a sum of terms like '3/2*a*b^-1 - 1'")
    index = {name: i
             for i, name in enumerate(_generator_names(names) or (), 1)}
    terms: dict[Word, Fraction] = {}
    letter_count = 0
    # stripped: findall would retry every position of trailing whitespace
    for sign, term in _SIGNED_TERM_RE.findall(text.strip()):
        coeff = Fraction(-1 if sign == "-" else 1)
        letters: list[int] = []
        for numeral, name, minus, digits in _FACTOR_RE.findall(term):
            if numeral:
                coeff *= _rational(numeral, text)
                continue
            default = names is None and _DEFAULT_NAME_RE.fullmatch(name)
            gen = int(name[1:]) if default else index.get(name)
            if gen is None:
                raise UnknownGeneratorError(
                    f"unknown generator {name!r} in {text!r}")
            exponent = int(_rational(digits, text)) if digits else 1
            letter_count += exponent
            if letter_count > MAX_ELEMENT_LETTERS:
                raise MalformedInputError(
                    f"{text!r} has more than {MAX_ELEMENT_LETTERS} letters")
            letters.extend([-gen if minus else gen] * exponent)
        word = Word(letters)
        terms[word] = terms.get(word, Fraction(0)) + coeff
    return GroupRingElement(terms)


def parse_word(text: str, names: NamesLike) -> Word:
    """Parse a single word such as ``a*b^-1*a``; ``1`` is the identity."""
    element = parse_element(text, names)
    terms = list(element.terms())
    if len(terms) != 1 or terms[0][1] != 1:
        raise MalformedInputError(f"{text!r} is not a plain word")
    return terms[0][0]


def format_word(word: Word, names: NamesLike) -> str:
    if len(word) == 0:
        return "1"
    resolved = _generator_names(names)
    parts = []
    for letter in word:
        gen = abs(letter)
        if resolved is None:
            name = f"g{gen}"
        elif gen > len(resolved):
            raise UnknownGeneratorError(
                f"word uses generator {gen} but only {len(resolved)} names given")
        else:
            name = resolved[gen - 1]
        parts.append(name if letter > 0 else f"{name}^-1")
    return "*".join(parts)


def format_element(element: GroupRingElement, names: NamesLike) -> str:
    """Canonical textual form; inverse of :func:`parse_element`."""
    terms = list(element.terms())
    if not terms:
        return "0"
    pieces: list[str] = []
    for position, (word, coeff) in enumerate(terms):
        magnitude = abs(coeff)
        if len(word) == 0:
            body = str(magnitude)
        elif magnitude == 1:
            body = format_word(word, names)
        else:
            body = f"{magnitude}*{format_word(word, names)}"
        if position == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
