"""Experiment descriptions: the JSON input of the command line.

Each function reads one part of a description (a JSON object) and returns
what it names, or raises :class:`MalformedInputError` with a message that
points at the offending key.  The keys are listed in README.md, under
"Experiment description"; group-ring elements and words use the text
grammar of :mod:`coholap.textform` (``3/2*a*b^-1 - 1``).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .complexes import CochainComplexSpec, build_complex, build_laplacian
from .cosets import Representation, todd_coxeter
from .errors import MalformedInputError, ShapeMismatchError
from .groupring import GroupRingMatrix, Presentation, Word
from .pipeline import BetaRef
from .spectral import DEFAULT_ZERO_TOLERANCE


def load_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise MalformedInputError(f"no such experiment file: {path}")
    except IsADirectoryError:
        raise MalformedInputError(f"{path} is a directory, not a JSON file")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not UTF-8 text: {exc}")
    except ValueError as exc:  # also an integer past the digit limit
        raise MalformedInputError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise MalformedInputError(f"{path} nests JSON too deeply to read")
    return _object(payload, "experiment description")


def _require(payload: dict, key: str, command: str):
    if key not in payload:
        raise MalformedInputError(
            f"subcommand {command!r} needs the {key!r} key in the experiment "
            "description")
    return payload[key]


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans load as Python ints but are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, minimum: int | None, message: str) -> int:
    if not _is_int(value) or (minimum is not None and value < minimum):
        raise MalformedInputError(message)
    return value


def _number(value, what: str) -> float:
    """A JSON number (or numeric text) as a finite float; JSON booleans and
    numbers past the float range (JSON reads 1e400 as inf) are refused."""
    try:
        if not isinstance(value, bool) and math.isfinite(x := float(value)):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise MalformedInputError(f"{what} must be a number")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedInputError(f"{what} must be an object")
    return value


def _string_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MalformedInputError(f"{what} must be a list of strings")
    return value


def _list(block: dict, key: str, where: str) -> list:
    value = block.get(key, [])
    if not isinstance(value, list):
        raise MalformedInputError(f"{where}.{key} must be a list")
    return value


def _words(value, presentation: Presentation, what: str) -> list:
    return [presentation.word(text) for text in _string_list(value, what)]


def parse_presentation(payload: dict) -> Presentation:
    block = _object(payload.get("presentation"), "'presentation'")
    names = _string_list(block.get("generators", []),
                         "presentation.generators")
    relator_texts = _string_list(block.get("relators", []),
                                 "presentation.relators")
    free = Presentation(tuple(names))       # names are checked first
    return Presentation(free.generator_names,
                        tuple(map(free.word, relator_texts)))


def parse_ring_matrix(value, presentation: Presentation,
                       what: str) -> GroupRingMatrix:
    if (not isinstance(value, list) or not value
            or any(not isinstance(row, list) or not row for row in value)):
        raise MalformedInputError(
            f"{what} must be a nonempty list of nonempty rows")
    cols = len(value[0])
    entries = []
    for row in value:
        if len(row) != cols:
            raise MalformedInputError(f"{what} has ragged rows")
        parsed = []
        for cell in row:
            if not isinstance(cell, str):
                raise MalformedInputError(
                    f"{what} entries must be element strings")
            parsed.append(presentation.element(cell))
        entries.append(parsed)
    return GroupRingMatrix(len(value), cols, entries)


def parse_complex(payload: dict,
                        presentation: Presentation) -> CochainComplexSpec:
    higher = None
    block = payload.get("higher_differentials")
    if block is not None:
        higher = {}
        for key, value in _object(block, "higher_differentials").items():
            try:
                degree = int(key)
                if str(degree) != key:  # " 2", "02" and "٢" are not 2
                    raise ValueError(key)
            except ValueError:
                raise MalformedInputError(
                    f"higher_differentials key {key!r} is not a degree") from None
            higher[degree] = parse_ring_matrix(
                value, presentation, f"higher_differentials[{key}]")
    aspherical = payload.get("aspherical", False)
    if not isinstance(aspherical, bool):
        raise MalformedInputError("'aspherical' must be a boolean")
    try:
        return build_complex(presentation, higher, aspherical)
    except ShapeMismatchError as exc:
        raise MalformedInputError(f"higher_differentials: {exc}") from exc


def parse_representation(block, presentation: Presentation,
                         max_cosets: int) -> Representation:
    """The representation a 'representation' block names."""
    kind = _object(block, "'representation'").get("kind", "regular")
    if kind == "trivial":
        return Representation.trivial(presentation.generator_count)
    if kind == "regular":
        extra = ()
    elif kind == "quotient":
        extra = _words(block.get("relators", []), presentation,
                       "representation.relators")
    else:
        raise MalformedInputError(
            f"representation kind must be 'regular', 'quotient' or "
            f"'trivial', got {kind!r}")
    table = todd_coxeter(presentation, extra, max_cosets=max_cosets)
    label = f"quotient|G/N|={table.coset_count}" if extra else \
        f"regular|G|={table.coset_count}"
    return Representation.from_coset_table(table, label)


def parse_degree(payload: dict, command: str, top: int) -> int:
    """The 'degree', one of the complex's degrees 0..top."""
    degree = _integer(_require(payload, "degree", command), 0,
                      "'degree' must be a nonnegative integer")
    if degree > top:
        raise MalformedInputError(f"degree {degree} out of range 0..{top}")
    return degree


def parse_degrees(payload: dict, command: str, top: int) -> list[int]:
    """The 'degrees' list, each degree once, else the single 'degree'."""
    if "degrees" not in payload:
        return [parse_degree(payload, command, top)]
    degrees = payload["degrees"]
    if (not isinstance(degrees, list) or not degrees
            or not all(_is_int(d) and d >= 0 for d in degrees)):
        raise MalformedInputError(
            "'degrees' must be a nonempty list of nonnegative integers")
    if len(set(degrees)) < len(degrees):
        raise MalformedInputError(f"'degrees' repeats a degree: {degrees}")
    return [parse_degree({"degree": d}, command, top) for d in degrees]


def parse_tolerance(payload: dict, override: float | None) -> float:
    """The zero tolerance: ``override`` (the --tol option) when given."""
    value = _number(payload.get("zero_tolerance", DEFAULT_ZERO_TOLERANCE)
                    if override is None else override, "'zero_tolerance'")
    if not 0 < value < 1:
        raise MalformedInputError("zero tolerance must lie in (0, 1)")
    return value


def parse_method(payload: dict) -> str:
    method = payload.get("method", "eigen")
    if method not in ("eigen", "heat"):
        raise MalformedInputError(
            f"method must be 'eigen' or 'heat', got {method!r}")
    return method


def parse_scalar(value, what: str) -> Fraction:
    """A rational key: text or a JSON number.  A JSON float that is not
    integral is the nearest fraction with denominator at most 10**12 when
    that converts back to the same float (0.1 is 1/10); any other float
    is the decimal its shortest repr spells (1e-13 is 1/10**13, never 0,
    and 1e23 is 10**23)."""
    try:
        if isinstance(value, float):
            near = Fraction(value).limit_denominator(10**12)
            if float(near) == value and not value.is_integer():
                return near
            return Fraction(repr(value))
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise MalformedInputError(f"{what} is not a rational number: {value!r}")


def parse_certificates(payload: dict, presentation: Presentation,
                        complex_spec: CochainComplexSpec
                        ) -> list[tuple]:
    """(Certificate, soundness-check block or None) pairs."""
    from .certificates import Certificate, IdealWitness

    blocks = payload.get("certificates")
    if blocks is None and "certificate" in payload:
        blocks = [payload["certificate"]]
    if not isinstance(blocks, list) or not blocks:
        raise MalformedInputError(
            "verify-cert needs a 'certificates' list (or single "
            "'certificate' object)")
    parsed = []
    for i, block in enumerate(blocks):
        where = f"certificates[{i}]"
        _object(block, where)
        target_block = block.get("target")
        if isinstance(target_block, dict) and "laplacian" in target_block:
            degree = _integer(target_block["laplacian"], None,
                              f"{where}.target.laplacian must be a degree")
            target = build_laplacian(complex_spec, degree).laplacian
            default_label = f"Delta_{degree}"
        elif isinstance(target_block, dict) and "matrix" in target_block:
            target = parse_ring_matrix(target_block["matrix"], presentation,
                                        f"{where}.target.matrix")
            default_label = f"matrix[{target.rows}x{target.cols}]"
        else:
            raise MalformedInputError(
                f"{where}.target must be {{'laplacian': n}} or "
                "{'matrix': [[...]]}")

        if "epsilon" in block and "polynomial_form" in block:
            raise MalformedInputError(
                f"{where}: give either 'epsilon' or 'polynomial_form', "
                "not both")
        if "epsilon" in block:
            form = (Fraction(1),
                    -parse_scalar(block["epsilon"], f"{where}.epsilon"))
        elif "polynomial_form" in block:
            pair = block["polynomial_form"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise MalformedInputError(
                    f"{where}.polynomial_form must be [c2, c1]")
            form = (parse_scalar(pair[0], "polynomial_form[0]"),
                    parse_scalar(pair[1], "polynomial_form[1]"))
        else:
            form = (Fraction(0), Fraction(1))

        squares = tuple(
            parse_ring_matrix(m, presentation, f"{where}.squares[{j}]")
            for j, m in enumerate(_list(block, "squares", where)))
        witnesses = []
        for j, w in enumerate(_list(block, "witnesses", where)):
            at = f"{where}.witnesses[{j}]"
            relator = _integer(_object(w, at).get("relator"), None,
                               f"{at}.relator must be an index into the "
                               "ideal generators")
            witnesses.append(IdealWitness(
                left=parse_ring_matrix(w.get("left"), presentation,
                                        f"{at}.left"),
                relator_index=relator,
                right=parse_ring_matrix(w.get("right"), presentation,
                                         f"{at}.right")))
        ideal = None
        if "ideal" in block:
            ideal = tuple(_words(block["ideal"], presentation,
                                 f"{where}.ideal"))
        label = block.get("label", default_label)
        if not isinstance(label, str):
            raise MalformedInputError(f"{where}.label must be text")
        try:
            certificate = Certificate(
                presentation=presentation, target=target, polynomial_form=form,
                squares=squares, witnesses=tuple(witnesses),
                ideal_generators=ideal, label=label)
        except ShapeMismatchError as exc:
            raise MalformedInputError(f"{where}: {exc}") from exc
        soundness = block.get("soundness")
        if soundness is not None:
            _object(soundness, f"{where}.soundness")
        parsed.append((certificate, soundness))
    return parsed


def parse_chain(payload: dict, presentation: Presentation,
                command: str) -> list[list[Word]]:
    """The extra relators of each stage of the 'chain' block."""
    block = _require(payload, "chain", command)
    if not isinstance(block, list) or not block:
        raise MalformedInputError(
            "'chain' must be a nonempty list of extra-relator lists")
    return [_words(stage, presentation, f"chain[{i}]")
            for i, stage in enumerate(block)]


def parse_upper_bounds(block) -> dict:
    """Keyword arguments of ``l2_betti_upper_bounds`` from the
    'upper_bounds' block."""
    block = _object(block, "'upper_bounds'")
    m_max = _integer(block.get("m_max", 8), 1,
                    "upper_bounds.m_max must be a positive integer")
    norm_bound = block.get("norm_bound")
    if norm_bound is not None:
        norm_bound = parse_scalar(norm_bound, "upper_bounds.norm_bound")
    gap_hint = block.get("gap_hint")
    if gap_hint is not None:
        gap_hint = _number(gap_hint, "upper_bounds.gap_hint")
    term_budget = _integer(block.get("term_budget", 2_000_000), 1,
                          "upper_bounds.term_budget must be a positive integer")
    return {"m_max": m_max, "norm_bound": norm_bound, "gap_hint": gap_hint,
            "term_budget": term_budget}


def parse_beta_ref(payload: dict, command: str) -> BetaRef:
    block = _object(_require(payload, "beta_ref", command), "'beta_ref'")
    if "value" not in block:
        raise MalformedInputError("'beta_ref' needs a 'value'")
    return BetaRef(value=parse_scalar(block["value"], "beta_ref.value"),
                   provenance=block.get("provenance", "user-cited"),
                   citation=block.get("citation"))


def parse_subgroup_orders(payload: dict) -> list[int] | None:
    """The 'finite_subgroup_orders' list, None when absent."""
    value = payload.get("finite_subgroup_orders")
    if value is not None and not (isinstance(value, list) and all(
            _is_int(o) and o > 0 for o in value)):
        raise MalformedInputError(
            "'finite_subgroup_orders' must be a list of positive integers")
    return value
