"""Command-line interface.

Every subcommand reads one experiment description (a JSON file), writes a
JSON report and a CSV table with fixed columns into ``--out-dir``, and
prints the JSON report to stdout.  Report files are deterministic:
rerunning the same command on the same input produces byte-identical
bytes.  Run metadata that is *not* deterministic (timestamps, versions,
paths) is segregated into ``run_meta.json``.

Exit codes: 0 on success, 1 on a computational failure (gap did not
resolve, enumeration overflow, no exact trace backend, stage above the
dense size budget, ...) with a machine-readable error JSON on stdout,
2 on malformed input.

The keys of an experiment description are listed in README.md, under
"Experiment description"; each subcommand reads the ones it needs.
Group-ring elements and words use the text grammar of
:mod:`coholap.textform` (``3/2*a*b^-1 - 1``).

Each subcommand is declared once: its handler returns the report's
records as plain values, and both the JSON report and the CSV table are
derived from them (the CSV reads its columns out of the JSON records).
"""

from __future__ import annotations

# The layers are imported where they are called, and argparse, csv and
# datetime where they are used.  csv comes after numpy: loaded before it,
# it raises peak RSS on the project-chain workload.  numpy itself loads
# datetime and platform.
import io
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__ as VERSION
from .errors import CoholapError, MalformedInputError


# ---------------------------------------------------------------------------
# Serialization helpers (deterministic on purpose)
# ---------------------------------------------------------------------------


def _json(value):
    """A report value in JSON form: rationals become exact strings such as
    '5/3', non-finite floats become strings, tuples become lists."""
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(value)
    return value


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _pairs(spec: str) -> tuple[tuple[str, str], ...]:
    """'a b=c.d' -> (('a', 'a'), ('b', 'c.d')): names and where to read them."""
    return tuple((name, source or name)
                 for name, _, source in (word.partition("=")
                                         for word in spec.split()))


def _pick(obj, spec: str) -> dict:
    """Report keys read from attributes: 'key' or 'key=attribute' words."""
    return {key: getattr(obj, attribute) for key, attribute in _pairs(spec)}


def _gap_json(report) -> dict:
    return _pick(report, "dimension kernel_dim gap resolved threshold scale "
                         "lowest backend")


def _csv_text(columns: tuple[tuple[str, str], ...], records: list[dict]) -> str:
    """One CSV row per JSON report record; a column's path is dotted keys
    into the record, and a path below a null block gives an empty cell."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([header for header, _path in columns])
    for record in records:
        row = []
        for _header, path in columns:
            cell = record
            for key in path.split("."):
                cell = None if cell is None else cell[key]
            row.append(_csv_cell(cell))
        writer.writerow(row)
    return buffer.getvalue()


def _csv_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return repr(cell)
    if isinstance(cell, list):
        return ";".join(_csv_cell(item) for item in cell)
    return str(cell)


# ---------------------------------------------------------------------------
# The shared preamble and stages
# ---------------------------------------------------------------------------


class _Run:
    """One invocation: its options, its description, and the parts of the
    description every subcommand reads, parsed once in a fixed order (so a
    description with several faults always reports the same one).  Each
    handler parses the other keys it reads before it builds a stage."""

    def __init__(self, args, payload: dict, degree_key: str | None):
        from .description import (parse_complex, parse_degree, parse_degrees,
                                  parse_presentation, parse_tolerance)

        self.args = args
        self.payload = payload
        self.presentation = parse_presentation(payload)
        self.complex = parse_complex(payload, self.presentation)
        top = self.complex.top_degree
        if degree_key == "degree":
            self.degree = parse_degree(payload, args.command, top)
        elif degree_key == "degrees":
            self.degrees = parse_degrees(payload, args.command, top)
        self.tol = parse_tolerance(payload, args.tol)
        self.chain = None  # the QuotientChain, set by _chain


def _check_cochain(run: _Run, representations) -> None:
    """Reject d_{n+1} d_n != 0 under any stage before a number is computed.

    Only differentials past the presentation's can break the identity:
    the presentation complex alone gives d_1 d_0 = 1 - r_j, which
    vanishes under every representation of the presented group.  No
    stage sees G itself: the exact upper bounds check the identity there.
    """
    from .complexes import validate_chain_identity

    if run.complex.extends_presentation:
        for rep in representations:
            validate_chain_identity(run.complex, rep)


def _chain(run: _Run, relators=None):
    """The quotient chain of ``relators``, else of the description's
    'chain' block, kept on ``run`` so that main adds its separation
    summary to the report."""
    from .cosets import SeparationWarning, quotient_chain
    from .description import parse_chain

    if relators is None:
        relators = parse_chain(run.payload, run.presentation, run.args.command)
    chain = run.chain = quotient_chain(
        run.presentation, relators, ball_radius=run.args.ball_radius,
        max_cosets=run.args.max_cosets, warn=False)
    if not chain.separation.separated:
        # the description's chain fails to separate: point at its line
        with open(run.args.spec, encoding="utf-8") as handle:
            line = next((number for number, text in enumerate(handle, 1)
                         if '"chain"' in text), 1)
        warnings.warn_explicit(chain.separation.warning_text(),
                               SeparationWarning, run.args.spec, line)
    _check_cochain(run, chain.representations)
    return chain


def _per_stage(run: _Run, key: str, records: Callable) -> dict:
    """A report whose list ``key`` holds ``records(order, rep)`` for every
    stage named by the input, each with its position and quotient order.

    A 'chain' block names the stages of the full quotient chain;
    otherwise the single 'representation' block (default: the regular
    representation of the presented group) names one stage.
    """
    from .description import parse_representation

    if "chain" in run.payload:
        stages = list(_chain(run).stages())
    else:
        rep = parse_representation(
            run.payload.get("representation", {"kind": "regular"}),
            run.presentation, run.args.max_cosets)
        _check_cochain(run, [rep])
        stages = [(0, rep.dimension, rep)]
    return {key: [{"position": position, "quotient_order": order, **record}
                  for position, order, rep in stages
                  for record in records(order, rep)]}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    """A subcommand.  ``degree_key`` is the report key echoing the degree
    input ('degree', 'degrees' or None); the CSV has one row per record in
    the report list ``records_key``, with ``columns`` (header, path)."""

    handler: Callable[[_Run], dict]
    help: str
    degree_key: str | None
    records_key: str
    columns: tuple[tuple[str, str], ...]


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, help_text: str, degree_key: str | None,
             records_key: str, columns: str):
    """Register a handler, which returns its report less the keys main adds.

    Handlers and helpers import the library functions they call when
    they run, so a command loads only the layers it uses, and per-layer
    tracing, which rebinds module attributes, sees every call.
    """
    def register(handler):
        _COMMANDS[name] = _Command(handler, help_text, degree_key,
                                   records_key, _pairs(columns))
        return handler
    return register


@_command("spectrum", "lowest eigenvalues and spectral gap of a Laplacian",
          "degree", "stages",
          "position quotient_order dimension kernel_dim gap resolved lowest")
def _cmd_spectrum(run: _Run) -> dict:
    from .pipeline import laplacian_operator
    from .spectral import spectral_gap

    def records(order, rep):
        op = laplacian_operator(run.complex, run.degree, rep)
        return [{"label": rep.label, **_gap_json(spectral_gap(op, run.tol))}]
    return _per_stage(run, "stages", records)


@_command("betti", "kernel dimensions (Betti numbers) under finite quotients",
          "degrees", "records",
          "position quotient_order degree betti normalized gap resolved")
def _cmd_betti(run: _Run) -> dict:
    from .description import parse_upper_bounds
    from .pipeline import betti_report, l2_betti_upper_bounds

    def records(order, rep):
        for degree in run.degrees:
            betti, gap_report = betti_report(run.complex, degree, rep, run.tol)
            yield {"degree": degree, "betti": betti,
                   "normalized": Fraction(betti, order),
                   **_pick(gap_report, "gap resolved backend")}
    # the bounds need only the complex, so their faults come before a stage's
    block = run.payload.get("upper_bounds")
    bounds = {} if block is None else {"upper_bounds": _pick(
        l2_betti_upper_bounds(run.complex, run.degrees[0],
                              **parse_upper_bounds(block),
                              max_cosets=run.args.max_cosets),
        "degree norm_bound values lower_bounds cutoff backend gap_hint")}
    return {**_per_stage(run, "records", records), **bounds}


@_command("luck", "normalized Betti sequence along a chain of quotients",
          "degree", "records", "position quotient_order betti ratio gap")
def _cmd_luck(run: _Run) -> dict:
    from .description import parse_subgroup_orders
    from .pipeline import lambda_ring_membership, luck_approximation

    orders = parse_subgroup_orders(run.payload)
    luck = luck_approximation(run.complex, run.degree, _chain(run), run.tol)
    report = {
        "records": [_pick(r, "position quotient_order betti ratio gap")
                    for r in luck.records],
        **_pick(luck, "tail_estimates extrapolated extrapolation_note"),
    }
    if orders is not None and luck.extrapolated is not None:
        report["extrapolated_in_lambda_ring"] = lambda_ring_membership(
            luck.extrapolated, orders)
    return report


@_command("project", "spectral projections onto Laplacian kernels",
          "degree", "stages",
          "position quotient_order trace trace_plus trace_minus max_abs_entry "
          "product_defect gap=gap.gap gap_plus=gap_plus.gap "
          "gap_minus=gap_minus.gap method")
def _cmd_project(run: _Run) -> dict:
    from .description import parse_method
    from .pipeline import higher_kazhdan_projection

    method = parse_method(run.payload)

    def records(order, rep):
        proj = higher_kazhdan_projection(run.complex, run.degree, rep,
                                         run.tol, method=method)
        trace, trace_plus, trace_minus = proj.traces()
        return [{
            "label": rep.label,
            "method": method,
            "backend": proj.projection.backend,
            "trace": trace,
            "trace_plus": trace_plus,
            "trace_minus": trace_minus,
            "normalized_trace": trace / order,
            "max_abs_entry": proj.projection.max_abs_entry(),
            **_pick(proj.projection, "idempotency_defect selfadjoint_defect"),
            "product_defect": proj.product_defect,
            "gap": _gap_json(proj.gap),
            "gap_plus": _gap_json(proj.gap_plus),
            "gap_minus": _gap_json(proj.gap_minus),
        }]
    return _per_stage(run, "stages", records)


@_command("obstruct", "kernel dimensions against a lifted reference value",
          "degree", "records",
          "position quotient_order kernel_dim lifted_value discrepancy gap")
def _cmd_obstruct(run: _Run) -> dict:
    from .description import parse_beta_ref, parse_chain
    from .pipeline import box_obstruction_report

    # a missing chain is reported before a missing beta_ref
    relators = parse_chain(run.payload, run.presentation, run.args.command)
    beta_ref = parse_beta_ref(run.payload, run.args.command)

    certificate = None
    if "certificate" in run.payload or "certificates" in run.payload:
        from .complexes import build_laplacian
        from .description import parse_certificates

        (certificate, _soundness), *others = parse_certificates(
            run.payload, run.presentation, run.complex, run.args.command)
        if others or certificate.target != build_laplacian(
                run.complex, run.degree).laplacian:
            raise MalformedInputError(
                f"obstruct reads one certificate, about Delta_{run.degree}")

    obstruction = box_obstruction_report(
        run.complex, run.degree, _chain(run, relators), beta_ref,
        certificate=certificate, zero_tolerance=run.tol)
    return {
        "beta_ref": _pick(beta_ref, "value provenance citation"),
        "records": [_pick(r, "position quotient_order kernel_dim=d_star_value "
                             "lifted_value discrepancy gap")
                    for r in obstruction.records],
        **_pick(obstruction, "verdict gap_decay min_gap uniform_gap_certified "
                             "certified_epsilon box_metric_note"),
        "gap_claim": None if obstruction.gap_claim is None
        else _pick(obstruction.gap_claim, "label kind verified epsilon"),
    }


@_command("euler", "alternating normalized kernel dimensions along a chain",
          None, "records",
          "position quotient_order kernel_dims euler_trace matches")
def _cmd_euler(run: _Run) -> dict:
    from .pipeline import euler_class_trace

    euler = euler_class_trace(run.complex, _chain(run), run.tol)
    records = [{
        **_pick(r, "position quotient_order kernel_dims euler_trace"),
        "matches": r.euler_trace == euler.euler_characteristic,
    } for r in euler.records]
    return {**_pick(euler, "euler_characteristic all_match"),
            "records": records}


@_command("ghost", "entry decay of kernel projections along a chain",
          "degree", "records", "position quotient_order max_abs_entry trace")
def _cmd_ghost(run: _Run) -> dict:
    from .description import parse_method
    from .pipeline import ghost_diagnostic

    method = parse_method(run.payload)
    ghost = ghost_diagnostic(run.complex, run.degree, _chain(run), run.tol,
                             method=method)
    return {
        "method": method,
        "ghost_like": ghost.ghost_like,
        "records": [_pick(r, "position quotient_order max_abs_entry trace "
                             "backend")
                    for r in ghost.records],
    }


@_command("verify-cert", "exact verification of sum-of-squares certificates",
          None, "certificates",
          "label verified residual_terms claim_kind=claim.kind "
          "epsilon=claim.epsilon soundness_holds=soundness.holds")
def _cmd_verify_cert(run: _Run) -> dict:
    from .certificates import check_claim_soundness, verify_certificate
    from .description import parse_certificates, parse_representation
    from .spectral import evaluate

    results = []
    for certificate, soundness in parse_certificates(
            run.payload, run.presentation, run.complex, run.args.command):
        claim = verify_certificate(certificate)
        if soundness is not None:
            # test the claim against the spectrum of its target under the
            # representation the soundness block names
            rep = parse_representation(soundness, run.presentation,
                                       run.args.max_cosets)
            if not certificate.covers(rep):
                raise MalformedInputError(
                    f"certificate {certificate.label!r}: its soundness "
                    f"representation {rep.label} does not kill its ideal "
                    "generators")
            op = evaluate(certificate.target, rep,
                          provenance=f"cert-target@{rep.label}")
            check = check_claim_soundness(claim, op, zero_tolerance=run.tol)
            soundness = {
                "representation": rep.label,
                "quotient_order": rep.dimension,
                **_pick(check, "holds offending_eigenvalue zero_threshold"),
            }
        results.append({
            "label": certificate.label,
            **_pick(claim, "verified residual_terms"),
            "residual": claim.residual_text(run.presentation),
            "claim": _pick(claim, "kind epsilon scope verified "
                                  "polynomial_form"),
            "soundness": soundness,
        })
    return {
        "all_verified": all(result["verified"] for result in results),
        "certificates": results,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="coholap",
        description="Exact spectral computations for cohomological "
                    "Laplacians over group rings.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {VERSION}")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")
    for name, command in sorted(_COMMANDS.items()):
        sub = subparsers.add_parser(name, help=command.help)
        sub.add_argument("spec", help="experiment description (JSON file)")
        sub.add_argument("--tol", type=float, default=None,
                         help="zero tolerance override (default: the "
                              "description's zero_tolerance, else 1e-8)")
        # the defaults live in cosets, which loads numpy: main reads them
        sub.add_argument("--max-cosets", type=int, dest="max_cosets",
                         help="coset enumeration budget")
        sub.add_argument("--ball-radius", type=int, dest="ball_radius",
                         help="word length for the chain separation check")
        sub.add_argument("--out-dir", default="coholap-out", dest="out_dir",
                         help="directory for report files "
                              "(default: coholap-out)")
    return parser


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _write_outputs(args, report_text: str, csv_text: str) -> None:
    import datetime

    import numpy as np

    os.makedirs(args.out_dir, exist_ok=True)
    _write_text(os.path.join(args.out_dir, f"{args.command}.json"),
                report_text)
    _write_text(os.path.join(args.out_dir, f"{args.command}.csv"), csv_text)
    meta = {
        "command": args.command,
        "input": os.path.abspath(args.spec),
        "options": {
            "tol": args.tol,
            "max_cosets": args.max_cosets,
            "ball_radius": args.ball_radius,
            "out_dir": os.path.abspath(args.out_dir),
        },
        "package_version": VERSION,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        # a dense eigensolve's low bits depend on the BLAS thread count
        "blas_threads": {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }
    _write_text(os.path.join(args.out_dir, "run_meta.json"), _dump_json(meta))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors
        return int(exc.code or 0)
    from .cosets import DEFAULT_BALL_RADIUS, DEFAULT_MAX_COSETS
    from .description import load_payload

    if args.ball_radius is None:
        args.ball_radius = DEFAULT_BALL_RADIUS
    if args.max_cosets is None:
        args.max_cosets = DEFAULT_MAX_COSETS

    command = _COMMANDS[args.command]
    try:
        if args.ball_radius < 0:
            raise MalformedInputError(
                f"ball radius must be nonnegative, got {args.ball_radius}")
        if args.max_cosets < 1:
            raise MalformedInputError(
                f"max cosets must be positive, got {args.max_cosets}")
        run = _Run(args, load_payload(args.spec), command.degree_key)
        report = command.handler(run)
        report["command"] = args.command
        report["zero_tolerance"] = run.tol
        if run.chain is not None:
            report["chain_separation"] = _pick(
                run.chain.separation, "radius separated failure_count")
        if command.degree_key is not None:
            # _Run keeps the parsed degree input under the report key's name
            report[command.degree_key] = getattr(run, command.degree_key)
        # exact values may pass the int-to-str digit limit (Python 3.10.7
        # and later), which guards only the reading of untrusted input
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            report = _json(report)
            report_text = _dump_json(report)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        _write_outputs(args, report_text,
                       _csv_text(command.columns, report[command.records_key]))
    except (CoholapError, OSError) as exc:
        text = _dump_json({"error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
        }})
        print(text, end="")
        if isinstance(exc, MalformedInputError):
            return 2
        try:
            os.makedirs(args.out_dir, exist_ok=True)
            _write_text(os.path.join(args.out_dir, "error.json"), text)
        except OSError:
            pass
        return 1
    print(report_text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
