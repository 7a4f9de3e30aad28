"""The four benchmark workloads: seeded inputs and exact references.

A seed only chooses among spellings of the same groups: the order of the
extra relators within a stage and a cyclic rotation of every relator word.
Rotating a relator conjugates it, so the normal closure, the quotients and
every reported number stay the same; each reference below holds for every
seed.  Seed 0 is the canonical spelling.

A workload is a list of operations.  An operation is one CLI invocation
(``{"kind": "cli", "argv": [...], "spec": {...}}``) or one library call
(``{"kind": "quotient_chain", ...}``).  :func:`check` compares the named
values of an operation's output with the references, so reports that gain
fields later still pass.
"""

from __future__ import annotations

import random
from fractions import Fraction

GENUS2_GENERATORS = ["a", "b", "c", "d"]
GENUS2_RELATOR = "a*b*a^-1*b^-1*c*d*c^-1*d^-1"
S4_RELATORS = ["a^2", "b^3", "a*b*a*b*a*b*a*b"]

# Why each workload exists is recorded in BENCHMARK.json; perfbench/README.md
# says why the ladder stops at m = 4 and the chain at m = 6.
WORKLOADS = ("betti-ladder", "project-chain", "upper-bounds", "chain-build")

# The F2 upper-bound sequence u_1 .. u_20 at m_max 20, as computed at seed 0.
F2_UPPER_BOUNDS = [
    "3/2", "21/16", "39/32", "1191/1024", "2307/2048", "36069/32768",
    "70899/65536", "4477323/4194304", "8860899/8388608", "140583723/134217728",
    "279247209/268435456", "8885716035/8589934592", "17688534567/17179869184",
    "281911180341/274877906944", "561965325771/549755813888",
    "71730515494515/70368744177664", "143118886488483/140737488355328",
    "2285219141481327/2251799813685248", "4562387869400205/4503599627370496",
    "145774041923295033/144115188075855872",
]
S4_U1 = Fraction(65, 41)
S4_U16 = Fraction(25090597132190772571795329, 63759030914653054346432641)


# ---------------------------------------------------------------------------
# Seeded spellings
# ---------------------------------------------------------------------------


def _letters(text: str) -> list[tuple[str, int]]:
    """'a*b^-1*c^2' -> [('a', 1), ('b', -1), ('c', 1), ('c', 1)]."""
    out = []
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        exponent = int(power) if power else 1
        sign = 1 if exponent > 0 else -1
        out.extend([(name, sign)] * abs(exponent))
    return out


def _spell(letters: list[tuple[str, int]]) -> str:
    return "*".join(name if sign > 0 else f"{name}^-1" for name, sign in letters)


class Spelling:
    """Seeded choice of relator order and rotation; seed 0 changes nothing."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def word(self, text: str) -> str:
        if self.seed == 0:
            return text
        letters = _letters(text)
        shift = self.rng.randrange(len(letters))
        return _spell(letters[shift:] + letters[:shift])

    def relators(self, texts: list[str]) -> list[str]:
        words = [self.word(text) for text in texts]
        if self.seed != 0:
            self.rng.shuffle(words)
        return words


def _abelian_power_stage(names: list[str], m: int) -> list[str]:
    """Extra relators of the (Z/m)^k quotient: m-th powers and commutators."""
    powers = [f"{x}^{m}" for x in names]
    commutators = [f"{x}*{y}*{x}^-1*{y}^-1"
                   for i, x in enumerate(names) for y in names[i + 1:]]
    return powers + commutators


def _genus2(spelling: Spelling, ms: list[int]) -> dict:
    return {
        "presentation": {"generators": GENUS2_GENERATORS,
                         "relators": [spelling.word(GENUS2_RELATOR)]},
        "chain": [spelling.relators(_abelian_power_stage(GENUS2_GENERATORS, m))
                  for m in ms],
    }


def _cli(command: str, spec: dict, check: dict) -> dict:
    return {"kind": "cli", "argv": [command, "--ball-radius", "3"],
            "spec": spec, "check": check}


def operations(workload: str, seed: int, *, smallest: bool = False) -> list[dict]:
    """The operations of one workload run for ``seed``.

    ``smallest`` keeps only each workload's first stage (the self-test).
    """
    spelling = Spelling(seed)

    def stages(ms: list[int]) -> list[int]:
        return ms[:1] if smallest else ms

    if workload == "betti-ladder":
        ms = stages([2, 3, 4])
        spec = dict(_genus2(spelling, ms), aspherical=True, degrees=[0, 1, 2])
        return [_cli("betti", spec, {"what": "betti-ladder", "ms": ms})]
    if workload == "project-chain":
        ms = stages([2, 3])
        spec = dict(_genus2(spelling, ms), aspherical=True, degree=1,
                    method="eigen")
        return [_cli("project", spec, {"what": "project-chain", "ms": ms})]
    if workload == "upper-bounds":
        ms = stages([2, 3, 4, 5])
        f2_terms, s4_terms = (4, 2) if smallest else (20, 16)
        f2 = {
            "presentation": {"generators": ["a", "b"], "relators": []},
            "degree": 1,
            "chain": [spelling.relators(_abelian_power_stage(["a", "b"], m))
                      for m in ms],
            "upper_bounds": {"m_max": f2_terms},
        }
        s4 = {
            "presentation": {"generators": ["a", "b"],
                             "relators": spelling.relators(S4_RELATORS)},
            "degree": 1,
            "upper_bounds": {"m_max": s4_terms},
        }
        return [_cli("betti", f2, {"what": "upper-bounds-f2", "ms": ms,
                                   "terms": f2_terms}),
                _cli("betti", s4, {"what": "upper-bounds-s4",
                                   "terms": s4_terms})]
    if workload == "chain-build":
        ms = stages([4, 6])
        spec = _genus2(spelling, ms)
        return [{"kind": "quotient_chain",
                 "generators": spec["presentation"]["generators"],
                 "relators": spec["presentation"]["relators"],
                 "chain": spec["chain"], "ball_radius": 2 if smallest else 5,
                 "check": {"what": "chain-build", "ms": ms,
                           "smallest": smallest}}]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Correctness gate: named values against exact references
# ---------------------------------------------------------------------------

# Calls per traced sample of each layer in ``layers.CALLS`` (0 when not
# listed); the same for every seed.  A binding the tracer missed shows here
# as a count that is too low.
EXPECTED_CALLS = {
    "betti-ladder": {
        "cosets.todd_coxeter": 3, "complexes.build_laplacian": 9,
        "spectral.evaluate": 9, "spectral.spectral_gap": 9,
        "pipeline.betti_report": 9, "groupring.matrix_matmul": 12},
    "project-chain": {
        "cosets.todd_coxeter": 2, "complexes.build_laplacian": 2,
        "spectral.evaluate": 10, "spectral.spectral_gap": 12,
        "spectral.projection": 6, "exact.matmul": 2,
        "groupring.matrix_matmul": 4},
    "upper-bounds": {
        "cosets.todd_coxeter": 6, "complexes.build_laplacian": 7,
        "spectral.evaluate": 6, "spectral.spectral_gap": 5,
        "exact.matmul": 15, "pipeline.betti_report": 5,
        "groupring.matrix_matmul": 10},
    "chain-build": {"cosets.todd_coxeter": 2},
}

GENUS2_BETTI1 = {2: 34, 3: 164, 4: 514}
GENUS2_GAP1 = {2: 4.0, 3: 3.0, 4: 2.0}
PROJECT_TRACES = {2: (34, 49, 49), 3: (164, 244, 244)}
PROJECT_MAX_ENTRY = {2: Fraction(17, 32), 3: Fraction(41, 81)}


def _close(value: float, reference: float, tolerance: float) -> bool:
    return abs(float(value) - float(reference)) <= tolerance


def check(op: dict, output: dict) -> list[str]:
    """Reference misses of one operation's output (empty when it passes).

    ``output`` is the parsed CLI report, or the facts a library call
    returned.
    """
    spec = op["check"]
    what = spec["what"]
    misses = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            misses.append(message)

    def upper_bounds(output: dict, terms: int) -> list[Fraction]:
        """The whole sequence, or [] (and a miss) when it stopped short."""
        block = output["upper_bounds"]
        values = [Fraction(v) for v in block["values"]]
        expect(block["cutoff"] is False, "sequence cut off")
        expect(len(values) == terms, f"{len(values)} terms, expected {terms}")
        return values if len(values) == terms else []

    if what == "betti-ladder":
        records = output["records"]
        by_stage = {}
        for record in records:
            by_stage.setdefault(record["position"], {})[record["degree"]] = record
        expect(sorted(by_stage) == list(range(len(spec["ms"]))),
               f"stages {sorted(by_stage)}")
        for position, m in enumerate(spec["ms"]):
            degrees = by_stage.get(position, {})
            if sorted(degrees) != [0, 1, 2]:
                misses.append(f"m={m}: degrees {sorted(degrees)}")
                continue
            order = degrees[1]["quotient_order"]
            b0, b1, b2 = (degrees[d]["betti"] for d in (0, 1, 2))
            expect(order == m ** 4, f"m={m}: |Q|={order}")
            expect(b1 == GENUS2_BETTI1[m], f"m={m}: beta_1={b1}")
            expect(b0 == 1 and b2 == 1, f"m={m}: beta_0={b0} beta_2={b2}")
            expect(b0 - b1 + b2 == -2 * order, f"m={m}: Euler characteristic")
            expect(all(degrees[d]["resolved"] for d in (0, 1, 2)),
                   f"m={m}: unresolved gap")
            expect(_close(degrees[1]["gap"], GENUS2_GAP1[m], 1e-6),
                   f"m={m}: gap(Delta_1)={degrees[1]['gap']}")
    elif what == "project-chain":
        stages = output["stages"]
        expect(len(stages) == len(spec["ms"]), f"{len(stages)} stages")
        for stage, m in zip(stages, spec["ms"]):
            traces = (stage["trace"], stage["trace_plus"], stage["trace_minus"])
            expect(all(_close(t, r, 1e-6)
                       for t, r in zip(traces, PROJECT_TRACES[m])),
                   f"m={m}: traces {traces}")
            expect(_close(stage["max_abs_entry"], PROJECT_MAX_ENTRY[m], 1e-9),
                   f"m={m}: max_abs_entry={stage['max_abs_entry']}")
            for key in ("product_defect", "idempotency_defect"):
                expect(stage[key] <= 1e-9, f"m={m}: {key}={stage[key]}")
    elif what == "upper-bounds-f2":
        records = output["records"]
        expect(len(records) == len(spec["ms"]), f"{len(records)} stages")
        for record, m in zip(records, spec["ms"]):
            expect(record["quotient_order"] == m * m
                   and record["betti"] == m * m + 1,
                   f"m={m}: beta_1={record['betti']}")
        values = upper_bounds(output, spec["terms"])
        expect(values[:2] == [Fraction(3, 2), Fraction(21, 16)], "u_1, u_2")
        expect(all(b <= a for a, b in zip(values, values[1:])),
               "sequence increases")
        expect(all(v >= 1 for v in values), "a term is below 1")
        expect(values == [Fraction(v) for v in F2_UPPER_BOUNDS[:spec["terms"]]],
               "sequence differs from the reference")
    elif what == "upper-bounds-s4":
        records = output["records"]
        expect([r["betti"] for r in records] == [0], "beta_1 of S4")
        values = upper_bounds(output, spec["terms"])
        expect(values[:1] == [S4_U1], f"u_1={values[:1]}")
        if spec["terms"] == 16:
            expect(values[15:] == [S4_U16], f"u_16={values[15:]}")
    elif what == "chain-build":
        orders = [m ** 4 for m in spec["ms"]]
        expect(output["orders"] == orders, f"orders {output['orders']}")
        if not spec["smallest"]:
            expect(output["words_checked"] == 22408,
                   f"words checked {output['words_checked']}")
            expect(output["failure_count"] == 48,
                   f"separation failures {output['failure_count']}")
    else:
        raise ValueError(f"unknown check {what!r}")
    return misses
