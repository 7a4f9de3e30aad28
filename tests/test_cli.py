"""End-to-end tests of the command-line driver.

Every test invokes ``main`` in process with a JSON experiment file in a
temporary directory, then checks the exit code, the stdout report, the
files in the output directory, and the frozen CSV column layout.
"""

import csv
import json
import re
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import slow_upper_bounds

import coholap
from coholap import SeparationWarning, cyclic_group_complex
from coholap.cli import _json, main
from coholap.description import parse_scalar

CYCLIC3 = {
    "presentation": {"generators": ["a"], "relators": ["a*a*a"]},
    "degree": 0,
}
TORUS = {
    "presentation": {"generators": ["a", "b"],
                     "relators": ["a*b*a^-1*b^-1"]},
    "aspherical": True,
}
FREE2 = {"presentation": {"generators": ["a", "b"], "relators": []}}
TORUS_CHAIN = [["a^2", "b^2"], ["a^4", "b^4"]]

ROTATION_CERT = {
    "label": "rotation-gap",
    "target": {"laplacian": 0},
    "epsilon": "6",
    "witnesses": [{"left": [["4*a^-1 - 4*a^-2"]], "relator": 0,
                   "right": [["1"]]}],
}


def _cert(**fields):
    """A verify-cert description of ROTATION_CERT with ``fields`` set, or
    dropped where None."""
    cert = {key: value for key, value in dict(ROTATION_CERT, **fields).items()
            if value is not None}
    return {"presentation": CYCLIC3["presentation"], "certificates": [cert]}


def genus2_abelian_payload(ms):
    """Genus 2 in degree 1 along the chain of (Z/m)^4 quotients."""
    commutators = [f"{x}*{y}*{x}^-1*{y}^-1"
                   for i, x in enumerate("abcd") for y in "abcd"[i + 1:]]
    return {
        "presentation": {"generators": list("abcd"),
                         "relators": ["a*b*a^-1*b^-1*c*d*c^-1*d^-1"]},
        "aspherical": True,
        "degree": 1,
        "chain": [[f"{x}^{m}" for x in "abcd"] + commutators for m in ms],
    }


# PSL(2,13) = <x, y | x^13, y^2, (xy)^3, (x^4 y x^7 y)^2>, with c = b, d = a
PSL2_13_STAGE = ["a^13", "b^2", "a*b*a*b*a*b", "a^4*b*a^7*b*a^4*b*a^7*b",
                 "c*b^-1", "d*a^-1"]


def run_cli(tmp_path, capsys, command, payload, *extra, out_name="out"):
    """Run one command; a str payload is written as raw JSON text."""
    spec = tmp_path / f"exp-{command}-{out_name}.json"
    spec.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    out_dir = tmp_path / out_name
    code = main([command, str(spec), "--out-dir", str(out_dir), *extra])
    return code, capsys.readouterr().out, out_dir


def read_csv(out_dir, command):
    with open(out_dir / f"{command}.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestSpectrum:
    def test_cyclic_spectrum(self, tmp_path, capsys):
        code, stdout, out = run_cli(tmp_path, capsys, "spectrum", CYCLIC3)
        assert code == 0
        report = json.loads(stdout)
        assert report["command"] == "spectrum"
        (stage,) = report["stages"]
        assert stage["position"] == 0
        assert stage["quotient_order"] == 3
        assert stage["label"] == "regular|G|=3"
        assert stage["dimension"] == 3
        assert stage["kernel_dim"] == 1
        assert abs(stage["gap"] - 6.0) < 1e-9
        assert stage["resolved"] is True
        assert len(stage["lowest"]) == 3

    def test_csv_layout(self, tmp_path, capsys):
        _, _, out = run_cli(tmp_path, capsys, "spectrum", CYCLIC3)
        header, rows = read_csv(out, "spectrum")
        assert header == ["position", "quotient_order", "dimension",
                          "kernel_dim", "gap", "resolved", "lowest"]
        assert rows[0][:4] == ["0", "3", "3", "1"]
        assert rows[0][5] == "true"
        assert len(rows[0][6].split(";")) == 3

    def test_stdout_matches_report_file(self, tmp_path, capsys):
        _, stdout, out = run_cli(tmp_path, capsys, "spectrum", CYCLIC3)
        assert stdout == (out / "spectrum.json").read_text()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        _, _, first = run_cli(tmp_path, capsys, "spectrum", CYCLIC3,
                              out_name="first")
        _, _, second = run_cli(tmp_path, capsys, "spectrum", CYCLIC3,
                               out_name="second")
        for name in ("spectrum.json", "spectrum.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_run_meta_segregates_nondeterminism(self, tmp_path, capsys):
        _, stdout, out = run_cli(tmp_path, capsys, "spectrum", CYCLIC3)
        assert "timestamp_utc" not in stdout
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["command"] == "spectrum"
        assert "timestamp_utc" in meta
        assert "python_version" in meta

    def test_run_meta_records_blas_threads(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        _, stdout, out = run_cli(tmp_path, capsys, "spectrum", CYCLIC3)
        assert "blas_threads" not in stdout
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                        "OMP_NUM_THREADS": "4",
                                        "MKL_NUM_THREADS": None}

    def test_tolerance_override_can_unresolve(self, tmp_path, capsys):
        code, stdout, _ = run_cli(tmp_path, capsys, "spectrum", CYCLIC3,
                                  "--tol", "0.2")
        assert code == 0
        (stage,) = json.loads(stdout)["stages"]
        assert stage["resolved"] is False  # gap 6 < 10 * (0.2 * 8)

    def test_chain_input_reports_each_stage(self, tmp_path, capsys):
        payload = dict(TORUS, degree=0, chain=TORUS_CHAIN)
        code, stdout, out = run_cli(tmp_path, capsys, "spectrum", payload,
                                    "--ball-radius", "2")
        assert code == 0
        report = json.loads(stdout)
        orders = [s["quotient_order"] for s in report["stages"]]
        assert orders == [4, 16]
        assert report["chain_separation"]["separated"] is True
        _, rows = read_csv(out, "spectrum")
        assert [r[1] for r in rows] == ["4", "16"]


class TestBetti:
    def test_torus_betti_numbers(self, tmp_path, capsys):
        payload = dict(TORUS, degrees=[0, 1, 2], chain=TORUS_CHAIN)
        code, stdout, out = run_cli(tmp_path, capsys, "betti", payload,
                                    "--ball-radius", "2")
        assert code == 0
        report = json.loads(stdout)
        by_stage = {}
        for record in report["records"]:
            by_stage.setdefault(record["position"], []).append(
                record["betti"])
        assert by_stage == {0: [1, 2, 1], 1: [1, 2, 1]}
        normalized = [r["normalized"] for r in report["records"]
                      if r["position"] == 1]
        assert normalized == ["1/16", "1/8", "1/16"]
        header, rows = read_csv(out, "betti")
        assert header == ["position", "quotient_order", "degree", "betti",
                          "normalized", "gap", "resolved"]
        assert len(rows) == 6
        assert all(float(r[5]) > 0 for r in rows)

    def test_upper_bounds_block(self, tmp_path, capsys):
        payload = dict(
            FREE2, degree=1,
            representation={"kind": "quotient",
                            "relators": ["a^2", "b^2", "a*b*a^-1*b^-1"]},
            upper_bounds={"m_max": 2, "norm_bound": "8"})
        code, stdout, _ = run_cli(tmp_path, capsys, "betti", payload)
        assert code == 0
        report = json.loads(stdout)
        (record,) = report["records"]
        assert record["betti"] == 5
        assert record["normalized"] == "5/4"
        bounds = report["upper_bounds"]
        assert bounds["values"] == ["3/2", "21/16"]
        assert bounds["backend"] == "free-ring"
        assert bounds["cutoff"] is False

    def test_non_self_adjoint_power_traces_give_error_json(
            self, tmp_path, capsys, monkeypatch):
        from coholap import GroupRingMatrix

        # every matrix now reads as not self-adjoint, so the free-ring
        # power traces refuse theirs
        monkeypatch.setattr(GroupRingMatrix, "is_self_adjoint",
                            lambda self: False)
        payload = dict(
            FREE2, degree=1,
            representation={"kind": "quotient",
                            "relators": ["a^2", "b^2", "a*b*a^-1*b^-1"]},
            upper_bounds={"m_max": 2})
        code, stdout, out = run_cli(tmp_path, capsys, "betti", payload)
        assert code == 1
        error = json.loads(stdout)["error"]
        assert error["type"] == "InvariantError"
        assert "self-adjoint" in error["message"]
        assert json.loads((out / "error.json").read_text()) == {"error": error}
        assert not (out / "betti.json").exists()

    def test_stage_above_the_dense_budget_is_refused(self, tmp_path, capsys):
        # genus 2 onto PSL(2,13) (a, b -> x, y and c, d -> y, x) in degree
        # 1 is 4 * 1092 = 4368 wide.  The quotient is not abelian, so the
        # projection needs the dense grid, which is refused unbuilt
        payload = dict(genus2_abelian_payload([]), chain=[PSL2_13_STAGE])
        code, stdout, out = run_cli(tmp_path, capsys, "project", payload,
                                    "--ball-radius", "0")
        assert code == 1
        error = json.loads(stdout)["error"]
        assert error["type"] == "SizeBudgetError"
        assert "4368" in error["message"]
        assert json.loads((out / "error.json").read_text()) == {"error": error}
        assert not (out / "project.json").exists()

    @pytest.mark.parametrize("m, betti, gap", [(6, 2594, 1.0),
                                               (8, 8194, 0.585786)])
    def test_abelian_stage_above_the_dense_budget(self, tmp_path, capsys,
                                                  m, betti, gap):
        # 4 * m^4 = 5184 and 16384 wide: one 4 x 4 symbol per character
        start = time.perf_counter()
        code, stdout, _ = run_cli(tmp_path, capsys, "betti",
                                  genus2_abelian_payload([m]),
                                  "--ball-radius", "2")
        elapsed = time.perf_counter() - start
        assert code == 0
        (record,) = json.loads(stdout)["records"]
        assert record["betti"] == betti
        assert abs(record["gap"] - gap) < 1e-6
        assert record["resolved"] is True
        assert record["backend"] == "characters"
        assert elapsed < 10

    def test_gap_hint_must_be_a_number(self, tmp_path, capsys):
        payload = dict(FREE2, degree=1,
                       representation={"kind": "quotient",
                                       "relators": ["a^2", "b^2",
                                                    "a*b*a^-1*b^-1"]},
                       upper_bounds={"m_max": 2, "gap_hint": "abc"})
        code, stdout, _ = run_cli(tmp_path, capsys, "betti", payload)
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error["type"] == "MalformedInputError"
        assert "gap_hint" in error["message"]

    def test_gap_hint_must_not_be_a_boolean(self, tmp_path, capsys):
        payload = dict(FREE2, degree=1,
                       representation={"kind": "quotient",
                                       "relators": ["a^2", "b^2",
                                                    "a*b*a^-1*b^-1"]},
                       upper_bounds={"m_max": 2, "gap_hint": True})
        code, stdout, out = run_cli(tmp_path, capsys, "betti", payload)
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error["type"] == "MalformedInputError"
        assert "gap_hint" in error["message"]
        assert not out.exists()

    def test_overflowing_norm_bound_is_malformed(self, tmp_path, capsys):
        payload = json.dumps(dict(
            FREE2, degree=1,
            representation={"kind": "quotient",
                            "relators": ["a^2", "b^2", "a*b*a^-1*b^-1"]},
            upper_bounds={"m_max": 2, "norm_bound": "BIG"}))
        code, stdout, out = run_cli(tmp_path, capsys, "betti",
                                    payload.replace('"BIG"', "1e999"))
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error["type"] == "MalformedInputError"
        assert "upper_bounds.norm_bound" in error["message"]
        assert not out.exists()

    def test_a_float_norm_bound_below_the_l1_bound_is_refused(
            self, tmp_path, capsys):
        # Delta_1 of <a | > is 2 - a - a^-1, certified l1 bound 4; the float
        # 3.9999999999999 is read as written, not rounded up to 4
        payload = {"presentation": {"generators": ["a"], "relators": []},
                   "degree": 1, "representation": {"kind": "trivial"},
                   "upper_bounds": {"m_max": 2, "norm_bound": 3.9999999999999}}
        code, stdout, out = run_cli(tmp_path, capsys, "betti", payload)
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error["message"] == ("norm bound 39999999999999/10000000000000 "
                                    "is below the certified l1 bound 4")
        assert not out.exists()

    def test_trivial_representation(self, tmp_path, capsys):
        payload = dict(TORUS, degree=0,
                       representation={"kind": "trivial"})
        code, stdout, _ = run_cli(tmp_path, capsys, "betti", payload)
        assert code == 0
        (record,) = json.loads(stdout)["records"]
        assert record["quotient_order"] == 1
        assert record["betti"] == 1

    def test_zero_norm_bound_gives_the_cell_count(self, tmp_path, capsys):
        # d_2 = 0 makes Delta_3 = 0, so its certified norm bound is 0 and
        # every term u_m = tau(I) is the one cell in degree 3
        payload = dict(CYCLIC3, higher_differentials={"2": [["0"]]},
                       degree=3, representation={"kind": "trivial"},
                       upper_bounds={"m_max": 2})
        code, stdout, out = run_cli(tmp_path, capsys, "betti", payload)
        assert code == 0
        bounds = json.loads(stdout)["upper_bounds"]
        assert bounds["norm_bound"] == "0"
        assert bounds["values"] == ["1", "1"]
        assert bounds["backend"] == "finite-regular"
        assert bounds["cutoff"] is False
        assert not (out / "error.json").exists()


class TestLuck:
    COMMUTATOR = "a*b*a^-1*b^-1"
    PAYLOAD = dict(FREE2, degree=1,
                   chain=[["a^2", "b^2", COMMUTATOR],
                          ["a^3", "b^3", COMMUTATOR]],
                   finite_subgroup_orders=[1])

    def test_normalized_sequence(self, tmp_path, capsys):
        code, stdout, out = run_cli(tmp_path, capsys, "luck", self.PAYLOAD,
                                    "--ball-radius", "2")
        assert code == 0
        report = json.loads(stdout)
        assert [r["ratio"] for r in report["records"]] == ["5/4", "10/9"]
        assert report["extrapolated"] == "1"
        assert report["extrapolated_in_lambda_ring"] is True
        assert report["chain_separation"]["separated"] is True
        header, rows = read_csv(out, "luck")
        assert header == ["position", "quotient_order", "betti", "ratio",
                          "gap"]
        assert [r[:4] for r in rows] == [["0", "4", "5", "5/4"],
                                         ["1", "9", "10", "10/9"]]

    def test_abelian_stages_above_the_dense_budget(self, tmp_path, capsys):
        # genus 2 over (Z/6)^4 and (Z/8)^4: 5184 and 16384 wide, both in
        # the character basis
        start = time.perf_counter()
        code, stdout, _ = run_cli(tmp_path, capsys, "luck",
                                  genus2_abelian_payload([6, 8]),
                                  "--ball-radius", "2")
        elapsed = time.perf_counter() - start
        assert code == 0
        records = json.loads(stdout)["records"]
        assert [r["betti"] for r in records] == [2594, 8194]
        assert [r["ratio"] for r in records] == ["1297/648", "4097/2048"]
        assert abs(records[0]["gap"] - 1.0) < 1e-6
        assert abs(records[1]["gap"] - 0.585786) < 1e-6
        assert elapsed < 10

    def test_chain_is_required(self, tmp_path, capsys):
        code, stdout, _ = run_cli(tmp_path, capsys, "luck",
                                  dict(FREE2, degree=1))
        assert code == 2
        assert json.loads(stdout)["error"]["type"] == "MalformedInputError"

    def test_negative_ball_radius_is_malformed(self, tmp_path, capsys):
        code, stdout, out = run_cli(tmp_path, capsys, "luck", self.PAYLOAD,
                                    "--ball-radius", "-1")
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error["type"] == "MalformedInputError"
        assert "ball radius" in error["message"]
        assert not (out / "luck.json").exists()

    def test_ball_radius_zero_checks_no_word(self, tmp_path, capsys):
        code, stdout, _ = run_cli(tmp_path, capsys, "luck", self.PAYLOAD,
                                  "--ball-radius", "0")
        assert code == 0
        separation = json.loads(stdout)["chain_separation"]
        assert separation == {"radius": 0, "separated": True,
                              "failure_count": 0}


class TestProject:
    def test_torus_projection(self, tmp_path, capsys):
        payload = dict(
            TORUS, degree=1,
            representation={"kind": "quotient", "relators": ["a^2", "b^2"]})
        code, stdout, out = run_cli(tmp_path, capsys, "project", payload)
        assert code == 0
        (stage,) = json.loads(stdout)["stages"]
        assert abs(stage["trace"] - 2.0) < 1e-8
        assert stage["product_defect"] < 1e-8
        assert stage["gap"]["resolved"] is True
        header, rows = read_csv(out, "project")
        assert header == ["position", "quotient_order", "trace",
                          "trace_plus", "trace_minus", "max_abs_entry",
                          "product_defect", "gap", "gap_plus", "gap_minus",
                          "method"]
        assert rows[0][10] == "eigen"

    def test_heat_method(self, tmp_path, capsys):
        payload = dict(CYCLIC3, method="heat")
        code, stdout, _ = run_cli(tmp_path, capsys, "project", payload)
        assert code == 0
        (stage,) = json.loads(stdout)["stages"]
        assert stage["method"] == "heat"
        assert abs(stage["trace"] - 1.0) < 1e-8

    def test_unknown_method(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, capsys, "project",
                             dict(CYCLIC3, method="cayley"))
        assert code == 2

    @pytest.mark.parametrize("method", ["eigen", "heat"])
    def test_abelian_stage_above_the_dense_budget(self, tmp_path, capsys,
                                                  method):
        # genus 2 over (Z/6)^4 in degree 1, 5184 wide: one 4 x 4 symbol
        # per character, so no n x n array is built
        start = time.perf_counter()
        code, stdout, out = run_cli(
            tmp_path, capsys, "project",
            dict(genus2_abelian_payload([6]), method=method),
            "--ball-radius", "2")
        elapsed = time.perf_counter() - start
        assert code == 0
        (stage,) = json.loads(stdout)["stages"]
        traces = (stage["trace"], stage["trace_plus"], stage["trace_minus"])
        assert all(abs(t - r) < 1e-6 for t, r in zip(traces,
                                                      (2594, 3889, 3889)))
        assert abs(stage["max_abs_entry"] - 2594 / 5184) < 1e-9
        assert stage["backend"] == "characters"
        for key in ("product_defect", "idempotency_defect",
                    "selfadjoint_defect"):
            assert stage[key] <= 1e-12
        header, _rows = read_csv(out, "project")
        assert "backend" not in header
        assert elapsed < 10


class TestObstruct:
    def test_persistent_discrepancy(self, tmp_path, capsys):
        payload = dict(
            TORUS, degree=1, chain=TORUS_CHAIN,
            beta_ref={"value": "0", "provenance": "user-cited",
                      "citation": "vanishing reference"})
        code, stdout, out = run_cli(tmp_path, capsys, "obstruct", payload,
                                    "--ball-radius", "2")
        assert code == 0
        report = json.loads(stdout)
        assert report["verdict"] == "persistent-discrepancy"
        assert [r["discrepancy"] for r in report["records"]] == ["2", "2"]
        assert report["uniform_gap_certified"] is False
        assert report["gap_claim"] is None
        assert "2^(i+j)" in report["box_metric_note"]
        header, rows = read_csv(out, "obstruct")
        assert header == ["position", "quotient_order", "kernel_dim",
                          "lifted_value", "discrepancy", "gap"]
        assert [r[2] for r in rows] == ["2", "2"]

    def test_certificate_certifies_uniform_gap(self, tmp_path, capsys):
        payload = {
            "presentation": CYCLIC3["presentation"],
            "degree": 0,
            "chain": [["a"]],
            "beta_ref": {"value": "1", "provenance": "user-cited"},
            "certificate": ROTATION_CERT,
        }
        with pytest.warns(SeparationWarning):
            code, stdout, _ = run_cli(tmp_path, capsys, "obstruct", payload)
        assert code == 0
        report = json.loads(stdout)
        assert report["uniform_gap_certified"] is True
        assert report["certified_epsilon"] == 6.0
        assert report["gap_claim"]["verified"] is True
        assert report["gap_claim"]["epsilon"] == "6"
        assert report["chain_separation"]["separated"] is False

    def test_overflowing_beta_ref_is_malformed(self, tmp_path, capsys):
        payload = json.dumps(dict(
            TORUS, degree=1, chain=TORUS_CHAIN,
            beta_ref={"value": "BIG", "provenance": "user-cited"}))
        code, stdout, out = run_cli(tmp_path, capsys, "obstruct",
                                    payload.replace('"BIG"', "1e999"),
                                    "--ball-radius", "2")
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error["type"] == "MalformedInputError"
        assert "beta_ref.value" in error["message"]
        assert not out.exists()

    def test_beta_ref_is_required(self, tmp_path, capsys):
        payload = dict(TORUS, degree=1, chain=TORUS_CHAIN)
        code, _, _ = run_cli(tmp_path, capsys, "obstruct", payload,
                             "--ball-radius", "2")
        assert code == 2


class TestEuler:
    def test_torus_euler_trace(self, tmp_path, capsys):
        payload = dict(TORUS, chain=TORUS_CHAIN)
        code, stdout, out = run_cli(tmp_path, capsys, "euler", payload,
                                    "--ball-radius", "2")
        assert code == 0
        report = json.loads(stdout)
        assert report["euler_characteristic"] == 0
        assert report["all_match"] is True
        assert report["records"][0]["kernel_dims"] == [1, 2, 1]
        header, rows = read_csv(out, "euler")
        assert header == ["position", "quotient_order", "kernel_dims",
                          "euler_trace", "matches"]
        assert rows[0][2] == "1;2;1"
        assert [r[4] for r in rows] == ["true", "true"]

    def test_needs_complete_complex(self, tmp_path, capsys):
        payload = {"presentation": TORUS["presentation"],
                   "chain": TORUS_CHAIN}
        code, stdout, out = run_cli(tmp_path, capsys, "euler", payload,
                                    "--ball-radius", "2")
        assert code == 1
        error = json.loads(stdout)["error"]
        assert error["type"] == "IncompleteComplexError"
        assert json.loads((out / "error.json").read_text()) == {
            "error": error}


class TestGhost:
    def test_entry_decay_along_chain(self, tmp_path, capsys):
        payload = dict(TORUS, degree=0, chain=TORUS_CHAIN)
        code, stdout, out = run_cli(tmp_path, capsys, "ghost", payload,
                                    "--ball-radius", "2")
        assert code == 0
        report = json.loads(stdout)
        assert report["ghost_like"] is True
        maxima = [r["max_abs_entry"] for r in report["records"]]
        assert abs(maxima[0] - 0.25) < 1e-9
        assert abs(maxima[1] - 0.0625) < 1e-9
        header, rows = read_csv(out, "ghost")
        assert header == ["position", "quotient_order", "max_abs_entry",
                          "trace"]
        assert len(rows) == 2
        assert [r["backend"] for r in report["records"]] == ["characters"] * 2

    def test_abelian_stage_above_the_dense_budget(self, tmp_path, capsys):
        start = time.perf_counter()
        code, stdout, _ = run_cli(tmp_path, capsys, "ghost",
                                  genus2_abelian_payload([6]),
                                  "--ball-radius", "2")
        elapsed = time.perf_counter() - start
        assert code == 0
        (record,) = json.loads(stdout)["records"]
        assert abs(record["trace"] - 2594) < 1e-6
        assert abs(record["max_abs_entry"] - 2594 / 5184) < 1e-9
        assert record["backend"] == "characters"
        assert elapsed < 10


class TestVerifyCert:
    def test_verified_certificate(self, tmp_path, capsys):
        payload = {
            "presentation": CYCLIC3["presentation"],
            "certificates": [dict(ROTATION_CERT,
                                  soundness={"kind": "regular"})],
        }
        code, stdout, out = run_cli(tmp_path, capsys, "verify-cert", payload)
        assert code == 0
        report = json.loads(stdout)
        assert report["all_verified"] is True
        (entry,) = report["certificates"]
        assert entry["label"] == "rotation-gap"
        assert entry["residual_terms"] == 0
        assert entry["claim"]["kind"] == "spectral-gap"
        assert entry["claim"]["epsilon"] == "6"
        assert entry["soundness"]["holds"] is True
        assert entry["soundness"]["quotient_order"] == 3
        header, rows = read_csv(out, "verify-cert")
        assert header == ["label", "verified", "residual_terms",
                          "claim_kind", "epsilon", "soundness_holds"]
        assert rows == [["rotation-gap", "true", "0", "spectral-gap", "6",
                         "true"]]

    def test_failed_verification_still_exits_zero(self, tmp_path, capsys):
        tampered = dict(ROTATION_CERT, epsilon="5")
        payload = {"presentation": CYCLIC3["presentation"],
                   "certificate": tampered}
        code, stdout, out = run_cli(tmp_path, capsys, "verify-cert", payload)
        assert code == 0
        report = json.loads(stdout)
        assert report["all_verified"] is False
        (entry,) = report["certificates"]
        assert entry["verified"] is False
        assert entry["residual_terms"] == 3
        assert entry["residual"] == [["4 - 2*a^-1 - 2*a"]]
        assert entry["claim"]["epsilon"] is None
        _, rows = read_csv(out, "verify-cert")
        assert rows == [["rotation-gap", "false", "3", "spectral-gap", "",
                         ""]]

    def test_matrix_target_and_default_label(self, tmp_path, capsys):
        payload = {
            "presentation": FREE2["presentation"],
            "certificates": [{
                "target": {"matrix": [["8 - 2*a - 2*a^-1 - 2*b - 2*b^-1"]]},
                "squares": [[["1 - a"]], [["1 - a"]],
                            [["1 - b"]], [["1 - b"]]],
            }],
        }
        code, stdout, _ = run_cli(tmp_path, capsys, "verify-cert", payload)
        assert code == 0
        (entry,) = json.loads(stdout)["certificates"]
        assert entry["label"] == "matrix[1x1]"
        assert entry["verified"] is True
        assert entry["claim"]["kind"] == "psd-only"

    def test_epsilon_and_polynomial_form_conflict(self, tmp_path, capsys):
        bad = dict(ROTATION_CERT, polynomial_form=["1", "-6"])
        payload = {"presentation": CYCLIC3["presentation"],
                   "certificate": bad}
        code, stdout, _ = run_cli(tmp_path, capsys, "verify-cert", payload)
        assert code == 2
        assert "not both" in json.loads(stdout)["error"]["message"]

    @pytest.mark.parametrize("key", ["squares", "witnesses"])
    @pytest.mark.parametrize("value", [None, 3, True])
    def test_certificate_lists_must_be_lists(self, tmp_path, capsys, key,
                                             value):
        payload = {"presentation": CYCLIC3["presentation"],
                   "certificates": [dict(ROTATION_CERT, **{key: value})]}
        code, stdout, out = run_cli(tmp_path, capsys, "verify-cert", payload)
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error["type"] == "MalformedInputError"
        assert error["message"] == f"certificates[0].{key} must be a list"
        assert not out.exists()

    def test_infinite_epsilon_is_malformed(self, tmp_path, capsys):
        payload = {"presentation": CYCLIC3["presentation"],
                   "certificate": dict(ROTATION_CERT, epsilon=float("inf"))}
        text = json.dumps(payload)
        assert '"epsilon": Infinity' in text
        code, stdout, out = run_cli(tmp_path, capsys, "verify-cert", text)
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error["type"] == "MalformedInputError"
        assert "certificates[0].epsilon" in error["message"]
        assert not out.exists()

    def test_a_tiny_float_epsilon_is_not_rounded_to_zero(self, tmp_path,
                                                         capsys):
        # 1e-13 is read as 1/10**13: a gap claim that fails to verify, not
        # an epsilon of 0 and a claim of kind "none"
        code, stdout, _ = run_cli(tmp_path, capsys, "verify-cert",
                                  _cert(epsilon=1e-13))
        assert code == 0
        (entry,) = json.loads(stdout)["certificates"]
        assert entry["verified"] is False
        assert entry["claim"]["kind"] == "spectral-gap"
        assert entry["claim"]["polynomial_form"] == ["1", "-1/10000000000000"]

    def test_certificates_key_is_required(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, capsys, "verify-cert",
                             {"presentation": CYCLIC3["presentation"]})
        assert code == 2

    def test_polynomial_form_and_ideal(self, tmp_path, capsys):
        payload = _cert(epsilon=None, polynomial_form=["1", "-6"],
                        ideal=["a^3"])
        code, stdout, _ = run_cli(tmp_path, capsys, "verify-cert", payload)
        assert code == 0
        (entry,) = json.loads(stdout)["certificates"]
        assert entry["verified"] is True
        assert entry["claim"]["polynomial_form"] == ["1", "-6"]
        assert entry["claim"]["epsilon"] == "6"

    def test_rational_target_on_a_quotient_past_the_dense_budget(
            self, tmp_path, capsys):
        # the random walk operator of Z/128 x Z/128: 16384 wide, held over
        # the quotient's characters although its coefficients are quarters
        payload = {
            "presentation": TORUS["presentation"],
            "certificate": {
                "target": {"matrix": [
                    ["1 - 1/4*a - 1/4*a^-1 - 1/4*b - 1/4*b^-1"]]},
                "soundness": {"kind": "quotient",
                              "relators": ["a^128", "b^128"]},
            },
        }
        code, stdout, _ = run_cli(tmp_path, capsys, "verify-cert", payload)
        assert code == 0
        (entry,) = json.loads(stdout)["certificates"]
        assert entry["soundness"]["quotient_order"] == 16384
        assert entry["soundness"]["holds"] is True


class TestChainIdentity:
    """A complex with d_2 d_1 != 0 is rejected before any number is
    reported, with the documented error JSON."""

    NOT_A_COMPLEX = dict(TORUS, higher_differentials={"2": [["1 - a"]]},
                         degree=2, chain=TORUS_CHAIN)

    @pytest.mark.parametrize("command", ["betti", "project"])
    def test_rejected_with_error_json(self, tmp_path, capsys, command):
        code, stdout, out = run_cli(tmp_path, capsys, command,
                                    self.NOT_A_COMPLEX, "--ball-radius", "2")
        assert code == 1
        error = json.loads(stdout)["error"]
        assert error["type"] == "ChainIdentityError"
        assert error["command"] == command
        assert json.loads((out / "error.json").read_text()) == {"error": error}
        assert not (out / f"{command}.json").exists()
        assert not (out / f"{command}.csv").exists()


# (command, description, text the message must hold); a description of
# None names a directory as the spec path
MALFORMED = [
    ("spectrum", None, "is a directory"),
    ("spectrum", {"degree": 0}, "'presentation'"),
    ("spectrum", {"presentation": {"generators": "ab"}, "degree": 0},
     "presentation.generators"),
    ("spectrum", {"presentation": {"generators": ["a"], "relators": [3]},
                  "degree": 0}, "presentation.relators"),
    ("spectrum", dict(CYCLIC3, degree="0"), "'degree'"),
    # refused before F2 or F2 / <<a^2>>, both infinite, is enumerated
    ("spectrum", dict(FREE2, degree=5), "degree 5 out of range 0..1"),
    ("spectrum", dict(FREE2, degree=5, chain=[["a^2"]]), "out of range 0..1"),
    ("betti", dict(FREE2, degrees=[0, 5], chain=[["a^2"]]),
     "degree 5 out of range"),
    ("betti", dict(CYCLIC3, degrees=[0, -1]), "'degrees'"),
    ("betti", dict(CYCLIC3, degrees=[]), "'degrees'"),
    ("betti", dict(CYCLIC3, degrees=[1, 1, 0]), "repeats a degree"),
    ("spectrum", dict(CYCLIC3, higher_differentials={"2": []}),
     "higher_differentials[2]"),
    ("spectrum",
     dict(CYCLIC3, higher_differentials={"2": [["1", "a"], ["1"]]}),
     "higher_differentials[2] has ragged rows"),
    ("spectrum", dict(CYCLIC3, higher_differentials={"2": [[1]]}),
     "higher_differentials[2] entries"),
    ("spectrum", dict(CYCLIC3, higher_differentials=[["1"]]),
     "higher_differentials"),
    ("spectrum", dict(CYCLIC3, higher_differentials={"two": [["1"]]}),
     "higher_differentials key 'two'"),
    # a key is a degree only as that degree prints: " 2" would replace "2"
    ("spectrum", dict(CYCLIC3, higher_differentials={
        "2": [["1 + a"]], " 2": [["1 - a"]]}),
     "higher_differentials key ' 2'"),
    ("spectrum", dict(CYCLIC3, higher_differentials={"02": [["1 - a"]]}),
     "higher_differentials key '02'"),
    ("spectrum", dict(CYCLIC3, higher_differentials={
        "2": [["1 + a"]], "None": [["1"]]}),
     "higher_differentials key 'None'"),
    ("spectrum", dict(CYCLIC3, aspherical="yes"), "'aspherical'"),
    ("spectrum", dict(CYCLIC3, representation="regular"), "'representation'"),
    ("spectrum", dict(CYCLIC3, zero_tolerance="small"), "'zero_tolerance'"),
    ("betti", dict(CYCLIC3, upper_bounds=[]), "'upper_bounds'"),
    ("betti", dict(CYCLIC3, upper_bounds={"m_max": 0}), "upper_bounds.m_max"),
    ("luck", dict(CYCLIC3, chain=[]), "'chain'"),
    ("luck", dict(CYCLIC3, chain="a^3"), "'chain'"),
    ("luck", dict(TestLuck.PAYLOAD, finite_subgroup_orders=[0]),
     "'finite_subgroup_orders'"),
    ("obstruct", dict(CYCLIC3, chain=[[]], beta_ref={"provenance": "cited"}),
     "'beta_ref'"),
    ("obstruct", dict(CYCLIC3, chain=[[]], beta_ref={
        "value": "0", "provenance": "user-cited", "citation": {"x": [1, 2]}}),
     "beta_ref citation"),
    ("verify-cert", {"presentation": CYCLIC3["presentation"],
                     "certificates": ["rotation-gap"]},
     "certificates[0] must be an object"),
    ("verify-cert", _cert(target={"degree": 0}), "certificates[0].target"),
    ("verify-cert", _cert(target={"matrix": [["1", "a"], ["1"]]}),
     "certificates[0].target.matrix has ragged rows"),
    ("verify-cert", _cert(epsilon=None, polynomial_form=["1"]),
     "certificates[0].polynomial_form"),
    ("verify-cert", _cert(witnesses=["a^3"]), "certificates[0].witnesses[0]"),
    ("verify-cert", _cert(witnesses=[{"left": [["1"]], "relator": "0",
                                      "right": [["1"]]}]),
     "certificates[0].witnesses[0].relator"),
    ("verify-cert", _cert(label=3), "certificates[0].label"),
    ("verify-cert", _cert(soundness="regular"), "certificates[0].soundness"),
    # shape faults found while the complex or a certificate is built
    ("spectrum", dict(TORUS, degree=1,
                      higher_differentials={"2": [["1 - a", "1"]]}),
     "higher_differentials: d_2 must have 1 columns, has 2"),
    ("verify-cert", _cert(target={"matrix": [["1", "a"]]}),
     "certificates[0]: certificate target must be square"),
    ("verify-cert", _cert(squares=[[["1", "a"]]]),
     "certificates[0]: square term must have 1 columns, has 2"),
    ("verify-cert", _cert(witnesses=[{"left": [["1", "1"]], "relator": 0,
                                      "right": [["1"]]}]),
     "certificates[0]: witness factors have incompatible inner dimensions"),
]


@pytest.mark.parametrize("value, expected", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
], ids=["nan", "inf", "minus-inf"])
def test_non_finite_floats_become_strings(value, expected):
    assert _json(value) == expected


@pytest.mark.parametrize("value, expected", [
    (0.1, Fraction(1, 10)), (1 / 3, Fraction(1, 3)), (0.53, Fraction(53, 100)),
    (4.0, Fraction(4)), (-2.5, Fraction(-5, 2)),
    (1e-13, Fraction(1, 10**13)),
    (3.9999999999999, Fraction(39999999999999, 10**13)),
    (1 / 7 + 1e-15, Fraction(repr(1 / 7 + 1e-15))),
    (1e23, 10**23), (-1e23, -10**23),
], ids=["tenth", "third", "0.53", "integer", "negative", "1e-13",
        "just-below-4", "near-a-seventh", "1e23", "minus-1e23"])
def test_a_json_float_in_a_rational_key_is_read_as_written(value, expected):
    # the nearest fraction with denominator at most 10**12 is kept only when
    # it converts back to the same float; otherwise the shortest repr
    assert parse_scalar(value, "x") == expected
    assert float(parse_scalar(value, "x")) == value


class TestErrorHandling:
    @pytest.mark.parametrize("command, payload, key", MALFORMED,
                             ids=[f"{command}-{key}"
                                  for command, _, key in MALFORMED])
    def test_malformed_description(self, tmp_path, capsys, command, payload,
                                   key):
        spec = tmp_path
        if payload is not None:
            spec = tmp_path / "exp.json"
            spec.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code = main([command, str(spec), "--out-dir", str(out),
                     "--ball-radius", "1"])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 2
        assert error["type"] == "MalformedInputError"
        assert key in error["message"], error["message"]
        assert not (out / "error.json").exists()

    def test_missing_file_is_malformed_input(self, tmp_path, capsys):
        code = main(["spectrum", str(tmp_path / "absent.json"),
                     "--out-dir", str(tmp_path / "out")])
        stdout = capsys.readouterr().out
        assert code == 2
        assert json.loads(stdout)["error"]["type"] == "MalformedInputError"

    def test_invalid_json(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text("{not json")
        code = main(["spectrum", str(spec),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().out

    @pytest.mark.parametrize("raw, message", [
        (b'\xff\xfe{"degree": 1}', "not UTF-8 text"),
        (b"[" * 200_000 + b"]" * 200_000, "nests JSON too deeply"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_unreadable_file_is_malformed_input(self, tmp_path, capsys,
                                                raw, message):
        spec = tmp_path / "exp.json"
        spec.write_bytes(raw)
        code = main(["betti", str(spec), "--out-dir", str(tmp_path / "out")])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 2
        assert error["type"] == "MalformedInputError"
        assert message in error["message"]

    def test_payload_must_be_object(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, capsys, "spectrum", [1, 2, 3])
        assert code == 2

    def test_degree_is_required(self, tmp_path, capsys):
        code, stdout, _ = run_cli(tmp_path, capsys, "spectrum",
                                  {"presentation": TORUS["presentation"]})
        assert code == 2
        assert "'degree'" in json.loads(stdout)["error"]["message"]

    def test_a_bad_generator_name_is_reported_as_a_name(self, tmp_path,
                                                         capsys):
        # the names are checked before the relators are parsed with them
        payload = {"presentation": {"generators": ["é"], "relators": ["é^2"]},
                   "degree": 0}
        code, stdout, _ = run_cli(tmp_path, capsys, "spectrum", payload)
        error = json.loads(stdout)["error"]
        assert code == 2
        assert error["type"] == "MalformedPresentation"
        assert "'é'" in error["message"], error["message"]

    def test_unknown_representation_kind(self, tmp_path, capsys):
        payload = dict(CYCLIC3, representation={"kind": "unitary"})
        code, _, _ = run_cli(tmp_path, capsys, "spectrum", payload)
        assert code == 2

    def test_bad_tolerance_in_payload(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, capsys, "spectrum",
                             dict(CYCLIC3, zero_tolerance=2.0))
        assert code == 2

    def test_threads_option_is_rejected(self, tmp_path, capsys):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps(CYCLIC3))
        code = main(["spectrum", str(spec), "--threads", "1",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, tmp_path, capsys):
        assert main(["transmogrify", "x.json"]) == 2
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "coholap" in capsys.readouterr().out

    def test_version_matches_pyproject(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            declared = tomllib.load(handle)["project"]["version"]
        assert declared == coholap.__version__
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"coholap {declared}\n"

    @pytest.mark.parametrize("command", [
        "betti", "euler", "ghost", "luck", "obstruct", "project",
        "spectrum", "verify-cert"])
    def test_negative_ball_radius_is_malformed(self, tmp_path, capsys,
                                               command):
        code, stdout, out = run_cli(tmp_path, capsys, command,
                                    dict(TORUS, chain=TORUS_CHAIN),
                                    "--ball-radius", "-3")
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error == {"type": "MalformedInputError", "command": command,
                         "message": "ball radius must be nonnegative, got -3"}
        assert not out.exists()

    def test_enumeration_overflow_exits_one(self, tmp_path, capsys):
        code, stdout, out = run_cli(tmp_path, capsys, "spectrum",
                                    dict(FREE2, degree=0),
                                    "--max-cosets", "50")
        assert code == 1
        assert json.loads(stdout)["error"]["type"] == \
            "EnumerationOverflowError"
        assert (out / "error.json").exists()
        assert not (out / "spectrum.json").exists()

    @pytest.mark.parametrize("budget", ["0", "-4"])
    def test_nonpositive_max_cosets_is_malformed(self, tmp_path, capsys,
                                                 budget):
        code, stdout, out = run_cli(tmp_path, capsys, "spectrum", CYCLIC3,
                                    "--max-cosets", budget)
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error == {"type": "MalformedInputError", "command": "spectrum",
                         "message": f"max cosets must be positive, got {budget}"}
        assert not out.exists()

    def test_error_json_not_left_behind_on_success(self, tmp_path, capsys):
        _, _, out = run_cli(tmp_path, capsys, "spectrum", CYCLIC3)
        assert not (out / "error.json").exists()


class TestInputFaults:
    """Numbers past Python's limits and keys a subcommand reads beyond the
    shared preamble: a fault is refused with the error JSON before any
    stage is built, and a valid input gives its exact report."""

    # F2 / <<a^2>> is infinite, so building its chain would fail
    INFINITE = dict(FREE2, degree=0, chain=[["a^2"]])
    BETA_REF = {"value": "0", "provenance": "user-cited"}
    # (command, description or raw JSON text, text the message must hold)
    FAULTS = {
        "betti-m_max": ("betti", dict(INFINITE, upper_bounds={"m_max": 0}),
                        "upper_bounds.m_max"),
        "betti-norm_bound": ("betti", dict(INFINITE,
                                           upper_bounds={"norm_bound": "1"}),
                             "below the certified l1 bound"),
        "luck-orders": ("luck", dict(INFINITE, finite_subgroup_orders=[0]),
                        "'finite_subgroup_orders'"),
        "obstruct-citation": ("obstruct", dict(INFINITE, beta_ref=dict(
            BETA_REF, citation={"x": [1, 2]})), "beta_ref citation"),
        "obstruct-certificate": ("obstruct", dict(
            INFINITE, beta_ref=BETA_REF,
            certificate=dict(ROTATION_CERT, witnesses=["a"])),
            "certificates[0].witnesses[0] must be an object"),
        "obstruct-chain-first": ("obstruct", dict(FREE2, degree=0),
                                 "'chain'"),
        # json.dumps itself refuses an integer past the digit limit
        "long-degree": ("spectrum", json.dumps(CYCLIC3).replace(
            '"degree": 0', '"degree": 1' + "0" * 4999), "not valid JSON"),
        "huge-tolerance": ("spectrum", dict(CYCLIC3, zero_tolerance=10**400),
                           "'zero_tolerance'"),
        "boolean-tolerance": ("spectrum", dict(CYCLIC3, zero_tolerance=True),
                              "'zero_tolerance'"),
        "huge-gap-hint": ("betti", dict(CYCLIC3,
                                        upper_bounds={"gap_hint": 10**400}),
                          "upper_bounds.gap_hint must be a number"),
    }

    @pytest.mark.parametrize("case", sorted(FAULTS))
    def test_refused_before_any_stage(self, tmp_path, capsys, monkeypatch,
                                      case):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("a stage was built")

        from coholap import cosets, description, pipeline

        for module in (cosets, description, pipeline):
            monkeypatch.setattr(module, "todd_coxeter", no_enumeration)
        command, payload, message = self.FAULTS[case]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, out = run_cli(tmp_path, capsys, command, payload,
                                        "--max-cosets", "50")
        assert not [w for w in caught
                    if issubclass(w.category, SeparationWarning)]
        assert code == 2
        error = json.loads(stdout)["error"]
        assert error["type"] == "MalformedInputError"
        assert message in error["message"], error["message"]
        assert not out.exists()

    def test_report_values_past_the_digit_limit(self, tmp_path, capsys):
        # u_8 over (10^600)^8 has some 4800 digits; the limit is lifted
        # only while the report is written
        limit = sys.get_int_max_str_digits()
        norm_bound = 10**600
        payload = dict(CYCLIC3, degrees=[0],
                       upper_bounds={"m_max": 8, "norm_bound": str(norm_bound)})
        code, stdout, _ = run_cli(tmp_path, capsys, "betti", payload)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        values = json.loads(stdout)["upper_bounds"]["values"]
        assert max(map(len, values)) > 4300
        expected, _, _ = slow_upper_bounds(cyclic_group_complex(3), 0, 8,
                                           norm_bound=Fraction(norm_bound))
        sys.set_int_max_str_digits(0)
        try:
            assert [Fraction(v) for v in values] == list(expected)
        finally:
            sys.set_int_max_str_digits(limit)

    # 0^2 - 10^400 * 0 = 0 verifies, whatever epsilon
    HUGE_EPSILON = {"target": {"matrix": [["0"]]}, "epsilon": "1e400"}

    def test_huge_epsilon_in_a_soundness_check(self, tmp_path, capsys):
        payload = {"presentation": CYCLIC3["presentation"],
                   "certificates": [dict(self.HUGE_EPSILON,
                                         soundness={"kind": "regular"})]}
        code, stdout, _ = run_cli(tmp_path, capsys, "verify-cert", payload)
        assert code == 0
        (result,) = json.loads(stdout)["certificates"]
        assert result["claim"]["epsilon"] == "1" + "0" * 400
        assert result["claim"]["verified"] is True
        assert result["soundness"]["holds"] is True

    def test_huge_epsilon_certifies_an_infinite_gap(self, tmp_path, capsys):
        payload = dict(CYCLIC3, chain=[[]], beta_ref=self.BETA_REF,
                       certificate=self.HUGE_EPSILON)
        code, stdout, _ = run_cli(tmp_path, capsys, "obstruct", payload,
                                  "--ball-radius", "0")
        assert code == 0
        report = json.loads(stdout)
        assert report["uniform_gap_certified"] is True
        assert report["certified_epsilon"] == "inf"

    def test_failure_with_an_unusable_out_dir(self, tmp_path, capsys):
        # the enumeration fails, and so does writing error.json
        (tmp_path / "out").write_text("taken")
        code, stdout, out = run_cli(tmp_path, capsys, "spectrum",
                                    dict(FREE2, degree=0),
                                    "--max-cosets", "50")
        assert code == 1
        error = json.loads(stdout)["error"]
        assert error["type"] == "EnumerationOverflowError"
        assert out.read_text() == "taken"


class TestFloatRange:
    """Values past the float range: an operator whose ||M||_1 passes it is
    refused with SizeBudgetError, and every other slot either computes
    or is refused, always with the error JSON and never a traceback."""

    HUGE = 10**400
    # Delta_2 is C^2 (2 - a - a^-1) plus a part that does not grow with C
    D2 = {"2": [["C - C*a"]]}

    @staticmethod
    def huge(payload, c):
        """``payload`` with the coefficient C written out as ``c``."""
        return json.loads(re.sub(r"\bC\b", str(c), json.dumps(payload)))

    @pytest.mark.parametrize("command, payload, c", [
        # ||Delta_2||_1 = 4c^2 = 1.96e308 is past it, although each entry
        # is a float: the zero threshold was inf and beta_2 read 3
        ("betti", dict(CYCLIC3, degrees=[2], higher_differentials=D2),
         7 * 10**153),
        # c itself is past the float range
        ("betti", dict(CYCLIC3, degrees=[2], higher_differentials=D2), HUGE),
        ("verify-cert", _cert(target={"matrix": [["2*C - C*a - C*a^-1"]]},
                              epsilon=None, witnesses=None,
                              soundness={"kind": "regular"}), HUGE),
    ], ids=["column-sum", "entries", "certificate-target"])
    def test_an_operator_past_the_range_is_refused(self, tmp_path, capsys,
                                                   command, payload, c):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, out = run_cli(tmp_path, capsys, command,
                                        self.huge(payload, c))
        assert not caught
        assert code == 1
        error = json.loads(stdout)["error"]
        assert error["type"] == "SizeBudgetError"
        assert "float range" in error["message"]
        assert json.loads((out / "error.json").read_text()) == {"error": error}

    def test_a_norm_bound_past_the_range_shrinks_by_one(self, tmp_path,
                                                        capsys):
        payload = dict(CYCLIC3, upper_bounds={
            "m_max": 2, "norm_bound": "1e400", "gap_hint": 1})
        code, stdout, _ = run_cli(tmp_path, capsys, "betti", payload)
        assert code == 0
        bounds = json.loads(stdout)["upper_bounds"]
        assert bounds["norm_bound"] == str(self.HUGE)
        # one cell in degree 0, and (1 - 1/R)^m reads as 1
        assert bounds["lower_bounds"] == [float(Fraction(u)) - 1
                                          for u in bounds["values"]]
        # a gap hint past the float range is not a number, whatever R is
        code, stdout, _ = run_cli(tmp_path, capsys, "betti", json.dumps(
            payload).replace('"gap_hint": 1', '"gap_hint": 1e400'))
        assert code == 2
        assert "upper_bounds.gap_hint must be a number" in stdout

    REF = {"value": "1", "provenance": "user-cited"}
    EPSILON = {"target": {"matrix": [["0"]]}, "epsilon": "1e400"}
    CHAIN = {"chain": [[]], "beta_ref": REF}
    # (command, keys beside the presentation); C is a 401-digit
    # coefficient and "HUGE" a JSON number past the float range
    SWEEP = {
        "spectrum-coefficient": ("spectrum", {}),
        "betti-coefficient": ("betti", {}),
        "project-coefficient": ("project", {}),
        "luck-coefficient": ("luck", CHAIN),
        "ghost-coefficient": ("ghost", CHAIN),
        "euler-coefficient": ("euler", dict(CHAIN, aspherical=True)),
        "obstruct-coefficient": ("obstruct", CHAIN),
        "betti-norm-bound": ("betti", {"degree": 0, "upper_bounds": {
            "m_max": 2, "norm_bound": "1e400", "gap_hint": 1}}),
        "betti-gap-hint": ("betti", {"degree": 0, "upper_bounds": {
            "m_max": 2, "gap_hint": "HUGE"}}),
        "verify-cert-target": ("verify-cert", {"certificates": [{
            "target": {"matrix": [["2*C - C*a - C*a^-1"]]},
            "soundness": {"kind": "regular"}}]}),
        "verify-cert-epsilon": ("verify-cert", {"certificates": [dict(
            EPSILON, soundness={"kind": "regular"})]}),
        "obstruct-epsilon": ("obstruct", dict(CHAIN, degree=0,
                                              certificate=EPSILON)),
        "obstruct-beta-ref": ("obstruct", dict(
            CHAIN, degree=0, beta_ref=dict(REF, value="1e400"))),
    }

    def test_every_subcommand_survives_huge_values(self, tmp_path, capsys):
        start = time.perf_counter()
        tolerance = dict(self.CHAIN, degree=0, certificates=[self.EPSILON],
                         zero_tolerance="HUGE")
        sweep = dict(self.SWEEP, **{
            f"{command}-tolerance": (command, tolerance)
            for command in coholap.cli._COMMANDS})
        for case, (command, keys) in sorted(sweep.items()):
            payload = self.huge(dict(
                {"degree": 2, "higher_differentials": self.D2}, **keys,
                presentation=CYCLIC3["presentation"]), self.HUGE)
            text = json.dumps(payload).replace('"HUGE"', "1e400")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, stdout, _ = run_cli(tmp_path, capsys, command, text,
                                          "--ball-radius", "0",
                                          out_name=case)
            assert not caught, case
            assert code in (0, 1, 2), case
            assert ("error" in json.loads(stdout)) == (code != 0), case
        assert time.perf_counter() - start < 5.0

    def test_a_failed_invariant_gives_error_json(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(coholap.EvaluatedOperator, "is_symmetric_exact",
                            lambda self: False)
        code, stdout, out = run_cli(tmp_path, capsys, "betti", CYCLIC3)
        assert code == 1
        error = json.loads(stdout)["error"]
        assert error["type"] == "InvariantError"
        assert "non-symmetric" in error["message"]
        assert json.loads((out / "error.json").read_text()) == {"error": error}


class TestChainSeparationBlock:
    # one stage leaves a^2 trivial, so the chain fails to separate
    PAYLOAD = dict(TORUS, degree=1, degrees=[0, 1], chain=[["a^2", "b^2"]],
                   beta_ref={"value": "0", "provenance": "user-cited"})

    @pytest.mark.parametrize("command", ["betti", "euler", "ghost", "luck",
                                         "obstruct", "project", "spectrum"])
    def test_every_chain_report_has_the_block(self, tmp_path, capsys,
                                              command):
        with pytest.warns(SeparationWarning):
            code, stdout, _ = run_cli(tmp_path, capsys, command, self.PAYLOAD,
                                      "--ball-radius", "2")
        assert code == 0
        assert json.loads(stdout)["chain_separation"] == {
            "radius": 2, "separated": False, "failure_count": 4}

    def test_no_block_without_a_chain(self, tmp_path, capsys):
        _, stdout, _ = run_cli(tmp_path, capsys, "spectrum", CYCLIC3)
        assert "chain_separation" not in json.loads(stdout)


class TestSeparationWarningSource:
    def test_warning_points_at_the_description(self, tmp_path, capsys):
        payload = dict(CYCLIC3, chain=[["a"]])
        with pytest.warns(SeparationWarning) as record:
            code, _, _ = run_cli(tmp_path, capsys, "spectrum", payload)
        assert code == 0
        assert [w.filename for w in record] == [
            str(tmp_path / "exp-spectrum-out.json")]
        assert str(record[0].message).endswith("first: a^-1")
