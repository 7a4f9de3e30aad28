"""The report records are named tuples: immutable, compared and hashed by
value, and never serialized as the lists a tuple would become."""

import contextlib
import io
from pathlib import Path

import pytest

from coholap import certificates, cli, complexes, cosets, pipeline, spectral

SPECS = Path(__file__).resolve().parents[1] / "demos" / "specs"

RECORDS = (
    pipeline.KazhdanProjections, pipeline.LuckRecord, pipeline.LuckReport,
    pipeline.UpperBoundReport, pipeline.EulerRecord, pipeline.EulerReport,
    pipeline.ObstructionRecord, pipeline.ObstructionReport,
    pipeline.GhostRecord, pipeline.GhostReport,
    certificates.IdealWitness, certificates.GapClaim,
    certificates.SoundnessCheck,
    spectral.GapReport, spectral.ProjectionMatrix,
    cosets.SeparationReport, complexes.CochainComplexSpec,
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_values(record):
    values = tuple(range(len(record._fields)))
    first, second = record(*values), record(*values)
    with pytest.raises(AttributeError):
        setattr(first, record._fields[0], -1)
    with pytest.raises(AttributeError):
        first.extra = -1
    assert first == second and hash(first) == hash(second)
    assert first != record(-1, *values[1:])
    # a named tuple equals the plain tuple of its fields
    assert first == values


def test_no_record_reaches_the_json_writer(monkeypatch, tmp_path):
    to_json = cli._json

    def checked(value):
        assert not isinstance(value, RECORDS), type(value).__name__
        return to_json(value)

    monkeypatch.setattr(cli, "_json", checked)
    runs = [(command, "genus2_chain.json") for command in sorted(cli._COMMANDS)
            if command != "verify-cert"]
    runs += [("betti", "free2_chain.json"),  # with upper bounds
             ("verify-cert", "rotation_certificate.json")]
    for command, spec in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, str(SPECS / spec), "--ball-radius", "2",
                             "--out-dir", str(tmp_path)])
        assert code == 0, command
