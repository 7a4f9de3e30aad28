"""What the package loads at start-up.

``import coholap`` resolves its public names on first access, and the
command line imports each layer where a command calls it, so a run loads
only the modules it uses.  Each check of what is loaded runs in a fresh
interpreter, since this test process has long since imported every
module.
"""

import textwrap
from pathlib import Path

import pytest
from conftest import fresh_interpreter

import coholap

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "specs"

PUBLIC_NAMES = [
    'BetaRef', 'Certificate', 'CertificateReport', 'ChainIdentityError',
    'ChainOrderError', 'CochainComplexSpec', 'CoholapError', 'CosetTable',
    'EnumerationOverflowError', 'EulerReport', 'EvaluatedOperator',
    'GapClaim', 'GapReport', 'GhostReport', 'GroupRingElement',
    'GroupRingMatrix', 'IdealWitness', 'IncompleteComplexError',
    'InvariantError', 'KazhdanProjections', 'LaplacianBundle', 'LuckReport',
    'MalformedInputError', 'MalformedPresentation',
    'NotPositiveSemidefiniteError', 'ObstructionReport', 'Presentation',
    'ProjectionMatrix', 'QuotientChain', 'Representation', 'SeparationReport',
    'SeparationWarning', 'ShapeMismatchError', 'SizeBudgetError',
    'SoundnessCheck', 'TraceBackendError', 'UnknownGeneratorError',
    'UnresolvedGapError', 'UpperBoundReport', 'Word', 'betti_finite_quotient',
    'betti_report', 'box_obstruction_report', 'build_complex',
    'build_laplacian', 'certificate_gap_claim', 'check_claim_soundness',
    'cyclic_group_complex', 'cyclic_presentation', 'euler_class_trace',
    'evaluate', 'format_element', 'format_word', 'fox_derivative',
    'free_group_complex', 'free_presentation', 'generator_word',
    'ghost_diagnostic', 'heat_projection', 'higher_kazhdan_projection',
    'kernel_projection', 'l2_betti_upper_bounds', 'lambda_ring_membership',
    'lanczos_lowest', 'laplacian_operator', 'luck_approximation',
    'parse_element', 'parse_word', 'presentation_differentials',
    'quotient_chain', 'spectral_gap', 'surface_genus2_complex',
    'surface_genus2_presentation', 'todd_coxeter', 'validate_chain_identity',
    'verify_certificate',
]


def _loaded(script: str, *args: str) -> list[str]:
    """The package's modules loaded after ``script`` ran."""
    return fresh_interpreter(textwrap.dedent(script) + textwrap.dedent("""
        import sys
        print(*sorted(name for name in sys.modules
                      if name.split(".")[0] == "coholap"))
    """), *args).split()


def test_import_coholap_loads_no_submodule():
    assert _loaded("import coholap") == ["coholap"]


def test_import_cli_loads_only_the_errors():
    assert _loaded("import coholap.cli") == [
        "coholap", "coholap.cli", "coholap.errors"]


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_numpy(flag):
    loaded = fresh_interpreter(f"""
        import contextlib, io, sys
        from coholap import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([{flag!r}]) == 0
        print(*sorted(sys.modules))
    """).split()
    assert "numpy" not in loaded
    assert "coholap.cosets" not in loaded


def test_betti_never_loads_certificates(tmp_path):
    loaded = _loaded("""
        import contextlib, io, sys
        from coholap import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["betti", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
    """, str(DEMOS / "torus_quotient.json"), str(tmp_path))
    assert "coholap.pipeline" in loaded
    assert "coholap.certificates" not in loaded


def test_public_names_are_pinned():
    assert coholap.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 76


def test_each_name_is_its_defining_modules_object():
    fresh_interpreter("""
        import importlib
        import coholap
        listed = set(dir(coholap))
        for name in coholap.__all__:
            value = getattr(coholap, name)
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name
            assert name in listed, name
    """)


def test_star_import_and_unknown_names():
    fresh_interpreter("""
        import coholap
        namespace = {}
        exec("from coholap import *", namespace)
        assert set(coholap.__all__) <= set(namespace)
        try:
            coholap.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown attribute resolved")
    """)
