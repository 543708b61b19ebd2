"""Start-up: which modules each entry point loads, and the public surface
that the lazy exports of ``plumblat`` and ``plumblat.cli`` keep."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plumblat
from conftest import FIXTURES
from plumblat import cli, homology

SRC = Path(plumblat.__file__).resolve().parent.parent

# The names of plumblat/__init__.py at 1.0.0, by defining module, in order,
# less FormalSum and its three surgery maps (add_vertex_map, bump_framing_map,
# bump_framing_section), which moved to tests/oracle_moves.py.
PUBLIC = {
    "charlattice": ["CharVector", "LatticeVector", "SpinCOrbit", "chi", "is_characteristic"],
    "classify": ["ARVerdict", "ClassificationReport", "RationalityVerdict", "full_report",
                 "is_almost_rational", "is_rational"],
    "dsl": ["parse_dsl", "parse_json_plumbing", "parse_plumbing", "serialize_dsl"],
    "homology": ["ClassRef", "DerivedDimensions", "HomologyResult", "SignedClass", "ZERO",
                 "class_of", "compute_homology", "derived_dimensions"],
    "hplus": ["CrossCheckReport", "GradedHPlus", "HPlusLevel", "compute_hplus",
              "ker_u_cross_check"],
    "moves": ["BlowdownResult", "ConventionConversion", "ExactnessReport", "SurgeryTriple",
              "blow_down", "check_exactness", "convert_convention", "surgery_triple"],
    "plumbing": ["CanonicalClass", "Definiteness", "EdgeSign", "IntersectionForm",
                 "PlumbingForest", "SemidefiniteVerdict", "bad_vertices", "canonical_class",
                 "intersection_form", "semidefinite_classify", "validate_forest"],
    "seifert": ["SeifertConversion", "SeifertData", "cont_frac_expand", "parse_sfs",
                "seifert_to_plumbing"],
}

# The names plumblat/cli.py imported at 1.0.0, by the module it took them from.
CLI_NAMES = {
    "charlattice": ["DEFAULT_BOX_CAP"],
    "classify": ["DEFAULT_NMAX", "certify_almost_rational", "full_report", "is_rational"],
    "dsl": ["parse_int", "parse_plumbing", "serialize_dsl"],
    "errors": ["EXIT_INVALID_INPUT", "EXIT_USAGE", "DslSyntaxError", "PlumblatError"],
    "homology": ["DerivedDimensions", "compute_homology", "derived_dimensions"],
    "hplus": ["DEFAULT_POINT_CAP", "ker_u_cross_check"],
    "moves": ["blow_down", "check_exactness", "surgery_triple"],
    "plumbing": ["PlumbingForest", "bad_vertices", "canonical_class", "intersection_form",
                 "semidefinite_classify"],
    "seifert": ["parse_sfs", "seifert_to_plumbing"],
}

# Prints the plumblat modules that `import plumblat.cli` loads, then those
# that main(argv) adds to them, and main's exit code.
_PROBE = """
import contextlib, io, sys
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "plumblat")
import plumblat.cli
base = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = plumblat.cli.main(sys.argv[1:])
print(" ".join(base))
print(" ".join(sorted(set(loaded()) - set(base))))
print(code)
"""


def _fresh(code: str, *argv: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter on this ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    return out.splitlines()


def _added(*argv: str) -> set[str]:
    """The plumblat modules ``main(argv)`` loads past the CLI's own, in a
    fresh process; checks that the CLI itself loads only its three."""
    base, added, code = _fresh(_PROBE, *argv)
    assert base.split() == ["plumblat", "plumblat.cli", "plumblat.errors"]
    assert code == "0"
    return {name.removeprefix("plumblat.") for name in added.split()}


def test_import_plumblat_loads_only_the_package():
    probe = "import sys, plumblat; print(*sorted(m for m in sys.modules if 'plumblat' in m))"
    assert _fresh(probe) == ["plumblat"]


def test_version_and_info_load_only_what_they_run():
    assert _added("--version") == set()
    assert _added("info", str(FIXTURES / "e8.plumb")) == {"dsl", "plumbing"}


@pytest.mark.parametrize(
    "argv, runs, never",
    [
        (["homology", "e8.plumb"], "homology", {"hplus", "moves", "seifert"}),
        (["classify", "e8.plumb"], "classify", {"hplus", "moves", "seifert"}),
        (["hplus", "e8.plumb"], "hplus", {"moves", "classify", "seifert"}),
        (["triad", "lens_2.plumb", "--vertex", "v"], "moves", {"hplus", "classify", "seifert"}),
        (["blowdown", "lens_1.plumb", "--vertex", "v"], "moves", {"hplus", "classify", "seifert"}),
    ],
)
def test_engine_commands_load_no_other_engine(argv, runs, never):
    added = _added(argv[0], str(FIXTURES / argv[1]), *argv[2:])
    assert runs in added
    assert not added & never


def test_public_names_resolve_to_their_defining_module():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"plumblat.{module}")
        for name in names:
            assert getattr(plumblat, name) is getattr(home, name), name
    assert plumblat.__all__ == [name for names in PUBLIC.values() for name in names]
    namespace: dict = {}
    exec("from plumblat import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(plumblat.__all__)
    assert set(plumblat.__all__) <= set(dir(plumblat))
    with pytest.raises(AttributeError, match="no_such_name"):
        plumblat.no_such_name  # noqa: B018


def test_submodules_resolve_without_an_import():
    probe = ("import plumblat; print(plumblat.dsl.parse_plumbing('vertex v -2').framings,"
             " plumblat.intlinalg.__name__, plumblat.cli.SCHEMA_VERSION)")
    assert _fresh(probe) == ["(-2,) plumblat.intlinalg 1"]


def test_cli_keeps_its_names_and_both_read_them_afresh(monkeypatch):
    for module, names in CLI_NAMES.items():
        home = importlib.import_module(f"plumblat.{module}")
        for name in names:
            assert getattr(cli, name) is getattr(home, name), name
    assert cli.__version__ == plumblat.__version__
    sentinel = object()
    monkeypatch.setattr(homology, "compute_homology", sentinel)
    assert cli.compute_homology is plumblat.compute_homology is sentinel
    monkeypatch.undo()
    assert cli.compute_homology is plumblat.compute_homology is homology.compute_homology
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018
