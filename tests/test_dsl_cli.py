"""DSL parsing, serialization round trips, CLI behavior and golden output."""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, random_forest
from plumblat import (
    EdgeSign,
    bad_vertices,
    parse_dsl,
    parse_plumbing,
    parse_sfs,
    seifert_to_plumbing,
    serialize_dsl,
)
from plumblat import cli
from plumblat.cli import main
from plumblat.errors import (
    CycleDetected,
    DanglingEdge,
    DslSyntaxError,
    DuplicateEdge,
    DuplicateVertexId,
    InternalInvariantViolation,
    SelfLoop,
)
from plumblat.plumbing import MAX_VERTICES

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_parse_single_vertex():
    forest = parse_dsl("vertex a -3\n")
    assert forest.ids == ("a",)
    assert forest.framings == (-3,)
    assert forest.edge_sign is EdgeSign.MINUS_ONE


def test_parse_e8_fixture():
    forest = parse_dsl((FIXTURES / "e8.plumb").read_text())
    assert len(forest) == 8
    assert len(forest.edges) == 7


def test_parse_errors_carry_lines():
    with pytest.raises(DanglingEdge) as err:
        parse_dsl("edge a b\n")
    assert "line 1" in str(err.value)
    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("vertex a -2\nvertex b\n")
    assert err.value.line == 2
    with pytest.raises(DslSyntaxError):
        parse_dsl("vertex a 2.5\n")
    with pytest.raises(DslSyntaxError):
        parse_dsl("frobnicate\n")
    with pytest.raises(DuplicateVertexId) as err:
        parse_dsl("vertex a -2\nvertex a -3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(DuplicateEdge):
        parse_dsl("vertex a -2\nvertex b -2\nedge a b\nedge b a\n")
    with pytest.raises(CycleDetected) as err:
        parse_dsl(
            "vertex a -1\nvertex b -1\nvertex c -1\n"
            "edge a b\nedge b c\nedge c a\n"
        )
    assert "line 6" in str(err.value)


def test_comments_and_convention():
    forest = parse_dsl(
        "# a two-vertex chain\nconvention plus_one\n"
        "vertex a -2  # first\nvertex b -2\nedge a b\n"
    )
    assert forest.edge_sign is EdgeSign.PLUS_ONE
    assert len(forest.edges) == 1


def test_round_trip(rng):
    for _ in range(20):
        forest = random_forest(rng, require_negdef=False)
        again = parse_dsl(serialize_dsl(forest))
        assert again == forest
    for name in ("e8", "elliptic_a", "elliptic_b", "lens_5"):
        forest = parse_dsl((FIXTURES / f"{name}.plumb").read_text())
        assert parse_dsl(serialize_dsl(forest)) == forest


def test_json_document_input(tmp_path, capsys):
    from plumblat import parse_plumbing

    doc = {
        "vertices": [{"id": "a", "framing": -2}, {"id": "b", "framing": -3}],
        "edges": [["a", "b"]],
        "convention": "minus_one",
    }
    forest = parse_plumbing(json.dumps(doc))
    assert forest.framings == (-2, -3)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "homology", str(path))
    assert code == 0
    assert "total_dim: 5" in out  # chain (-2,-3) has determinant 5, rational
    with pytest.raises(DslSyntaxError):
        parse_plumbing('{"vertices": "nope"}')


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_homology_human(capsys):
    code, out = run_cli(capsys, "homology", str(FIXTURES / "e8.plumb"))
    assert code == 0
    assert "total_dim: 1" in out


def test_cli_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.plumb"
    bad.write_text("vertex a -2\nedge a b\n")
    code, _ = run_cli(capsys, "info", str(bad))
    assert code == 2

    code, _ = run_cli(capsys, "homology", str(FIXTURES / "e8.plumb"), "--box-cap", "5")
    assert code == 3

    code = main(["homology"])  # missing file argument
    assert code == 1
    code = main(["not-a-command"])
    assert code == 1


def test_cli_builds_its_parser_once(capsys):
    """Importing the CLI builds no parser; main builds one on its first call
    and reuses it across usage errors, --version and successful runs."""
    probe = "import plumblat.cli as c; print(c.build_parser.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out == "0\n"
    cli.build_parser.cache_clear()
    argvs = [
        ["not-a-command"],
        ["info", str(FIXTURES / "e8.plumb")],
        ["homology"],
        ["--version"],
        ["info", "--json", str(FIXTURES / "lens_3.plumb")],
    ]
    assert [main(argv) for argv in argvs] == [1, 0, 1, 0, 0]
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "e8.plumb", "--box-cap", "-5"],
        ["hplus", "lens_3.plumb", "--point-cap", "-1"],
        ["classify", "e8.plumb", "--nmax", "-3"],
    ],
)
def test_cli_rejects_negative_budgets(capsys, argv):
    flag, value = argv[-2:]
    code = main([str(FIXTURES / a) if a.endswith(".plumb") else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{flag} must not be negative, got {value}" in captured.err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--box-cap", "1_0"),
        ("--box-cap", "\u0663"),
        ("--point-cap", "2_000"),
        ("--point-cap", "\uff11"),
        ("--nmax", " 2"),
        ("--nmax", "2.0"),
    ],
)
def test_cli_budget_flags_are_ascii_integers(capsys, flag, value):
    """int() would read 1_0 as 10, an Arabic-Indic 3 as 3 and " 2" as 2; a
    budget flag takes only [+-]?[0-9]+, like the DSL."""
    code = main(["classify", str(FIXTURES / "lens_3.plumb"), flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": [{"id": "a", "framing": -2.7}]},
        {"vertices": [{"id": "a", "framing": True}]},
        {"vertices": [{"id": ["a"], "framing": -2}]},
        {"vertices": [{"id": 7, "framing": -2}]},
        {"vertices": [{"id": "a", "framing": -2}, {"id": "b", "framing": -2}],
         "edges": [["a", ["b"]]]},
    ],
)
def test_cli_rejects_mistyped_json(capsys, tmp_path, doc):
    """JSON framings must be integers and ids strings: nothing is coerced."""
    text = json.dumps(doc)
    with pytest.raises(DslSyntaxError):
        parse_plumbing(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("plumblat: error: line 1: ")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": [{"id": "a", "framing": -2.7}]}, "framing -2.7 is not an integer"),
        ({"vertices": [{"id": "a", "framing": True}]}, "framing true is not an integer"),
        ({"vertices": [{"id": "a", "framing": "-2"}]}, 'framing "-2" is not an integer'),
        ({"vertices": [{"id": "a", "framing": None}]}, "framing null is not an integer"),
        ({"vertices": [{"id": ["a"], "framing": -2}]}, 'vertex id ["a"] is not a string'),
        ({"vertices": [{"id": 7, "framing": -2}]}, "vertex id 7 is not a string"),
        ({"vertices": [{"id": "a", "framing": -2}], "edges": [["a", 3]]},
         'edge ["a", 3] must name vertex ids'),
        ({"vertices": [{"id": "a", "framing": -2}, {"id": "b", "framing": -2}],
          "edges": [["a", ["b"]]]},
         'edge ["a", ["b"]] must name vertex ids'),
        ({"vertices": [], "convention": 5}, "unknown convention 5"),
        ({"vertices": [], "convention": "zero"}, 'unknown convention "zero"'),
        ({"vertices": [], "convention": True}, "unknown convention true"),
        ({"vertices": [], "convention": {"a": None}}, 'unknown convention {"a": null}'),
    ],
)
def test_cli_json_type_errors_print_json_values(tmp_path, doc, message):
    """The JSON reader's own type checks quote the values as JSON."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert _cli("info", str(path)) == (2, "", f"plumblat: error: line 1: {message}\n")


_TWO = [{"id": "a", "framing": -2}, {"id": "b", "framing": -2}]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": _TWO, "edges": ["ab"]}, 'edge "ab" must be an array of two vertex ids'),
        ({"vertices": _TWO, "edges": {"ab": 1}}, 'edges {"ab": 1} must be a JSON array'),
        ({"vertices": _TWO, "edges": [["a", "b", "a"]]},
         'edge ["a", "b", "a"] must be an array of two vertex ids'),
        ({"vertices": _TWO, "edges": [{"a": 1, "b": 2}]},
         'edge {"a": 1, "b": 2} must be an array of two vertex ids'),
        ({"vertices": {}}, "vertices {} must be a JSON array"),
        ({"vertices": ["a"]}, 'vertex "a" must be a JSON object'),
    ],
)
def test_cli_json_shapes_are_arrays_of_objects_and_pairs(tmp_path, doc, message):
    """``vertices`` and ``edges`` are arrays, each vertex an object and
    each edge an array of two ids: unpacking alone read the string "ab" and
    the keys of an object as edges a-b, and ``{}`` as no vertices."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DslSyntaxError):
        parse_plumbing(json.dumps(doc))
    assert _cli("info", str(path)) == (2, "", f"plumblat: error: line 1: {message}\n")


# blank, comment and convention lines keep each entry's line apart from its
# position among the vertices or the edges, and most failing entries have
# entries of their kind after them
_STRUCTURAL_ERRORS = [
    ("vertex a -2\nvertex a -3\n", DuplicateVertexId,
     "line 2: vertex id 'a' appears twice"),
    ("# chain\nvertex a -2\n\nvertex b -2\nvertex c -2\nvertex b -1\nvertex b -3\n",
     DuplicateVertexId, "line 6: vertex id 'b' appears twice"),
    ("vertex a -2\nvertex b -2\nedge a b\nedge b b\nedge a a\n", SelfLoop,
     "line 4: edge ('b', 'b') is a self-loop"),
    ("vertex a -2\nedge a b\n", DanglingEdge,
     "line 2: edge ('a', 'b') references a missing vertex"),
    ("vertex a -2\nvertex b -2\nedge a b\n# both ends\nedge c d\nedge a e\n", DanglingEdge,
     "line 5: edge ('c', 'd') references a missing vertex"),
    ("edge a b\n", DanglingEdge, "line 1: edge ('a', 'b') references a missing vertex"),
    ("convention plus_one\nvertex a -2\nvertex b -2\nedge a b\n\nedge b a\nedge a b\n",
     DuplicateEdge, "line 6: edge ('b', 'a') appears twice"),
    ("vertex a -1\nvertex b -1\nvertex c -1\nedge a b\nedge b c\nedge c a\n", CycleDetected,
     "line 6: edge ('c', 'a') closes a cycle"),
    ("vertex a -1\nvertex b -1\nedge a b\nedge b a\nvertex c -1\nedge b c\n", DuplicateEdge,
     "line 4: edge ('b', 'a') appears twice"),
    # the edge error on line 4 comes first in the file; vertices are checked first
    ("vertex a -2\nvertex b -2\nedge a b\nedge a b\nvertex a -3\n", DuplicateVertexId,
     "line 5: vertex id 'a' appears twice"),
]


@pytest.mark.parametrize("text, error, message", _STRUCTURAL_ERRORS)
def test_dsl_structural_errors_carry_the_line_of_the_entry(tmp_path, text, error, message):
    with pytest.raises(error) as err:
        parse_dsl(text)
    assert str(err.value) == message
    path = tmp_path / "bad.plumb"
    path.write_text(text)
    assert _cli("info", str(path)) == (2, "", f"plumblat: error: {message}\n")


def test_dsl_edges_may_precede_their_vertices(tmp_path):
    vertices = "vertex a -2\nvertex b -3\nvertex c -2\n"
    edges = "edge a b\nedge c b\n"
    ordered = "convention plus_one\n" + vertices + edges
    edges_first = edges + "convention plus_one\n" + vertices
    forest = parse_dsl(edges_first)
    assert forest == parse_dsl(ordered)
    assert forest.edges == ((0, 1), (1, 2))
    outputs = []
    for name, text in (("ordered", ordered), ("edges_first", edges_first)):
        path = tmp_path / f"{name}.plumb"
        path.write_text(text)
        outputs.append(_cli("info", str(path), "--json")[:2])
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_cli_file_read_errors_exit_2(tmp_path):
    missing = tmp_path / "missing.plumb"
    assert _cli("info", str(missing)) == (
        2, "", f"plumblat: error: [Errno 2] No such file or directory: '{missing}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "plumblat.cli", "info", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("plumblat: error: [Errno ")
    assert "Traceback" not in proc.stderr


def test_cli_rejects_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "bad.plumb"
    path.write_bytes(b"vertex a -2\n\xff\xfe\n")
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "plumblat: error: line 2: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": [], "convention": []}',
        '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"vertices": [{"id": "a", "framing": -' + "9" * 5000 + "}]}",
    ],
    ids=["unhashable-convention", "deep-nesting", "long-integer"],
)
def test_cli_rejects_json_it_cannot_read(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("plumblat: error: line 1: ")


@pytest.mark.parametrize("framing", ["-2_0", "-\u0663", "\uff0d2", "-2.0", "--2", "2-"])
def test_dsl_framings_are_ascii_integers(capsys, tmp_path, framing):
    """int() would read -2_0 as -20 and an Arabic-Indic -3 as -3; the DSL
    takes only [+-]?[0-9]+."""
    with pytest.raises(DslSyntaxError) as err:
        parse_dsl(f"vertex a -2\nvertex b {framing}\n")
    assert err.value.line == 2
    path = tmp_path / "bad.plumb"
    path.write_text(f"vertex a {framing}\n", encoding="utf-8")
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"plumblat: error: line 1: framing {framing!r} is not an integer\n"
    )


def test_dsl_framings_keep_their_signs():
    assert parse_dsl("vertex a +3\nvertex b -0\nvertex c -007\n").framings == (3, 0, -7)


def test_forest_past_the_vertex_limit_is_a_budget_error(capsys, tmp_path):
    chain = [f"vertex v{i} -2" for i in range(MAX_VERTICES + 1)]
    path = tmp_path / "long.plumb"
    path.write_text("\n".join(chain) + "\n")
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        f"plumblat: error: a forest holds at most {MAX_VERTICES} vertices\n"
    )
    path.write_text("\n".join(chain[:-1]) + "\n")
    assert main(["info", str(path)]) == 0


_JSON_KEYS = st.sampled_from(["vertices", "edges", "convention", "id", "framing"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_KEYS | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_JSON_PLUMBING = st.fixed_dictionaries(
    {"vertices": st.lists(st.fixed_dictionaries({"id": _JSON, "framing": _JSON}), max_size=3)
     | _JSON},
    optional={"edges": st.lists(st.lists(_JSON, max_size=3), max_size=3) | _JSON,
              "convention": st.sampled_from(["minus_one", "plus_one"]) | _JSON},
)
_DSL_TOKENS = st.sampled_from(
    ["vertex", "edge", "convention", "minus_one", "plus_one", "a", "b", "c",
     "-1", "-2", "-3", "-7", "0", "1", "#", "\n", "\n", "\t", "\x00", "{"]
)
PLUMBING_FILES = {
    "bytes": st.binary(max_size=300),
    "text": st.text(max_size=200).map(str.encode),
    "dsl-tokens": st.lists(_DSL_TOKENS, max_size=40).map(lambda ws: " ".join(ws).encode()),
    "json": (_JSON_PLUMBING | _JSON).map(lambda doc: json.dumps(doc).encode()),
}


@pytest.mark.parametrize("family", sorted(PLUMBING_FILES))
@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(["info", "homology", "hplus", "classify"]),
)
def test_cli_fuzz_plumbing_files(tmp_path_factory, family, data, command):
    """Any bytes as a plumbing file end in exit code 0-3, never a traceback."""
    path = tmp_path_factory.getbasetemp() / f"fuzz-{family}.plumb"
    path.write_bytes(data.draw(PLUMBING_FILES[family], label="file"))
    code, _, err = _cli(
        command, str(path), "--box-cap", "2000", "--point-cap", "2000", "--nmax", "3"
    )
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err


# token soup with malformed pieces, well-formed data that reaches the
# engines, and raw text
_SFS_ODD = st.sampled_from(["", "+1", "-0", "007", "1_0", "\u0663", "99999999999999999999"])
_SFS_E0 = st.integers(-4, 1).map(str)
_SFS_ALPHA = st.integers(1, 12).map(str)
_SFS_BETA = st.integers(-12, 12).map(str)
_SFS_LEGS = st.tuples(
    _SFS_ALPHA | _SFS_ALPHA | _SFS_ODD,
    st.sampled_from(["/"] * 6 + ["", "//"]),
    _SFS_BETA | _SFS_BETA | _SFS_ODD,
).map("".join)
SFS_TEXTS = {
    "tokens": st.tuples(
        _SFS_E0 | _SFS_E0 | _SFS_ODD,
        st.sampled_from(["; "] * 5 + [";", "", ";; ", ", "]),
        st.lists(_SFS_LEGS, max_size=5),
    ).map(lambda parts: parts[0] + parts[1] + " ".join(parts[2])),
    "seifert": st.tuples(_SFS_E0, st.lists(st.tuples(_SFS_ALPHA, _SFS_BETA), max_size=5)).map(
        lambda parts: parts[0] + "; " + " ".join(f"{a}/{b}" for a, b in parts[1])
    ),
    "text": st.text(max_size=40),
}


@pytest.mark.parametrize("family", sorted(SFS_TEXTS))
@settings(max_examples=200, deadline=None)
@given(data=st.data(), action=st.sampled_from(["info", "homology", "hplus", "classify"]))
def test_cli_fuzz_sfs_text(family, data, action):
    """Any --sfs text ends in exit code 0-3, never a traceback."""
    text = data.draw(SFS_TEXTS[family], label="sfs")
    code, _, err = _cli(
        "sfs", f"--sfs={text}", action, "--box-cap", "2000", "--point-cap", "2000", "--nmax", "3"
    )
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err


# argv from the CLI grammar: a command (or an unknown one, or none), an
# input, the flags with good and bad values, the units in any order or with
# the command kept in front, where argparse looks for it
_ARGV_COMMANDS = [
    *([name] for name in cli._ACTIONS),
    *(["sfs", action] for action in ("info", "homology", "hplus", "classify")),
    ["frobnicate"],
    [],
]
_ARGV_INPUTS = [
    *(FIXTURES / f"{name}.plumb" for name in ("e8", "elliptic_a", "lens_1", "lens_4")),
    FIXTURES / "missing.plumb",
    FIXTURES,
]
_ARGV_BUDGETS = ["0", "1", "5", "10000", "-1", "x", "1e3", "\u0663", "007", "+5", "9" * 20]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_cli_fuzz_argv_grammar(data):
    """Any argv from the grammar ends in exit 0-3 with no exception; a
    nonzero exit says why on stderr, and --json output that exits 0 parses."""
    command = data.draw(st.sampled_from(_ARGV_COMMANDS), label="command")
    path = data.draw(st.sampled_from(_ARGV_INPUTS), label="input")
    ids = list(parse_dsl(path.read_text()).ids) if path.is_file() else []
    head = [[command[0]]] if command and data.draw(st.booleans(), label="in front") else []
    units = [[word] for word in command[len(head):]]
    units.append(["--sfs", "-2; 2/1 3/1 5/4"] if command[:1] == ["sfs"] else [str(path)])
    if data.draw(st.booleans(), label="vertex"):
        units.append(["--vertex", data.draw(st.sampled_from([*ids, "nowhere"]), label="id")])
    if data.draw(st.booleans(), label="json"):
        units.append(["--json"])
    for flag in ("--box-cap", "--point-cap", "--nmax"):
        if data.draw(st.booleans(), label=flag):
            units.append([flag, data.draw(st.sampled_from(_ARGV_BUDGETS), label="value")])
    order = head + data.draw(st.permutations(units), label="order")
    argv = [token for unit in order for token in unit]
    code, out, err = _cli(*argv)
    assert code in {0, 1, 2, 3}
    assert code == 0 or err
    if code == 0 and "--json" in argv:
        json.loads(out)


def test_cli_classify_needs_a_box_only_off_rational_forests():
    """``--box-cap 0`` refuses every box.  ``classify`` on a rational forest
    builds none and prints the bytes of a default run; on elliptic_a, which
    the walk fails, it exits 3 on the box."""
    code, out, _ = _cli("classify", "--json", "--box-cap", "0", str(FIXTURES / "e8.plumb"))
    assert code == 0 and out == (GOLDEN / "e8_classify.json").read_text()
    lens7 = str(FIXTURES / "lens_7.plumb")
    capped = _cli("classify", "--json", "--box-cap", "0", lens7)
    assert capped[0] == 0 and capped == _cli("classify", "--json", lens7)
    elliptic_a = str(FIXTURES / "elliptic_a.plumb")
    code, out, err = _cli("classify", "--json", "--box-cap", "0", elliptic_a)
    assert (code, out) == (3, "") and "box holds 972 vectors, cap is 0" in err


def test_cli_classify_answers_past_the_box_on_rational_stars():
    """The rung p = 998 of -2; 2/1 3/1 p/(p-1) has 1,000 vertices, the most
    a forest may have, and a box of about 10^477 vectors."""
    code, out, _ = _cli("sfs", "--sfs", "-2; 2/1 3/1 998/997", "classify", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["seifert"]["h1_order"] == report["dim_h"] == report["dim_isharp"] == 1004
    assert report["rational"] and report["is_instanton_lspace"]


def test_cli_internal_violation_maps_to_4(capsys, monkeypatch):
    import plumblat.homology

    def explode(*args, **kwargs):
        raise InternalInvariantViolation("synthetic")

    # the homology action reads compute_homology from its defining module
    monkeypatch.setattr(plumblat.homology, "compute_homology", explode)
    code, _ = run_cli(capsys, "homology", str(FIXTURES / "e8.plumb"))
    assert code == 4


def test_cli_blowdown_and_triad(capsys, tmp_path):
    chain = tmp_path / "chain.plumb"
    chain.write_text("vertex v -2\nvertex x -1\nedge v x\n")
    code, out = run_cli(capsys, "blowdown", str(chain), "--vertex", "x", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_before"] == payload["dim_after"] == 1

    code, out = run_cli(capsys, "triad", str(FIXTURES / "lens_4.plumb"), "--vertex", "v", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["dims"] == [1, 4, 3]


@pytest.mark.parametrize("command", ["triad", "blowdown"])
def test_cli_unknown_vertex_exits_2(capsys, command):
    code = main([command, str(FIXTURES / "lens_4.plumb"), "--vertex", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "plumblat: error: unknown vertex id 'nosuch'\n"


def test_cli_sfs(capsys):
    sfs = (FIXTURES / "m038_n1.sfs").read_text().strip()
    code, out = run_cli(capsys, "sfs", "--sfs", sfs, "homology", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["derived"]["dim_isharp"] == 7
    assert payload["seifert"]["h1_order"] == 5


# Two disjoint Sigma(2,3,7) stars: the decrement search ends in "unknown".
SIGMA_237_TWICE = "".join(
    f"vertex {s}c -1\nvertex {s}a -2\nvertex {s}b -3\nvertex {s}d -7\n"
    f"edge {s}c {s}a\nedge {s}c {s}b\nedge {s}c {s}d\n"
    for s in "xy"
)


def test_homology_certifies_almost_rationality_as_classify_does(tmp_path):
    """``homology`` stamps its output certified exactly when ``classify``
    finds the Floer equivalence theorem applicable, at the default --nmax
    and at --nmax 0, where only forests with at most one bad vertex pass."""
    texts = {f.name: f.read_text() for f in sorted(FIXTURES.glob("*.plumb"))}
    for f in sorted(FIXTURES.glob("*.sfs")):
        texts[f.name] = serialize_dsl(seifert_to_plumbing(parse_sfs(f.read_text())).forest)
    texts["sigma237x2"] = SIGMA_237_TWICE
    rng = random.Random(20261018)
    while len(texts) < 45:
        forest = random_forest(rng, max_vertices=7, lo=-3, hi=-1, edge_probability=0.6)
        if len(bad_vertices(forest)) >= 2:
            texts[f"random{len(texts)}"] = serialize_dsl(forest)
    verdicts = []
    for name, text in texts.items():
        path = tmp_path / "input.plumb"
        path.write_text(text)
        for nmax in ("64", "0"):
            code, out, _ = _cli("homology", str(path), "--json", "--nmax", nmax)
            assert code == 0, name
            certified = json.loads(out)["certified_almost_rational"]
            code, out, _ = _cli("classify", str(path), "--json", "--nmax", nmax)
            assert code == 0, name
            floer = json.loads(out)["theorems_applicable"]["floer_equivalence"]
            assert certified == floer, (name, nmax)
            verdicts.append(certified)
    assert True in verdicts and False in verdicts


def _random_seifert_texts(rng: random.Random, count: int) -> list[str]:
    texts = []
    while len(texts) < count:
        legs = []
        for _ in range(rng.randint(2, 3)):
            alpha = rng.randint(2, 5)
            beta = rng.choice([b for b in range(1, alpha) if gcd(alpha, b) == 1])
            legs.append(f"{alpha}/{beta}")
        texts.append(f"{rng.randint(-3, -1)}; " + " ".join(legs))
    return texts


# The key sets ``sfs`` prints for each action, read off the plain action's JSON.
SFS_KEYS = {
    "homology": lambda body: body,
    "hplus": lambda body: {
        "cross_check_ok": body["cross_check_ok"],
        "per_orbit": [
            {"orbit": r["orbit"], "homology_dim": r["homology_dim"], "ker_u_rank": r["ker_u_rank"]}
            for r in body["per_orbit"]
        ],
    },
    "classify": lambda body: {
        "negdef": body["negdef"],
        "bad_vertex_count": body["bad_vertex_count"],
        "rational": body.get("rational"),
        "dim_h": body.get("dim_h"),
        "dim_isharp": body["derived"]["dim_isharp"] if "derived" in body else None,
        "is_instanton_lspace": (
            body["derived"]["is_instanton_lspace"] if "derived" in body else None
        ),
    },
}


def test_sfs_actions_print_the_plain_actions_output(tmp_path):
    """``sfs ... <action>`` prints the Seifert header and then exactly what
    the plain action prints on the converted star; its JSON is the plain
    action's JSON cut to the ``sfs`` key set, plus "seifert"."""
    texts = [f.read_text().strip() for f in sorted(FIXTURES.glob("*.sfs"))]
    texts += _random_seifert_texts(random.Random(11), 12)
    path = tmp_path / "star.plumb"
    for text in texts:
        conversion = seifert_to_plumbing(parse_sfs(text))
        path.write_text(serialize_dsl(conversion.forest))
        header = [
            f"star plumbing with {len(conversion.forest)} vertices"
            + (" (orientation reversed)" if conversion.reversed_orientation else ""),
            f"euler number {conversion.euler}, |H1| = {conversion.h1_order}",
        ]
        for action in SFS_KEYS:
            code, out, err = _cli("sfs", f"--sfs={text}", action)
            assert (code, err) == _cli(action, str(path))[::2], (text, action)
            assert out.splitlines() == header + _cli(action, str(path))[1].splitlines()

            code, out, _ = _cli("sfs", f"--sfs={text}", action, "--json")
            plain_code, plain_out, _ = _cli(action, str(path), "--json")
            assert code == plain_code == 0, (text, action)
            routed, plain = json.loads(out), json.loads(plain_out)
            assert routed.pop("command") == "sfs" and plain.pop("command") == action
            assert routed.pop("schema_version") == plain.pop("schema_version") == 1
            star = {key: plain.pop(key) for key in ("vertices", "edges", "convention")}
            assert routed.pop("seifert")["plumbing"] == star
            assert routed == SFS_KEYS[action](plain), (text, action)


@pytest.mark.parametrize("text", ["-1;2/1", "-3;", "-2; 2/1 3/1 5/4"])
def test_cli_sfs_value_may_start_with_minus(capsys, text):
    """Seifert text with a negative e0 reads the same after a space as
    after '=', with or without spaces inside it."""
    joined = main(["sfs", f"--sfs={text}", "info"]), capsys.readouterr()
    assert joined[0] == 0
    for flag in ("--sfs", "--sf"):
        assert (main(["sfs", flag, text, "info"]), capsys.readouterr()) == joined


def test_cli_json_deterministic(capsys):
    _, first = run_cli(capsys, "classify", str(FIXTURES / "elliptic_a.plumb"), "--json")
    _, second = run_cli(capsys, "classify", str(FIXTURES / "elliptic_a.plumb"), "--json")
    assert first == second


@pytest.mark.parametrize(
    "name,argv",
    [
        ("e8_info", ["info", "e8.plumb"]),
        ("e8_homology", ["homology", "e8.plumb"]),
        ("e8_classify", ["classify", "e8.plumb"]),
        ("lens3_hplus", ["hplus", "lens_3.plumb"]),
        ("elliptic_a_homology", ["homology", "elliptic_a.plumb"]),
        ("elliptic_a_classify", ["classify", "elliptic_a.plumb"]),
        ("elliptic_b_homology", ["homology", "elliptic_b.plumb"]),
        ("m038_n1_sfs", ["sfs", "--sfs", "@m038_n1.sfs", "homology"]),
        ("m038_n2_sfs", ["sfs", "--sfs", "@m038_n2.sfs", "homology"]),
    ]
    + [(f"lens{p}_homology", ["homology", f"lens_{p}.plumb"]) for p in range(1, 9)]
    + [
        ("elliptic_a_hplus", ["hplus", "elliptic_a.plumb"]),
        ("elliptic_b_hplus", ["hplus", "elliptic_b.plumb"]),
        ("m038_n1_sfs_hplus", ["sfs", "--sfs", "@m038_n1.sfs", "hplus"]),
    ],
)
def test_golden_json(capsys, name, argv):
    """Shipped fixtures produce byte-stable machine output."""
    argv = [
        (FIXTURES / a.lstrip("@")).read_text().strip()
        if a.startswith("@")
        else (str(FIXTURES / a) if a.endswith(".plumb") else a)
        for a in argv
    ]
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 0
    expected = (GOLDEN / f"{name}.json").read_text()
    assert out == expected


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "plumblat.cli", "info", str(FIXTURES / "lens_2.plumb")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "negative_definite" in proc.stdout


def _random_payload(rng: random.Random, depth: int):
    """A nested JSON value of the kinds the CLI prints, with the awkward
    cases drawn often: empty containers, tuples, negative and huge ints,
    bools next to 0 and 1, None, and strings with quotes, backslashes,
    control characters and non-ASCII."""
    letters = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "∂", "😀", "a", "Z", " ", "/"]
    kind = rng.randrange(9 if depth else 6)
    if kind == 0:
        return rng.choice([0, 1, -1, 2**64 + 3, -(2**70), rng.randint(-10**6, 10**6)])
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return None
    if kind in (3, 4):
        return "".join(rng.choice(letters) for _ in range(rng.randrange(6)))
    if kind == 5:
        return rng.choice([[], {}, ()])
    items = [_random_payload(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    keys = ["".join(rng.choice(letters) for _ in range(rng.randrange(4))) for _ in items]
    return dict(zip(keys, items))


def test_json_writer_matches_json_dumps():
    """``cli._json`` writes the bytes of json.dumps(indent=2, sort_keys=True)
    on seeded random payloads, and refuses floats and non-str keys rather
    than fall back."""
    rng = random.Random(0x15A0)
    payloads = [_random_payload(rng, 4) for _ in range(2000)]
    payloads += [{}, [], (), {"a": [1, True, 0, False, None]}, [[[]], {"": {}}], 2**64, -1]
    for payload in payloads:
        assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True)
    assert sum(isinstance(p, dict) and len(p) > 1 for p in payloads) > 100
    for bad in (1.0, {"x": [0.5]}, {1: "a"}, {"a": 1, None: 2}, {True: 1}, [{(1,): 2}], {"s": {1, 2}}):
        with pytest.raises(TypeError):
            cli._json(bad)
