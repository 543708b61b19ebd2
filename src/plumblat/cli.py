"""Command line interface.

Subcommands: ``info``, ``homology``, ``hplus``, ``classify``, ``triad``,
``blowdown`` take a plumbing file in the DSL of :mod:`plumblat.dsl`;
``sfs`` takes Seifert data as ``--sfs "e0; a1/b1 a2/b2 ..."`` and runs
``homology``, ``hplus`` or ``classify`` on the converted star through the same
code, after a two-line Seifert header (``info`` prints the star).  ``--json``
switches to a stable, versioned machine format (keys sorted, no floats, so
identical inputs give byte-identical output).

Exit codes: 0 success, 1 usage, 2 parse/validation, 3 budget exceeded,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from . import __version__
from .charlattice import DEFAULT_BOX_CAP
from .classify import DEFAULT_NMAX, certify_almost_rational, full_report
from .classify import is_rational  # noqa: F401  (perfbench's span tests read cli.is_rational)
from .dsl import parse_int, parse_plumbing, serialize_dsl
from .errors import EXIT_INVALID_INPUT, EXIT_USAGE, DslSyntaxError, PlumblatError
from .homology import DerivedDimensions, compute_homology, derived_dimensions
from .hplus import DEFAULT_POINT_CAP, ker_u_cross_check
from .moves import blow_down, check_exactness, surgery_triple
from .plumbing import (
    PlumbingForest,
    bad_vertices,
    canonical_class,
    intersection_form,
    semidefinite_classify,
)
from .seifert import parse_sfs, seifert_to_plumbing

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; the contract says 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load(path: str) -> PlumbingForest:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        byte = exc.object[exc.start]
        raise DslSyntaxError(line, f"byte {byte:#04x} is not UTF-8") from None
    except OSError as exc:  # a missing file, a directory, no permission
        raise PlumblatError(str(exc)) from None
    return parse_plumbing(text)


def _forest_json(forest: PlumbingForest) -> dict:
    return {
        "vertices": [
            {"id": vid, "framing": m} for vid, m in zip(forest.ids, forest.framings)
        ],
        "edges": [[forest.ids[a], forest.ids[b]] for a, b in forest.edges],
        "convention": "minus_one" if forest.edge_sign.value == -1 else "plus_one",
    }


def _derived_json(dims: DerivedDimensions) -> dict:
    return {
        "dim_isharp_even": dims.dim_isharp_even,
        "dim_isharp_odd": dims.dim_isharp_odd,
        "dim_isharp": dims.dim_isharp,
        "dim_hfhat": dims.dim_hfhat,
        "is_instanton_lspace": dims.is_instanton_lspace,
        "conjectural": dims.conjectural,
    }


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(human) + "\n")


def _info(forest: PlumbingForest, args) -> tuple[dict, list[str]]:
    form = intersection_form(forest)
    bad = bad_vertices(forest)
    body = {
        "determinant": form.determinant,
        "definiteness": form.definiteness.value,
        "bad_vertices": bad,
        "canonical_class": list(canonical_class(forest).evals),
    }
    human = [
        f"vertices: {len(forest)}, edges: {len(forest.edges)}, "
        f"convention: {_forest_json(forest)['convention']}",
        f"determinant: {form.determinant}  definiteness: {form.definiteness.value}",
        f"bad vertices ({len(bad)}): {', '.join(bad) if bad else '-'}",
    ]
    if not bad:
        verdict = semidefinite_classify(forest)
        body["semidefinite"] = {
            "kind": verdict.kind,
            "component": list(verdict.component),
        }
        human.append(
            f"zero-bad-vertex classification: {verdict.kind}"
            + (f" on component {list(verdict.component)}" if verdict.component else "")
        )
    return body, human


def _homology(forest: PlumbingForest, args) -> tuple[dict, list[str]]:
    result = compute_homology(forest, box_cap=args.box_cap)
    certified = certify_almost_rational(forest, nmax=args.nmax, point_cap=args.point_cap)
    dims = derived_dimensions(result, almost_rational_certified=certified)
    body = {
        "total_dim": result.total_dim,
        "det": result.form.determinant,
        "per_orbit": [
            {
                "orbit": oh.orbit.index,
                "representative": list(oh.orbit.representative.evals),
                "dim": oh.dim,
                "class_representatives": [list(r.evals) for r in oh.representatives],
            }
            for oh in result.per_orbit
        ],
        "derived": _derived_json(dims),
        "certified_almost_rational": certified,
    }
    human = [f"total_dim: {result.total_dim}   |det|: {result.det_abs}"]
    for oh in result.per_orbit:
        human.append(
            f"orbit {oh.orbit.index} rep {list(oh.orbit.representative.evals)}: dim {oh.dim}"
        )
    tag = "  [conjectural]" if dims.conjectural else ""
    human.append(
        f"dim I# = {dims.dim_isharp}  (even {dims.dim_isharp_even}, odd {dims.dim_isharp_odd})"
        f"  dim HF-hat = {dims.dim_hfhat}  L-space: {dims.is_instanton_lspace}{tag}"
    )
    return body, human


def _hplus(forest: PlumbingForest, args) -> tuple[dict, list[str]]:
    report = ker_u_cross_check(forest, point_cap=args.point_cap, box_cap=args.box_cap)
    per_orbit = []
    human = []
    for row in report.rows:
        graded = row.graded
        per_orbit.append(
            {
                "orbit": row.orbit.index,
                "representative": list(row.orbit.representative.evals),
                "ker_u_rank": graded.ker_u_rank,
                "stabilized_at": graded.stabilized_at,
                "homology_dim": row.homology_dim,
                "levels": [[l.level, l.rank, l.births] for l in graded.levels],
            }
        )
        human.append(
            f"orbit {row.orbit.index}: ker U rank {graded.ker_u_rank}"
            f" (homology dim {row.homology_dim}), stabilized at n = {graded.stabilized_at}"
        )
        for lvl in graded.levels:
            human.append(f"  n = {lvl.level}: rank H0 = {lvl.rank}, births = {lvl.births}")
    human.append(f"cross-check vs homology engine: {'OK' if report.ok else 'MISMATCH'}")
    return {"per_orbit": per_orbit, "cross_check_ok": report.ok}, human


def _classify(forest: PlumbingForest, args) -> tuple[dict, list[str]]:
    report = full_report(
        forest, nmax=args.nmax, box_cap=args.box_cap, point_cap=args.point_cap
    )
    body = {
        "negdef": report.negdef,
        "bad_vertex_count": report.bad_vertex_count,
        "bad_vertices": list(report.bad_vertices),
        "determinant": report.det,
    }
    human = [
        f"negative definite: {report.negdef}",
        f"bad vertices ({report.bad_vertex_count}): "
        f"{', '.join(report.bad_vertices) if report.bad_vertices else '-'}",
        f"determinant: {report.det}",
    ]
    if not report.negdef:
        human.append("not negative definite: homology fields omitted")
        return body, human
    ar, witness = report.almost_rational, report.rational.witness
    body.update(
        {
            "rational": report.rational.rational,
            "rational_witness": list(witness.coords) if witness else None,
            "almost_rational": {
                "status": ar.status,
                "vertex": ar.vertex,
                "decrement": ar.decrement,
                "cutoff": ar.cutoff,
            },
            "dim_h": report.dim_h,
            "derived": _derived_json(report.dims),
            "theorems_applicable": {
                "floer_equivalence": report.floer_equivalence_certified
            },
        }
    )
    human.append(
        f"rational: {report.rational.rational}"
        + (f"  (witness {list(witness.coords)})" if witness else "")
    )
    if ar.status == "yes":
        human.append(f"almost-rational: yes (vertex {ar.vertex}, decrement {ar.decrement})")
    else:
        human.append(f"almost-rational: unknown (searched decrements up to {ar.cutoff})")
    tag = " [conjectural]" if report.dims.conjectural else ""
    human.append(
        f"dim H = {report.dim_h}, dim I# = {report.dims.dim_isharp}, "
        f"L-space: {report.dims.is_instanton_lspace}{tag}"
    )
    return body, human


def _triad(forest: PlumbingForest, args) -> tuple[dict, list[str]]:
    triple = surgery_triple(forest, args.vertex)
    report = check_exactness(triple, box_cap=args.box_cap)
    body = {
        "vertex": args.vertex,
        "valid": triple.valid,
        "dims": list(report.dims),
        "b_surjective": report.b_surjective,
        "ba_zero": report.ba_zero,
        "ker_b_equals_im_a": report.ker_b_equals_im_a,
        "section_inverts_b": report.section_inverts_b,
        "exact": report.exact,
    }
    human = [
        f"triple at {args.vertex!r}: dims {report.dims}",
        f"composite vanishes: {report.ba_zero}",
        f"second map surjective: {report.b_surjective}",
        f"kernel equals image: {report.ker_b_equals_im_a}",
        f"section inverts: {report.section_inverts_b}",
        f"exact: {report.exact}",
    ]
    return body, human


def _blowdown(forest: PlumbingForest, args) -> tuple[dict, list[str]]:
    result = blow_down(forest, args.vertex, box_cap=args.box_cap)
    body = {
        "vertex": args.vertex,
        "result": _forest_json(result.forest),
        "dim_before": result.source.total_dim,
        "dim_after": result.target.total_dim,
        "class_map": [list(entry) for entry in result.class_map],
    }
    human = [
        f"blew down {args.vertex!r}: {len(forest)} -> {len(result.forest)} vertices",
        f"dimension {result.source.total_dim} preserved: "
        f"{result.source.total_dim == result.target.total_dim}",
        "result:",
        serialize_dsl(result.forest).rstrip(),
    ]
    return body, human


# Each action maps (forest, args) to its JSON body and its human lines; the
# plain commands add "command" and the forest, ``sfs`` adds "seifert".
_ACTIONS = {
    "info": _info,
    "homology": _homology,
    "hplus": _hplus,
    "classify": _classify,
    "triad": _triad,
    "blowdown": _blowdown,
}


def _cmd_plain(args) -> int:
    forest = _load(args.file)
    body, human = _ACTIONS[args.command](forest, args)
    _emit(args, {"command": args.command, **_forest_json(forest), **body}, human)
    return 0


# ``sfs`` keeps the shorter key sets it has always printed for these actions.
_SFS_PROJECTIONS = {
    "hplus": lambda body: {
        "cross_check_ok": body["cross_check_ok"],
        "per_orbit": [
            {key: row[key] for key in ("orbit", "homology_dim", "ker_u_rank")}
            for row in body["per_orbit"]
        ],
    },
    "classify": lambda body: {
        "negdef": body["negdef"],
        "bad_vertex_count": body["bad_vertex_count"],
        "rational": body.get("rational"),
        "dim_h": body.get("dim_h"),
        "dim_isharp": body.get("derived", {}).get("dim_isharp"),
        "is_instanton_lspace": body.get("derived", {}).get("is_instanton_lspace"),
    },
}


def _cmd_sfs(args) -> int:
    data = parse_sfs(args.sfs)
    conversion = seifert_to_plumbing(data)
    forest = conversion.forest
    seifert_payload = {
        "e0": data.e0,
        "legs": [list(leg) for leg in data.legs],
        "normalized_e0": conversion.used.e0,
        "normalized_legs": [list(leg) for leg in conversion.used.legs],
        "reversed_orientation": conversion.reversed_orientation,
        "euler_number": str(conversion.euler),
        "h1_order": conversion.h1_order,
        "plumbing": _forest_json(forest),
    }
    header = [
        f"star plumbing with {len(forest)} vertices"
        + (" (orientation reversed)" if conversion.reversed_orientation else ""),
        f"euler number {conversion.euler}, |H1| = {conversion.h1_order}",
    ]
    if args.action == "info":
        body, human = _forest_json(forest), [serialize_dsl(forest).rstrip()]
    else:
        body, human = _ACTIONS[args.action](forest, args)
        body = _SFS_PROJECTIONS.get(args.action, dict)(body)
    _emit(args, {"command": "sfs", "seifert": seifert_payload, **body}, header + human)
    return 0


def _budget(token: str) -> int:
    """A budget flag's value: an ASCII integer, as :func:`parse_int` reads it."""
    value = parse_int(token)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}")
    return value


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built on the first call and reused after it."""
    parser = _Parser(prog="plumblat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"plumblat {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")
    common.add_argument(
        "--box-cap", type=_budget, default=DEFAULT_BOX_CAP, help="box size budget"
    )
    common.add_argument(
        "--point-cap", type=_budget, default=DEFAULT_POINT_CAP, help="sweep point budget"
    )
    common.add_argument(
        "--nmax", type=_budget, default=DEFAULT_NMAX, help="framing decrement cutoff"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _ACTIONS:
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file", help="plumbing DSL file")
        if name in ("triad", "blowdown"):
            p.add_argument("--vertex", required=True, help="vertex id")
        p.set_defaults(handler=_cmd_plain)

    p = sub.add_parser("sfs", parents=[common])
    p.add_argument("--sfs", required=True, help='Seifert data "e0; a1/b1 a2/b2 ..."')
    p.add_argument(
        "action",
        nargs="?",
        default="homology",
        choices=["info", "homology", "hplus", "classify"],
    )
    p.set_defaults(handler=_cmd_sfs)
    return parser


def _attach_sfs_values(argv: list[str]) -> list[str]:
    """``--sfs -1;2/1`` as ``--sfs=-1;2/1`` (and so for ``--sf``, ``--s``).

    argparse reads a token that starts with '-' and holds no space as an
    option, so Seifert text with a negative e0 and no space after it would
    be a usage error when given after a space.  No option starts with '-'
    and a digit, so such a token is always the value of ``--sfs``.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (
            len(flag) > 2
            and "--sfs".startswith(flag)
            and "--" not in out
            and re.match(r"-[0-9]", token)
        ):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_sfs_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    for budget in ("box_cap", "point_cap", "nmax"):
        value = getattr(args, budget)
        if value < 0:
            flag = "--" + budget.replace("_", "-")
            sys.stderr.write(f"plumblat: error: {flag} must not be negative, got {value}\n")
            return EXIT_INVALID_INPUT
    try:
        return args.handler(args)
    except PlumblatError as exc:
        sys.stderr.write(f"plumblat: error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
