"""Output checks: each returns ``None`` when a job's output is right.

Besides the byte-for-byte golden comparison (seed 0 only), every rule checks
facts that no relabelling or reordering of the input can change.
"""

from __future__ import annotations

import json

from workloads import GOLDEN, Check


def _lspace_homology(out: dict, det: int):
    dims = [orbit["dim"] for orbit in out["per_orbit"]]
    if out["total_dim"] != det or abs(out["det"]) != det:
        return f"total_dim {out['total_dim']}, det {out['det']}; want |det| = dim = {det}"
    if len(dims) != det or set(dims) != {1}:
        return f"per-orbit dims {dims}; want {det} orbits of dim 1"
    return None


def _hplus(out: dict, orbits: int, total: int):
    rows = out["per_orbit"]
    if out["cross_check_ok"] is not True:
        return "cross_check_ok is not true"
    if any(row["ker_u_rank"] != row["homology_dim"] for row in rows):
        return "ker_u_rank differs from homology_dim on some orbit"
    if len(rows) != orbits or sum(row["homology_dim"] for row in rows) != total:
        return f"{len(rows)} orbits of total dim {sum(r['homology_dim'] for r in rows)}; want {orbits}, {total}"
    return None


def _triad(out: dict, *dims: int):
    if out["exact"] is not True or out["valid"] is not True:
        return f"exact {out['exact']}, valid {out['valid']}"
    if tuple(out["dims"]) != dims:
        return f"dims {out['dims']}; want {list(dims)}"
    return None


def _blowdown(out: dict, dim: int):
    if out["dim_before"] != dim or out["dim_after"] != dim:
        return f"dims {out['dim_before']} -> {out['dim_after']}; want {dim} -> {dim}"
    if len(out["result"]["vertices"]) != len(out["vertices"]) - 1:
        return "blow-down did not remove exactly one vertex"
    return None


def _classify(out: dict, rational, dim_h, bad, status, bound, det_abs):
    ar = out["almost_rational"]
    got = (out["negdef"], out["rational"], out["dim_h"], out["bad_vertex_count"],
           ar["status"], ar["decrement"] if status == "yes" else ar["cutoff"],
           abs(out["determinant"]))
    want = (True, rational, dim_h, bad, status, bound, det_abs)
    return None if got == want else f"classify {got}; want {want}"


def _sfs_classify(out: dict, rational, dim_h, bad, dim_isharp, lspace):
    got = (out["negdef"], out["rational"], out["dim_h"], out["bad_vertex_count"],
           out["dim_isharp"], out["is_instanton_lspace"])
    want = (True, rational, dim_h, bad, dim_isharp, lspace)
    return None if got == want else f"sfs classify {got}; want {want}"


RULES = {
    "lspace_homology": _lspace_homology,
    "hplus": _hplus,
    "triad": _triad,
    "blowdown": _blowdown,
    "classify": _classify,
    "sfs_classify": _sfs_classify,
}


def check_output(checks: tuple[Check, ...], code: int, stdout: str) -> str | None:
    """First failure among ``checks`` for one job's exit code and stdout."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    for check in checks:
        if check.kind == "golden":
            expected = (GOLDEN / check.params[0]).read_text(encoding="utf-8")
            problem = None if stdout == expected else f"differs from {check.params[0]}"
        else:
            try:
                problem = RULES[check.kind](out, *check.params)
            except (KeyError, TypeError) as exc:
                problem = f"malformed output for {check.kind}: {exc!r}"
        if problem:
            return problem
    return None
