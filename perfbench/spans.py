"""Span recorder for the traced benchmark run.

The program is traced from outside: :func:`install` wraps chosen public
functions of each layer (module of ``plumblat``) and rebinds the wrapper in
every loaded ``plumblat`` module that holds the original, which covers both
calls inside the defining module and names imported with ``from .x import y``.
:func:`restore` puts the originals back, so untraced passes run the program
unchanged.

A span is ``[name, start_ns, end_ns, parent]`` with ``parent`` the index of
the enclosing span.  Spans and counts stay in memory; the caller writes them
out when the run ends.  Self time is a span's duration minus the durations
of its child spans.  Times come from :func:`speed.clock_ns`, so the host-speed
probes that interrupt a span are not counted in it.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from statistics import median

from speed import clock_ns

LAYERS = ("cli", "dsl", "seifert", "plumbing", "intlinalg", "charlattice",
          "homology", "hplus", "moves", "classify")

# (layer, function) pairs timed as spans.  OrbitIndexer.key runs once per box
# vector, so it is only counted; a timer there would cost more than the key.
SPANNED = (
    ("cli", "main"),
    ("dsl", "parse_plumbing"),
    ("seifert", "parse_sfs"),
    ("seifert", "seifert_to_plumbing"),
    ("plumbing", "intersection_form"),
    ("intlinalg", "adjugate"),
    ("intlinalg", "rank_rational"),
    ("charlattice", "OrbitIndexer.__init__"),
    ("homology", "compute_homology"),
    ("homology", "class_of"),
    ("hplus", "ker_u_cross_check"),
    ("hplus", "compute_hplus"),
    ("moves", "surgery_triple"),
    ("moves", "check_exactness"),
    ("moves", "blow_down"),
    ("moves", "project_to_classes"),
    ("classify", "full_report"),
    ("classify", "is_rational"),
    ("classify", "is_almost_rational"),
)
# Generator functions: one span per resumption, so the time counted is the
# time spent inside the generator, not the life of the generator object.
GENERATORS = (("intlinalg", "quadratic_sublevel_points"),)
COUNTED = (("charlattice", "OrbitIndexer.key"),)


def box_vectors(forest) -> int:
    """Size of the characteristic box: the product of 1 - m over framings."""
    size = 1
    for m in forest.framings:
        size *= 1 - m
    return size


class Recorder:
    """Spans, counts and the largest homology input of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.largest_homology = (0, None)

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, clock_ns(), 0,
                           self.stack[-1] if self.stack else None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock_ns()
        self.stack.pop()

    # Observers: counts read from a wrapped call's arguments and result.

    def on_compute_homology(self, args, result) -> None:
        size = box_vectors(args[0])
        self.counts["homology.box_vectors"] += size
        self.counts["homology.classes"] += result.total_dim
        self.counts["homology.zero_members"] += len(result.zero_class.members)
        if size > self.largest_homology[0]:
            self.largest_homology = (size, args[0])

    def on_box_pass(self, args, result) -> None:
        self.counts["hplus.box_passes"] += 1
        self.counts["hplus.box_vectors_enumerated"] += box_vectors(args[0])

    def on_compute_hplus(self, args, result) -> None:
        self.on_box_pass(args, result)
        self.counts["hplus.levels"] += len(result.levels)
        self.counts["hplus.sweep_orbits"] += result.ker_u_rank != 1

    def on_rank(self, args, result) -> None:
        self.counts["intlinalg.rank_entries"] += sum(len(row) for row in args[0])

    def on_project(self, args, result) -> None:
        self.counts["moves.matrix_entries"] += len(result)


OBSERVERS = {
    "homology.compute_homology": Recorder.on_compute_homology,
    "hplus.ker_u_cross_check": Recorder.on_box_pass,
    "hplus.compute_hplus": Recorder.on_compute_hplus,
    "intlinalg.rank_rational": Recorder.on_rank,
    "moves.project_to_classes": Recorder.on_project,
}


def _spanned(fn, rec: Recorder, name: str):
    observe = OBSERVERS.get(name)

    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if observe is not None:
            observe(rec, args, result)
        return result

    return wrapper


def _generator(fn, rec: Recorder, name: str):
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        gen = fn(*args, **kwargs)
        while True:
            index = rec.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(index)
            rec.counts[name + ".items"] += 1
            yield item

    return wrapper


def _counted(fn, rec: Recorder, name: str):
    counts = rec.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every traced function for ``rec``; return the undo list."""
    undo = []
    packages = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "plumblat" or n.startswith("plumblat."))]
    for targets, make in ((SPANNED, _spanned), (GENERATORS, _generator),
                          (COUNTED, _counted)):
        for layer, qualname in targets:
            module = importlib.import_module(f"plumblat.{layer}")
            name = f"{layer}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, make(original, rec, name))
                continue
            original = getattr(module, attr)
            wrapper = make(original, rec, name)
            for holder in packages:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, original))
                        setattr(holder, key, wrapper)
    return undo


def restore(undo) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


def self_times(spans) -> list[int]:
    """Per span: duration minus the durations of its direct children.

    Spans come from one stack in one thread, so children never overlap and
    never outlast their parent.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def inclusive_times(spans) -> Counter:
    """Total duration per span name, counting nested same-name spans once."""
    totals: Counter = Counter()
    for name, start, end, parent in spans:
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            totals[name] += end - start
    return totals


# Per-layer metrics: name, unit.  Times are normalized seconds per traced pass.
PER_LAYER = (
    ("homology.compute_s", "s"),
    ("homology.compute_calls", "count"),
    ("homology.box_vectors", "count"),
    ("homology.us_per_vector", "us"),
    ("homology.classes", "count"),
    ("homology.zero_frac", "ratio"),
    ("homology.bytes_per_vector", "B"),
    ("homology.class_of_calls", "count"),
    ("homology.class_of_s", "s"),
    ("charlattice.indexer_inits", "count"),
    ("charlattice.key_calls", "count"),
    ("hplus.crosscheck_s", "s"),
    ("hplus.compute_s", "s"),
    ("hplus.compute_calls", "count"),
    ("hplus.box_passes", "count"),
    ("hplus.box_vectors_enumerated", "count"),
    ("hplus.levels", "count"),
    ("hplus.sweep_orbits", "count"),
    ("moves.check_exactness_s", "s"),
    ("moves.blow_down_s", "s"),
    ("moves.project_calls", "count"),
    ("moves.matrix_entries", "count"),
    ("intlinalg.rank_s", "s"),
    ("intlinalg.rank_calls", "count"),
    ("intlinalg.rank_entries", "count"),
    ("intlinalg.adjugate_s", "s"),
    ("intlinalg.adjugate_calls", "count"),
    ("intlinalg.ellipsoid_s", "s"),
    ("intlinalg.ellipsoid_points", "count"),
    ("classify.full_report_s", "s"),
    ("classify.is_rational_s", "s"),
    ("classify.is_rational_calls", "count"),
    ("classify.decrements_tried", "count"),
    ("plumbing.intersection_form_s", "s"),
    ("plumbing.intersection_form_calls", "count"),
    ("dsl.parse_s", "s"),
    ("seifert.to_plumbing_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace_overhead_frac", "ratio"),
)

# metric -> span name whose inclusive time (``_s``) or call count it reports
_FROM_SPANS = {
    "homology.compute": "homology.compute_homology",
    "homology.class_of": "homology.class_of",
    "hplus.crosscheck": "hplus.ker_u_cross_check",
    "hplus.compute": "hplus.compute_hplus",
    "moves.check_exactness": "moves.check_exactness",
    "moves.blow_down": "moves.blow_down",
    "moves.project": "moves.project_to_classes",
    "intlinalg.rank": "intlinalg.rank_rational",
    "intlinalg.adjugate": "intlinalg.adjugate",
    "intlinalg.ellipsoid": "intlinalg.quadratic_sublevel_points",
    "classify.full_report": "classify.full_report",
    "classify.is_rational": "classify.is_rational",
    "plumbing.intersection_form": "plumbing.intersection_form",
    "dsl.parse": "dsl.parse_plumbing",
    "seifert.to_plumbing": "seifert.seifert_to_plumbing",
}


def pass_metrics(rec: Recorder, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the memory and overhead ones).

    Times are multiplied by ``scale``, the pass's host-speed normalization.
    """
    spans, counts = rec.spans, rec.counts
    out: dict[str, float] = {}
    inclusive = inclusive_times(spans)
    for metric, span in _FROM_SPANS.items():
        out[f"{metric}_s"] = inclusive[span] * scale / 1e9
        out[f"{metric}_calls"] = counts[span]
    layer_self: Counter = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        layer_self[name.split(".", 1)[0]] += own
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * scale / 1e9
    box = counts["homology.box_vectors"]
    out["homology.box_vectors"] = box
    out["homology.classes"] = counts["homology.classes"]
    out["homology.zero_frac"] = counts["homology.zero_members"] / box if box else 0.0
    out["homology.us_per_vector"] = out["homology.compute_s"] * 1e6 / box if box else 0.0
    out["charlattice.indexer_inits"] = counts["charlattice.OrbitIndexer.__init__"]
    out["charlattice.key_calls"] = counts["charlattice.OrbitIndexer.key"]
    for key in ("hplus.box_passes", "hplus.box_vectors_enumerated", "hplus.levels",
                "hplus.sweep_orbits", "moves.matrix_entries", "intlinalg.rank_entries"):
        out[key] = counts[key]
    out["intlinalg.ellipsoid_points"] = counts["intlinalg.quadratic_sublevel_points.items"]
    # each is_almost_rational call tests the forest itself once, then decrements
    inside = sum(1 for name, _, _, parent in spans
                 if name == "classify.is_rational" and parent is not None
                 and spans[parent][0] == "classify.is_almost_rational")
    out["classify.decrements_tried"] = inside - counts["classify.is_almost_rational"]
    return out


def summarize(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes."""
    return {key: median(p[key] for p in passes) for key in passes[0]}
