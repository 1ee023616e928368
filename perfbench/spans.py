"""Span tracer for betaorbit's public functions, installed from outside the package.

`Tracer.install()` replaces each target in `TARGETS` with a wrapper that
records one span per call: name, start, end, parent span and task id.  A
module-level function is replaced in every betaorbit module that holds it,
because `from .orbit import compute_orbit` binds the name in the caller's
namespace; a method is replaced on its class.  Spans are kept in flat arrays
and written out by `dump`; the per-name aggregates (calls, total time, self
time = span time minus the time of its child spans) are kept as the spans
close.  `uninstall()` restores every original.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# metric name -> (module, attribute path); the metric name's first part is the layer
TARGETS = {
    "polys.evaluate_interval": ("polys", "evaluate_interval"),
    "polys.bisect_step": ("polys", "bisect_step"),
    "polys.isolate_real_roots": ("polys", "isolate_real_roots"),
    "polys.propose_and_certify_complex_roots": ("polys", "propose_and_certify_complex_roots"),
    "field.NumberField": ("field", "NumberField.__init__"),
    "field.refine_beta": ("field", "NumberField.refine_beta"),
    "field.is_pisot": ("field", "NumberField.is_pisot"),
    "field.compare": ("field", "FieldElement.compare"),
    "field.approx": ("field", "FieldElement.approx"),
    "field.sort_elements": ("field", "sort_elements"),
    "dynamics.branch_digits": ("dynamics", "ExpansionParams.branch_digits"),
    "dynamics.count_prefixes_bruteforce": ("dynamics", "count_prefixes_bruteforce"),
    "dynamics.generate_expansion": ("dynamics", "generate_expansion"),
    "orbit.compute_orbit": ("orbit", "compute_orbit"),
    "orbit.transition_matrix": ("orbit", "transition_matrix"),
    "orbit.count_prefixes_matrix": ("orbit", "count_prefixes_matrix"),
    "orbit.OrbitGraph.to_json": ("orbit", "OrbitGraph.to_json"),
    "orbit.OrbitGraph.to_dot": ("orbit", "OrbitGraph.to_dot"),
    "orbit.TransitionMatrix.to_json": ("orbit", "TransitionMatrix.to_json"),
    "orbit.TransitionMatrix.to_csv": ("orbit", "TransitionMatrix.to_csv"),
    "spectral.char_polynomial": ("spectral", "char_polynomial"),
    "spectral.perron_eigenvalue": ("spectral", "perron_eigenvalue"),
    "spectral.check_dominance": ("spectral", "check_dominance"),
    "spectral.dimension": ("spectral", "dimension"),
    "spacing.enumerate_spectrum": ("spacing", "enumerate_spectrum"),
    "spacing.gap_stats": ("spacing", "gap_stats"),
    "spacing.spectrum_csv": ("spacing", "spectrum_csv"),
    "cli.main": ("cli", "main"),
    "cli.cmd_pisot": ("cli", "cmd_pisot"),
    "cli.cmd_orbit": ("cli", "cmd_orbit"),
    "cli.cmd_dimension": ("cli", "cmd_dimension"),
    "cli.cmd_expand": ("cli", "cmd_expand"),
    "cli.cmd_count": ("cli", "cmd_count"),
    "cli.cmd_spectrum": ("cli", "cmd_spectrum"),
}
LAYERS = ("polys", "field", "dynamics", "orbit", "spectral", "spacing", "cli")
EXPORTS = ("orbit.OrbitGraph.to_json", "orbit.OrbitGraph.to_dot",
           "orbit.TransitionMatrix.to_json", "orbit.TransitionMatrix.to_csv")
# exact work counters: identical on every traced run of the same task
EXACT = ("field.refine_beta.calls", "field.compare.calls", "polys.evaluate_interval.calls",
         "orbit.states", "spacing.points", "spectral.kernel_field_degree")


class Stats:
    """Per-name aggregates plus the counters observed from return values."""

    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.total = dict.fromkeys(TARGETS, 0.0)
        self.self_time = dict.fromkeys(TARGETS, 0.0)
        self.compares_inside = dict.fromkeys(TARGETS, 0)
        self.counts = {"orbit.states": 0, "orbit.edges": 0, "spacing.points": 0,
                       "spacing.raw_sums": 0, "spectral.kernel_field_degree": 0,
                       "spectral.char_poly_max_bits": 0, "spans": 0}

    def merge(self, other: "Stats") -> None:
        for attr in ("calls", "total", "self_time", "compares_inside"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            for key in mine:
                mine[key] += theirs[key]
        for key, value in other.counts.items():
            if key == "spectral.char_poly_max_bits":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def exact(self) -> dict:
        """The exact work counters, by their metric names."""
        out = {}
        for key in EXACT:
            name, _, field = key.rpartition(".")
            out[key] = self.calls[name] if field == "calls" else self.counts[key]
        return out

    def to_json(self) -> dict:
        return {"calls": self.calls, "total": self.total, "self_time": self.self_time,
                "compares_inside": self.compares_inside, "counts": self.counts}

    @classmethod
    def from_json(cls, obj: dict) -> "Stats":
        stats = cls()
        for attr in ("calls", "total", "self_time", "compares_inside", "counts"):
            getattr(stats, attr).update(obj[attr])
        return stats


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.stats = Stats()
        self.task = -1
        self._stack: list[list] = []  # [span index, child time, compare calls at entry]
        self._name = array("H")
        self._parent = array("i")
        self._task = array("i")
        self._start = array("d")
        self._end = array("d")
        self._restore: list[tuple[object, str, object]] = []
        self._spans_seen = 0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        pkg = "betaorbit"
        modules = [importlib.import_module(f"{pkg}.{m}") for m in
                   ("polys", "field", "expr", "dynamics", "orbit", "spectral", "spacing", "cli")]
        modules.append(importlib.import_module(pkg))
        for nid, (name, (mod_name, path)) in enumerate(TARGETS.items()):
            owner = importlib.import_module(f"{pkg}.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(nid, name, original)
            if cls_path:
                self._patch(owner, attr, original, wrapped)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- recording -------------------------------------------------------------

    def _wrap(self, nid: int, name: str, fn):
        stack, stats = self._stack, self.stats
        calls, total, self_time = stats.calls, stats.total, stats.self_time
        compares_inside = stats.compares_inside
        names = self.names
        name_col, parent_col, task_col = self._name, self._parent, self._task
        start_col, end_col = self._start, self._end
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start_col)
            name_col.append(nid)
            parent_col.append(stack[-1][0] if stack else -1)
            task_col.append(tracer.task)
            start_col.append(0.0)
            end_col.append(0.0)
            frame = [idx, 0.0, calls["field.compare"]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                start_col[idx] = t0
                end_col[idx] = t1
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
                compares_inside[name] += calls["field.compare"] - frame[2]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(stats.counts, args, result, [names[name_col[f[0]]] for f in stack])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def finish(self) -> Stats:
        """Return the aggregates gathered since the last call and start afresh."""
        self.stats.counts["spans"] = len(self._start) - self._spans_seen
        self._spans_seen = len(self._start)
        done = Stats.from_json(self.stats.to_json())
        zero = Stats()
        for attr in ("calls", "total", "self_time", "compares_inside", "counts"):
            getattr(self.stats, attr).update(getattr(zero, attr))
        return done

    def dump(self, path: str) -> None:
        """Write every recorded span: a one-line JSON header, then the columns."""
        columns = [("name", self._name), ("parent", self._parent), ("task", self._task),
                   ("start", self._start), ("end", self._end)]
        header = {"names": self.names, "spans": len(self._start),
                  "columns": [[c, a.typecode, a.itemsize * len(a)] for c, a in columns],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(fh)


# -- observers: counters read from arguments and return values -------------------

def _observe_orbit(counts, args, result, stack_names):
    if hasattr(result, "edges"):
        counts["orbit.states"] += result.size
        counts["orbit.edges"] += len(result.edges)


def _observe_spectrum(counts, args, result, stack_names):
    _field, m, n = args[:3]
    counts["spacing.points"] += result.count
    counts["spacing.raw_sums"] += (m + 1) ** n


def _observe_char_poly(counts, args, result, stack_names):
    bits = max(abs(c).bit_length() for c in result)
    counts["spectral.char_poly_max_bits"] = max(counts["spectral.char_poly_max_bits"], bits)


def _observe_field(counts, args, result, stack_names):
    # the field the Perron eigenvector is solved over
    if "spectral.perron_eigenvalue" in stack_names:
        counts["spectral.kernel_field_degree"] += args[0].degree


_OBSERVERS = {
    "orbit.compute_orbit": _observe_orbit,
    "spacing.enumerate_spectrum": _observe_spectrum,
    "spectral.char_polynomial": _observe_char_poly,
    "field.NumberField": _observe_field,
}


def layer_metrics(stats: Stats, traced_s: float, passes: int) -> dict:
    """Per-layer metrics from the aggregates of `passes` traced passes that
    took `traced_s` seconds in all; counts and times are per pass."""
    c, tot, st = stats.calls, stats.total, stats.self_time
    counts = stats.counts
    n = passes
    out = {}
    for layer in LAYERS:
        layer_self = sum(v for k, v in st.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = layer_self / n
        out[f"{layer}.self_share"] = layer_self / traced_s
    for name in ("polys.evaluate_interval", "polys.bisect_step", "field.compare",
                 "field.refine_beta", "field.approx", "dynamics.branch_digits"):
        out[f"{name}.calls"] = c[name] / n
    for name in ("polys.evaluate_interval", "polys.isolate_real_roots",
                 "polys.propose_and_certify_complex_roots", "field.compare", "field.approx",
                 "field.sort_elements", "field.is_pisot", "field.NumberField",
                 "dynamics.branch_digits", "dynamics.count_prefixes_bruteforce",
                 "dynamics.generate_expansion", "spectral.perron_eigenvalue",
                 "spacing.enumerate_spectrum", "spacing.gap_stats"):
        out[f"{name}.self_s"] = st[name] / n
    for name in ("orbit.compute_orbit", "orbit.transition_matrix", "orbit.count_prefixes_matrix",
                 "spectral.char_polynomial", "spectral.check_dominance"):
        out[f"{name}.total_s"] = tot[name] / n
    states, points = counts["orbit.states"], counts["spacing.points"]
    bfs_s = tot["orbit.compute_orbit"]
    spacing_compares = (stats.compares_inside["spacing.enumerate_spectrum"]
                        + stats.compares_inside["spacing.gap_stats"])
    out.update({
        "orbit.states": states / n,
        "orbit.edges": counts["orbit.edges"] / n,
        "orbit.states_per_s": states / bfs_s if bfs_s else 0.0,
        "orbit.compares_per_state": (stats.compares_inside["orbit.compute_orbit"] / states
                                     if states else 0.0),
        "orbit.export_s": sum(tot[e] for e in EXPORTS) / n,
        "spectral.kernel_field_degree": counts["spectral.kernel_field_degree"] / n,
        "spectral.char_poly_max_bits": counts["spectral.char_poly_max_bits"],
        "spacing.points": points / n,
        "spacing.dedup_ratio": points / counts["spacing.raw_sums"] if points else 0.0,
        "spacing.compares_per_point": spacing_compares / points if points else 0.0,
        "trace.spans": counts["spans"] / n,
    })
    return out
