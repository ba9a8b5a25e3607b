"""Spans at the ``siq`` module boundaries, recorded from outside the program.

``Tracer.install`` replaces each traced public function by a wrapper in
every ``siq`` module that holds it (the defining module and the modules
that imported the name), and ``CharEq.__call__`` / ``Network.adjacency``
on their classes; ``uninstall`` puts the originals back.  A span is
(id, name, start, end, parent id, job id, extra), where ``extra`` is a
count read from the call (integrator steps, chi points, CSV bytes...).
Spans stay in memory until ``write``.

``stability_map`` counts cells on a thread pool, so span ids and the span
list are guarded by a lock, each thread keeps its own stack of open
spans, and a span opened on a pool thread with an empty stack takes the
installing thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

import numpy as np


def _steps(args, kwargs, traj):
    return traj.n_nodes - 1


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["lam"]))


def _csv_bytes(args, kwargs, result):
    out = args[0] if args else kwargs["out"]
    return os.path.getsize(out) if out not in (None, "-") else 0


def _cells(args, kwargs, result):
    return int(result.counts.size)


def _node_days(args, kwargs, result):
    net, cfg = args[0], args[1]
    return net.n * cfg.t_end_days


#: (module, attribute, span name, extra) of every traced function.
FUNCTIONS = (
    ("siq.dde_core", "integrate", "dde_core.integrate", _steps),
    ("siq.siq_model", "simulate", "siq_model.simulate", None),
    ("siq.siq_model", "conserved_H", "siq_model.conserved_H", None),
    ("siq.siq_model", "conserved_H_star", "siq_model.conserved_H_star", None),
    ("siq.equilibria", "predict_endemic_from_history",
     "equilibria.predict_endemic_from_history", None),
    ("siq.cli", "main", "cli.main", None),
    ("siq.cli", "write_csv", "cli.write_csv", _csv_bytes),
    ("siq.cli", "i_peak", "cli.i_peak", None),
    ("siq.spectral", "count_unstable", "spectral.count_unstable", None),
    ("siq.spectral", "hopf_crossings", "spectral.hopf_crossings", None),
    ("siq.spectral", "stability_map", "spectral.stability_map", _cells),
    ("siq.net_sim", "erdos_renyi_network", "net_sim.erdos_renyi_network",
     None),
    ("siq.net_sim", "simulate_network", "net_sim.simulate_network",
     _node_days),
    ("siq.net_sim", "average_runs", "net_sim.average_runs", None),
)
#: (module, class, method, span name, extra) of every traced method.
METHODS = (
    ("siq.spectral", "CharEq", "__call__", "spectral.chi", _points),
    ("siq.net_sim", "Network", "adjacency", "net_sim.adjacency", None),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job: int | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            result = done = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = extra(args, kwargs, result) if (
                    extra is not None and done) else None
                with tracer._lock:
                    tracer.spans.append(
                        (sid, name, start, end, parent, tracer.job, count))

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "siq" or k.startswith("siq.")]
        for mod_name, attr, name, extra in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        for mod_name, cls_name, attr, name, extra in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, extra))
            self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job, count in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent, "job": job,
                                     "count": count}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed duration, summed self time (duration
    minus the part of it that child spans cover) and summed extra count."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _, _, count in spans:
        kids = [(max(a, start), min(b, end))
                for a, b in children.get(sid, ()) if b > start and a < end]
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "count": 0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - _covered(kids)
        row["count"] += count or 0
    return out


#: Per-module metrics published on the result line of a traced run: exact
#: counts, bytes, busy-time shares and the time spent in ``cli`` itself,
#: which every workload pays.  A share (``.pct``) is the module's busy
#: time over the summed wall time of the jobs; busy time is summed over
#: threads, so a share of the threaded ``stability_map`` can pass 100.
#: ``round_metrics`` returns all but the tracemalloc figure, and the
#: per-module timings printed in the table.
PER_LAYER = (
    "dde_core.integrate.calls", "dde_core.integrate.steps",
    "dde_core.integrate.peak_bytes_per_node", "dde_core.integrate.pct",
    "siq_model.conserved_H.calls", "siq_model.conserved_H_star.calls",
    "equilibria.predict_endemic_from_history.calls",
    "spectral.count_unstable.calls", "spectral.count_unstable.pct",
    "spectral.chi.calls", "spectral.chi.points",
    "spectral.chi.points_per_count", "spectral.hopf_crossings.calls",
    "spectral.stability_map.cells",
    "net_sim.adjacency.calls", "net_sim.adjacency.pct",
    "net_sim.simulate_network.calls", "net_sim.simulate_network.self_pct",
    "cli.main.calls", "cli.main.self_s", "cli.write_csv.s",
    "cli.write_csv.bytes", "trace.overhead",
)


def round_metrics(spans: list[tuple], rounds: int
                  ) -> dict[str, tuple[float, str]]:
    """Per-module metrics of one round, as (value, unit), from the spans
    of ``rounds`` traced rounds."""
    t = totals(spans)

    def get(name, key):
        return t.get(name, {}).get(key, 0) / rounds

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    by_id = {s[0]: s for s in spans}

    def inside_count(span):
        parent = span[4]
        while parent is not None:
            if by_id[parent][1] == "spectral.count_unstable":
                return True
            parent = by_id[parent][4]
        return False

    count_points = sum(s[6] or 0 for s in spans if s[1] == "spectral.chi"
                       and inside_count(s)) / rounds
    job_s = get("cli.main", "s")
    steps = get("dde_core.integrate", "count")
    points = get("spectral.chi", "count")
    counts = get("spectral.count_unstable", "calls")
    sim_self = get("net_sim.simulate_network", "self_s")
    m = {
        "dde_core.integrate.steps": (steps, "count"),
        "dde_core.integrate.us_per_step":
            (ratio(get("dde_core.integrate", "s"), steps, 1e6), "us"),
        "dde_core.integrate.pct":
            (ratio(get("dde_core.integrate", "s"), job_s, 100.0), "%"),
        "siq_model.simulate.self_s": (get("siq_model.simulate", "self_s"),
                                      "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "cli.write_csv.bytes": (get("cli.write_csv", "count"), "B"),
        "spectral.chi.points": (points, "count"),
        "spectral.chi.points_per_count":
            (ratio(count_points, counts), "count"),
        "spectral.chi.ns_per_point":
            (ratio(get("spectral.chi", "s"), points, 1e9), "ns"),
        "spectral.count_unstable.pct":
            (ratio(get("spectral.count_unstable", "s"), job_s, 100.0), "%"),
        "spectral.stability_map.cells":
            (get("spectral.stability_map", "count"), "count"),
        "net_sim.adjacency.pct":
            (ratio(get("net_sim.adjacency", "s"), job_s, 100.0), "%"),
        "net_sim.simulate_network.self_s": (sim_self, "s"),
        "net_sim.simulate_network.self_pct":
            (ratio(sim_self, job_s, 100.0), "%"),
        "net_sim.node_days_per_s":
            (ratio(get("net_sim.simulate_network", "count"), sim_self),
             "1/s"),
    }
    for name in ("dde_core.integrate", "siq_model.conserved_H",
                 "siq_model.conserved_H_star",
                 "equilibria.predict_endemic_from_history", "cli.main",
                 "spectral.count_unstable", "spectral.chi",
                 "spectral.hopf_crossings", "spectral.stability_map",
                 "net_sim.adjacency", "net_sim.simulate_network"):
        m[name + ".calls"] = (get(name, "calls"), "count")
    for name in ("dde_core.integrate", "siq_model.conserved_H",
                 "siq_model.conserved_H_star",
                 "equilibria.predict_endemic_from_history", "cli.write_csv",
                 "cli.i_peak", "spectral.count_unstable",
                 "spectral.hopf_crossings", "spectral.stability_map",
                 "net_sim.erdos_renyi_network", "net_sim.adjacency",
                 "net_sim.average_runs"):
        m[name + ".s"] = (get(name, "s"), "s")
    return dict(sorted(m.items()))
