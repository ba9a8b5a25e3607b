"""Benchmark of the ``siq`` batch paths.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``siq`` is imported from its ``src``.
Each workload runs in fresh worker processes of this script, one closed-
loop client that calls ``siq.cli.main(argv)`` in-process, one CLI call
per job, and checks every artifact (see ``workloads.py``, ``checks.py``).
A run repeats whole rounds of the workload's jobs until ``--seconds``
have passed.  ``--workload all`` runs the four workloads one after another.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones:

    jobs_per_s   jobs / summed wall time of the jobs (checks excluded)
    job_p50_s    median wall time of one job
    setup_s      median, over SETUP_SAMPLES worker processes, of the time
                 from starting the process to being ready to time: the
                 interpreter, ``import siq``, building the jobs, and one
                 untimed warm-up job
    peak_rss_mb  peak resident set of the timing worker (ru_maxrss)

With ``--trace 1`` the worker alternates untraced and traced rounds for
``--seconds``, prints the per-module table and reports the per-module
metrics of one round (see ``tracer.py``) and the tracing overhead, traced
over untraced wall time; the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: Worker processes whose set-up time is sampled; the last one times.
SETUP_SAMPLES = 7
#: Workers still running this long after the launcher started are stopped
#: and the run fails.
DEADLINE_S = 170.0

WORKLOAD_NAMES = ("sweep", "trajectory", "spectra", "network")
END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------

def _import_siq():
    """Import ``siq`` from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import siq.cli
    origin = os.path.dirname(os.path.abspath(siq.cli.__file__))
    if os.path.commonpath([origin, SRC]) != SRC:
        raise ImportError(f"siq was imported from {origin}, not {SRC}")
    return siq.cli


class Client:
    """The closed-loop client: calls the CLI in-process, job by job."""

    def __init__(self, cli, workload: str, seed: int):
        import workloads
        self.cli = cli
        self.warm, self.builder = workloads.WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.out_dir = os.path.join(RESULTS, "artifacts", workload)
        os.makedirs(self.out_dir, exist_ok=True)
        self.tracer = None          # set while a traced round runs
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0             # exited non-zero or failed a check
        self.wrong = 0              # exited 0 with an artifact that failed
        self.errors: list[str] = []

    def call(self, job, slot: int) -> tuple[float, int, list[str]]:
        """Run one job; return its wall time, exit code, check failures."""
        out = os.path.join(self.out_dir, f"job{slot}.csv")
        if os.path.exists(out):
            os.remove(out)
        if self.tracer is not None:
            self.tracer.job = self.attempted
        start = time.perf_counter()
        code = self.cli.main([*job.argv, "--out", out])
        wall = time.perf_counter() - start
        if code != 0:
            return wall, code, [f"exit code {code}"]
        return wall, code, job.check(self.cli.read_csv(out))

    def warm_up(self) -> None:
        _, _, errs = self.call(self.warm, 0)
        if errs:
            raise RuntimeError(f"warm-up job {self.warm.name!r} failed: "
                               + "; ".join(errs))

    def round(self) -> float:
        """Run every job once; return the summed wall time of the jobs."""
        total = 0.0
        for slot, job in enumerate(self.builder(self.rng)):
            wall, code, errs = self.call(job, slot)
            total += wall
            self.times.append(wall)
            self.attempted += 1
            if errs:
                self.failed += 1
                self.wrong += code == 0
                self.errors += [f"{job.name}: {e}" for e in errs]
        return total


def _peak_bytes_per_node(client: Client) -> float:
    """Largest tracemalloc peak of one integrate call, per grid node, over
    the warm-up job.  A pass of its own, because tracemalloc slows every
    allocation; tracing runs only inside integrate."""
    from siq import dde_core, siq_model
    original = dde_core.integrate
    per_node = [0.0]

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            traj = original(*args, **kwargs)
            per_node.append(tracemalloc.get_traced_memory()[1]
                            / traj.n_nodes)
        finally:
            tracemalloc.stop()
        return traj

    siq_model.integrate = measured
    try:
        client.call(client.warm, 0)
    finally:
        siq_model.integrate = original
    return max(per_node)


def _traced(client: Client, args) -> dict:
    import tracer
    spans_tracer = tracer.Tracer()
    untraced = traced = 0.0
    rounds = 0
    start = time.monotonic()
    while True:
        untraced += client.round()
        spans_tracer.install()
        client.tracer = spans_tracer
        try:
            traced += client.round()
        finally:
            client.tracer = None
            spans_tracer.uninstall()
        rounds += 1
        if time.monotonic() - start >= args.seconds:
            break
    spans = spans_tracer.spans
    metrics = tracer.round_metrics(spans, rounds)
    metrics["trace.overhead"] = (traced / untraced, "x")
    metrics["dde_core.integrate.peak_bytes_per_node"] = (
        _peak_bytes_per_node(client), "B")
    os.makedirs(RESULTS, exist_ok=True)
    spans_tracer.write(os.path.join(
        RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    return {"rounds": rounds, "metrics": metrics}


def worker(args) -> int:
    cli = _import_siq()
    client = Client(cli, args.workload, args.seed)
    client.warm_up()
    ready = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    result = {"ready": ready}
    if args.trace:
        result["trace"] = _traced(client, args)
    else:
        start = time.monotonic()
        while True:
            client.round()
            if time.monotonic() - start >= args.seconds:
                break
    result.update(times=client.times, attempted=client.attempted,
                  failed=client.failed, wrong=client.wrong,
                  errors=client.errors[:20],
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# launcher
# ---------------------------------------------------------------------------

def _spawn(args, role: str, deadline: float) -> tuple[float, dict]:
    """Start a worker; return its start time and its result line."""
    argv = [sys.executable, os.path.abspath(__file__), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker of {args.workload} exited with "
                           f"code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        start, res = _spawn(args, "setup", deadline)
        setups.append(res["ready"] - start)
    start, res = _spawn(args, "run", deadline)
    setups.append(res["ready"] - start)
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    times = res["times"]
    metrics: dict[str, dict] = {}
    if args.trace:
        import tracer
        per_module = res["trace"]["metrics"]
        _print_table(f"{args.workload}: per-module figures of one round "
                     f"({res['trace']['rounds']} traced rounds)",
                     per_module)
        metrics = {k: {"value": per_module[k][0], "unit": per_module[k][1]}
                   for k in tracer.PER_LAYER}
    else:
        values = {"jobs_per_s": len(times) / sum(times),
                  "job_p50_s": statistics.median(times),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        _print_table(f"{args.workload}: {len(times)} jobs",
                     {k: (m["value"], m["unit"]) for k, m in metrics.items()})
    return {"correct": res["wrong"] == 0,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("launch", "setup", "run"),
                        default="launch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role != "launch":
        return worker(args)
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        try:
            result = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
