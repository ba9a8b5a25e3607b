"""Batch command-line front end.

Every subcommand returns its columns, rows and metadata; ``main`` stamps
the tool and version and routes the CSV artifact to ``--out`` (stdout by
default) with a header of ``# key = value`` lines recording parameters,
step sizes and seeds, so artifacts are self-describing and re-parseable by
this module's own readers.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import pickle
import sys
from dataclasses import asdict, replace
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .dde_core import DEFAULT_STEP, Trajectory
from .equilibria import (critical_identification_time, critical_probability,
                         endemic_point, q_critical)
from .errors import (ConfigError, FileParse, HorizonTooShort, NumericalError,
                     OutOfDomain, SiqError, SubcriticalP, count,
                     finite_nonnegative, fraction, fractions, nonnegative,
                     positive, positive_fraction, probability)
from .net_sim import (SimConfig, average_runs, erdos_renyi_network,
                      mean_field_params, network_from_edge_list,
                      simulate_network)
from .siq_model import (ModelParams, leaf_labels, load_disease_table,
                        outbreak_history, simulate)
from .spectral import (count_unstable, disease_free_chareq, endemic_chareq,
                       hopf_crossings, stability_map)

#: Reference critical times (p_c, T_c in days) tabulated at p = 0.8 for the
#: bundled disease list; rows whose formula value disagrees are flagged.
REFERENCE_AT_P08 = {
    "H1N1 2016 [Brazil]": (0.41, 4.7),
    "Ebola 2014 [Guin./Lib.]": (0.33, 10.5),
    "Ebola 2014 [Sierra Leone]": (0.6, 3.5),
    "Spanish Flu 1917": (0.5, 3.3),
    "Influenza A": (0.35, 1.0),
    "Hepatitis A": (0.56, 4.89),
    "SARS": (0.66, 4.31),
    "Pertussis": (0.79, 0.91),
    "Smallpox": (0.79, 0.26),
}

TC_ABS_TOL_DAYS = 0.15
TC_REL_TOL = 0.05


def fmt(x) -> str:
    """Serialize one value with 9 significant digits, '.' decimal."""
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def _unbroken(text: str, what: str, breaks: str = ",\n\r") -> None:
    """Refuse ``text`` holding a character of ``breaks``: a comma would
    shift the cells after it, a line break would start a row."""
    for c in breaks:
        if c in text:
            raise ValueError(f"{what}: {text!r} holds {c!r}")


#: Rows of a float64 artifact formatted per write: what the rows' text
#: holds in memory stays a few hundred kB however long the run.
CSV_BLOCK = 1024


def write_csv(out: str | None, columns: Sequence[str],
              rows: Iterable[Sequence] | np.ndarray, meta: dict) -> None:
    """Write the header lines, the column row and ``rows``.  A 2-D float64
    array goes through one ``%.9g`` template per row, which gives ``fmt``'s
    text for every float (nan, inf and -0 included), written CSV_BLOCK
    rows at a time.  A text cell holding a comma or a line break, or a
    header value holding a line break, raises ValueError before any
    output."""
    header = {k: fmt(v) for k, v in meta.items()}
    for k, v in header.items():
        _unbroken(v, f"header {k}", "\n\r")
    lines = [f"# {k} = {v}" for k, v in header.items()]
    lines.append(",".join(columns))
    floats = isinstance(rows, np.ndarray) and rows.dtype == np.float64
    if not floats:
        for row in rows:
            cells = [fmt(v) for v in row]
            line = ",".join(cells)
            # a cell holds a comma or a line break: find and name it
            if line.count(",") >= len(cells) or "\n" in line or "\r" in line:
                for name, cell in zip(columns, cells):
                    _unbroken(cell, f"column {name}")
            lines.append(line)
    with (contextlib.nullcontext(sys.stdout) if out is None or out == "-"
          else open(out, "w", encoding="utf-8")) as fh:
        fh.write("\n".join(lines) + "\n")
        if floats:
            template = ",".join(["%.9g"] * rows.shape[1]) + "\n"
            for a in range(0, rows.shape[0], CSV_BLOCK):
                fh.write("".join(template % row for row in
                                 map(tuple, rows[a:a + CSV_BLOCK].tolist())))


#: What a subcommand hands to ``main``: columns, rows and header metadata;
#: ``main`` routes it to ``--out``.
Artifact = tuple[Sequence[str], Iterable[Sequence], dict]


def read_csv(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """Read back an artifact written by write_csv: (meta, columns, rows)."""
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                if "=" in line:
                    k, v = line[1:].split("=", 1)
                    meta[k.strip()] = v.strip()
                continue
            if not columns:
                columns = [c.strip() for c in line.split(",")]
            else:
                rows.append(line.split(","))
    if not columns:
        raise FileParse(f"{path}: no header row")
    return meta, columns, rows


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

def config_flags(path: str) -> list[str]:
    """The flags a config file names: each ``key = value`` line is
    ``--key=value``, a ``_`` in the key read as ``-``; blank lines and
    ``#`` comments are skipped.  A file cannot name ``config``: it is read
    once, so another file it named would be dropped."""
    flags = []
    try:
        with open(path, encoding="utf-8") as fh:
            for ln_no, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                key, eq, value = stripped.partition("=")
                if not eq:
                    raise ConfigError(f"{path}:{ln_no}: expected key = value")
                key = key.strip().replace("_", "-")
                if key == "config":
                    raise ConfigError(f"{path}:{ln_no}: a config file "
                                      f"cannot name --config")
                flags.append(f"--{key}={value.strip()}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return flags


def scenario_params(args) -> ModelParams:
    """The model parameters of a scenario command, from its flags (a
    config file is read as flags).  r, p, tau, kappa and ipeak's kappas
    have no default; they are checked here, not by argparse, so that a
    config file may give them."""
    for key in ("r", "p", "tau", "kappa", "kappas"):
        if getattr(args, key, ()) is None:
            raise ConfigError(f"missing required config key {key!r}")
    return ModelParams(args.r, args.p, args.tau, args.kappa, args.sigma)


def params_meta(params: ModelParams, **extra) -> dict:
    meta = {"r": params.r, "p": params.p, "tau": params.tau,
            "kappa": params.kappa, "sigma": params.sigma, "eps": params.eps}
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# transient metrics
# ---------------------------------------------------------------------------

def _cubic_critical_points(y) -> list[float]:
    """Critical points u in (0, 3) of the cubic through (u, y[u]),
    u = 0, 1, 2, 3: the real roots of its derivative a u^2 + b u + c, by
    the cancellation-free quadratic formula (no LAPACK call, whose first
    use costs the process about 1 MB)."""
    y0, y1, y2, y3 = (float(v) for v in np.ravel(y))
    d1, d2, d3 = y1 - y0, y2 - 2.0 * y1 + y0, y3 - 3.0 * y2 + 3.0 * y1 - y0
    a, b, c = 0.5 * d3, d2 - d3, d1 - 0.5 * d2 + d3 / 3.0
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = ([c / q] if q else []) + ([q / a] if a else [])
    return [u for u in roots if 0.0 < u < 3.0]


#: Relative rise of I's running maximum that counts as movement for i_peak.
PEAK_MOVE_TOL = 1e-9


def i_peak(traj: Trajectory, settle: float = 50.0) -> float:
    """Peak of the dense infectious fraction I, column 2 of the states.

    The horizon must extend ``settle`` time units past the last relative
    movement (> PEAK_MOVE_TOL) of I's running maximum, otherwise
    HorizonTooShort is raised; the tolerance makes the detector terminate
    for trajectories that creep monotonically into their plateau.  The
    dense maximum is that of the Hermite cubics in the two cells next to
    the largest node value, at the roots of their quadratic derivatives.
    """
    vals = traj.states[:, 2]
    top = int(np.argmax(vals))
    peak = float(vals[top])
    cells = range(max(top - 1, 0), min(top + 1, traj.n_nodes - 1))
    # one read for both cells' four samples, one for every critical point
    samples = traj.evaluate((np.array(cells)[:, None] + np.arange(4) / 3.0)
                            * traj.step)[:, 2].reshape(-1, 4)
    ts = [(cell + u / 3.0) * traj.step for cell, y in zip(cells, samples)
          for u in _cubic_critical_points(y)]
    peak = max([peak] + traj.evaluate(ts)[:, 2].tolist())
    running = np.maximum.accumulate(vals)
    moved = np.diff(running) > PEAK_MOVE_TOL * running[1:]
    last_move = int(np.nonzero(moved)[0][-1]) + 1 if moved.any() else 0
    t_move = last_move * traj.step
    if traj.t_end - t_move < settle:
        raise HorizonTooShort(
            f"running max of I last moved at t={t_move:.3f}; horizon "
            f"{traj.t_end:.3f} leaves less than {settle} settle units")
    return peak


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def critical_rows(table, p: float):
    rows = []
    for disease in table:
        pc = critical_probability(disease.r)
        try:
            tau_c = critical_identification_time(disease.r, p)
        except SubcriticalP:
            rows.append((disease.name, pc, math.nan, math.nan,
                         "uncontrollable"))
            continue
        t_c = tau_c * disease.infectious_period_days
        ref = REFERENCE_AT_P08.get(disease.name)
        mismatch = (ref is not None and abs(p - 0.8) < 1e-12
                    and abs(t_c - ref[1]) > min(TC_ABS_TOL_DAYS,
                                                TC_REL_TOL * ref[1]))
        rows.append((disease.name, pc, tau_c, t_c,
                     "tc-mismatch" if mismatch else ""))
    return rows


def cmd_critical(args) -> Artifact:
    rows = critical_rows(load_disease_table(args.table), args.p)
    return (["name", "p_c", "tau_c", "T_c_days", "flag"], rows,
            {"p": args.p, "table": args.table or "bundled"})


def cmd_simulate(args) -> Artifact:
    params = scenario_params(args)
    hist = outbreak_history(params, args.i0, args.q0, args.e0)
    traj = simulate(params, hist, args.t_end, args.step)
    # an SIQ run (E == 0 throughout) writes no E column or E labels
    seiq = params.sigma > 0 or args.e0 > 0
    # leaf labels of the initial data, on the run's own grid
    q, h1, h2 = leaf_labels(params, traj, 0.0)
    meta = params_meta(params, step=traj.step, t_end=traj.t_end,
                       i0=args.i0, q0=args.q0, e0=args.e0)
    # at eps = 1 (q_c = -inf) no endemic point exists to predict
    pred = endemic_point(params, q, h2) if params.eps < 1.0 else None
    if pred is not None:
        meta.update(predicted_v_S=pred.v_S, predicted_v_I=pred.v_I,
                    predicted_v_Q=pred.v_Q)
    meta.update(leaf_q=q, reachable=pred is not None and pred.reachable)
    if seiq:
        meta.update(H1_star=h1, H2_star=h2)
        if pred is not None:
            meta.update(predicted_v_E=pred.v_E)
        meta.update(leaf_eta=h2)
    else:
        meta.update(H=h1 + h2)
    order = [0, 2, 3, 1] if seiq else [0, 2, 3]   # file order: S,I,Q[,E]
    # integrator counters over every node: the sum of the states is
    # conserved by the model, and no written component may go negative
    drift = traj.states.sum(axis=1)
    drift -= drift[0]
    meta.update(steps=traj.n_nodes - 1,
                max_mass_drift=float(np.abs(drift, out=drift).max()),
                min_component=min(float(traj.states[:, c].min())
                                  for c in order))
    every = args.every or max(1, traj.n_nodes // 2000)
    meta["output_stride"] = every
    idx = np.arange(0, traj.n_nodes, every)
    if idx[-1] != traj.n_nodes - 1:
        idx = np.append(idx, traj.n_nodes - 1)
    cols = ["t", "S", "I", "Q", "E"] if seiq else ["t", "S", "I", "Q"]
    rows = np.column_stack([idx * traj.step, traj.states[idx][:, order]])
    return cols, rows, meta


def cmd_endemic(args) -> Artifact:
    params = scenario_params(args)
    # endemic_point trusts labels read off a flow; check the given ones
    fractions(q=args.q, eta=args.eta)
    pt = endemic_point(params, args.q, args.eta)
    # an SIQ leaf leaves the E cells blank
    seiq = params.sigma > 0 or args.eta > 0
    cols = ["leaf_q", "leaf_eta", "v_S", "v_E", "v_I", "v_Q", "reachable"]
    row = [pt.q, pt.eta if seiq else "", pt.v_S, pt.v_E if seiq else "",
           pt.v_I, pt.v_Q, int(pt.reachable)]
    return cols, [row], params_meta(
        params, q_c=q_critical(params.r, params.p, params.tau))


def cmd_spectrum(args) -> Artifact:
    params = scenario_params(args)
    q, eta = args.q, args.eta
    chi = (disease_free_chareq if args.equilibrium == "disease-free"
           else endemic_chareq)(params, q, eta)
    rep = count_unstable(chi, locate=not args.no_locate)
    meta = params_meta(params, equilibrium=args.equilibrium, q=q,
                       eta=eta, **{k: getattr(rep, k) for k in (
                           "unstable_count", "classification", "base",
                           "crossings", "collocation_n", "max_residual")})
    rows = [(z.real, z.imag, res) for z, res in zip(rep.roots, rep.residuals)]
    return ["root_re", "root_im", "residual"], rows, meta


def cmd_stability_map(args) -> Artifact:
    qc = q_critical(args.r, args.p, args.tau)
    # at q_c <= 0 the default grid is all 0, which endemic_chareq refuses
    q_hi = args.q_max if args.q_max is not None else 0.98 * max(qc, 0.0)
    qs = np.linspace(args.q_min, q_hi, args.q_steps)
    ks = np.linspace(args.kappa_min, args.kappa_max, args.kappa_steps)
    result = stability_map(args.r, args.p, args.tau, qs, ks)
    rows = [(q, k, int(result.counts[i, j]))
            for i, q in enumerate(result.q_grid)
            for j, k in enumerate(result.kappa_grid)]
    meta = {"r": args.r, "p": args.p, "tau": args.tau, "q_c": qc,
            "unknown_cells": int(np.sum(result.counts < 0))}
    meta.update((f"error_{i}", " ".join(e.split())) for i, e in result.errors)
    return ["q", "kappa", "unstable_count"], rows, meta


def cmd_hopf(args) -> Artifact:
    found = hopf_crossings(args.r, args.p, args.tau, args.q, args.kappa_max,
                           max_crossings=args.m_max + 1,
                           track_leaf=args.track_leaf)
    meta = {"r": args.r, "p": args.p, "tau": args.tau, "q": args.q,
            "kappa_max": args.kappa_max, "track_leaf": args.track_leaf,
            "found": bool(found)}
    if found:
        meta.update(asdict(found[0]))  # kappa_0, omega, direction, residual
    rows = [(m, c.kappa_0) for m, c in enumerate(found)]
    return ["m", "kappa_m"], rows, meta


def _fan_out(fn, items: list) -> tuple[list, int]:
    """``[fn(x) for x in items]`` on one process per available core, and
    the number of processes used.

    The items are dealt round-robin to ``min(len(items), cores)`` shares.
    This process runs share 0; every other share runs in a forked child,
    which pickles its results, or its first error, back through a pipe.
    The results keep item order, and the error raised is that of the
    lowest-index failing item, as a serial loop would raise.  With one
    share nothing is forked.  If a fork fails (say EAGAIN), this process
    runs that share and every later one itself, with the same results and
    error; the count returned is of the processes that ran.  Fork, not
    spawn: a spawned worker imports numpy and siq again, and ``fn`` need
    not be picklable.  Only the results cross the pipe, so each should be
    small.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        cores = os.cpu_count() or 1
    n_shares = max(1, min(len(items), cores))
    shares = [items[w::n_shares] for w in range(n_shares)]

    def run(share):
        results = []
        for k, item in enumerate(share):
            try:
                results.append(fn(item))
            except Exception as exc:
                return False, (k, exc)
        return True, results

    children = []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:             # no process to spare: run the
                os.close(r)             # rest of the shares here
                os.close(w)
                break
            if pid == 0:                # child: never returns
                code = 1
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as fh:
                        fh.write(pickle.dumps(run(share)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, r))
        outcomes = [run(share)
                    for share in shares[:1] + shares[1 + len(children):]]
    finally:
        received = []
        for pid, r in children:
            with os.fdopen(r, "rb") as fh:
                data = fh.read()
            received.append((data, os.waitpid(pid, 0)[1]))
    for w, (data, status) in enumerate(received, 1):
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not data:
            outcomes.insert(w, (False, (0, NumericalError(
                f"the worker for items {shares[w]} ended without a result "
                f"(wait status {status}, exit code {code})"))))
        else:
            outcomes.insert(w, pickle.loads(data))
    errors = {w + value[0] * n_shares: value[1]
              for w, (ok, value) in enumerate(outcomes) if not ok}
    if errors:
        raise errors[min(errors)]
    results = [None] * len(items)
    for w, (_, share_results) in enumerate(outcomes):
        results[w::n_shares] = share_results
    return results, 1 + len(children)


def cmd_ipeak(args) -> Artifact:
    params = scenario_params(args)
    # built only to reject bad outbreak data before any fork
    outbreak_history(params, args.i0, args.q0, args.e0)

    def peak_and_steps(kap):
        run = replace(params, kappa=0.0 if math.isinf(kap) else kap)
        hist = outbreak_history(run, args.i0, args.q0, args.e0)
        traj = simulate(run, hist, args.t_end, args.step,
                        kappa_inf=math.isinf(kap))
        return i_peak(traj, settle=args.settle), traj.n_nodes - 1

    runs, workers = _fan_out(peak_and_steps, args.kappas)
    rows = np.column_stack([args.kappas, [peak for peak, _ in runs]])
    meta = params_meta(params, i0=args.i0, q0=args.q0, e0=args.e0,
                       t_end=args.t_end, step=args.step, settle=args.settle,
                       workers=workers, steps=sum(n for _, n in runs))
    return ["kappa", "I_peak"], rows, meta


def cmd_network(args) -> Artifact:
    if args.edge_list:
        net = network_from_edge_list(args.edge_list)
    else:
        net = erdos_renyi_network(args.n, args.mean_degree, args.net_seed)
    n_init = max(1, int(round(args.i0_frac * net.n)))
    initial = tuple(range(n_init))
    cfgs = [SimConfig(beta=args.beta, gamma=args.gamma, p=args.p,
                      tau_days=args.tau_days, kappa_days=args.kappa_days,
                      t_end_days=args.t_end_days, seed=args.seed + k,
                      initial_infected=initial, n_out=args.n_out)
            for k in range(args.seeds)]
    if args.beta > 0:
        net.adjacency()     # built once here, not in each forked child
    runs, workers = _fan_out(lambda cfg: simulate_network(net, cfg), cfgs)
    avg = average_runs(runs)
    mf = mean_field_params(args.beta, net.mean_degree, args.gamma)
    meta = {"n": net.n, "mean_degree": net.mean_degree, "beta": args.beta,
            "gamma": args.gamma, "p": args.p, "tau_days": args.tau_days,
            "kappa_days": args.kappa_days, "seeds": args.seeds,
            "workers": workers, "base_seed": args.seed,
            "net_seed": args.net_seed, "initial_infected": n_init,
            "r_mean_field": mf.r, **asdict(avg.stats)}
    rows = np.column_stack([avg.t_days, avg.s_frac, avg.i_frac, avg.q_frac])
    return ["t_days", "S_frac", "I_frac", "Q_frac"], rows, meta


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser that raises ConfigError and takes no flag prefix: on the
    command line and in a config file a flag is spelled in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):           # argparse default exits with 2
        raise ConfigError(message)


class Flag:
    """A domain rule as an argparse ``type`` (with ``many``, of each entry
    of a comma list).  argparse reports its ArgumentTypeError as "argument
    --flag: <value> must be <rule>"; a ValueError would read "invalid"."""

    def __init__(self, rule, many: bool = False):
        self.rule, self.many = rule, many

    def __call__(self, text: str):
        try:
            if self.many:
                return [self.rule(tok) for tok in text.split(",")]
            return self.rule(text)
        except OutOfDomain as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_scenario_flags(sp, outbreak: bool = True):
    """--config and the model parameters; with ``outbreak``, the outbreak
    data and the run's horizon and step too."""
    sp.add_argument("--config", help="file of key = value lines, read as "
                    "--key=value flags before the command's own")
    sp.add_argument("--r", type=Flag(positive))
    sp.add_argument("--p", type=Flag(probability))
    sp.add_argument("--tau", type=Flag(finite_nonnegative))
    sp.add_argument("--kappa", type=Flag(finite_nonnegative))
    sp.add_argument("--sigma", type=Flag(finite_nonnegative), default=0.0)
    if outbreak:
        sp.add_argument("--i0", type=Flag(positive_fraction), default=1e-3)
        sp.add_argument("--q0", type=Flag(fraction), default=0.0)
        sp.add_argument("--e0", type=Flag(fraction), default=0.0)
        sp.add_argument("--t-end", type=Flag(positive), default=200.0)
        sp.add_argument("--step", type=Flag(positive), default=DEFAULT_STEP)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``siq`` parser, built once per process: every call returns the
    same object, which ``main`` shares, so it must not be modified.
    Parsing leaves it unchanged (each call fills a fresh Namespace, and
    every default is immutable)."""
    parser = _Parser(prog="siq", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"siq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("critical", help="critical thresholds per disease")
    sp.add_argument("--table", default=None, help="disease CSV (default: bundled)")
    sp.add_argument("--p", type=Flag(probability), required=True)
    sp.set_defaults(func=cmd_critical)

    sp = sub.add_parser("table2", help="bundled disease table at p = 0.8")
    sp.set_defaults(func=cmd_critical, table=None, p=0.8)

    sp = sub.add_parser("simulate", help="integrate a scenario to CSV")
    _add_scenario_flags(sp)
    sp.add_argument("--every", type=Flag(count(1)), default=None,
                    help="output every N-th grid node (default: ~2000 rows)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("endemic", help="endemic point on a leaf")
    _add_scenario_flags(sp, outbreak=False)
    sp.add_argument("--q", type=Flag(fraction), default=0.0,
                    help="leaf label")
    sp.add_argument("--eta", type=Flag(fraction), default=0.0,
                    help="leaf label of E")
    sp.set_defaults(func=cmd_endemic)

    sp = sub.add_parser("spectrum", help="count/locate unstable roots")
    _add_scenario_flags(sp, outbreak=False)
    sp.add_argument("--equilibrium", choices=["disease-free", "endemic"],
                    default="disease-free")
    sp.add_argument("--q", type=Flag(fraction), default=0.0)
    sp.add_argument("--eta", type=Flag(fraction), default=0.0)
    sp.add_argument("--no-locate", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("stability-map", help="unstable counts over (q, kappa)")
    sp.add_argument("--r", type=Flag(positive), required=True)
    sp.add_argument("--p", type=Flag(probability), required=True)
    sp.add_argument("--tau", type=Flag(finite_nonnegative), default=0.0)
    sp.add_argument("--q-min", type=Flag(fraction), default=0.0)
    sp.add_argument("--q-max", type=Flag(fraction), default=None,
                    help="default: 0.98 q_c")
    sp.add_argument("--q-steps", type=Flag(count(1)), default=10)
    sp.add_argument("--kappa-min", type=Flag(finite_nonnegative), default=0.0)
    sp.add_argument("--kappa-max", type=Flag(finite_nonnegative), default=25.0)
    sp.add_argument("--kappa-steps", type=Flag(count(1)), default=26)
    sp.set_defaults(func=cmd_stability_map)

    sp = sub.add_parser("hopf", help="first Hopf point and cascade in kappa")
    sp.add_argument("--r", type=Flag(positive), required=True)
    sp.add_argument("--p", type=Flag(probability), required=True)
    sp.add_argument("--tau", type=Flag(finite_nonnegative), default=0.0)
    sp.add_argument("--q", type=Flag(fraction), default=0.0)
    sp.add_argument("--kappa-max", type=Flag(finite_nonnegative), default=25.0)
    sp.add_argument("--m-max", type=Flag(count(0)), default=3)
    sp.add_argument("--track-leaf", action="store_true",
                    help="re-read the equilibrium from the leaf at each kappa")
    sp.set_defaults(func=cmd_hopf)

    sp = sub.add_parser("ipeak", help="peak infectious fraction per kappa")
    _add_scenario_flags(sp)
    sp.add_argument("--kappas", type=Flag(nonnegative, many=True),
                    help="comma list of kappa values; 'inf' allowed")
    sp.add_argument("--settle", type=Flag(finite_nonnegative), default=50.0)
    sp.set_defaults(func=cmd_ipeak)

    sp = sub.add_parser("network", help="stochastic network runs, averaged")
    sp.add_argument("--n", type=Flag(count(1)), default=10000)
    sp.add_argument("--mean-degree", type=Flag(finite_nonnegative),
                    default=10.0)
    sp.add_argument("--edge-list", default=None)
    sp.add_argument("--net-seed", type=Flag(count(0)), default=1)
    sp.add_argument("--beta", type=Flag(finite_nonnegative), required=True)
    sp.add_argument("--gamma", type=Flag(positive), required=True)
    sp.add_argument("--p", type=Flag(probability), required=True)
    sp.add_argument("--tau-days", type=Flag(nonnegative), required=True)
    sp.add_argument("--kappa-days", type=Flag(nonnegative), required=True)
    sp.add_argument("--t-end-days", type=Flag(positive), default=20.0)
    sp.add_argument("--i0-frac", type=Flag(positive_fraction), default=0.001)
    sp.add_argument("--seeds", type=Flag(count(1)), default=1)
    sp.add_argument("--seed", type=Flag(count(0)), default=12345)
    sp.add_argument("--n-out", type=Flag(count(2)), default=201)
    sp.set_defaults(func=cmd_network)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None,
                        help="artifact path (default or '-': stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # a config file is the flags it names, placed before the
            # command's own, so an explicit flag wins on either side
            argv = sys.argv[1:] if argv is None else list(argv)
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + config_flags(args.config)
                                     + argv[at:])
        # fail before the work; the file is still opened only after it
        if args.out not in (None, "-"):
            if os.path.isdir(args.out):
                raise IsADirectoryError(f"--out {args.out} is a directory")
            if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
                raise FileNotFoundError(f"no directory for --out {args.out}")
        columns, rows, meta = args.func(args)
        write_csv(args.out, columns, rows,
                  {"tool": "siq", "version": __version__, **meta})
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SiqError, ValueError, OSError) as exc:
        # OSError: a path given by the user cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
