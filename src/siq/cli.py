"""Batch command-line front end.

Every subcommand writes a CSV artifact (stdout by default) with a metadata
header of ``# key = value`` lines recording parameters, step sizes, seeds,
and the tool version, so artifacts are self-describing and re-parseable by
this module's own readers.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .dde_core import DEFAULT_STEP, Trajectory
from .equilibria import (critical_identification_time, critical_probability,
                         critical_time_days, endemic_point,
                         predict_endemic_from_history, q_critical,
                         seiq_endemic_point)
from .errors import (ConfigError, FileParse, HorizonTooShort, NumericalError,
                     SiqError)
from .net_sim import (SimConfig, average_runs, erdos_renyi_network,
                      mean_field_params, network_from_edge_list,
                      simulate_network)
from .siq_model import (ModelParams, conserved_H, conserved_H_star,
                        load_disease_table, outbreak_history, simulate)
from .spectral import (count_unstable, disease_free_chareq, endemic_chareq,
                       hopf_crossings, hopf_sequence, seiq_disease_free_chareq,
                       stability_map)

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


def write_csv(out: str | None, columns: Sequence[str],
              rows: Iterable[Sequence], meta: dict) -> None:
    lines = [f"# {k} = {fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


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

CONFIG_KEYS = ("r", "p", "tau", "kappa", "sigma", "i0", "q0", "e0",
               "t_end", "step", "out")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated simulation scenario (model params + initial data + run)."""

    params: ModelParams
    i0: float
    q0: float
    e0: float
    t_end: float
    step: float
    out: str | None


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; keys restricted to CONFIG_KEYS."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for ln_no, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{ln_no}: expected key = value")
                key, _, value = stripped.partition("=")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{ln_no}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return values


def build_scenario(args) -> ScenarioConfig:
    values = parse_config_file(args.config) if args.config else {}
    # CLI flags override file values
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    def num(key, default=None):
        if key in values:
            try:
                return float(values[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key} = {values[key]!r} "
                                  "is not a number") from exc
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    try:
        params = ModelParams(r=num("r"), p=num("p"), tau=num("tau"),
                             kappa=num("kappa"), sigma=num("sigma", 0.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ScenarioConfig(params=params, i0=num("i0", 1e-3),
                          q0=num("q0", 0.0), e0=num("e0", 0.0),
                          t_end=num("t_end", 200.0),
                          step=num("step", DEFAULT_STEP),
                          out=values.get("out"))


def params_meta(params: ModelParams, **extra) -> dict:
    meta = {"tool": "siq", "version": __version__,
            "r": params.r, "p": params.p, "tau": params.tau,
            "kappa": params.kappa, "sigma": params.sigma, "eps": params.eps}
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# transient metrics
# ---------------------------------------------------------------------------

def i_peak(traj: Trajectory, i_index: int = 1, settle: float = 50.0,
           rel_tol: float = 1e-9) -> float:
    """Peak of the dense infectious fraction.

    The horizon must extend ``settle`` time units past the last relative
    movement (> rel_tol) of I's running maximum, otherwise HorizonTooShort
    is raised; the tolerance makes the detector terminate for trajectories
    that creep monotonically into their plateau.  The dense maximum is
    taken over grid nodes and Hermite cell midpoints.
    """
    vals = traj.states[:, i_index]
    mids = traj.evaluate((np.arange(traj.n_nodes - 1) + 0.5) * traj.step,
                         columns=[i_index])
    peak = max(float(vals.max()), float(mids.max()))
    running = np.maximum.accumulate(vals)
    moved = np.diff(running) > rel_tol * running[1:]
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
        flags = []
        if p <= pc:
            tau_c = math.nan
            t_c = math.nan
            flags.append("uncontrollable")
        else:
            tau_c = critical_identification_time(disease.r, p)
            t_c = critical_time_days(disease, p)
            ref = REFERENCE_AT_P08.get(disease.name)
            if ref is not None and abs(p - 0.8) < 1e-12:
                t_ref = ref[1]
                if (abs(t_c - t_ref) > TC_ABS_TOL_DAYS
                        or abs(t_c - t_ref) > TC_REL_TOL * t_ref):
                    flags.append("tc-mismatch")
        rows.append((disease.name, pc, tau_c, t_c, "+".join(flags)))
    return rows


def cmd_critical(args) -> int:
    table = load_disease_table(args.table)
    rows = critical_rows(table, args.p)
    write_csv(args.out, ["name", "p_c", "tau_c", "T_c_days", "flag"], rows,
              {"tool": "siq", "version": __version__, "p": args.p,
               "table": args.table or "bundled"})
    return 0


def cmd_table2(args) -> int:
    args.table = None
    args.p = 0.8
    return cmd_critical(args)


def cmd_simulate(args) -> int:
    sc = build_scenario(args)
    hist = outbreak_history(sc.params, sc.i0, sc.q0, sc.e0)
    traj = simulate(sc.params, hist, sc.t_end, sc.step)
    seiq = traj.dimension == 4
    pred = predict_endemic_from_history(sc.params, hist)
    meta = params_meta(sc.params, step=traj.step, t_end=traj.t_end,
                       i0=sc.i0, q0=sc.q0, e0=sc.e0,
                       predicted_v_S=pred.v_S, predicted_v_I=pred.v_I,
                       predicted_v_Q=pred.v_Q, leaf_q=pred.q,
                       reachable=pred.reachable)
    if seiq:
        h1, h2 = conserved_H_star(sc.params, hist)
        meta.update(H1_star=h1, H2_star=h2, predicted_v_E=pred.v_E,
                    leaf_eta=pred.eta)
    else:
        meta.update(H=conserved_H(sc.params, hist))
    every = args.every or max(1, traj.n_nodes // 2000)
    meta["output_stride"] = every
    idx = np.arange(0, traj.n_nodes, every)
    if idx[-1] != traj.n_nodes - 1:
        idx = np.append(idx, traj.n_nodes - 1)
    ts = idx * traj.step
    cols = ["t", "S", "I", "Q", "E"] if seiq else ["t", "S", "I", "Q"]
    order = (0, 2, 3, 1) if seiq else (0, 1, 2)   # file order: S,I,Q[,E]
    rows = [[float(t)] + [float(traj.states[i, c]) for c in order]
            for t, i in zip(ts, idx)]
    write_csv(sc.out if args.out is None else args.out, cols, rows, meta)
    return 0


def cmd_endemic(args) -> int:
    sc = build_scenario(args)
    params = sc.params
    if args.q is not None:
        eta = args.eta or 0.0
        if params.sigma > 0 or args.eta is not None:
            pt = seiq_endemic_point(params, eta, args.q)
        else:
            pt = endemic_point(params, args.q)
    else:
        hist = outbreak_history(params, sc.i0, sc.q0, sc.e0)
        pt = predict_endemic_from_history(params, hist)
    cols = ["leaf_q", "leaf_eta", "v_S", "v_E", "v_I", "v_Q", "reachable"]
    row = [pt.q, pt.eta if pt.eta is not None else "",
           pt.v_S, pt.v_E if pt.v_E is not None else "",
           pt.v_I, pt.v_Q, int(pt.reachable)]
    write_csv(args.out, cols, [row],
              params_meta(params, q_c=q_critical(params.r, params.p, params.tau)))
    return 0


def cmd_spectrum(args) -> int:
    sc = build_scenario(args)
    params = sc.params
    q, eta = args.q or 0.0, args.eta or 0.0
    latent = args.equilibrium == "disease-free" and params.sigma > 0
    if eta and not latent:
        raise ConfigError(f"eta = {eta!r} labels the latent disease-free "
                          "point only (sigma > 0, --equilibrium disease-free)")
    if latent:
        chi = seiq_disease_free_chareq(params, eta, q)
    elif args.equilibrium == "disease-free":
        chi = disease_free_chareq(params, q)
    else:
        chi = endemic_chareq(params, q)
    rep = count_unstable(chi, locate=not args.no_locate)
    meta = params_meta(params, equilibrium=args.equilibrium, q=q,
                       eta=eta, **{k: getattr(rep, k) for k in (
                           "unstable_count", "classification", "base",
                           "crossings", "collocation_n", "max_residual")})
    rows = [(z.real, z.imag, res) for z, res in zip(rep.roots, rep.residuals)]
    write_csv(args.out, ["root_re", "root_im", "residual"], rows, meta)
    return 0


def cmd_stability_map(args) -> int:
    qc = q_critical(args.r, args.p, args.tau)
    q_hi = args.q_max if args.q_max is not None else qc * 0.98
    qs = np.linspace(args.q_min, q_hi, args.q_steps)
    ks = np.linspace(args.kappa_min, args.kappa_max, args.kappa_steps)
    result = stability_map(args.r, args.p, args.tau, qs, ks)
    rows = [(q, k, int(result.counts[i, j]))
            for i, q in enumerate(result.q_grid)
            for j, k in enumerate(result.kappa_grid)]
    meta = {"tool": "siq", "version": __version__, "r": args.r, "p": args.p,
            "tau": args.tau, "q_c": qc,
            "unknown_cells": int(np.sum(result.counts < 0))}
    meta.update((f"error_{i}", " ".join(e.split())) for i, e in result.errors)
    write_csv(args.out, ["q", "kappa", "unstable_count"], rows, meta)
    return 0


def cmd_hopf(args) -> int:
    # With the leaf tracked, omega moves with kappa: the cascade rows are
    # the solved crossings up to kappa_max, not kappa_0 + 2 pi m / Omega.
    found = hopf_crossings(args.r, args.p, args.tau, args.q, args.kappa_max,
                           max_crossings=args.m_max + 1,
                           track_leaf=args.track_leaf)
    data = found[0] if found else None
    meta = {"tool": "siq", "version": __version__, "r": args.r, "p": args.p,
            "tau": args.tau, "q": args.q, "kappa_max": args.kappa_max,
            "track_leaf": args.track_leaf,
            "found": data is not None}
    rows = []
    if data is not None:
        meta.update(asdict(data))      # kappa_0, omega, direction, residual
        kappas = ([c.kappa_0 for c in found] if args.track_leaf else
                  [hopf_sequence(data, m) for m in range(args.m_max + 1)])
        rows = list(enumerate(kappas))
    write_csv(args.out, ["m", "kappa_m"], rows, meta)
    return 0


def cmd_ipeak(args) -> int:
    sc = build_scenario(args)
    kappas = []
    for tok in args.kappas.split(","):
        tok = tok.strip()
        kappas.append(math.inf if tok in ("inf", "Inf") else float(tok))
    rows = []
    for kap in kappas:
        if math.isinf(kap):
            if sc.params.sigma > 0:
                raise ConfigError("kappa = inf runs are defined for the "
                                  "three-state model only (sigma = 0)")
            params = ModelParams(r=sc.params.r, p=sc.params.p,
                                 tau=sc.params.tau, kappa=0.0)
            hist = outbreak_history(params, sc.i0, sc.q0)
            traj = simulate(params, hist, sc.t_end, sc.step, kappa_inf=True)
        else:
            params = ModelParams(r=sc.params.r, p=sc.params.p,
                                 tau=sc.params.tau, kappa=kap,
                                 sigma=sc.params.sigma)
            hist = outbreak_history(params, sc.i0, sc.q0, sc.e0)
            traj = simulate(params, hist, sc.t_end, sc.step)
        i_idx = 2 if traj.dimension == 4 else 1
        rows.append((kap, i_peak(traj, i_index=i_idx, settle=args.settle)))
    meta = params_meta(sc.params, i0=sc.i0, q0=sc.q0, t_end=sc.t_end,
                       step=sc.step, settle=args.settle)
    write_csv(args.out, ["kappa", "I_peak"], rows, meta)
    return 0


def cmd_network(args) -> int:
    if args.edge_list:
        net = network_from_edge_list(args.edge_list)
    else:
        net = erdos_renyi_network(args.n, args.mean_degree, args.net_seed)
    n_init = max(1, int(round(args.i0_frac * net.n)))
    initial = tuple(range(n_init))
    runs = []
    for k in range(args.seeds):
        cfg = SimConfig(beta=args.beta, gamma=args.gamma, p=args.p,
                        tau_days=args.tau_days, kappa_days=args.kappa_days,
                        t_end_days=args.t_end_days, seed=args.seed + k,
                        initial_infected=initial, n_out=args.n_out)
        runs.append(simulate_network(net, cfg))
    avg = average_runs(runs)
    mf = mean_field_params(args.beta, net.mean_degree, args.gamma)
    meta = {"tool": "siq", "version": __version__, "n": net.n,
            "mean_degree": net.mean_degree, "beta": args.beta,
            "gamma": args.gamma, "p": args.p, "tau_days": args.tau_days,
            "kappa_days": args.kappa_days, "seeds": args.seeds,
            "base_seed": args.seed, "net_seed": args.net_seed,
            "initial_infected": n_init, "r_mean_field": mf.r,
            **asdict(avg.stats)}
    rows = zip(avg.t_days, avg.s_frac, avg.i_frac, avg.q_frac)
    write_csv(args.out, ["t_days", "S_frac", "I_frac", "Q_frac"], rows, meta)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):           # argparse default exits with 2
        raise ConfigError(message)


def _add_scenario_flags(sp):
    sp.add_argument("--config", help="key = value scenario file")
    for key in CONFIG_KEYS:
        if key == "out":
            continue
        sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    sp.add_argument("--out", dest="out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="siq", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"siq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("critical", help="critical thresholds per disease")
    sp.add_argument("--table", default=None, help="disease CSV (default: bundled)")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_critical)

    sp = sub.add_parser("table2", help="bundled disease table at p = 0.8")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_table2)

    sp = sub.add_parser("simulate", help="integrate a scenario to CSV")
    _add_scenario_flags(sp)
    sp.add_argument("--every", type=int, default=None,
                    help="output every N-th grid node (default: ~2000 rows)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("endemic", help="endemic point from leaf or history")
    _add_scenario_flags(sp)
    sp.add_argument("--q", type=float, default=None, help="leaf label")
    sp.add_argument("--eta", type=float, default=None, help="latent leaf label")
    sp.set_defaults(func=cmd_endemic)

    sp = sub.add_parser("spectrum", help="count/locate unstable roots")
    _add_scenario_flags(sp)
    sp.add_argument("--equilibrium", choices=["disease-free", "endemic"],
                    default="disease-free")
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--no-locate", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("stability-map", help="unstable counts over (q, kappa)")
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--tau", type=float, default=0.0)
    sp.add_argument("--q-min", type=float, default=0.0)
    sp.add_argument("--q-max", type=float, default=None,
                    help="default: 0.98 q_c")
    sp.add_argument("--q-steps", type=int, default=10)
    sp.add_argument("--kappa-min", type=float, default=0.0)
    sp.add_argument("--kappa-max", type=float, default=25.0)
    sp.add_argument("--kappa-steps", type=int, default=26)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_stability_map)

    sp = sub.add_parser("hopf", help="first Hopf point and cascade in kappa")
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--tau", type=float, default=0.0)
    sp.add_argument("--q", type=float, default=0.0)
    sp.add_argument("--kappa-max", type=float, default=25.0)
    sp.add_argument("--m-max", type=int, default=3)
    sp.add_argument("--track-leaf", action="store_true",
                    help="re-read the equilibrium from the leaf at each kappa")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_hopf)

    sp = sub.add_parser("ipeak", help="peak infectious fraction per kappa")
    _add_scenario_flags(sp)
    sp.add_argument("--kappas", required=True,
                    help="comma list of kappa values; 'inf' allowed")
    sp.add_argument("--settle", type=float, default=50.0)
    sp.set_defaults(func=cmd_ipeak)

    sp = sub.add_parser("network", help="stochastic network runs, averaged")
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--mean-degree", type=float, default=10.0)
    sp.add_argument("--edge-list", default=None)
    sp.add_argument("--net-seed", type=int, default=1)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--tau-days", type=float, required=True)
    sp.add_argument("--kappa-days", type=float, required=True)
    sp.add_argument("--t-end-days", type=float, default=20.0)
    sp.add_argument("--i0-frac", type=float, default=0.001)
    sp.add_argument("--seeds", type=int, default=1)
    sp.add_argument("--seed", type=int, default=12345)
    sp.add_argument("--n-out", type=int, default=201)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_network)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SiqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
