"""The four workloads: which ``siq`` CLI calls make one round, and how each
call's artifact is checked.

A workload is a builder that takes the run's ``random.Random`` (seeded
from the workload seed) and returns the jobs of one round, plus a fixed
warm-up job.  Scenario values are fixed, so every round of a workload does
the same work; the generator only permutes the order of the calls and of
the kappa lists handed to ``siq ipeak``, and draws fresh graph and run
seeds for every ``beta = 0`` call of ``siq network``.  Every trajectory
job passes ``--step 0.01``: the step is part of the scenario, so a later
change of the default step does not change the benchmark's work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks
import oracles


@dataclass(frozen=True)
class Job:
    """One CLI call (without ``--out``) and the check of its artifact."""

    name: str
    argv: tuple[str, ...]
    check: Callable


def _args(command: str, **flags) -> tuple[str, ...]:
    out = [command]
    for key, value in flags.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return tuple(out)


# ---------------------------------------------------------------------------
# sweep: siq ipeak kappa sweeps of the r = 2.5 outbreak
# ---------------------------------------------------------------------------

SWEEP_KAPPAS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, float("inf"))
#: (tau, p) of the three-state sweeps; one SEIQ sweep rides along.
SWEEP_POINTS = ((0.5, 0.5), (1.0, 0.5), (0.1, 0.5), (0.5, 0.4))
SWEEP_SEIQ = dict(tau=0.5, p=0.5, sigma=0.5)
SWEEP_RUN = dict(r=2.5, kappa=0, i0=0.01, t_end=100, step=0.01)


def _kappa_list(kappas, rng: random.Random) -> str:
    order = list(kappas)
    rng.shuffle(order)
    return ",".join("inf" if k == float("inf") else repr(k) for k in order)


SWEEP_WARM_UP = Job("ipeak warm-up",
                    _args("ipeak", **SWEEP_RUN, tau=0.5, p=0.5,
                          kappas="5,inf"),
                    partial(checks.check_ipeak, kappas=[5.0, float("inf")]))


def sweep(rng: random.Random) -> list[Job]:
    jobs = []
    for tau, p in SWEEP_POINTS:
        jobs.append(Job(f"ipeak tau={tau} p={p}",
                        _args("ipeak", **SWEEP_RUN, tau=tau, p=p,
                              kappas=_kappa_list(SWEEP_KAPPAS, rng)),
                        partial(checks.check_ipeak,
                                kappas=list(SWEEP_KAPPAS))))
    finite = SWEEP_KAPPAS[:-1]
    jobs.append(Job("ipeak seiq sigma=0.5",
                    _args("ipeak", **SWEEP_RUN, **SWEEP_SEIQ,
                          kappas=_kappa_list(finite, rng)),
                    partial(checks.check_ipeak, kappas=list(finite))))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# trajectory: siq simulate single long runs
# ---------------------------------------------------------------------------

OUTBREAK = dict(r=2.5, p=0.5, tau=0.5, i0=0.01)


def _logistic(t_end: float) -> Job:
    o = OUTBREAK
    return Job(f"simulate tau=kappa=0 t_end={t_end}",
               _args("simulate", r=o["r"], p=o["p"], tau=0, kappa=0,
                     i0=o["i0"], t_end=t_end, step=0.01),
               partial(checks.check_logistic, r=o["r"], p=o["p"],
                       i0=o["i0"]))


TRAJECTORY_WARM_UP = _logistic(100)


def trajectory(rng: random.Random) -> list[Job]:
    # Three of the five runs take about the same time, so the median job
    # pools three kinds of call.
    o = OUTBREAK
    jobs = [
        _logistic(400),
        Job("simulate kappa=5",
            _args("simulate", **o, kappa=5, t_end=400, step=0.01),
            partial(checks.check_endemic_end, r=o["r"], p=o["p"],
                    tau=o["tau"], kappa=5.0)),
        # kappa either side of the (13, 14) Hopf bracket of the leaf q = 0
        Job("simulate kappa=12.5",
            _args("simulate", **o, kappa=12.5, t_end=1200, step=0.01,
                  every=10),
            partial(checks.check_tail, converges=True)),
        Job("simulate kappa=14.5",
            _args("simulate", **o, kappa=14.5, t_end=1200, step=0.01,
                  every=10),
            partial(checks.check_tail, converges=False)),
        Job("simulate seiq sigma=0.5",
            _args("simulate", **o, kappa=5, sigma=0.5, t_end=300, step=0.01),
            checks.check_mass),
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# spectra: Hopf scans, a stability map and disease-free root counts
# ---------------------------------------------------------------------------

#: (r, p, tau, q) of the Hopf scans; their first crossings lie at kappa
#: 3.01, 3.42 and 2.90, so a scan costs a few hundred root counts.
HOPF_POINTS = ((5.0, 0.85, 0.2, 0.0), (6.0, 0.85, 0.1, 0.0),
               (4.5, 0.85, 0.25, 0.02))
HOPF_KAPPA_MAX = 20.0
MAP = dict(r=4.0, p=0.8, tau=0.2, q_min=0.0, q_max=0.2, q_steps=4,
           kappa_min=0.0, kappa_max=14.0, kappa_steps=8)
#: Cells this close to a crossing kappa_m(q) are not checked.
MAP_MARGIN = 0.05
DISEASE_FREE = dict(r=2.5, p=0.5, tau=0.5, kappa=5.0)


def _disease_free(q_offset: float) -> Job:
    d = DISEASE_FREE
    q = oracles.q_critical(d["r"], d["p"], d["tau"]) + q_offset
    return Job(f"spectrum disease-free q=q_c{q_offset:+}",
               _args("spectrum", **d, equilibrium="disease-free", q=repr(q)),
               partial(checks.check_disease_free, r=d["r"], p=d["p"],
                       tau=d["tau"], q=q))


#: The count above q_c is cheap, so it is the warm-up of every run.
SPECTRA_WARM_UP = _disease_free(+0.05)


def spectra(rng: random.Random) -> list[Job]:
    jobs = [Job(f"hopf r={r} p={p} tau={tau} q={q}",
                _args("hopf", r=r, p=p, tau=tau, q=q,
                      kappa_max=HOPF_KAPPA_MAX),
                partial(checks.check_hopf, r=r, p=p, tau=tau, q=q,
                        kappa_max=HOPF_KAPPA_MAX))
            for r, p, tau, q in HOPF_POINTS]
    jobs.append(Job("stability-map", _args("stability-map", **MAP),
                    partial(checks.check_stability_map, r=MAP["r"],
                            p=MAP["p"], tau=MAP["tau"], margin=MAP_MARGIN)))
    jobs.append(_disease_free(-0.05))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# network: event-driven runs on Erdos-Renyi graphs
# ---------------------------------------------------------------------------

#: beta <k> / gamma = 2.5 at both degrees, as in the mean-field map.
NETWORK = dict(gamma=1.0, p=0.5, tau_days=0.5, kappa_days=5.0,
               i0_frac=0.01)
#: (n, <k>, beta, runs per call).  The two epidemic calls keep the graph
#: and run seeds of acceptance criterion 9 (2024, 1000): the event count of
#: a realization moves a call's time by up to 20 %, so fixed seeds keep
#: every run's work the same.  Both take about the same time, so the
#: median job pools the two kinds of call.
NETWORK_GRAPHS = ((2500, 10, 0.25, 2), (1250, 20, 0.125, 2))
NETWORK_SEEDS = dict(net_seed=2024, seed=1000)
PURE_DEATH = dict(n=10000, mean_degree=10, beta=0.0, i0_frac=0.5, seeds=2)


def _pure_death(net_seed: int, seed: int) -> Job:
    return Job("network beta=0",
               _args("network", **{**NETWORK, **PURE_DEATH},
                     net_seed=net_seed, seed=seed),
               partial(checks.check_pure_death, gamma=NETWORK["gamma"],
                       seeds=PURE_DEATH["seeds"],
                       i0_frac=PURE_DEATH["i0_frac"]))


NETWORK_WARM_UP = _pure_death(1, 1)


def network(rng: random.Random) -> list[Job]:
    jobs = [Job(f"network n={n} k={k}",
                _args("network", **NETWORK, n=n, mean_degree=k, beta=beta,
                      seeds=runs, **NETWORK_SEEDS),
                partial(checks.check_network, i0_frac=NETWORK["i0_frac"],
                        tau_days=NETWORK["tau_days"]))
            for n, k, beta, runs in NETWORK_GRAPHS]
    jobs.append(_pure_death(rng.randrange(1 << 30), rng.randrange(1 << 30)))
    rng.shuffle(jobs)
    return jobs


#: name -> (warm-up job, builder of one round's jobs)
WORKLOADS = {"sweep": (SWEEP_WARM_UP, sweep),
             "trajectory": (TRAJECTORY_WARM_UP, trajectory),
             "spectra": (SPECTRA_WARM_UP, spectra),
             "network": (NETWORK_WARM_UP, network)}

