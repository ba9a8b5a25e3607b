"""Event-driven stochastic simulation of the contact-network isolation
process, the microscopic counterpart of the mean-field delay system.

Nodes are S, I, or Q on an undirected graph.  A susceptible node is
infected by each infectious neighbor at rate beta; infectious nodes
recover at rate gamma; a node still infectious ``tau`` after its infection
is isolated with probability p (decided by a Bernoulli draw at infection
time, which is statistically identical); isolation lasts exactly kappa,
after which the node is susceptible again with its original neighborhood.
Isolated nodes neither transmit nor receive infection.

The initial infected nodes are never isolated; they only recover.  This
is the mean-field model's convention: its isolation term removes a
fraction of the infection flux r*S*I delayed by tau, so the jump i0 of
``outbreak_history`` is never isolated either.

Exactness: the per-edge infection processes (rate beta from an infectious
endpoint) superpose at an infectious node u into one Poisson process of
rate beta*deg(u) whose points pick a uniform neighbour and infect it if
and only if it is susceptible then.  u's infectious period ends at a time
fixed when u is infected (recovery after Exp(gamma), or isolation at
t + tau if the Bernoulli(p) draw says so and that comes first), and its
attempts stop there, so no event is ever voided.  Ties (only deterministic
isolation and release times can tie) go by event kind, then node.  RNG:
numpy PCG64 seeded with the config seed; buffered streams are consumed in
event order, recovery first, so runs are bit-reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import astuple, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BadDegree, FileParse
from .siq_model import ModelParams


@dataclass(frozen=True)
class Network:
    """Undirected simple graph: no self-loops, no duplicate edges (a row
    and its reverse are one edge); either endpoint order is accepted."""

    n: int
    edges: np.ndarray          # (m, 2) int64

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size and (e.min() < 0 or e.max() >= self.n):
            raise FileParse("edge endpoint out of node range")
        a, b = e[:, 0], e[:, 1]
        if (a == b).any():
            raise FileParse(f"self-loop at node {int(a[a == b][0])}")
        keys = np.minimum(a, b) * self.n
        keys += np.maximum(a, b)
        keys.sort()
        dup = keys[1:] == keys[:-1]
        if dup.any():
            k = int(keys[1:][dup][0])
            raise FileParse(f"duplicate edge {k // self.n} {k % self.n}")
        object.__setattr__(self, "edges", e)

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.edges.shape[0] / self.n if self.n else 0.0

    def adjacency(self) -> list[list[int]]:
        """Neighbour lists, built once per graph and shared by every run
        (callers must not modify them)."""
        nbrs = self.__dict__.get("_adjacency")
        if nbrs is None:
            # endpoint k of the flattened edge array has neighbour
            # other[k]; a stable sort by endpoint keeps edge-row order
            ends = self.edges.ravel()
            other = self.edges[:, ::-1].ravel()
            flat = other[np.argsort(ends, kind="stable")].tolist()
            bounds = np.cumsum(np.bincount(ends, minlength=self.n)).tolist()
            nbrs = [flat[a:b] for a, b in zip([0] + bounds, bounds)]
            object.__setattr__(self, "_adjacency", nbrs)
        return nbrs


def complete_network(n: int) -> Network:
    """Complete graph on n nodes."""
    if n < 1:
        raise BadDegree("need at least one node")
    i, j = np.triu_indices(n, k=1)
    return Network(n=n, edges=np.column_stack([i, j]))


def _pair_from_index(idx: np.ndarray, n: int) -> np.ndarray:
    """Map linear indices over the i<j pairs (row-major) to (i, j)."""
    b = 2 * n - 1

    def row_offset(i):
        return i * (n - 1) - i * (i - 1) // 2

    i = np.floor((b - np.sqrt(b * b - 8.0 * idx)) / 2.0).astype(np.int64)
    # guard the float sqrt against off-by-one at row boundaries
    i = np.where(row_offset(i) > idx, i - 1, i)
    i = np.where(row_offset(i + 1) <= idx, i + 1, i)
    j = idx - row_offset(i) + i + 1
    return np.column_stack([i, j])


def erdos_renyi_network(n: int, mean_degree: float, seed: int) -> Network:
    """G(n, p) with edge probability mean_degree/(n-1).

    Sampled by geometric skipping over the n*(n-1)/2 pair slots (PCG64),
    so generation is O(edges) and reproducible from the seed.
    """
    if n < 1:
        raise BadDegree("need at least one node")
    if not 0 <= mean_degree < n:
        raise BadDegree(f"mean degree {mean_degree!r} infeasible for n={n}")
    p = mean_degree / (n - 1) if n > 1 else 0.0
    total = n * (n - 1) // 2
    if p <= 0.0 or total == 0:
        return Network(n=n, edges=np.empty((0, 2), dtype=np.int64))
    rng = np.random.default_rng(seed)
    picks = []
    pos = -1
    batch = max(1024, int(1.2 * total * p))
    while pos < total:
        skips = rng.geometric(p, size=batch)
        idx = pos + np.cumsum(skips)
        picks.append(idx[idx < total])
        if idx[-1] >= total:
            break
        pos = int(idx[-1])
    idx = np.concatenate(picks)
    return Network(n=n, edges=_pair_from_index(idx, n))


def network_from_edge_list(path: str) -> Network:
    """Read whitespace-separated 0-indexed integer pairs; '#' comments."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for ln_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise FileParse(f"{path}:{ln_no}: expected two integers")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise FileParse(f"{path}:{ln_no}: {exc}") from exc
            if a < 0 or b < 0:
                raise FileParse(f"{path}:{ln_no}: negative node id")
            if a == b:
                raise FileParse(f"{path}:{ln_no}: self-loop {a}")
            pairs.append((min(a, b), max(a, b)))
    if not pairs:
        raise FileParse(f"{path}: no edges")
    n = max(max(a, b) for a, b in pairs) + 1
    return Network(n=n, edges=np.array(sorted(pairs), dtype=np.int64))


@dataclass(frozen=True)
class SimConfig:
    """One stochastic run: rates are per day, times in days."""

    beta: float
    gamma: float
    p: float
    tau_days: float
    kappa_days: float
    t_end_days: float
    seed: int
    initial_infected: tuple[int, ...]
    n_out: int = 201

    def __post_init__(self):
        # a run at beta = inf never ends; kappa_days = inf stays legal
        for name, ok, rule in (
                ("beta", 0.0 <= self.beta < math.inf, "finite and >= 0"),
                ("gamma", self.gamma >= 0.0, ">= 0"),
                ("tau_days", self.tau_days >= 0.0, ">= 0"),
                ("kappa_days", self.kappa_days >= 0.0, ">= 0"),
                ("p", 0.0 <= self.p <= 1.0, "in [0, 1]"),
                ("t_end_days", 0.0 < self.t_end_days < math.inf,
                 "finite and > 0"),
                ("n_out", self.n_out >= 2, ">= 2")):
            if not ok:                    # NaN fails every comparison
                raise ValueError(f"{name} = {getattr(self, name)!r} must "
                                 f"be {rule}")
        object.__setattr__(self, "initial_infected",
                           tuple(int(u) for u in self.initial_infected))


@dataclass(frozen=True)
class NetworkStats:
    """Events a run processed up to t_end, by kind (``infections`` counts
    the seeds too; a stale pop finds its node out of the state it acts on).
    Runs combine with ``+``: counts add, ``peak_heap`` takes the larger."""

    attempts: int = 0
    infections: int = 0
    recoveries: int = 0
    isolations: int = 0
    releases: int = 0
    peak_heap: int = 0
    stale_pops: int = 0

    def __add__(self, other: NetworkStats) -> NetworkStats:
        sums = NetworkStats(*(a + b for a, b in zip(astuple(self),
                                                    astuple(other))))
        return replace(sums, peak_heap=max(self.peak_heap, other.peak_heap))


@dataclass(frozen=True)
class NetworkSeries:
    """Compartment fractions on a uniform output grid (right-continuous),
    with the run's event counters (None where the producer kept none)."""

    t_days: np.ndarray
    s_frac: np.ndarray
    i_frac: np.ndarray
    q_frac: np.ndarray
    seed: int
    n: int
    stats: NetworkStats | None = None


def _stream(fill: Callable[[int], np.ndarray], block: int = 1 << 15,
            chunk: int = 1 << 9):
    """Endless draws from ``fill`` as Python floats: ``block`` at a time
    (the first block now), converted to floats ``chunk`` at a time."""
    def chunks(arr):
        while True:
            yield from (arr[i:i + chunk].tolist() for i in range(0, block, chunk))
            arr = fill(block)

    return itertools.chain.from_iterable(chunks(fill(block))).__next__


_ATTEMPT, _RECOVER, _ISOLATE, _RELEASE = 0, 1, 2, 3
_ACTS_ON = (1, 1, 1, 2)        # node state each event kind needs: I or Q


def _invalid_ids(what: str, ids: list[int]) -> str:
    more = f", ... ({len(ids)} in all)" if len(ids) > 5 else ""
    return (f"initial infected set invalid: ids {what}: "
            f"{', '.join(map(str, ids[:5]))}{more}")


def simulate_network(net: Network, cfg: SimConfig) -> NetworkSeries:
    """Exact event-driven run of the isolation process on ``net``."""
    seeds = cfg.initial_infected
    bad = [u for u in seeds if not 0 <= u < net.n]
    if bad:
        raise ValueError(_invalid_ids(f"outside [0, {net.n})", bad))
    if len(set(seeds)) != len(seeds):
        raise ValueError(_invalid_ids(
            "repeated", [u for u, m in Counter(seeds).items() if m > 1]))
    if not seeds:
        raise ValueError("initial infected set invalid: empty")

    rng = np.random.default_rng(cfg.seed)
    exp_draw = _stream(rng.standard_exponential)
    uni_draw = _stream(rng.random)

    beta, gamma, p = cfg.beta, cfg.gamma, cfg.p
    tau, kappa, t_end = cfg.tau_days, cfg.kappa_days, cfg.t_end_days
    nbrs = net.adjacency() if beta > 0.0 else None
    state = bytearray(net.n)           # 0 S, 1 I, 2 Q
    until = [0.0] * net.n              # end of the node's infectious period
    heap: list[tuple[float, int, int]] = []   # (time, kind, node)
    push, pop = heapq.heappush, heapq.heappop

    def infect(u: int, t: float, isolable: bool):
        """Make u infectious at t; push its end and its first transmission
        attempt, each if it falls by t_end (the attempt: before the end)."""
        state[u] = 1
        end = t + exp_draw() / gamma if gamma > 0.0 else math.inf
        kind = _RECOVER
        if isolable and uni_draw() < p and t + tau < end:
            end, kind = t + tau, _ISOLATE
        until[u] = end
        if end <= t_end:
            push(heap, (end, kind, u))
        if nbrs is not None and nbrs[u]:
            ta = t + exp_draw() / (beta * len(nbrs[u]))
            if ta < end and ta <= t_end:
                push(heap, (ta, _ATTEMPT, u))

    for u in seeds:
        infect(u, 0.0, isolable=False)
    attempts = recoveries = isolations = releases = stale = 0
    infections, peak = len(seeds), len(heap)

    grid = np.linspace(0.0, t_end, cfg.n_out)
    next_out = grid.tolist() + [math.inf]
    out: list[tuple[int, int]] = []    # (I, Q) counts at the grid times
    t_out = 0.0

    while heap:
        t, kind, u = pop(heap)
        while t_out < t:               # grid points before t see the old state
            out.append((infections - recoveries - isolations,
                        isolations - releases))
            t_out = next_out[len(out)]
        if state[u] != _ACTS_ON[kind]:
            stale += 1
        elif kind == _ATTEMPT:
            attempts += 1
            nb = nbrs[u]
            w = nb[int(uni_draw() * len(nb))]
            if state[w] == 0:
                infect(w, t, isolable=True)
                infections += 1
                peak = max(peak, len(heap))
            ta = t + exp_draw() / (beta * len(nb))
            if ta < until[u] and ta <= t_end:      # u's next attempt
                push(heap, (ta, _ATTEMPT, u))
        elif kind == _RECOVER:
            state[u] = 0
            recoveries += 1
        elif kind == _ISOLATE:
            state[u] = 2
            isolations += 1
            if t + kappa <= t_end:
                push(heap, (t + kappa, _RELEASE, u))
        else:  # _RELEASE
            state[u] = 0
            releases += 1

    out += [(infections - recoveries - isolations,
             isolations - releases)] * (cfg.n_out - len(out))
    i_count, q_count = np.array(out, dtype=float).T
    inv_n = 1.0 / net.n
    return NetworkSeries(
        t_days=grid, s_frac=(net.n - i_count - q_count) * inv_n,
        i_frac=i_count * inv_n, q_frac=q_count * inv_n,
        seed=cfg.seed, n=net.n,
        stats=NetworkStats(attempts, infections, recoveries, isolations,
                           releases, peak, stale))


def average_runs(runs: Sequence[NetworkSeries]) -> NetworkSeries:
    """Pointwise average of runs sharing one output grid (seed order fixed),
    with their counters combined (None if any run has none)."""
    if not runs:
        raise ValueError("no runs to average")
    t = runs[0].t_days
    for run in runs[1:]:
        if run.t_days.shape != t.shape or not np.allclose(run.t_days, t):
            raise ValueError("runs use different output grids")
    stats = [r.stats for r in runs]
    return NetworkSeries(
        t_days=t,
        s_frac=np.mean([r.s_frac for r in runs], axis=0),
        i_frac=np.mean([r.i_frac for r in runs], axis=0),
        q_frac=np.mean([r.q_frac for r in runs], axis=0),
        seed=runs[0].seed, n=runs[0].n,
        stats=None if None in stats else sum(stats[1:], stats[0]))


@dataclass(frozen=True)
class MeanFieldMap:
    """Rescaling from network rates to the mean-field model.

    r = beta*<k>/gamma; model time = gamma * days; delays rescale the same
    way (tau~ = gamma*tau, kappa~ = gamma*kappa) and eps = p*exp(-gamma*tau).
    """

    r: float
    gamma: float

    def model_time(self, t_days: float) -> float:
        return self.gamma * t_days

    def to_model_params(self, p: float, tau_days: float, kappa_days: float,
                        sigma_days: float = 0.0) -> ModelParams:
        g = self.gamma
        return ModelParams(r=self.r, p=p, tau=g * tau_days,
                           kappa=g * kappa_days, sigma=g * sigma_days)


def mean_field_params(beta: float, mean_degree: float,
                      gamma: float) -> MeanFieldMap:
    """Mean-field reduction of the network rates."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return MeanFieldMap(r=beta * mean_degree / gamma, gamma=gamma)


__all__ = [
    "Network", "complete_network", "erdos_renyi_network",
    "network_from_edge_list", "SimConfig", "NetworkStats", "NetworkSeries",
    "simulate_network", "average_runs", "MeanFieldMap", "mean_field_params",
]
