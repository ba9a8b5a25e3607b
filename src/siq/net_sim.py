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

Exactness: per-edge exponential infection clocks are realized as one
aggregated clock per susceptible node (rate beta x infectious neighbors),
resampled whenever that count changes -- valid by memorylessness.  Event
ties are broken by insertion sequence number, so scheduled deterministic
events (isolation, release) fire before any stochastic redraw inserted
later at the same timestamp.  RNG: numpy PCG64 seeded with the config
seed; draws are consumed from buffered streams in event order, so runs
are bit-reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadDegree, FileParse
from .siq_model import ModelParams


@dataclass(frozen=True)
class Network:
    """Undirected simple graph: no self-loops, no duplicate edges."""

    n: int
    edges: np.ndarray          # (m, 2) int64, each row i < j

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size and (e.min() < 0 or e.max() >= self.n):
            raise FileParse("edge endpoint out of node range")
        object.__setattr__(self, "edges", e)

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.edges.shape[0] / self.n if self.n else 0.0

    def adjacency(self) -> list[list[int]]:
        """Neighbour lists, built once per graph and shared by every run
        (callers must not modify them)."""
        nbrs = self.__dict__.get("_adjacency")
        if nbrs is None:
            nbrs = [[] for _ in range(self.n)]
            for a, b in self.edges:
                nbrs[a].append(int(b))
                nbrs[b].append(int(a))
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
    if len(set(pairs)) != len(pairs):
        raise FileParse(f"{path}: duplicate edge")
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
        if min(self.beta, self.gamma, self.tau_days, self.kappa_days) < 0:
            raise ValueError("rates and times must be nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if self.t_end_days <= 0 or self.n_out < 2:
            raise ValueError("need t_end_days > 0 and n_out >= 2")
        object.__setattr__(self, "initial_infected",
                           tuple(int(u) for u in self.initial_infected))


@dataclass(frozen=True)
class NetworkSeries:
    """Compartment fractions on a uniform output grid (right-continuous)."""

    t_days: np.ndarray
    s_frac: np.ndarray
    i_frac: np.ndarray
    q_frac: np.ndarray
    seed: int
    n: int


class _Stream:
    """Buffered draws from one Generator, consumed in event order."""

    def __init__(self, rng: np.random.Generator, kind: str, block: int = 1 << 15):
        self._rng = rng
        self._kind = kind
        self._block = block
        self._buf = self._fill()
        self._i = 0

    def _fill(self):
        if self._kind == "exp":
            return self._rng.standard_exponential(self._block)
        return self._rng.random(self._block)

    def take(self) -> float:
        if self._i >= self._block:
            self._buf = self._fill()
            self._i = 0
        v = self._buf[self._i]
        self._i += 1
        return v


_INFECT, _RECOVER, _ISOLATE, _RELEASE = 0, 1, 2, 3


def simulate_network(net: Network, cfg: SimConfig) -> NetworkSeries:
    """Exact event-driven run of the isolation process on ``net``."""
    bad = [u for u in cfg.initial_infected if not 0 <= u < net.n]
    if bad or not cfg.initial_infected:
        raise ValueError(f"initial infected set invalid: {bad or 'empty'}")

    rng = np.random.default_rng(cfg.seed)
    exp_draw = _Stream(rng, "exp").take
    uni_draw = _Stream(rng, "uni").take

    nbrs = net.adjacency()
    state = bytearray(net.n)           # 0 S, 1 I, 2 Q
    inf_nbrs = [0] * net.n
    epoch = [0] * net.n                # susceptible-clock version
    episode = [0] * net.n              # infection episode id
    n_s, n_i, n_q = net.n, 0, 0

    heap: list[tuple[float, int, int, int, int]] = []
    push = heapq.heappush
    seq = 0
    beta, gamma, p = cfg.beta, cfg.gamma, cfg.p
    tau, kappa = cfg.tau_days, cfg.kappa_days

    def schedule_candidate(u: int, t: float):
        nonlocal seq
        epoch[u] += 1
        rate = beta * inf_nbrs[u]
        if rate > 0.0:
            push(heap, (t + exp_draw() / rate, seq, _INFECT, u, epoch[u]))
            seq += 1

    def become_infectious(u: int, t: float, isolable: bool = True):
        nonlocal seq, n_s, n_i
        state[u] = 1
        n_s -= 1
        n_i += 1
        episode[u] += 1
        eid = episode[u]
        if gamma > 0.0:
            push(heap, (t + exp_draw() / gamma, seq, _RECOVER, u, eid))
            seq += 1
        if isolable and uni_draw() < p:
            push(heap, (t + tau, seq, _ISOLATE, u, eid))
            seq += 1
        for w in nbrs[u]:
            inf_nbrs[w] += 1
            if state[w] == 0:
                schedule_candidate(w, t)

    def stop_infecting(u: int, t: float):
        episode[u] += 1            # voids the episode's pending events
        for w in nbrs[u]:
            inf_nbrs[w] -= 1
            if state[w] == 0:
                schedule_candidate(w, t)

    for u in cfg.initial_infected:
        become_infectious(u, 0.0, isolable=False)

    times = np.linspace(0.0, cfg.t_end_days, cfg.n_out)
    out_s = np.empty(cfg.n_out)
    out_i = np.empty(cfg.n_out)
    out_q = np.empty(cfg.n_out)
    out_idx = 0

    def flush(up_to: float):
        nonlocal out_idx
        while out_idx < cfg.n_out and times[out_idx] < up_to:
            out_s[out_idx] = n_s
            out_i[out_idx] = n_i
            out_q[out_idx] = n_q
            out_idx += 1

    while heap:
        t, _, kind, u, token = heapq.heappop(heap)
        if t > cfg.t_end_days:
            break
        flush(t)
        if kind == _INFECT:
            if state[u] == 0 and token == epoch[u]:
                become_infectious(u, t)
        elif kind == _RECOVER:
            if state[u] == 1 and token == episode[u]:
                state[u] = 0
                n_i -= 1
                n_s += 1
                stop_infecting(u, t)
                schedule_candidate(u, t)
        elif kind == _ISOLATE:
            if state[u] == 1 and token == episode[u]:
                state[u] = 2
                n_i -= 1
                n_q += 1
                stop_infecting(u, t)
                push(heap, (t + kappa, seq, _RELEASE, u, 0))
                seq += 1
        else:  # _RELEASE
            state[u] = 0
            n_q -= 1
            n_s += 1
            schedule_candidate(u, t)

    flush(math.inf)
    inv_n = 1.0 / net.n
    return NetworkSeries(t_days=times, s_frac=out_s * inv_n,
                         i_frac=out_i * inv_n, q_frac=out_q * inv_n,
                         seed=cfg.seed, n=net.n)


def average_runs(runs: Sequence[NetworkSeries]) -> NetworkSeries:
    """Pointwise average of runs sharing one output grid (seed order fixed)."""
    if not runs:
        raise ValueError("no runs to average")
    t = runs[0].t_days
    for run in runs[1:]:
        if run.t_days.shape != t.shape or not np.allclose(run.t_days, t):
            raise ValueError("runs use different output grids")
    return NetworkSeries(
        t_days=t,
        s_frac=np.mean([r.s_frac for r in runs], axis=0),
        i_frac=np.mean([r.i_frac for r in runs], axis=0),
        q_frac=np.mean([r.q_frac for r in runs], axis=0),
        seed=runs[0].seed, n=runs[0].n)


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
    "network_from_edge_list", "SimConfig", "NetworkSeries",
    "simulate_network", "average_runs", "MeanFieldMap", "mean_field_params",
]
