"""Reference network engine: one aggregated infection clock per susceptible
node, redrawn whenever its count of infectious neighbours changes.

This is the second method the transmission-attempt engine
``siq.net_sim.simulate_network`` is checked against.  A susceptible node
with m infectious neighbours is infected at rate beta*m; by memorylessness
the clock may be redrawn at every change of m, and a version token
(``epoch``) voids the superseded draws.  Each infection episode has its own
token (``episode``) that voids the pending recovery or isolation once the
other has fired.  Draws come from two buffered streams, exponential and
uniform, filled from the generator in the same blocks as the library
engine's, and recovery is drawn first, so with beta = 0 both engines
consume them identically and agree bit for bit.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from siq.net_sim import Network, NetworkSeries, SimConfig


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


def adjacency_by_loop(net: Network) -> list[list[int]]:
    """Neighbour lists appended edge by edge, in edge-row order."""
    nbrs: list[list[int]] = [[] for _ in range(net.n)]
    for a, b in net.edges:
        nbrs[a].append(int(b))
        nbrs[b].append(int(a))
    return nbrs


_INFECT, _RECOVER, _ISOLATE, _RELEASE = 0, 1, 2, 3


def simulate_network(net: Network, cfg: SimConfig) -> NetworkSeries:
    """Exact event-driven run of the isolation process on ``net``."""
    bad = [u for u in cfg.initial_infected if not 0 <= u < net.n]
    if bad or not cfg.initial_infected:
        raise ValueError(f"initial infected set invalid: {bad or 'empty'}")

    rng = np.random.default_rng(cfg.seed)
    exp_draw = _Stream(rng, "exp").take
    uni_draw = _Stream(rng, "uni").take

    nbrs = adjacency_by_loop(net)
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
