"""Fixed-step method-of-steps RK4 kernel for the SIQ/SEIQ flux family.

Every state is (S, E, I, Q), and every delayed term of the model is the
infection flux Phi = r*S*I at a lag:

    S' = -Phi + I + eps*Phi(t - sigma - tau - kappa)
    E' =  Phi - Phi(t - sigma)
    I' =  Phi(t - sigma) - I - eps*Phi(t - sigma - tau)
    Q' =  eps*Phi(t - sigma - tau) - eps*Phi(t - sigma - tau - kappa)

so the kernel buffers only Phi, on the half-step grid: node values and
cell midpoints, the history part sampled once in front of the solution
part.  E and Q feed no right-hand side, so the step loop carries only
(S, I) in float locals; after it, numpy rebuilds E, Q and the node
derivatives block by block with the loop's own float operations in its
order, which gives exactly the trajectory of a loop over all four states.
SIQ is the same loop at sigma = 0, where the zero lag reads the stage
flux and E' = Phi - Phi(t - 0) = 0 keeps E at its initial value;
kappa = inf drops the return term.

The loop does little interpreted work per step.  The flux buffer and the
states are allocated in full before it, and it walks the node's slot in
each beside the three lag read positions.  It forms each lagged product
(eps*Phi(t - sigma - tau), eps_kappa*Phi(t - sigma - tau - kappa)) once
per read and selects the zero-lag terms inside each rate.  It tests no
state: float operations never raise, so a run that blows up goes on to
t_end, and the rebuild raises NonFiniteState at its first non-finite node.

Each lag is rounded to a multiple of the step, so every method-of-steps
breakpoint lands on a grid node and the RK4 stages read the buffer only at
nodes and exact cell midpoints.  A history jump at theta makes the solution
derivative jump at the kink nodes theta + lag (Bellen & Zennaro 2003,
sections 3-4).  There the k4 stage of the cell ending at the kink reads the
left limit Phi(theta-), and so does the dense output over that cell, while
the node derivative (the next cell's k1 and the stored ``derivs``) keeps
the right limit.  With these one-sided values the method keeps fourth
order on outbreak data.

Initial data and solutions are read the same way: a ``History`` and a
``Trajectory`` each have an ``evaluate(ts)`` that returns state values
only, one row per time; the window functionals integrate those values.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (DelayTooSmall, JumpOffGrid, NonFiniteState, OutOfRange,
                     positive)

#: Default integration step, in model time units.  CLI-overridable.
DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class History:
    """Initial data on [-span, 0].

    ``fn`` maps theta in [-span, 0] to a state tuple; at each of its
    ``jumps`` (and at theta = 0) it must return the right limit.
    Elsewhere it is assumed piecewise smooth.  ``dimension``, the number
    of states, is read from ``fn(0.0)``.
    """

    span: float
    fn: Callable[[float], Sequence[float]]
    jumps: tuple[float, ...] = ()
    dimension: int = field(init=False)

    def __post_init__(self):
        positive(self.span, "span")
        object.__setattr__(self, "dimension", len(self.fn(0.0)))

    @property
    def breaks(self) -> tuple[float, ...]:
        """Times where the data may jump: window quadratures split there."""
        return self.jumps

    def evaluate(self, ts) -> np.ndarray:
        """Values at times ``ts``, shape (len(ts), dimension); a time
        outside [-span, 0], NaN included, raises OutOfRange."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        out = ~((ts >= -self.span - 1e-12) & (ts <= 1e-12))
        if out.any():
            theta = float(ts[out][0])
            raise OutOfRange(f"history evaluated at theta={theta!r}, "
                             f"span={self.span!r}")
        fn = self.fn
        return np.array([fn(t) for t in np.clip(ts, -self.span, 0.0).tolist()],
                        dtype=float).reshape(-1, self.dimension)


def constant_history(value: Sequence[float], span: float) -> History:
    """History identically equal to ``value`` on [-span, 0]."""
    v = tuple(float(x) for x in value)
    return History(span=float(span), fn=lambda theta: v, jumps=())


class Trajectory:
    """Dense solution of a delay system on [0, t_end].

    Piecewise cubic Hermite segments over a uniform grid, with the initial
    history prepended so delayed arguments and window functionals can be
    evaluated anywhere in [-span, t_end].  ``derivs`` holds the right
    derivative at every node; ``kink_nodes`` lists the nodes where the
    derivative jumps and ``kink_derivs`` their left derivatives, which the
    cell ending there uses.  Immutable after construction and safe to read
    concurrently.
    """

    __slots__ = ("t_end", "step", "states", "derivs", "history",
                 "snapped_delays", "requested_delays", "kink_nodes",
                 "kink_derivs")

    def __init__(self, step, states, derivs, history, snapped_delays,
                 requested_delays, kinks=None):
        self.step = float(step)
        self.states = states          # (n+1, 4): S, E, I, Q; read-only
        self.derivs = derivs          # (n+1, 4)
        self.states.setflags(write=False)
        self.derivs.setflags(write=False)
        self.history = history
        self.snapped_delays = tuple(snapped_delays)
        self.requested_delays = tuple(requested_delays)
        self.t_end = (states.shape[0] - 1) * self.step
        kinks = kinks or {}
        self.kink_nodes = np.array(sorted(kinks), dtype=np.int64)
        self.kink_derivs = np.array([kinks[k] for k in sorted(kinks)],
                                    dtype=float).reshape(-1, states.shape[1])

    @property
    def n_nodes(self) -> int:
        return self.states.shape[0]

    @property
    def breaks(self) -> tuple[float, ...]:
        """Times where the dense solution is not smooth: the history's
        jumps, the history/solution junction at 0 and the kink nodes."""
        return tuple(sorted(set(self.history.jumps) | {0.0}
                            | set((self.kink_nodes * self.step).tolist())))

    def evaluate(self, ts) -> np.ndarray:
        """States at times ``ts``, one row per time.

        Exact at grid nodes; inside a cell the cubic Hermite interpolant,
        built from the left derivative at a right end that is a kink.
        Times before 0 read the history.  A time past t_end, or NaN,
        raises OutOfRange.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        late = ~(ts <= self.t_end + 1e-9 * self.step)
        if late.any():
            t = float(ts[late].max())
            raise OutOfRange(f"trajectory evaluated at t={t!r}, "
                             f"t_end={self.t_end!r}")
        neg = ts < 0.0
        if not neg.any():
            return self._hermite(ts)
        vals = np.empty((ts.size, self.states.shape[1]))
        vals[neg] = self.history.evaluate(ts[neg])
        pos = ~neg
        if pos.any():
            vals[pos] = self._hermite(ts[pos])
        return vals

    def _hermite(self, ts: np.ndarray) -> np.ndarray:
        h = self.step
        u = ts / h
        node = np.rint(u).astype(np.int64)
        on_node = np.abs(u - node) <= 1e-9
        i = np.clip(u.astype(np.int64), 0, self.n_nodes - 2)
        th = u - i
        states, derivs = self.states, self.derivs
        y0 = np.take(states, i, axis=0)
        dy = np.take(states, i + 1, axis=0) - y0
        f0 = np.take(derivs, i, axis=0)
        f1 = np.take(derivs, i + 1, axis=0)
        if self.kink_nodes.size:
            k = np.searchsorted(self.kink_nodes, i + 1)
            hit = self.kink_nodes[np.minimum(k, self.kink_nodes.size - 1)] == i + 1
            f1[hit] = self.kink_derivs[k[hit]]
        t2 = th * th
        t3 = t2 * th

        def col(w):
            return w.reshape(-1, 1)

        vals = (y0 + col(3 * t2 - 2 * t3) * dy + col((t3 - 2 * t2 + th) * h) * f0
                + col((t3 - t2) * h) * f1)
        if on_node.any():
            vals[on_node] = states[node[on_node]]
        return vals


def _snap(delay: float, step: float) -> int:
    """Integer lag (multiple of step) of one delay; validates its size."""
    if delay == 0.0:
        return 0
    if delay < step * (1 - 1e-9):
        raise DelayTooSmall(f"delay {delay!r} is smaller than step {step!r}")
    return max(1, int(round(delay / step)))


def integrate(history: History, t_end: float, step: float = DEFAULT_STEP, *,
              r: float, eps: float, sigma: float = 0.0, tau: float = 0.0,
              kappa: float = math.inf) -> Trajectory:
    """Integrate the model from a history of states (S, E, I, Q) on
    [0, t_end]; sigma = 0 is the SIQ model, kappa = inf is permanent
    isolation.

    The lags sigma, sigma+tau and sigma+tau+kappa are each rounded to the
    nearest multiple of ``step`` (error <= step/2, recorded on the result
    as ``snapped_delays``); a zero lag reads the current stage flux.

    Raises ValueError for a history that is not four-state, DelayTooSmall
    for lags in (0, step), JumpOffGrid for a history jump off the step
    grid, OutOfRange for a history shorter than the longest lag,
    NonFiniteState if the state stops being finite, and OutOfDomain (a
    ValueError) for a step or t_end that is not finite and positive.
    """
    h = positive(step, "step")
    positive(t_end, "t_end")
    if history.dimension != 4:
        raise ValueError(f"history has {history.dimension} states; the model "
                         f"state is (S, E, I, Q), so write SIQ data as "
                         f"(S, 0, I, Q)")
    # Python floats: numpy scalars would slow every operation of the loop
    y0 = history.evaluate([0.0])[0].tolist()
    permanent = math.isinf(kappa)
    requested = (sigma, sigma + tau) + (() if permanent else
                                        (sigma + tau + kappa,))
    lags = [_snap(d, h) for d in requested]
    snapped = tuple(L * h for L in lags)
    if max(snapped) > history.span + h:
        raise OutOfRange(
            f"max snapped delay {max(snapped)!r} exceeds history span {history.span!r}")
    n = max(1, int(math.ceil(t_end / h - 1e-9)))
    e = float(eps)
    ek = 0.0 if permanent else e      # weight of the return flow
    ls, lt = lags[0], lags[1]
    lk = lt if permanent else lags[2]
    m = max(lags)

    # Phi on the half-step grid: node i at 2*(i + m), the midpoint of cell
    # [i, i+1] at 2*(i + m) + 1; one call samples the history part exactly
    # (products overflow quietly, as in the loop); the loop fills the rest.
    past = history.evaluate(np.maximum(np.arange(-2 * m, 0) / 2 * h,
                                       -history.span))
    phi = array("d", [0.0]) * (2 * (m + n) + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        phi[:2 * m] = array("d", (r * past[:, 0] * past[:, 2]).tobytes())
    s, i_ = y0[0], y0[2]
    f = phi[2 * m] = r * s * i_

    # kink node -> jump of the k4 read (left minus right limit), summed
    # over the lags, as its effect (dS, dE, dI, dQ) on the derivative
    kink_jumps: dict[int, list[float]] = {}
    for theta in history.jumps:
        if not -history.span < theta <= 0.0:
            continue
        j = int(round(theta / h))
        if abs(theta / h - j) > 1e-9:
            raise JumpOffGrid(f"history jump at theta={theta!r} is not a "
                              f"multiple of the step {h!r}")
        if j < -m:
            continue
        left = history.fn(math.nextafter(theta, -math.inf))
        delta = r * left[0] * left[2] - phi[2 * (j + m)]
        for lag, weights in ((ls, (0.0, -1.0, 1.0, 0.0)),
                             (lt, (0.0, 0.0, -e, e)),
                             (lk, (ek, 0.0, 0.0, -ek))):
            if lag and 0 < j + lag <= n:
                acc = kink_jumps.setdefault(j + lag, [0.0, 0.0, 0.0, 0.0])
                for c in range(4):
                    acc[c] += weights[c] * delta
    # phi slots of the kink nodes, next first
    kink_at = sorted((2 * (k + m) for k in kink_jumps), reverse=True)
    next_kink = kink_at.pop() if kink_at else -1

    # a lag L reads node j - L at phi slot 2*(j + m) - 2*L and the cell
    # midpoint before it one slot lower; a zero lag reads (unused) lag-1
    # slots
    zs, zt, zk = ls == 0, lt == 0, lk == 0
    ls2, lt2, lk2 = (2 * max(L, 1) for L in (ls, lt, lk))
    p = 2 * m                         # phi slot of node 0
    ds = i_ - f + (ek * f if zk else ek * phi[p - lk2])
    di = ((f if zs else phi[p - ls2]) - i_) - (e * f if zt
                                               else e * phi[p - lt2])
    df = r * (ds * i_ + s * di)

    # S and I go into their columns; the E and Q slots hold y0's until
    # _rebuild fills them
    states = array("d", y0) * (n + 1)
    h2, h6, h8 = 0.5 * h, h / 6.0, 0.125 * h
    first, end = p + 2, 2 * (m + n) + 1

    # p: phi slot of the cell's right node; a_s, a_t, a_k: the node slot
    # each lag reads there; y: the node's S slot in states
    for p, a_s, a_t, a_k, y in zip(range(first, end, 2),
                                   range(first - ls2, end - ls2, 2),
                                   range(first - lt2, end - lt2, 2),
                                   range(first - lk2, end - lk2, 2),
                                   range(4, 4 * (n + 1), 4)):
        ms, mt, mk = phi[a_s - 1], phi[a_t - 1], phi[a_k - 1]
        emt, ekmk = e * mt, ek * mk
        # k2
        s2 = s + h2 * ds
        i2 = i_ + h2 * di
        f2 = r * s2 * i2
        ds2 = i2 - f2 + (ek * f2 if zk else ekmk)
        di2 = ((f2 if zs else ms) - i2) - (e * f2 if zt else emt)
        # k3
        s3 = s + h2 * ds2
        i3 = i_ + h2 * di2
        f3 = r * s3 * i3
        ds3 = i3 - f3 + (ek * f3 if zk else ekmk)
        di3 = ((f3 if zs else ms) - i3) - (e * f3 if zt else emt)
        # k4, reading the node values (right limits)
        ns = phi[a_s]
        ent, eknk = e * phi[a_t], ek * phi[a_k]
        s4 = s + h * ds3
        i4 = i_ + h * di3
        f4 = r * s4 * i4
        ds4 = i4 - f4 + (ek * f4 if zk else eknk)
        di4 = ((f4 if zs else ns) - i4) - (e * f4 if zt else ent)
        if p == next_kink:            # k4 ends at the kink: left limits
            jump = kink_jumps[(p >> 1) - m]
            ds4 += jump[0]
            di4 += jump[2]
        s += h6 * (ds + 2.0 * (ds2 + ds3) + ds4)
        i_ += h6 * (di + 2.0 * (di2 + di3) + di4)
        states[y] = s
        states[y + 2] = i_
        # node derivative, right limits
        f_prev, df_prev = f, df
        f = r * s * i_
        ds = i_ - f + (ek * f if zk else eknk)
        di = ((f if zs else ns) - i_) - (e * f if zt else ent)
        df = r * (ds * i_ + s * di)
        mid = 0.5 * (f_prev + f) + h8 * (df_prev - df)
        if p == next_kink:            # the cell's Hermite: left derivative
            mid -= h8 * r * (jump[0] * i_ + s * jump[2])
            next_kink = kink_at.pop() if kink_at else -1
        phi[p - 1] = mid
        phi[p] = f

    states = np.frombuffer(states).reshape(-1, 4)
    derivs, kinks = _rebuild(states, np.frombuffer(phi), m=m,
                             lags=(ls, lt, lk), r=r, e=e, ek=ek, h=h,
                             kink_jumps=kink_jumps)
    return Trajectory(h, states, derivs, history, snapped, requested, kinks)


#: ``_rebuild`` works on blocks of at least this many cells, and on at
#: most _BLOCKS blocks: few enough numpy calls per run, while its
#: temporaries stay a few bytes per node.
_MIN_BLOCK = 256
_BLOCKS = 40


def _rebuild(states, phi, *, m, lags, r, e, ek, h, kink_jumps):
    """Fill the E and Q columns of ``states`` (nodes 1..n) from its S and I
    columns and the flux buffer ``phi``; return the node derivatives and
    the left derivatives at the kink nodes.

    E and Q feed no right-hand side, so the loop of ``integrate`` leaves
    them out.  Every RK4 stage is a function of the node (S, I), its
    derivative and ``phi``, so each block repeats the loop's float
    operations in the loop's order, and ``np.add.accumulate``, which adds
    left to right, repeats its running sums: the result is the one a loop
    over all four states gives, bit for bit.  Raises NonFiniteState at the
    first node whose state sum is not finite: float operations never
    raise, so a loop that blows up runs on to t_end, and the nodes before
    the first bad one are those of a loop that stopped there.
    """
    zeros = [L == 0 for L in lags]
    zs, zt, zk = zeros
    offsets = [2 * (max(L, 1) - m) for L in lags]
    h2, h6 = 0.5 * h, h / 6.0
    n = states.shape[0] - 1
    derivs = np.empty_like(states)

    def lagged(a, b, half):
        """Lagged fluxes of nodes a..b-1 (half = 0), of the midpoints
        (half = 1) or the right ends (half = 2) of cells a..b-1; None for
        a zero lag."""
        return [None if z else phi[2 * a + half - o:2 * b + half - o:2]
                for z, o in zip(zeros, offsets)]

    def rates(f, i, gs, gt, gk):
        """(S', E', I', Q') at flux f and infectives i."""
        gs = f if zs else gs
        egt = e * f if zt else e * gt
        ekgk = ek * f if zk else ek * gk
        return i - f + ekgk, f - gs, (gs - i) - egt, egt - ekgk

    def node_rates(a, b):
        return rates(phi[2 * (a + m):2 * (b + m):2], states[a:b, 2],
                     *lagged(a, b, 0))

    def stage(s, i, d, w, reads):
        s_ = s + w * d[0]
        i_ = i + w * d[2]
        return rates(r * s_ * i_, i_, *reads)

    kink_nodes = sorted(kink_jumps)
    with np.errstate(over="ignore", invalid="ignore"):
        block = max(_MIN_BLOCK, -(-n // _BLOCKS))
        for a in range(0, n, block):
            b = min(a + block, n)
            d1 = node_rates(a, b)
            for c in range(4):
                derivs[a:b, c] = d1[c]
            s, i = states[a:b, 0], states[a:b, 2]
            mids = lagged(a, b, 1)
            d2 = stage(s, i, d1, h2, mids)
            d3 = stage(s, i, d2, h2, mids)
            d4 = stage(s, i, d3, h, lagged(a, b, 2))
            for k in kink_nodes:      # k4 ends at the kink: left limits
                if a < k <= b:
                    for c in (1, 3):
                        d4[c][k - 1 - a] += kink_jumps[k][c]
            for c in (1, 3):          # E and Q
                run = h6 * (d1[c] + 2.0 * (d2[c] + d3[c]) + d4[c])
                run[0] += states[a, c]
                np.add.accumulate(run, out=states[a + 1:b + 1, c])
            new = states[a + 1:b + 1]
            # in the loop's order S+I+E+Q
            total = new[:, 0] + new[:, 2] + new[:, 1] + new[:, 3]
            bad = np.flatnonzero(~np.isfinite(total))
            if bad.size:
                j = a + 1 + int(bad[0])
                s_j, e_j, i_j, q_j = states[j].tolist()
                raise NonFiniteState(f"non-finite state at t={j * h!r}: "
                                     f"S={s_j!r}, E={e_j!r}, I={i_j!r}, "
                                     f"Q={q_j!r}")
        derivs[n] = [d[0] for d in node_rates(n, n + 1)]
    kinks = {k: tuple(d + dj for d, dj in zip(derivs[k].tolist(), jump))
             for k, jump in kink_jumps.items()}
    return derivs, kinks


__all__ = ["DEFAULT_STEP", "History", "Trajectory", "constant_history",
           "integrate"]
