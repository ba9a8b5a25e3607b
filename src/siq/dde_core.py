"""Fixed-step method-of-steps RK4 kernel for the SIQ/SEIQ flux family.

Every delayed term of the SIQ and SEIQ models is the infection flux
Phi = r*S*I at a lag:

    S' = -Phi + I + eps*Phi(t - sigma - tau - kappa)
    E' =  Phi - Phi(t - sigma)
    I' =  Phi(t - sigma) - I - eps*Phi(t - sigma - tau)
    Q' =  eps*Phi(t - sigma - tau) - eps*Phi(t - sigma - tau - kappa)

so the kernel keeps the state in float locals and buffers only Phi, on the
half-step grid: node values and cell midpoints, the history part sampled
once in front of the solution part.  SIQ is the same loop at sigma = 0,
where the zero lag reads the stage flux and E' is exactly 0; kappa = inf
drops the return term.

Each lag is rounded to a multiple of the step, so every method-of-steps
breakpoint lands on a grid node and the RK4 stages read the buffer only at
nodes and exact cell midpoints.  A history jump at theta makes the solution
derivative jump at the kink nodes theta + lag (Bellen & Zennaro 2003,
sections 3-4).  There the k4 stage of the cell ending at the kink reads the
left limit Phi(theta-), and so does the dense output over that cell, while
the node derivative (the next cell's k1 and the stored ``derivs``) keeps
the right limit.  With these one-sided values the method keeps fourth
order on outbreak data.

Dense output (``History.evaluate``, ``Trajectory.evaluate``) returns state
values only; the window functionals integrate those values.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DelayTooSmall, JumpOffGrid, NonFiniteState, OutOfRange

Vector = tuple[float, ...]

#: Default integration step, in model time units.  CLI-overridable.
DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class History:
    """Initial data on [-span, 0].

    ``fn`` maps theta in [-span, 0] to a state tuple; at each of its
    ``jumps`` (and at theta = 0) it must return the right limit.
    Elsewhere it is assumed piecewise smooth.
    """

    span: float
    fn: Callable[[float], Sequence[float]]
    jumps: tuple[float, ...] = ()

    def __post_init__(self):
        if self.span <= 0:
            raise ValueError("history span must be positive")

    def value(self, theta: float) -> Vector:
        if theta < -self.span - 1e-12 or theta > 1e-12:
            raise OutOfRange(f"history evaluated at theta={theta!r}, span={self.span!r}")
        return tuple(self.fn(min(0.0, max(theta, -self.span))))

    @property
    def breaks(self) -> tuple[float, ...]:
        """Times where the data may jump: window quadratures split there."""
        return self.jumps

    def evaluate(self, ts) -> np.ndarray:
        """Values at times ``ts``, shape (len(ts), dim)."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        out = (ts < -self.span - 1e-12) | (ts > 1e-12)
        if out.any():
            raise OutOfRange(f"history evaluated at theta={ts[out][0]!r}, "
                             f"span={self.span!r}")
        fn = self.fn
        return np.array([fn(t) for t in np.clip(ts, -self.span, 0.0).tolist()],
                        dtype=float)


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

    __slots__ = ("t0", "t_end", "step", "states", "derivs", "history",
                 "snapped_delays", "requested_delays", "dimension",
                 "kink_nodes", "kink_derivs")

    def __init__(self, step, states, derivs, history, snapped_delays,
                 requested_delays, kinks=None):
        self.t0 = 0.0
        self.step = float(step)
        self.states = states          # (n+1, dim), read-only
        self.derivs = derivs          # (n+1, dim)
        self.states.setflags(write=False)
        self.derivs.setflags(write=False)
        self.history = history
        self.snapped_delays = tuple(snapped_delays)
        self.requested_delays = tuple(requested_delays)
        self.t_end = (states.shape[0] - 1) * self.step
        self.dimension = states.shape[1]
        kinks = kinks or {}
        self.kink_nodes = np.array(sorted(kinks), dtype=np.int64)
        self.kink_derivs = np.array([kinks[k] for k in sorted(kinks)],
                                    dtype=float).reshape(-1, self.dimension)

    @property
    def n_nodes(self) -> int:
        return self.states.shape[0]

    @property
    def breaks(self) -> tuple[float, ...]:
        """Times where the dense solution is not smooth: the history's
        jumps, the history/solution junction at 0 and the kink nodes."""
        return tuple(sorted(set(self.history.jumps) | {0.0}
                            | set((self.kink_nodes * self.step).tolist())))

    def evaluate(self, ts, columns=slice(None)) -> np.ndarray:
        """States at times ``ts``, shape (len(ts), dim) or restricted to the
        state ``columns`` (a list or slice).

        Exact at grid nodes; inside a cell the cubic Hermite interpolant,
        built from the left derivative at a right end that is a kink.
        Times before 0 read the history.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if ts.size and ts.max() > self.t_end + 1e-9 * self.step:
            raise OutOfRange(f"t={ts.max()!r} beyond trajectory end {self.t_end!r}")
        neg = ts < self.t0
        if not neg.any():
            return self._hermite(ts, columns)
        vals = np.empty((ts.size, self.dimension))[:, columns]
        vals[neg] = self.history.evaluate(ts[neg])[:, columns]
        pos = ~neg
        if pos.any():
            vals[pos] = self._hermite(ts[pos], columns)
        return vals

    def _hermite(self, ts: np.ndarray, columns) -> np.ndarray:
        h = self.step
        u = ts / h
        node = np.rint(u).astype(np.int64)
        on_node = np.abs(u - node) <= 1e-9
        i = np.clip(u.astype(np.int64), 0, self.n_nodes - 2)
        th = u - i
        states, derivs = self.states[:, columns], self.derivs[:, columns]
        y0 = np.take(states, i, axis=0)
        dy = np.take(states, i + 1, axis=0) - y0
        f0 = np.take(derivs, i, axis=0)
        f1 = np.take(derivs, i + 1, axis=0)
        if self.kink_nodes.size:
            k = np.searchsorted(self.kink_nodes, i + 1)
            hit = self.kink_nodes[np.minimum(k, self.kink_nodes.size - 1)] == i + 1
            f1[hit] = self.kink_derivs[:, columns][k[hit]]
        t2 = th * th
        t3 = t2 * th

        def col(w):
            return w.reshape(-1, 1)

        vals = (y0 + col(3 * t2 - 2 * t3) * dy + col((t3 - 2 * t2 + th) * h) * f0
                + col((t3 - t2) * h) * f1)
        if on_node.any():
            vals[on_node] = states[node[on_node]]
        return vals

    def sample(self, t: float) -> np.ndarray:
        """State at time ``t``; exact at grid nodes."""
        return self.evaluate([t])[0]


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
    """Integrate the SIQ (3-state history: S, I, Q) or SEIQ (4-state: S, E,
    I, Q) system from ``history`` on [0, t_end]; kappa = inf is permanent
    isolation.

    The lags sigma, sigma+tau and sigma+tau+kappa are each rounded to the
    nearest multiple of ``step`` (error <= step/2, recorded on the result
    as ``snapped_delays``); a zero lag reads the current stage flux.

    Raises DelayTooSmall for lags in (0, step), JumpOffGrid for a history
    jump off the step grid, OutOfRange for a history shorter than the
    longest lag, and NonFiniteState if the state stops being finite.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    h = float(step)
    y0 = history.value(0.0)
    dim = len(y0)
    if dim not in (3, 4):
        raise ValueError(f"history dimension {dim} is not a SIQ/SEIQ state")
    if dim == 3 and sigma != 0.0:
        raise ValueError("the three-state model requires sigma = 0")
    permanent = math.isinf(kappa)
    requested = (sigma, sigma + tau) + (() if permanent else
                                        (sigma + tau + kappa,))
    lags = [_snap(d, h) for d in requested]
    snapped = tuple(L * h for L in lags)
    if max(snapped) > history.span + h:
        raise OutOfRange(
            f"max snapped delay {max(snapped)!r} exceeds history span {history.span!r}")
    n = max(1, int(math.ceil(t_end / h - 1e-9)))
    ii = dim - 2                      # index of I in the state tuple
    e = float(eps)
    ek = 0.0 if permanent else e      # weight of the return flow
    ls, lt = lags[0], lags[1]
    lk = lt if permanent else lags[2]
    m = max(lags)

    def flux(theta):
        y = history.value(max(theta, -history.span))
        return r * y[0] * y[ii]

    # Phi on the half-step grid: node i at 2*(i + m), the midpoint of cell
    # [i, i+1] at 2*(i + m) + 1; the history part is sampled exactly.
    phi = array("d")
    for i in range(-m, 0):
        phi.append(flux(i * h))
        phi.append(flux((i + 0.5) * h))
    s, i_, q = y0[0], y0[ii], y0[-1]
    e_ = y0[1] if dim == 4 else 0.0
    f = r * s * i_
    phi.append(f)

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
        delta = r * left[0] * left[ii] - phi[2 * (j + m)]
        for lag, weights in ((ls, (0.0, -1.0, 1.0, 0.0)),
                             (lt, (0.0, 0.0, -e, e)),
                             (lk, (ek, 0.0, 0.0, -ek))):
            if lag and 0 < j + lag <= n:
                acc = kink_jumps.setdefault(j + lag, [0.0, 0.0, 0.0, 0.0])
                for c in range(4):
                    acc[c] += weights[c] * delta
    kink_at = sorted(kink_jumps, reverse=True)
    next_kink = 2 * kink_at.pop() if kink_at else -1
    kinks: dict[int, tuple[float, ...]] = {}

    # buffer offsets: node j - lag sits at 2*j - o, its cell midpoint before
    # it at 2*j - o - 1; a zero lag reads (unused) lag-1 slots
    zs, zt, zk = ls == 0, lt == 0, lk == 0
    os_, ot, ok = (2 * (max(L, 1) - m) for L in (ls, lt, lk))
    gs = f if zs else phi[-os_]
    gt = f if zt else phi[-ot]
    gk = f if zk else phi[-ok]
    ds = -f + i_ + ek * gk
    di = gs - i_ - e * gt
    de = f - gs
    dq = e * gt - ek * gk
    df = r * (ds * i_ + s * di)

    states = array("d")
    derivs = array("d")
    put_y, put_d, put_phi = states.append, derivs.append, phi.append
    seiq = dim == 4
    h2, h6, h8 = 0.5 * h, h / 6.0, 0.125 * h
    inf = math.inf

    put_y(s)
    if seiq:
        put_y(e_)
    put_y(i_)
    put_y(q)
    put_d(ds)
    if seiq:
        put_d(de)
    put_d(di)
    put_d(dq)

    for j2 in range(2, 2 * n + 1, 2):
        ms, mt, mk = phi[j2 - os_ - 1], phi[j2 - ot - 1], phi[j2 - ok - 1]
        # k2
        s2 = s + h2 * ds
        i2 = i_ + h2 * di
        f2 = r * s2 * i2
        gs = f2 if zs else ms
        gt = f2 if zt else mt
        gk = f2 if zk else mk
        ds2 = -f2 + i2 + ek * gk
        di2 = gs - i2 - e * gt
        de2 = f2 - gs
        dq2 = e * gt - ek * gk
        # k3
        s3 = s + h2 * ds2
        i3 = i_ + h2 * di2
        f3 = r * s3 * i3
        gs = f3 if zs else ms
        gt = f3 if zt else mt
        gk = f3 if zk else mk
        ds3 = -f3 + i3 + ek * gk
        di3 = gs - i3 - e * gt
        de3 = f3 - gs
        dq3 = e * gt - ek * gk
        # k4, reading the node values (right limits)
        ns, nt, nk = phi[j2 - os_], phi[j2 - ot], phi[j2 - ok]
        s4 = s + h * ds3
        i4 = i_ + h * di3
        f4 = r * s4 * i4
        gs = f4 if zs else ns
        gt = f4 if zt else nt
        gk = f4 if zk else nk
        ds4 = -f4 + i4 + ek * gk
        di4 = gs - i4 - e * gt
        de4 = f4 - gs
        dq4 = e * gt - ek * gk
        if j2 == next_kink:           # k4 ends at the kink: left limits
            jump = kink_jumps[j2 >> 1]
            ds4 += jump[0]
            de4 += jump[1]
            di4 += jump[2]
            dq4 += jump[3]
        s += h6 * (ds + 2.0 * (ds2 + ds3) + ds4)
        i_ += h6 * (di + 2.0 * (di2 + di3) + di4)
        e_ += h6 * (de + 2.0 * (de2 + de3) + de4)
        q += h6 * (dq + 2.0 * (dq2 + dq3) + dq4)
        if not -inf < s + i_ + e_ + q < inf:
            raise NonFiniteState(f"non-finite state at t={(j2 >> 1) * h!r}: "
                                 f"S={s!r}, E={e_!r}, I={i_!r}, Q={q!r}")
        # node derivative, right limits
        f_prev, df_prev = f, df
        f = r * s * i_
        gs = f if zs else ns
        gt = f if zt else nt
        gk = f if zk else nk
        ds = -f + i_ + ek * gk
        di = gs - i_ - e * gt
        de = f - gs
        dq = e * gt - ek * gk
        df = r * (ds * i_ + s * di)
        mid = 0.5 * (f_prev + f) + h8 * (df_prev - df)
        if j2 == next_kink:           # the cell's Hermite: left derivative
            kinks[j2 >> 1] = (ds + jump[0], de + jump[1], di + jump[2],
                              dq + jump[3])
            mid -= h8 * r * (jump[0] * i_ + s * jump[2])
            next_kink = 2 * kink_at.pop() if kink_at else -1
        put_phi(mid)
        put_phi(f)
        put_y(s)
        if seiq:
            put_y(e_)
        put_y(i_)
        put_y(q)
        put_d(ds)
        if seiq:
            put_d(de)
        put_d(di)
        put_d(dq)

    if not seiq:
        kinks = {k: (v[0], v[2], v[3]) for k, v in kinks.items()}
    return Trajectory(h, np.frombuffer(states).reshape(-1, dim),
                      np.frombuffer(derivs).reshape(-1, dim), history,
                      snapped, requested, kinks)
