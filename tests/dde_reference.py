"""Reference integrator: the generic method-of-steps RK4 on state tuples,
with the SIQ/SEIQ vector fields written out per component.

This is the second method the flux kernel ``siq.dde_core.integrate`` is
checked against.  The field receives the current state and one delayed
state per delay; each delayed read is the stored node or the cubic Hermite
midpoint of the full state, and the k4 stage reads the value stored at the
node (the right limit at a history jump), so on jump data it is only first
order.  On jump-free histories the two methods agree to rounding and
O(h^4) interpolation differences.

It also holds the second method the kernel's loop is checked against:
``flux_integrate``, the same flux kernel with all four states advanced
through every RK4 stage in Python floats, which must give the kernel's
trajectory bit for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from siq.dde_core import DEFAULT_STEP, History, Trajectory
from siq.errors import DelayTooSmall, JumpOffGrid, NonFiniteState, OutOfRange
from siq.siq_model import ModelParams

Vector = tuple[float, ...]
FieldFn = Callable[[float, Vector, tuple[Vector, ...]], Vector]


@dataclass(frozen=True)
class DelaySpec:
    """Discrete delays of a vector field, sorted ascending (duplicates allowed)."""

    delays: tuple[float, ...]
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        ds = tuple(float(d) for d in self.delays)
        if any(d < 0 for d in ds):
            raise ValueError("delays must be nonnegative")
        if list(ds) != sorted(ds):
            ds = tuple(sorted(ds))
        object.__setattr__(self, "delays", ds)

    @property
    def max_delay(self) -> float:
        return self.delays[-1] if self.delays else 0.0


def _snap_delays(delays: DelaySpec, step: float) -> list[int]:
    """Integer lags (multiples of step) for each delay; validates sizes."""
    lags = []
    for d in delays.delays:
        if d == 0.0:
            lags.append(0)
            continue
        if d < step * (1 - 1e-9):
            raise DelayTooSmall(f"delay {d!r} is smaller than step {step!r}")
        lags.append(max(1, int(round(d / step))))
    return lags


def integrate(field: FieldFn, delays: DelaySpec, history: History,
              t_end: float, step: float = DEFAULT_STEP) -> Trajectory:
    """Integrate x'(t) = field(t, x(t), (x(t-d_1), ..., x(t-d_k))) on [0, t_end].

    ``field`` receives the current state and one delayed state per entry of
    ``delays`` (in order).  Zero delays read the current stage value, so
    degenerate parameter choices need no special casing by the caller.
    Each nonzero delay is rounded to the nearest multiple of ``step``
    (error <= step/2, recorded on the result as ``snapped_delays``).

    Raises DelayTooSmall for delays in (0, step) and NonFiniteState if any
    component stops being finite.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    h = float(step)
    lags = _snap_delays(delays, h)
    snapped = tuple(L * h for L in lags)
    if snapped and snapped[-1] > history.span + h:
        raise OutOfRange(
            f"max snapped delay {snapped[-1]!r} exceeds history span {history.span!r}")

    n = int(math.ceil(t_end / h - 1e-9))
    n = max(n, 1)
    dim = delays.dimension

    states = np.empty((n + 1, dim))
    derivs = np.empty((n + 1, dim))
    node_vals: list[Vector] = []   # python-level mirrors for cheap tuple reads
    node_ders: list[Vector] = []

    def hist_value(theta, _fn=history.fn, _lo=-history.span):
        # snapping may push a delay at most step/2 past the span: clamp
        return tuple(_fn(min(0.0, theta if theta >= _lo else _lo)))
    y = hist_value(0.0)
    if len(y) != dim:
        raise ValueError("history dimension does not match the delay spec")

    h2 = 0.5 * h
    h6 = h / 6.0
    h8 = 0.125 * h
    rng_dim = range(dim)
    n_lags = len(lags)

    def delayed_at_node(j: int, current: Vector) -> tuple[Vector, ...]:
        out = []
        for idx in range(n_lags):
            L = lags[idx]
            if L == 0:
                out.append(current)
                continue
            jj = j - L
            out.append(node_vals[jj] if jj >= 0 else hist_value(jj * h))
        return tuple(out)

    def delayed_at_mid(j: int) -> list[Vector | None]:
        # Value at t = (j + 1/2- L)*h per lag; None marks zero lags (the
        # caller substitutes the live stage value).
        out: list[Vector | None] = []
        for idx in range(n_lags):
            L = lags[idx]
            if L == 0:
                out.append(None)
                continue
            jj = j - L
            if jj >= 0:
                a = node_vals[jj]
                b = node_vals[jj + 1]
                fa = node_ders[jj]
                fb = node_ders[jj + 1]
                out.append(tuple(0.5 * (a[c] + b[c]) + h8 * (fa[c] - fb[c])
                                 for c in rng_dim))
            else:
                out.append(hist_value(jj * h + h2))
        return out

    z0 = delayed_at_node(0, y)
    f0 = tuple(field(0.0, y, z0))
    states[0] = y
    derivs[0] = f0
    node_vals.append(y)
    node_ders.append(f0)

    k1 = f0
    for j in range(n):
        t = j * h
        yj = node_vals[j]

        zmid = delayed_at_mid(j)
        y2 = tuple(yj[c] + h2 * k1[c] for c in rng_dim)
        z2 = tuple(y2 if zm is None else zm for zm in zmid)
        k2 = field(t + h2, y2, z2)

        y3 = tuple(yj[c] + h2 * k2[c] for c in rng_dim)
        z3 = tuple(y3 if zm is None else zm for zm in zmid)
        k3 = field(t + h2, y3, z3)

        y4 = tuple(yj[c] + h * k3[c] for c in rng_dim)
        z4 = delayed_at_node(j + 1, y4)
        k4 = field(t + h, y4, z4)

        ynew = tuple(yj[c] + h6 * (k1[c] + 2.0 * (k2[c] + k3[c]) + k4[c])
                     for c in rng_dim)
        if not math.isfinite(sum(ynew)):
            raise NonFiniteState(f"non-finite state at t={t + h!r}: {ynew!r}")

        znew = delayed_at_node(j + 1, ynew)
        fnew = tuple(field(t + h, ynew, znew))

        i = j + 1
        states[i] = ynew
        derivs[i] = fnew
        node_vals.append(ynew)
        node_ders.append(fnew)
        k1 = fnew

    return Trajectory(h, states, derivs.__getitem__, history, snapped,
                      delays.delays)


class VectorField(NamedTuple):
    """A delayed vector field bundled with its delay specification."""

    fn: Callable
    delays: DelaySpec


def siq_field(params: ModelParams) -> VectorField:
    """Right-hand side of the SIQ system, delays {tau, tau+kappa}.

    S' = -r S I + I + r*eps*S(t-tau-kappa) I(t-tau-kappa)
    I' =  r S I - I - r*eps*S(t-tau) I(t-tau)
    Q' =  r*eps*[S(t-tau) I(t-tau) - S(t-tau-kappa) I(t-tau-kappa)]
    """
    if params.sigma != 0.0:
        raise ValueError("siq_field requires sigma = 0; use seiq_field")
    r = params.r
    re = r * params.eps

    def fn(t, y, z):
        s, i, _ = y
        s1, i1, _ = z[0]
        s2, i2, _ = z[1]
        new = r * s * i
        iso = re * s1 * i1
        ret = re * s2 * i2
        return (-new + i + ret, new - i - iso, iso - ret)

    return VectorField(fn, DelaySpec((params.tau, params.tau + params.kappa), 3))


def siq_field_kappa_inf(params: ModelParams) -> VectorField:
    """SIQ variant with permanent isolation (kappa = infinity): the return
    flow into S is dropped, so Q only accumulates."""
    if params.sigma != 0.0:
        raise ValueError("siq_field_kappa_inf requires sigma = 0")
    r = params.r
    re = r * params.eps

    def fn(t, y, z):
        s, i, _ = y
        s1, i1, _ = z[0]
        new = r * s * i
        iso = re * s1 * i1
        return (-new + i, new - i - iso, iso)

    return VectorField(fn, DelaySpec((params.tau,), 3))


def seiq_field(params: ModelParams) -> VectorField:
    """Right-hand side of the SEIQ system, delays {sigma, sigma+tau,
    sigma+tau+kappa}; states ordered (S, E, I, Q)."""
    r = params.r
    re = r * params.eps

    def fn(t, y, z):
        s, _, i, _ = y
        ss, _, is_, _ = z[0]          # t - sigma
        st, _, it, _ = z[1]           # t - sigma - tau
        sk, _, ik, _ = z[2]           # t - sigma - tau - kappa
        new = r * s * i
        mat = r * ss * is_            # E -> I maturation flow
        iso = re * st * it
        ret = re * sk * ik
        return (-new + i + ret, new - mat, mat - i - iso, iso - ret)

    d = (params.sigma, params.sigma + params.tau,
         params.sigma + params.tau + params.kappa)
    return VectorField(fn, DelaySpec(d, 4))


def reference_simulate(params: ModelParams, history: History, t_end: float,
                       step: float = DEFAULT_STEP, *,
                       kappa_inf: bool = False) -> Trajectory:
    """Integrate the model matching the history's dimension (3: SIQ, 4: SEIQ)."""
    dim = len(history.fn(0.0))
    if kappa_inf:
        field = siq_field_kappa_inf(params)
    elif dim == 3:
        field = siq_field(params)
    elif dim == 4:
        field = seiq_field(params)
    else:
        raise ValueError(f"history dimension {dim} is not a SIQ/SEIQ state")
    return integrate(field.fn, field.delays, history, t_end, step)


def flux_integrate(history: History, t_end: float,
                   step: float = DEFAULT_STEP, *, r: float, eps: float,
                   sigma: float = 0.0, tau: float = 0.0,
                   kappa: float = math.inf) -> Trajectory:
    """The flux kernel as it advanced all four states: the same RK4 stages,
    kink corrections and Hermite midpoints as ``siq.dde_core.integrate``,
    with E and Q (and every node derivative) carried through each step of
    the loop instead of rebuilt after it.  Same arguments, result and
    errors; it also takes three-state SIQ data (S, I, Q) at sigma = 0, so
    the kernel's (S, E, I, Q) run is checked against the three-state loop
    too.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    h = float(step)
    y0 = tuple(history.fn(0.0))
    dim = len(y0)
    if dim not in (3, 4):
        raise ValueError(f"history dimension {dim} is not a SIQ/SEIQ state")
    if dim == 3 and sigma != 0.0:
        raise ValueError("the three-state model requires sigma = 0")
    permanent = math.isinf(kappa)
    requested = (sigma, sigma + tau) + (() if permanent else
                                        (sigma + tau + kappa,))
    lags = _snap_delays(DelaySpec(requested, dim), h)
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
        y = history.fn(max(theta, -history.span))
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
                      np.frombuffer(derivs).reshape(-1, dim).__getitem__,
                      history, snapped, requested, kinks)
