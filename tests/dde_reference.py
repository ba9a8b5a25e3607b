"""Reference integrator: the generic method-of-steps RK4 on state tuples,
with the SIQ/SEIQ vector fields written out per component.

This is the second method the flux kernel ``siq.dde_core.integrate`` is
checked against.  The field receives the current state and one delayed
state per delay; each delayed read is the stored node or the cubic Hermite
midpoint of the full state, and the k4 stage reads the value stored at the
node (the right limit at a history jump), so on jump data it is only first
order.  On jump-free histories the two methods agree to rounding and
O(h^4) interpolation differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from siq.dde_core import DEFAULT_STEP, History, Trajectory
from siq.errors import DelayTooSmall, NonFiniteState, OutOfRange
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

    def hist_value(theta, _value=history.value, _lo=-history.span):
        # snapping may push a delay at most step/2 past the span: clamp
        return _value(theta if theta >= _lo else _lo)
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

    return Trajectory(h, states, derivs, history, snapped, delays.delays)


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
    dim = len(history.value(0.0))
    if kappa_inf:
        field = siq_field_kappa_inf(params)
    elif dim == 3:
        field = siq_field(params)
    elif dim == 4:
        field = seiq_field(params)
    else:
        raise ValueError(f"history dimension {dim} is not a SIQ/SEIQ state")
    return integrate(field.fn, field.delays, history, t_end, step)
