"""SIQ/SEIQ vector fields, parameter handling, initial data, and the
conserved quantities that label the invariant foliation.

Component conventions: every state is (S, E, I, Q); the SIQ model is the
sigma = 0 case, where E keeps its initial value.  All populations are
fractions; validated initial data lives in the probability simplex.  Time
is measured in units of the mean infectious period (recovery rate 1).

The conserved quantities are window integrals of I and S*I, computed from
state values alone by composite Simpson on the integrator grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dde_core import DEFAULT_STEP, History, Trajectory, integrate
from .errors import (SIMPLEX_TOL, FileParse, NotInSimplex, SpanTooShort,
                     finite_nonnegative, fractions, positive,
                     positive_fraction, probability)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters (r, p, tau, kappa, sigma); eps = p*exp(-tau) derived.

    r      rescaled reproductive number (finite, > 0)
    p      identification probability, in [0, 1]
    tau    identification time, units of the infectious period (finite, >= 0)
    kappa  isolation time (finite, >= 0)
    sigma  latency period (finite, >= 0; 0 selects the SIQ model)
    """

    r: float
    p: float
    tau: float
    kappa: float
    sigma: float = 0.0

    def __post_init__(self):
        positive(self.r, "r")
        probability(self.p, "p")
        for name in ("tau", "kappa", "sigma"):
            finite_nonnegative(getattr(self, name), name)

    @property
    def eps(self) -> float:
        """Effectiveness of the identification process, p*exp(-tau)."""
        return self.p * math.exp(-self.tau)

    @property
    def span(self) -> float:
        """History span required by the delayed terms, sigma + tau + kappa."""
        return self.sigma + self.tau + self.kappa


def outbreak_history(params: ModelParams, i0: float, q0: float = 0.0,
                     e0: float = 0.0) -> History:
    """History for a sudden outbreak at t = 0.

    psi(theta) = (1, 0, 0, 0) for theta < 0 and
    psi(0) = (1 - i0 - q0 - e0, e0, i0, q0), with the jump recorded at
    theta = 0.
    """
    positive_fraction(i0, "i0")
    fractions(i0=i0, q0=q0, e0=e0)
    span = max(params.span, DEFAULT_STEP)
    pre = (1.0, 0.0, 0.0, 0.0)
    at0 = (1.0 - i0 - q0 - e0, e0, i0, q0)

    def fn(theta):
        return at0 if theta >= 0.0 else pre

    return History(span=span, fn=fn, jumps=(0.0,))


def simulate(params: ModelParams, history: History, t_end: float,
             step: float = DEFAULT_STEP, *, kappa_inf: bool = False) -> Trajectory:
    """Integrate the model from a history of states (S, E, I, Q), SIQ at
    sigma = 0; ``kappa_inf`` makes isolation permanent (no return flow)."""
    return integrate(history, t_end, step, r=params.r, eps=params.eps,
                     sigma=params.sigma, tau=params.tau,
                     kappa=math.inf if kappa_inf else params.kappa)


# ---------------------------------------------------------------------------
# window quadrature for the conserved quantities
# ---------------------------------------------------------------------------

def _window_integral(phi, lo: float, hi: float, h: float, u_fn) -> float:
    """Integral of u_fn(t, state(t)) dt over [lo, hi], fourth order on the
    grid: composite Simpson on cells of width ~h, from state values at the
    cell ends and midpoints.  On a Trajectory the Hermite midpoint makes
    this, for an integrand linear in the state, the trapezoid with its
    exact h^2/12 end correction.  Segments are cut at the recorded breaks
    (jumps and derivative kinks); a segment end at a break is read just
    inside the segment, so each side gets its one-sided limit.
    """
    if hi <= lo:
        return 0.0
    tol, breaks = 1e-9 * h, phi.breaks
    cuts = [b for b in breaks if lo + tol < b < hi - tol]
    jumpset = set(cuts) | {x for x in (lo, hi) for b in breaks
                           if abs(b - x) <= tol}
    bounds = [lo] + cuts + [hi]
    total = 0.0
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        width = s1 - s0
        m = int(round(width / h))
        if m < 1 or abs(m * h - width) > 1e-9 * max(1.0, width):
            m = max(1, math.ceil(width / h - 1e-9))
        hseg = width / m
        ts = s0 + 0.5 * hseg * np.arange(2 * m + 1)
        ts[-1] = s1
        shift = 1e-7 * hseg
        if s0 in jumpset:
            ts[0] = s0 + shift
        if s1 in jumpset:
            ts[-1] = s1 - shift
        u = u_fn(ts, phi.evaluate(ts))
        total += hseg / 6.0 * (u[0] + u[-1] + 4.0 * u[1::2].sum()
                               + 2.0 * u[2:-1:2].sum())
    return total


def _window(phi: History | Trajectory, t: float | None, step: float | None,
            need: float, reach: str) -> tuple[float, float]:
    """Anchor time and quadrature step of a functional whose window reaches
    ``need`` (named ``reach``) back from the anchor: the right end of a
    History, or time ``t`` (default t_end) on a Trajectory, whose grid
    gives the default step; a given step must be finite and > 0
    (OutOfDomain).  Raises ValueError for a History whose states are not
    (S, E, I, Q), SpanTooShort for a window shorter than ``need``."""
    if isinstance(phi, History):
        if t is not None:
            raise ValueError("evaluation time applies to trajectories only")
        if phi.dimension != 4:
            raise ValueError(f"window has {phi.dimension} states; the model "
                             f"state is (S, E, I, Q)")
        anchor, avail, grid = 0.0, phi.span, DEFAULT_STEP
    else:
        anchor = phi.t_end if t is None else float(t)
        avail, grid = anchor + phi.history.span, phi.step
    if avail + 1e-12 < need:
        raise SpanTooShort(f"window must span [-{reach}, 0]; need {need!r}, "
                           f"available {avail!r}")
    return anchor, grid if step is None else positive(step, "step")


def conserved_H(params: ModelParams, phi: History | Trajectory,
                t: float | None = None, step: float | None = None) -> float:
    """Conserved functional H of the SIQ flow (sigma = 0; ValueError
    otherwise).

    H(phi) = 1 - phi_S(0) - phi_I(-kappa)
             + integral_{-kappa}^{0} (1 - r*phi_S(s)) * phi_I(s) ds.

    ``phi`` is either a History (evaluated at its right end) or a
    Trajectory (evaluated at time ``t``, default t_end).  The quadrature
    runs on the integrator grid; exact conservation along trajectories
    presumes kappa commensurate with the step (integrate() snaps delays
    and records them).
    """
    if params.sigma > 0:
        raise ValueError(f"H is the SIQ functional; at sigma = "
                         f"{params.sigma!r} > 0 use conserved_H_star")
    k, r = params.kappa, params.r
    anchor, h = _window(phi, t, step, k, "kappa")
    s_now, s_back = phi.evaluate([anchor, anchor - k])
    integral = _window_integral(phi, anchor - k, anchor, h,
                                lambda ts, v: (1.0 - r * v[:, 0]) * v[:, 2])
    return 1.0 - s_now[0] - s_back[2] + integral


def conserved_H_star(params: ModelParams, phi: History | Trajectory,
                     t: float | None = None,
                     step: float | None = None) -> tuple[float, float]:
    """Conserved pair (H1*, H2*) of the SEIQ flow.

    H1* = 1 - phi_S(0) - phi_E(0) - phi_I(-kappa)
          + int_{-kappa}^{0} phi_I ds
          - r * int_{-sigma-kappa}^{-sigma} phi_S phi_I ds
    H2* = phi_E(0) - r * int_{-sigma}^{0} phi_S phi_I ds

    Reduces to (H, phi_E(0)) at sigma = 0.
    """
    k, sg, r = params.kappa, params.sigma, params.r
    anchor, h = _window(phi, t, step, sg + k, "(sigma+kappa)")
    s_now, s_back = phi.evaluate([anchor, anchor - k])

    def si_fn(ts, v):
        return v[:, 0] * v[:, 2]

    int_i = _window_integral(phi, anchor - k, anchor, h, lambda ts, v: v[:, 2])
    int_si_back = _window_integral(phi, anchor - sg - k, anchor - sg, h, si_fn)
    int_si_now = _window_integral(phi, anchor - sg, anchor, h, si_fn)
    h1 = 1.0 - s_now[0] - s_now[1] - s_back[2] + int_i - r * int_si_back
    h2 = s_now[1] - r * int_si_now
    return h1, h2


def conserved_q(params: ModelParams, phi: History | Trajectory,
                t: float | None = None, step: float | None = None) -> float:
    """Leaf label q of the flow through ``phi``.

    q = 1 - phi_S(0) - phi_E(0) - phi_I(0)
        - r*eps * int_{-sigma-tau-kappa}^{-sigma-tau} phi_S phi_I ds:

    the isolated fraction less the isolations still due to return.  Unlike
    H and H1*, which become invariant only once their window has left the
    initial data, q is invariant from t = 0 on: Q' is exactly the
    difference of the integrand at the two window ends, and the flow
    conserves S + E + I + Q.  On outbreak data it is q0, the jump i0
    leaves it alone.
    """
    r, eps, lag, k = params.r, params.eps, params.sigma + params.tau, params.kappa
    anchor, h = _window(phi, t, step, lag + k, "(sigma+tau+kappa)")
    s, e, i, _ = phi.evaluate([anchor])[0].tolist()
    committed = _window_integral(phi, anchor - lag - k, anchor - lag, h,
                                 lambda ts, v: v[:, 0] * v[:, 2])
    return 1.0 - (s + e + i) - r * eps * committed


# ---------------------------------------------------------------------------
# Lemma-style admissibility check for initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the positivity conditions on initial data.

    Each bound is the right-hand side of one integral condition; the
    matching value must not fall below it.  ``violations`` lists the failed
    conditions with their margins.
    """

    i_value: float
    i_bound: float
    q_value: float
    q_bound: float
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_history(params: ModelParams, psi: History,
                     step: float | None = None) -> ValidationReport:
    """Check that initial data leads to nonnegative solutions.

    Conditions (composite quadrature on the integrator grid):
      psi_I(0) >= r*p * int_{-tau}^{0} e^theta psi_S psi_I dtheta
      psi_Q(0) >= r*eps * int_{-tau-kappa}^{0} psi_S psi_I dtheta

    Raises NotInSimplex if any sampled value leaves the simplex: a
    component below -SIMPLEX_TOL, or a sum off 1 by more than 1e-9.  The
    bounds read the (S, I, Q) components.
    """
    _, h = _window(psi, None, step, params.tau + params.kappa,
                   "(tau+kappa)")

    n = max(2, int(math.ceil(psi.span / h)) + 1)
    grid = np.linspace(-psi.span, 0.0, n)
    vals = psi.evaluate(grid)
    if vals.min() < -SIMPLEX_TOL or np.abs(vals.sum(axis=1) - 1.0).max() > 1e-9:
        bad = grid[int(np.argmin(vals.min(axis=1)))]
        raise NotInSimplex(f"history leaves the simplex near theta={bad!r}")

    _, _, i_now, q_now = psi.evaluate([0.0])[0].tolist()
    i_bound = params.r * params.p * _window_integral(
        psi, -params.tau, 0.0, h,
        lambda ts, v: np.exp(ts) * v[:, 0] * v[:, 2])
    q_bound = params.r * params.eps * _window_integral(
        psi, -(params.tau + params.kappa), 0.0, h,
        lambda ts, v: v[:, 0] * v[:, 2])

    violations = []
    if i_now < i_bound - 1e-12:
        violations.append(
            f"psi_I(0) = {i_now:.9g} < bound {i_bound:.9g} "
            f"(margin {i_now - i_bound:.3g})")
    if q_now < q_bound - 1e-12:
        violations.append(
            f"psi_Q(0) = {q_now:.9g} < bound {q_bound:.9g} "
            f"(margin {q_now - q_bound:.3g})")
    return ValidationReport(i_value=i_now, i_bound=i_bound,
                            q_value=q_now, q_bound=q_bound,
                            violations=tuple(violations))


# ---------------------------------------------------------------------------
# disease table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiseaseSpec:
    """One row of the disease table: name, r, infectious period in days."""

    name: str
    r: float
    infectious_period_days: float
    source: str = ""

    def __post_init__(self):
        positive(self.r, "r")
        positive(self.infectious_period_days, "infectious_period_days")


def load_disease_table(path: str | None = None) -> list[DiseaseSpec]:
    """Parse a disease CSV (header: name,r,infectious_period_days,source).

    With no path, loads the table bundled with the package.
    """
    if path is None:
        ref = resources.files("siq").joinpath("data/diseases.csv")
        text = ref.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip() and
             not ln.lstrip().startswith("#")]
    reader = csv.DictReader(lines)
    expected = ["name", "r", "infectious_period_days", "source"]
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != expected:
        raise FileParse(f"disease table header must be {','.join(expected)}, "
                        f"got {reader.fieldnames!r}")
    out = []
    for row in reader:
        try:
            out.append(DiseaseSpec(name=row["name"].strip(),
                                   r=float(row["r"]),
                                   infectious_period_days=float(
                                       row["infectious_period_days"]),
                                   source=(row["source"] or "").strip()))
        except (TypeError, ValueError) as exc:
            raise FileParse(f"bad disease row {row!r}: {exc}") from exc
    if not out:
        raise FileParse("disease table has no data rows")
    return out


__all__ = [
    "ModelParams", "outbreak_history", "simulate",
    "conserved_H", "conserved_H_star", "conserved_q", "validate_history",
    "ValidationReport", "DiseaseSpec", "load_disease_table",
]
