"""Closed-form thresholds, equilibrium families, and endemic-state
prediction from initial data via the conserved quantities.

Two equilibrium families exist (all states constant): disease-free points
(1-q, 0, 0, q) and endemic points with S = 1/(r(1-eps)).  A trajectory's leaf
labels, read off the conserved quantities, single out which endemic point
it can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dde_core import History, Trajectory
from .errors import (AlwaysStable, EpsNotBelowOne, SubcriticalP, positive,
                     probability)
from .siq_model import DiseaseSpec, ModelParams, leaf_labels


@dataclass(frozen=True)
class Thresholds:
    """Critical response quantities for one parameter point."""

    p_c: float
    tau_c: float | None
    q_c: float
    r_eff: float


@dataclass(frozen=True)
class EndemicPoint:
    """An endemic equilibrium (S, E, I, Q) with its leaf labels (q, eta);
    v_E and eta are 0 on an SIQ leaf.

    v_I < 0 signals that the leaf is unreachable (no biological endemic
    state on it); components still satisfy the defining algebra.
    """

    v_S: float
    v_I: float
    v_Q: float
    q: float
    v_E: float
    eta: float

    @property
    def reachable(self) -> bool:
        return (self.v_I > 0 and 0.0 <= self.q <= 1.0
                and 0.0 <= self.eta <= 1.0)

    def state(self) -> np.ndarray:
        return np.array([self.v_S, self.v_E, self.v_I, self.v_Q])


def critical_probability(r: float) -> float:
    """Minimum identification probability p_c = 1 - 1/r."""
    positive(r, "r")
    return 1.0 - 1.0 / r


def critical_identification_time(r: float, p: float) -> float:
    """Critical identification time ln(p / p_c); requires p > p_c.

    For r <= 1 the infection cannot spread at all and the critical time is
    infinite.  Raises SubcriticalP when p <= p_c: no identification speed
    can compensate for insufficient coverage.
    """
    probability(p, "p")
    pc = critical_probability(r)
    if p <= pc:
        raise SubcriticalP(f"p = {p!r} <= p_c = {pc!r}: uncontrollable at any speed")
    if pc <= 0.0:
        return math.inf
    return math.log(p / pc)


def critical_time_days(disease: DiseaseSpec, p: float) -> float:
    """Critical identification time in days, tau_c * (infectious period)."""
    return critical_identification_time(disease.r, p) * disease.infectious_period_days


def q_critical(r: float, p: float, tau: float) -> float:
    """Stability boundary q_c = 1 - (1/r) / (1 - eps), eps = p*exp(-tau)."""
    eps = ModelParams(r, p, tau, 0.0).eps
    if eps >= 1.0:
        raise EpsNotBelowOne(f"eps = {eps!r} must be < 1")
    return 1.0 - (1.0 / r) / (1.0 - eps)


def tau_critical_at_q(r: float, p: float, q: float) -> float:
    """Largest stable identification time at isolation level q:
    ln p - ln(1 - 1/(r(1-q))).

    Raises AlwaysStable when r(1-q) <= 1 (every tau is stable) and
    SubcriticalP when p <= 1 - 1/(r(1-q)).
    """
    positive(r, "r")
    probability(p, "p")
    rq = r * (1.0 - q)
    if rq <= 1.0:
        raise AlwaysStable(f"r(1-q) = {rq!r} <= 1: stable for every tau")
    pc_q = 1.0 - 1.0 / rq
    if p <= pc_q:
        raise SubcriticalP(f"p = {p!r} <= critical value {pc_q!r} at q = {q!r}")
    return math.log(p) - math.log(pc_q)


def effective_R(r: float, p: float, tau: float, q: float = 0.0) -> float:
    """Effective reproductive number (1-q)(1-eps)r."""
    return (1.0 - q) * (1.0 - ModelParams(r, p, tau, 0.0).eps) * r


def thresholds(r: float, p: float, tau: float, q: float = 0.0) -> Thresholds:
    """Bundle of the threshold quantities; tau_c is None when p is subcritical."""
    try:
        tc = critical_identification_time(r, p)
    except SubcriticalP:
        tc = None
    return Thresholds(p_c=critical_probability(r), tau_c=tc,
                      q_c=q_critical(r, p, tau),
                      r_eff=effective_R(r, p, tau, q))


def endemic_point(params: ModelParams, q: float,
                  eta: float = 0.0) -> EndemicPoint:
    """Endemic equilibrium on the leaf (q, eta); at sigma = 0 and eta = 0
    the SIQ point, with v_E = 0.

    v_S = 1/(r(1-eps)) and, with D = 1 - eps + sigma + eps*kappa and
    m = q_c - q - eta:
        v_E = sigma*m/D + eta,  v_I = (1-eps)*m/D,  v_Q = eps*kappa*m/D + q.
    The leaf offsets (+eta, +q) keep the components summing to 1, so H on
    the constant point returns q.  The labels are not checked: labels read
    off a flow may lie a rounding error below 0.
    """
    eps = params.eps
    m = q_critical(params.r, params.p, params.tau) - q - eta
    denom = 1.0 - eps + params.sigma + eps * params.kappa
    v_s = 1.0 / (params.r * (1.0 - eps))
    v_i = (1.0 - eps) * m / denom
    v_q = eps * params.kappa * m / denom + q
    return EndemicPoint(v_S=v_s, v_I=v_i, v_Q=v_q, q=q,
                        v_E=params.sigma * m / denom + eta, eta=eta)


def predict_endemic_from_history(params: ModelParams,
                                 phi: History | Trajectory,
                                 t: float | None = None) -> EndemicPoint:
    """Endemic point a trajectory from ``phi`` can tend to.

    Reads the leaf (q, eta = H2*) from one ``leaf_labels`` evaluation,
    which needs ``phi`` to span [-(sigma+tau+kappa), 0], then evaluates
    the endemic formulas on that leaf.  A label at or beyond q_c yields
    v_I <= 0, i.e. an unreachable leaf (check ``.reachable``).
    """
    q, _, eta = leaf_labels(params, phi, t)
    return endemic_point(params, q, eta)


__all__ = [
    "Thresholds", "EndemicPoint", "critical_probability",
    "critical_identification_time", "critical_time_days", "q_critical",
    "tau_critical_at_q", "effective_R", "thresholds", "endemic_point",
    "predict_endemic_from_history",
]
