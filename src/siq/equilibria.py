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
from .errors import (InvalidFractions, SubcriticalP, fraction, positive,
                     probability)
from .siq_model import ModelParams, leaf_labels

#: The refusal where q_c <= 0, so that no leaf holds an endemic point.
_NO_ENDEMIC = ("no endemic equilibrium: q_c = {!r} <= 0, the response curbs "
               "every outbreak")


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


def critical_probability(r: float, q: float = 0.0) -> float:
    """Minimum identification probability p_c = 1 - 1/(r(1-q)): the p at
    which R_eff(q) = 1 with instant identification.  At q = 1 nobody is
    left to infect and p_c = -inf."""
    positive(r, "r")
    rq = r * (1.0 - fraction(q, "q"))
    return 1.0 - 1.0 / rq if rq > 0.0 else -math.inf


def critical_identification_time(r: float, p: float, q: float = 0.0) -> float:
    """Critical identification time ln(p / p_c(q)), the tau at which
    R_eff(q) = 1; requires p > p_c(q).

    It is infinite when p_c(q) <= 0 < p: at r(1-q) <= 1 the infection
    cannot spread.  Raises SubcriticalP when p <= p_c(q): no
    identification speed can compensate for insufficient coverage.
    """
    probability(p, "p")
    pc = critical_probability(r, q)
    if p <= pc:
        raise SubcriticalP(f"p = {p!r} <= p_c = {pc!r} at q = {q!r}: "
                           f"uncontrollable at any speed")
    if pc <= 0.0:
        return math.inf
    return math.log(p / pc)


def q_critical(r: float, p: float, tau: float) -> float:
    """Stability boundary q_c = 1 - (1/r) / (1 - eps), eps = p*exp(-tau),
    where R_eff(q) = 1; at eps = 1 every outbreak is curbed: q_c = -inf."""
    eps = ModelParams(r, p, tau, 0.0).eps
    return 1.0 - (1.0 / r) / (1.0 - eps) if eps < 1.0 else -math.inf


def effective_R(r: float, p: float, tau: float, q: float = 0.0) -> float:
    """Effective reproductive number (1-q)(1-eps)r."""
    return (1.0 - q) * (1.0 - ModelParams(r, p, tau, 0.0).eps) * r


def thresholds(r: float, p: float, tau: float, q: float = 0.0) -> Thresholds:
    """Bundle of the threshold quantities at isolation level q; tau_c is
    None when p is subcritical."""
    try:
        tc = critical_identification_time(r, p, q)
    except SubcriticalP:
        tc = None
    return Thresholds(p_c=critical_probability(r, q), tau_c=tc,
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
    off a flow may lie a rounding error below 0.  At eps = 1 (q_c = -inf)
    v_S has no value and InvalidFractions is raised.
    """
    eps = params.eps
    qc = q_critical(params.r, params.p, params.tau)
    if qc == -math.inf:
        raise InvalidFractions(_NO_ENDEMIC.format(qc))
    m = qc - q - eta
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
    "critical_identification_time", "q_critical", "effective_R",
    "thresholds", "endemic_point", "predict_endemic_from_history",
]
