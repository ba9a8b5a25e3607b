"""Threshold formulas, endemic points, and leaf-label predictions."""

import math

import numpy as np
import pytest

from siq.dde_core import constant_history
from siq.equilibria import (critical_identification_time,
                            critical_probability, critical_time_days,
                            effective_R, endemic_point,
                            predict_endemic_from_history, q_critical,
                            tau_critical_at_q, thresholds)
from siq.errors import AlwaysStable, EpsNotBelowOne, OutOfDomain, SubcriticalP
from siq.siq_model import (DiseaseSpec, ModelParams, outbreak_history,
                           simulate)


# ---------------------------------------------------------------------------
# critical probability / identification time
# ---------------------------------------------------------------------------

def test_critical_probability_values():
    assert critical_probability(2.5) == pytest.approx(0.6, abs=1e-15)
    assert critical_probability(1.0) == 0.0
    assert critical_probability(1.7) == pytest.approx(0.4117647, abs=1e-6)


def test_critical_identification_time_values():
    assert critical_identification_time(2.5, 0.8) == pytest.approx(
        math.log(4.0 / 3.0), abs=1e-15)
    assert critical_identification_time(2.0, 0.8) == pytest.approx(
        math.log(1.6), abs=1e-15)
    # boundary: immediately above p_c the critical time vanishes
    assert critical_identification_time(2.5, 0.6 + 1e-12) == pytest.approx(
        0.0, abs=1e-11)


def test_critical_identification_time_errors():
    with pytest.raises(SubcriticalP):
        critical_identification_time(2.5, 0.6)
    with pytest.raises(SubcriticalP):
        critical_identification_time(2.5, 0.2)
    # r <= 1: no outbreak at all, any response suffices
    assert critical_identification_time(0.9, 0.5) == math.inf


@pytest.mark.parametrize("call, args, message", [
    # p is a probability: each of these returned a number
    (critical_identification_time, (2.5, 2.0), "p = 2.0 must be in [0, 1]"),
    (q_critical, (2.5, math.nan, 0.5), "p = nan must be in [0, 1]"),
    (thresholds, (2.5, -1, 0.5), "p = -1.0 must be in [0, 1]"),
    (tau_critical_at_q, (2.5, 1.5, 0.1), "p = 1.5 must be in [0, 1]"),
    (effective_R, (2.5, 0.5, -1.0), "tau = -1.0 must be finite and >= 0"),
    (critical_probability, (math.inf,), "r = inf must be finite and > 0")])
def test_threshold_functions_reject_inputs_outside_domain(call, args,
                                                          message):
    with pytest.raises(OutOfDomain) as err:
        call(*args)
    assert str(err.value) == message


def test_critical_time_days_table_values():
    ebola = DiseaseSpec("Ebola 2014 [Sierra Leone]", 2.5, 12.0)
    spanish = DiseaseSpec("Spanish Flu 1917", 2.0, 7.0)
    pertussis = DiseaseSpec("Pertussis", 4.75, 68.5)
    assert critical_time_days(ebola, 0.8) == pytest.approx(3.4522, abs=1e-3)
    assert critical_time_days(spanish, 0.8) == pytest.approx(3.2900, abs=1e-3)
    assert critical_time_days(pertussis, 0.8) == pytest.approx(0.9073, abs=1e-3)


# ---------------------------------------------------------------------------
# q_c, tau_c(p, q), effective reproduction
# ---------------------------------------------------------------------------

def test_q_critical_values():
    assert q_critical(2.5, 0.5, 0.0) == pytest.approx(0.2, abs=1e-15)
    assert q_critical(2.5, 0.0, 1.3) == pytest.approx(1 - 1 / 2.5, abs=1e-15)
    assert q_critical(2.5, 0.5, 0.5) == pytest.approx(0.425894, abs=1e-6)
    with pytest.raises(EpsNotBelowOne):
        q_critical(2.5, 1.0, 0.0)


def test_tau_critical_at_q():
    # q = 0 reduces to the plain critical identification time
    assert tau_critical_at_q(2.5, 0.8, 0.0) == pytest.approx(
        critical_identification_time(2.5, 0.8), abs=1e-15)
    assert tau_critical_at_q(2.5, 0.8, 0.2) == pytest.approx(
        math.log(1.6), abs=1e-12)
    with pytest.raises(SubcriticalP):
        tau_critical_at_q(2.5, 0.4, 0.2)
    with pytest.raises(AlwaysStable):
        tau_critical_at_q(2.5, 0.9, 0.7)     # r(1-q) = 0.75 <= 1


def test_effective_R():
    assert effective_R(2.5, 0.0, 5.0, 0.0) == pytest.approx(2.5, abs=1e-15)
    assert effective_R(2.5, 0.5, 0.5, 0.0) == pytest.approx(
        2.5 * (1 - 0.5 * math.exp(-0.5)), abs=1e-12)
    assert effective_R(2.5, 0.5, 0.5, 0.0) == pytest.approx(1.741837, abs=1e-6)


def test_threshold_equivalences_on_grid():
    # effective_R < 1 <=> q > q_critical; at q = 0 <=> eps > 1 - 1/r
    rng = np.random.default_rng(11)
    for _ in range(300):
        r = rng.uniform(1.2, 5.0)
        p = rng.uniform(0.0, 1.0)
        tau = rng.uniform(0.0, 2.0)
        q = rng.uniform(-0.2, 1.0)
        r_eff = effective_R(r, p, tau, q)
        if abs(r_eff - 1.0) < 1e-9:
            continue
        assert (r_eff < 1.0) == (q > q_critical(r, p, tau))
    for _ in range(100):
        r = rng.uniform(1.2, 5.0)
        p = rng.uniform(0.0, 1.0)
        tau = rng.uniform(0.0, 2.0)
        eps = p * math.exp(-tau)
        if abs(effective_R(r, p, tau, 0.0) - 1.0) < 1e-9:
            continue
        assert (effective_R(r, p, tau, 0.0) < 1.0) == (eps > 1.0 - 1.0 / r)


def test_thresholds_bundle():
    th = thresholds(2.5, 0.8, 0.1)
    assert th.p_c == 0.6
    assert th.tau_c == pytest.approx(math.log(0.8 / 0.6), abs=1e-15)
    th_sub = thresholds(2.5, 0.5, 0.1)
    assert th_sub.tau_c is None


def test_tau_c_independent_of_kappa_api_level():
    # the threshold functions cannot read kappa: evaluating the bundle for
    # parameter sets differing only in kappa gives bitwise-equal results
    a = thresholds(2.5, 0.8, 0.3, 0.05)
    params_variants = [ModelParams(r=2.5, p=0.8, tau=0.3, kappa=k)
                       for k in (0.0, 1.0, 17.5)]
    for ps in params_variants:
        b = thresholds(ps.r, ps.p, ps.tau, 0.05)
        assert (a.p_c, a.tau_c, a.q_c, a.r_eff) == (b.p_c, b.tau_c, b.q_c, b.r_eff)


# ---------------------------------------------------------------------------
# endemic points
# ---------------------------------------------------------------------------

def test_endemic_point_closed_form_series():
    # eps = 0.5, r = 2.5: v_I = 0.2/(1 + kappa)
    for kappa in (0.0, 0.5, 1.0, 2.0, 10.0):
        ps = ModelParams(r=2.5, p=0.5, tau=0.0, kappa=kappa)
        v = endemic_point(ps, 0.0)
        assert v.v_I == pytest.approx(0.2 / (1.0 + kappa), rel=1e-14)


def test_endemic_point_kappa_zero():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.0)
    qc = q_critical(2.5, 0.5, 0.5)
    v = endemic_point(ps, 0.07)
    assert v.v_I == pytest.approx(qc - 0.07, rel=1e-14)
    assert v.v_Q == pytest.approx(0.07, rel=1e-14)


def test_endemic_point_components_and_mass():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    v = endemic_point(ps, 0.0)
    assert v.v_S == pytest.approx(0.574106, abs=1e-6)
    assert v.v_I == pytest.approx(0.349773, abs=5e-6)
    assert v.v_Q == pytest.approx(0.076120, abs=5e-6)
    assert v.v_S + v.v_I + v.v_Q == pytest.approx(1.0, abs=1e-14)


def test_endemic_monotone_in_kappa_and_limit():
    qc = q_critical(2.5, 0.5, 0.5)
    q = 0.05
    last = math.inf
    for kappa in np.linspace(0.0, 10.0, 21):
        v = endemic_point(ModelParams(r=2.5, p=0.5, tau=0.5, kappa=float(kappa)), q)
        assert v.v_I < last
        last = v.v_I
    v_inf = endemic_point(ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1e9), q)
    assert abs(v_inf.v_I) <= 1e-8
    assert v_inf.v_Q == pytest.approx(qc, abs=1e-8)


def test_seiq_endemic_point_reduces_and_conserves_mass():
    ps0 = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5, sigma=0.0)
    a = endemic_point(ps0, 0.03, 0.0)
    b = endemic_point(ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5), 0.03)
    assert (a.v_S, a.v_I, a.v_Q) == (b.v_S, b.v_I, b.v_Q)

    rng = np.random.default_rng(5)
    for _ in range(200):
        ps = ModelParams(r=rng.uniform(1.2, 5), p=rng.uniform(0.05, 0.95),
                         tau=rng.uniform(0, 1.5), kappa=rng.uniform(0, 8),
                         sigma=rng.uniform(0, 2))
        eta = rng.uniform(0, 0.3)
        v = endemic_point(ps, rng.uniform(0, 0.3), eta)
        assert v.v_S + v.v_E + v.v_I + v.v_Q == pytest.approx(1.0, abs=1e-12)


def test_seiq_endemic_point_value():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5, sigma=1.0)
    v = endemic_point(ps, 0.0)
    eps = ps.eps
    qc = q_critical(2.5, 0.5, 0.5)
    expected = (1 - eps) * qc / (1 - eps + 1.0 + eps * 0.5)
    assert v.v_I == pytest.approx(expected, rel=1e-14)
    assert v.v_I == pytest.approx(0.16053, abs=5e-4)


# ---------------------------------------------------------------------------
# reachability and prediction
# ---------------------------------------------------------------------------

def test_reachable_predicate():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0)
    qc = q_critical(2.5, 0.5, 0.5)
    assert endemic_point(ps, 0.0).reachable
    assert not endemic_point(ps, qc).reachable
    assert not endemic_point(ps, -0.1).reachable
    assert not endemic_point(ps, 1.1).reachable


def test_predict_endemic_from_outbreak():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    hist = outbreak_history(ps, 0.01)
    v = predict_endemic_from_history(ps, hist)
    # the jump i0 is never isolated: the flow stays on the leaf q = q0 = 0
    assert v.q == 0.0
    qc = q_critical(2.5, 0.5, 0.5)
    eps = ps.eps
    assert v.v_I == pytest.approx(
        (1 - eps) * qc / (1 - eps + eps * 0.5), rel=1e-12)
    assert v.v_I == pytest.approx(0.349771, abs=1e-5)


def test_predict_outbreak_matches_reached_state():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    hist = outbreak_history(ps, 0.001)
    v = predict_endemic_from_history(ps, hist)
    final = simulate(ps, hist, 200.0, 1e-3).evaluate([200.0])[0]
    assert np.abs(final - v.state()).max() <= 1e-9


def test_predict_fixed_point_property():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    v = endemic_point(ps, 0.05)
    hist = constant_history(v.state(), ps.span)
    again = predict_endemic_from_history(ps, hist)
    assert again.q == pytest.approx(0.05, abs=1e-12)
    assert again.v_I == pytest.approx(v.v_I, rel=1e-10)


def test_predict_unreachable_leaf():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    qc = q_critical(2.5, 0.5, 0.5)
    hist = outbreak_history(ps, 0.001, q0=qc + 0.05)
    v = predict_endemic_from_history(ps, hist)
    assert v.v_I < 0
    assert not v.reachable


def test_predict_seiq_from_history():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5, sigma=1.0)
    hist = outbreak_history(ps, 0.01, q0=0.02, e0=0.03)
    v = predict_endemic_from_history(ps, hist)
    # the flow invariants on jump data: q reads q0 (the jump i0 is never
    # isolated), H2* reads e0
    assert v.q == pytest.approx(0.02, abs=1e-13)
    assert v.eta == pytest.approx(0.03, abs=1e-13)
    assert v.v_S + v.v_E + v.v_I + v.v_Q == pytest.approx(1.0, abs=1e-13)
