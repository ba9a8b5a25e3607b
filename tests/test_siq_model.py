"""Model-layer tests: vector fields, initial data, admissibility bounds,
and the conserved quantities."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import smooth_simplex_history, with_empty_e, without_e
from dde_reference import flux_integrate, seiq_field, siq_field
from siq import dde_core
from siq.dde_core import History, constant_history
from siq.errors import (InvalidFractions, NotInSimplex, OutOfDomain,
                        OutOfRange, SpanTooShort)
from siq.siq_model import (ModelParams, conserved_H, conserved_H_star,
                           leaf_labels, load_disease_table, outbreak_history,
                           simulate, validate_history)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_derived_quantities():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=2.0, sigma=0.25)
    assert ps.eps == 0.5 * math.exp(-0.5)
    assert ps.span == 2.75
    assert ModelParams(r=2.5, p=0.5, tau=0.0, kappa=0.0).eps == 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(r=0.0, p=0.5, tau=0.0, kappa=0.0)
    with pytest.raises(ValueError):
        ModelParams(r=1.0, p=1.5, tau=0.0, kappa=0.0)
    with pytest.raises(ValueError):
        ModelParams(r=1.0, p=0.5, tau=-1.0, kappa=0.0)


# ---------------------------------------------------------------------------
# vector fields of the reference integrator (tests/dde_reference.py)
# ---------------------------------------------------------------------------

def test_siq_field_disease_free_is_stationary():
    field = siq_field(ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0))
    y = (1.0, 0.0, 0.0)
    assert field.fn(0.0, y, (y, y)) == (0.0, 0.0, 0.0)
    assert field.delays.delays == (0.5, 1.5)


def test_siq_field_p_zero_reduces_to_sis():
    r = 2.5
    field = siq_field(ModelParams(r=r, p=0.0, tau=0.7, kappa=2.0))
    y = (0.6, 0.3, 0.1)
    other = (0.2, 0.5, 0.3)
    ds, di, dq = field.fn(0.0, y, (other, other))
    assert dq == 0.0
    assert ds == pytest.approx(-r * 0.6 * 0.3 + 0.3, abs=0)
    assert di == pytest.approx(r * 0.6 * 0.3 - 0.3, abs=0)


def test_siq_field_direct_arithmetic():
    # r=2, tau=kappa=0, p=1 (eps=1) at constant state (0.5, 0.5, 0)
    field = siq_field(ModelParams(r=2.0, p=1.0, tau=0.0, kappa=0.0))
    y = (0.5, 0.5, 0.0)
    ds, di, dq = field.fn(0.0, y, (y, y))
    assert di == pytest.approx(2 * 0.25 - 0.5 - 2 * 0.25, abs=1e-15)
    assert ds == pytest.approx(0.5, abs=1e-15)
    assert dq == pytest.approx(0.0, abs=1e-15)


def test_seiq_field_stationary_and_latency_flow():
    ps = ModelParams(r=2.0, p=0.0, tau=0.0, kappa=0.0, sigma=1.0)
    field = seiq_field(ps)
    rest = (1.0, 0.0, 0.0, 0.0)
    assert field.fn(0.0, rest, (rest, rest, rest)) == (0.0, 0.0, 0.0, 0.0)
    # constant (0.5, 0, 0.5, 0): maturation inflow equals current infection
    y = (0.5, 0.0, 0.5, 0.0)
    ds, de, di, dq = field.fn(0.0, y, (y, y, y))
    assert de == 0.0
    assert di == pytest.approx(2 * 0.25 - 0.5, abs=1e-15)
    assert field.delays.delays == (1.0, 1.0, 1.0)


def test_seiq_sigma_zero_matches_siq_trajectory():
    # the four-state model at sigma = 0 against the three-state (S, I, Q)
    # loop of the reference
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5, sigma=0.0)
    h4 = History(span=ps.span, jumps=(0.0,),
                 fn=lambda th: ((1.0 - 0.01, 0.0, 0.01, 0.0) if th >= 0.0
                                else (1.0, 0.0, 0.0, 0.0)))
    t3 = flux_integrate(without_e(h4), 10.0, 1e-3, r=ps.r, eps=ps.eps,
                        tau=ps.tau, kappa=ps.kappa)
    t4 = simulate(ps, h4, 10.0, 1e-3)
    for t in (1.0, 5.0, 10.0):
        s3 = t3.evaluate([t])[0]
        s4 = t4.evaluate([t])[0]
        assert abs(s4[1]) <= 1e-12                      # E stays empty
        assert np.max(np.abs(s4[[0, 2, 3]] - s3)) <= 1e-9


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_outbreak_history_values():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    h = outbreak_history(ps, 0.001)
    assert h.evaluate([0.0, -0.3]).tolist() == [[0.999, 0.0, 0.001, 0.0],
                                                 [1.0, 0.0, 0.0, 0.0]]
    assert h.jumps == (0.0,)
    h2 = outbreak_history(ps, 0.01)
    assert h2.evaluate([0.0]).tolist() == [[0.99, 0.0, 0.01, 0.0]]


def test_outbreak_history_errors():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    with pytest.raises(InvalidFractions):
        outbreak_history(ps, 0.0)
    with pytest.raises(InvalidFractions):
        outbreak_history(ps, 0.6, 0.6)
    # SIQ data are four-state, with or without e0
    assert outbreak_history(ps, 0.01).dimension == 4
    assert outbreak_history(ps, 0.01, e0=0.01).dimension == 4


def test_outbreak_data_share_the_fractions_rule():
    # outbreak data and leaf labels have one joint rule, which names the
    # fractions and forgives the rounding of a sum that is 1 in decimal
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    with pytest.raises(InvalidFractions) as err:
        outbreak_history(ps, 0.6, 0.44)
    assert str(err.value) == "i0 + q0 + e0 = 1.04 must be <= 1"
    assert 0.33 + 0.56 + 0.11 == 1.0000000000000002
    h = outbreak_history(ps, 0.33, 0.56, 0.11)
    assert h.evaluate([0.0]).tolist() == [[1.0 - 0.33 - 0.56 - 0.11, 0.11,
                                           0.33, 0.56]]


def test_outbreak_history_seiq_slot():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5, sigma=1.0)
    h = outbreak_history(ps, 0.01, q0=0.02, e0=0.03)
    assert h.evaluate([0.0]).tolist() == [[1.0 - 0.01 - 0.02 - 0.03, 0.03,
                                           0.01, 0.02]]


# ---------------------------------------------------------------------------
# admissibility (positivity) bounds
# ---------------------------------------------------------------------------

def test_validate_disease_free_history():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    rep = validate_history(ps, constant_history([1.0, 0.0, 0.0, 0.0],
                                                ps.span))
    assert rep.valid
    assert rep.i_bound == 0.0 and rep.q_bound == 0.0


def test_validate_outbreak_history():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    rep = validate_history(ps, outbreak_history(ps, 0.01))
    assert rep.valid
    assert rep.i_bound <= 1e-12 and rep.q_bound <= 1e-12


def test_validate_violating_history_quadrature_oracle():
    # psi = (0.5, 0, 0.5, 0) on [-1, 0) and (0.5, 0, 0.3, 0.2) at 0; r=2.5,
    # p=1, tau=1, kappa=0.  The I-bound integral has the closed form
    # 2.5 * 0.25 * (1 - e^{-1}) and an independent quadrature check.
    ps = ModelParams(r=2.5, p=1.0, tau=1.0, kappa=0.0)
    pre = (0.5, 0.0, 0.5, 0.0)
    at0 = (0.5, 0.0, 0.3, 0.2)
    hist = History(span=1.0, fn=lambda th: at0 if th >= 0 else pre,
                   jumps=(0.0,))
    rep = validate_history(ps, hist)
    closed = 2.5 * 0.25 * (1.0 - math.exp(-1.0))
    numeric, _ = quad(lambda th: 2.5 * math.exp(th) * 0.25, -1.0, 0.0)
    assert closed == pytest.approx(numeric, abs=1e-12)
    assert closed == pytest.approx(0.3950759, abs=1e-6)
    assert rep.i_bound == pytest.approx(closed, abs=1e-7)
    assert not rep.valid
    assert any("psi_I(0)" in v for v in rep.violations)


def test_validate_rejects_off_simplex():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    bad = constant_history([0.8, 0.0, 0.3, -0.1], ps.span)
    with pytest.raises(NotInSimplex):
        validate_history(ps, bad)


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def test_H_of_disease_free_constant_is_q():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    for q in (0.0, 0.2, 0.77):
        hist = constant_history([1.0 - q, 0.0, 0.0, q], ps.span)
        assert conserved_H(ps, hist) == pytest.approx(q, abs=1e-14)


def test_H_of_outbreak_history():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    assert conserved_H(ps, outbreak_history(ps, 0.01)) == pytest.approx(
        0.01, abs=1e-14)


def test_H_of_endemic_constant_is_leaf_label():
    from siq.equilibria import endemic_point
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    for q in (0.0, 0.05, 0.2):
        v = endemic_point(ps, q)
        hist = constant_history(v.state(), ps.span)
        assert conserved_H(ps, hist) == pytest.approx(q, abs=1e-12)


def test_H_requires_span():
    ps = ModelParams(r=2.5, p=0.5, tau=0.0, kappa=3.0)
    with pytest.raises(SpanTooShort):
        conserved_H(ps, constant_history([1.0, 0.0, 0.0, 0.0], 1.0))
    # H and (H1*, H2*) are read with q, over [-(sigma+tau+kappa), 0]: a
    # history that spans kappa alone is too short for either view
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=3.0)
    hist = constant_history([1.0, 0.0, 0.0, 0.0], 3.2)
    for view in (conserved_H, conserved_H_star):
        with pytest.raises(SpanTooShort, match=re.escape(
                "window must span [-(sigma+tau+kappa), 0]")):
            view(ps, hist)


@pytest.mark.parametrize("step", [-1.0, 0.0, math.nan, math.inf])
def test_window_functionals_reject_a_step_outside_its_domain(step):
    # a negative step returned a wrong number, nan raised a bare conversion
    # error and 0 meant the default step
    siq = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=2.0)
    seiq = replace(siq, sigma=0.5)
    hist3 = outbreak_history(siq, 0.01)
    traj3 = simulate(siq, hist3, 5.0, 0.01)
    traj4 = simulate(seiq, outbreak_history(seiq, 0.01), 5.0, 0.01)
    for call in (lambda: conserved_H(siq, traj3, None, step),
                 lambda: conserved_H_star(seiq, traj4, None, step),
                 lambda: leaf_labels(siq, traj3, None, step)[0],
                 lambda: validate_history(siq, hist3, step)):
        with pytest.raises(OutOfDomain, match=re.escape(
                f"step = {step!r} must be finite and > 0")):
            call()


_SIQ = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=2.0)


def _siq_run():
    return simulate(_SIQ, outbreak_history(_SIQ, 0.01), 5.0, 0.01)


@pytest.mark.parametrize("call, error, message", [
    (lambda: History(span=math.nan, fn=lambda theta: (1.0, 0.0, 0.0)),
     OutOfDomain, "span = nan must be finite and > 0"),
    (lambda: outbreak_history(_SIQ, 0.01).evaluate([-1.0, math.nan]),
     OutOfRange, "history evaluated at theta=nan"),
    (lambda: _siq_run().evaluate([1.0, math.nan]),
     OutOfRange, "trajectory evaluated at t=nan"),
    (lambda: leaf_labels(_SIQ, _siq_run(), t=math.nan),
     OutOfRange, "trajectory evaluated at t=nan")],
    ids=["history-span", "history-time", "trajectory-time", "window-time"])
def test_readers_reject_a_nan_span_or_time(call, error, message):
    # a NaN span was accepted, and at a NaN time the history returned its
    # pre-jump state, the trajectory a NaN row (with two cast warnings)
    # and the q functional a bare "cannot convert float NaN to integer"
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_window_functionals_reject_wrong_dimension():
    # every model state is (S, E, I, Q): the integrator and the window
    # functionals refuse data of any other size, which they would misread
    # (Q as I, or I as E); H, the SIQ functional, refuses sigma > 0, where
    # it would drop the E terms of H1*
    siq = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=2.0)
    seiq = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=2.0, sigma=0.5)
    hist3 = without_e(outbreak_history(siq, 0.01))
    for call in (lambda: simulate(siq, hist3, 1.0, 0.01),
                 lambda: dde_core.integrate(hist3, 1.0, 0.01, r=2.5,
                                            eps=siq.eps, tau=0.5, kappa=2.0)):
        with pytest.raises(ValueError, match=re.escape(
                "history has 3 states; the model state is (S, E, I, Q), "
                "so write SIQ data as (S, 0, I, Q)")):
            call()
    for hist in (hist3, constant_history([0.2] * 5, seiq.span)):
        for call in (lambda: conserved_H(siq, hist),
                     lambda: conserved_H_star(siq, hist),
                     lambda: leaf_labels(siq, hist),
                     lambda: validate_history(siq, hist)):
            with pytest.raises(ValueError, match=re.escape(
                    f"window has {hist.dimension} states; the model state "
                    f"is (S, E, I, Q)")):
                call()
    traj4 = simulate(seiq, outbreak_history(seiq, 0.01), 10.0, 0.01)
    for phi in (traj4, outbreak_history(seiq, 0.01)):
        with pytest.raises(ValueError, match=re.escape(
                "H is the SIQ functional; at sigma = 0.5 > 0 use "
                "conserved_H_star")):
            conserved_H(seiq, phi)


def test_H_star_reduces_to_H_at_sigma_zero():
    # at sigma = 0, H = H1* + H2* with H2* = E(0), whether or not E is 0;
    # H is checked against its own formula by an adaptive quadrature
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.8, sigma=0.0)
    hist = smooth_simplex_history(ps.span, seed=3, dim=4)
    s0, e0, _, _ = hist.fn(0.0)
    assert e0 > 0.0
    integral, _ = quad(lambda th: (1.0 - ps.r * hist.fn(th)[0])
                       * hist.fn(th)[2], -ps.kappa, 0.0,
                       epsabs=1e-13, epsrel=1e-13)
    exact = 1.0 - s0 - hist.fn(-ps.kappa)[2] + integral
    assert abs(conserved_H(ps, hist) - exact) <= 1e-10
    assert conserved_H_star(ps, hist)[1] == e0


def test_H_star_of_constants():
    ps = ModelParams(r=2.5, p=0.5, tau=0.25, kappa=1.5, sigma=0.7)
    eta, q = 0.07, 0.2
    hist = constant_history([1.0 - eta - q, eta, 0.0, q], ps.span)
    h1, h2 = conserved_H_star(ps, hist)
    assert h1 == pytest.approx(q, abs=1e-13)
    assert h2 == pytest.approx(eta, abs=1e-13)


def test_H2_star_closed_form_constant_SI():
    # constant phi_S = s, phi_I = c: H2* = phi_E(0) - r*s*c*sigma
    ps = ModelParams(r=2.0, p=0.3, tau=0.1, kappa=0.5, sigma=0.9)
    s, c, e = 0.5, 0.2, 0.1
    hist = constant_history([s, e, c, 1.0 - s - e - c], ps.span)
    _, h2 = conserved_H_star(ps, hist)
    assert h2 == pytest.approx(e - ps.r * s * c * ps.sigma, abs=1e-13)


def test_H_conserved_along_trajectory_smooth_history():
    ps = ModelParams(r=2.5, p=0.5, tau=0.25, kappa=2.0)
    hist = with_empty_e(smooth_simplex_history(ps.span, seed=42))
    traj = simulate(ps, hist, 40.0, 1e-3)
    ref = conserved_H(ps, traj, ps.kappa)
    for t in (2.0, 2.5, 5.0, 13.0, 26.5, 40.0):
        assert abs(conserved_H(ps, traj, t) - ref) <= 1e-10


def test_H_jump_law_for_outbreak_data():
    # with a value jump i0 at t = 0, H is constant before the jump exits
    # the window and exactly i0 lower afterwards
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.5)
    i0 = 0.01
    hist = outbreak_history(ps, i0)
    traj = simulate(ps, hist, 20.0, 1e-3)
    h0 = conserved_H(ps, hist)
    assert h0 == pytest.approx(i0, abs=1e-14)
    for t in (0.25, 0.75, 1.25):
        assert conserved_H(ps, traj, t) == pytest.approx(h0, abs=1e-10)
    for t in (2.0, 5.0, 20.0):
        assert conserved_H(ps, traj, t) == pytest.approx(h0 - i0, abs=1e-10)


def test_conserved_q_invariant_from_t_zero():
    # unlike H, the label q needs no flushed window: it is constant from
    # t = 0 on, and equals H once H's window has left the initial data
    ps = ModelParams(r=2.5, p=0.5, tau=0.25, kappa=2.0)
    hist = with_empty_e(smooth_simplex_history(ps.span, seed=42))
    traj = simulate(ps, hist, 40.0, 1e-3)
    q0 = leaf_labels(ps, hist)[0]
    for t in (0.0, 0.3, 1.0, 2.0, 13.0, 40.0):
        assert abs(leaf_labels(ps, traj, t)[0] - q0) <= 1e-10
    assert abs(conserved_H(ps, traj, 2.0) - q0) <= 1e-10


def test_window_quadrature_fourth_order_without_derivatives():
    # the window functionals read state values only; on a smooth history
    # given by its values alone the error still falls 16-fold per halving
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.8)
    hist = with_empty_e(smooth_simplex_history(ps.span, seed=7))
    s0, _, i0, _ = hist.fn(0.0)
    si, _ = quad(lambda th: hist.fn(th)[0] * hist.fn(th)[2], -1.3, -0.5,
                 epsabs=1e-15, epsrel=1e-15)
    exact = 1.0 - s0 - i0 - ps.r * ps.eps * si
    errs = [abs(leaf_labels(ps, hist, step=h)[0] - exact)
            for h in (0.04, 0.02, 0.01)]
    assert errs[0] / errs[1] >= 12.0
    assert errs[1] / errs[2] >= 12.0


def test_conserved_q_of_outbreak_data_is_q0():
    # closed-form labels (q, H1*, H2*) of outbreak data: the jump i0
    # enters H1* through I(-kappa) = 0 only when kappa > 0, and H2* is e0
    i0 = 0.01
    for sigma, kappa, q0, e0 in ((0.0, 0.0, 0.0, 0.0), (0.0, 3.0, 0.05, 0.0),
                                 (0.5, 3.0, 0.05, 0.03), (0.5, 0.0, 0.02, 0.03),
                                 (0.0, 2.0, 0.0, 0.04)):
        ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=kappa, sigma=sigma)
        hist = outbreak_history(ps, i0, q0=q0, e0=e0)
        expected = (q0, q0 + i0 if kappa > 0 else q0, e0)
        assert leaf_labels(ps, hist) == pytest.approx(expected, abs=1e-14)
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.5, sigma=0.5)
    traj = simulate(ps, outbreak_history(ps, i0, q0=0.02, e0=0.03), 20.0,
                    1e-3)
    for t in (0.25, 1.0, 2.5, 20.0):
        assert leaf_labels(ps, traj, t)[0] == pytest.approx(0.02, abs=1e-10)


def test_mass_conservation_and_positivity():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    hist = outbreak_history(ps, 0.01)
    assert validate_history(ps, hist).valid
    traj = simulate(ps, hist, 50.0, 1e-3)
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-10
    assert traj.states.min() >= -1e-9


def test_sis_reduction_limit():
    ps = ModelParams(r=2.5, p=0.0, tau=0.0, kappa=0.0)
    traj = simulate(ps, outbreak_history(ps, 0.001), 100.0, 1e-3)
    s, e, i, q = traj.evaluate([100.0])[0]
    assert abs(i - (1.0 - 1.0 / ps.r)) <= 1e-6
    assert abs(q) <= 1e-12


def test_kappa_inf_field_accumulates_Q():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.0)
    hist = outbreak_history(ps, 0.01)
    traj = simulate(ps, hist, 60.0, 1e-3, kappa_inf=True)
    q = traj.states[:, 3]
    assert np.all(np.diff(q) >= -1e-14)       # monotone, no release flow
    s, e, i, qf = traj.evaluate([60.0])[0]
    assert i <= 1e-3                          # infection dies out


# ---------------------------------------------------------------------------
# disease table
# ---------------------------------------------------------------------------

def test_bundled_disease_table():
    table = load_disease_table()
    assert len(table) == 9
    by_name = {d.name: d for d in table}
    ebola = by_name["Ebola 2014 [Sierra Leone]"]
    assert ebola.r == 2.5 and ebola.infectious_period_days == 12.0
    assert by_name["Pertussis"].r == 4.75
