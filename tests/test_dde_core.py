"""Integrator tests.

The generic reference integrator (``dde_reference.integrate``) is checked
against exact method-of-steps solutions: for x'(t) = -x(t-1) with history
1, the solution on [n, n+1] is an explicit polynomial obtained by repeated
antidifferentiation.  The flux kernel ``siq.dde_core.integrate`` is then
checked against the reference on jump-free histories, where both are
fourth order, and by its own convergence order on outbreak data, where the
reference is first order.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from conftest import smooth_simplex_history
from dde_reference import DelaySpec, integrate, reference_simulate
from siq.dde_core import History, constant_history
from siq.errors import (DelayTooSmall, JumpOffGrid, NonFiniteState,
                        OutOfRange)
from siq.siq_model import ModelParams, outbreak_history, simulate


def delayed_decay_polys(n_max: int) -> list[Polynomial]:
    """Exact solution of x' = -x(t-1), x == 1 on [-1, 0], as one polynomial
    p_n(u) = x(n + u) per unit interval."""
    ps = [Polynomial([1.0])]          # segment on [-1, 0]
    for _ in range(n_max + 1):
        prev = ps[-1]
        ps.append(Polynomial([prev(1.0)]) - prev.integ())
    return ps


def delayed_decay_exact(t: float) -> float:
    if t <= 0:
        return 1.0
    n = min(int(math.floor(t)), 10_000)
    ps = delayed_decay_polys(n)
    return float(ps[n + 1](t - n))


def decay_field(t, y, z):
    return (-z[0][0],)


DECAY_SPEC = DelaySpec((1.0,), 1)
UNIT_HISTORY = constant_history([1.0], 1.0)


def test_delayed_decay_first_interval_is_linear():
    traj = integrate(decay_field, DECAY_SPEC, UNIT_HISTORY, 1.0, 1e-3)
    assert abs(traj.sample(1.0)[0] - 0.0) <= 1e-9
    assert abs(traj.sample(0.5)[0] - 0.5) <= 1e-9


def test_delayed_decay_matches_polynomial_oracle_far_out():
    traj = integrate(decay_field, DECAY_SPEC, UNIT_HISTORY, 6.0, 1e-3)
    for t in (1.5, 2.0, 3.25, 4.75, 6.0):
        assert abs(traj.sample(t)[0] - delayed_decay_exact(t)) <= 1e-10


def test_zero_field_is_constant():
    hist = constant_history([0.7, 0.3], 2.0)
    traj = integrate(lambda t, y, z: (0.0, 0.0), DelaySpec((2.0,), 2),
                     hist, 5.0, 1e-3)
    assert np.allclose(traj.sample(5.0), [0.7, 0.3], atol=0)
    assert np.allclose(traj.states, [0.7, 0.3])


def test_zero_delay_reads_current_state():
    # x' = -x via a zero delay; closed form e^{-t}
    hist = constant_history([1.0], 1.0)
    traj = integrate(lambda t, y, z: (-z[0][0],), DelaySpec((0.0,), 1),
                     hist, 1.0, 1e-3)
    assert abs(traj.sample(1.0)[0] - math.exp(-1.0)) <= 1e-7


def test_interpolation_anchored_at_nodes():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0)
    traj = simulate(ps, outbreak_history(ps, 0.01), 2.0, 1e-3)
    for i in (0, 1, 499, 500, 517, 1000, 1500, 1999, 2000):
        t = i * traj.step
        assert np.array_equal(traj.sample(t), traj.states[i])


def test_convergence_order_at_least_four():
    # error at t = 5 (past several breakpoints, solution genuinely curved);
    # note the t = 1 error is identically ~0 since the first segment is
    # linear and reproduced exactly at any step
    exact = delayed_decay_exact(5.0)
    errs = []
    for h in (0.02, 0.01):
        traj = integrate(decay_field, DECAY_SPEC, UNIT_HISTORY, 5.0, h)
        errs.append(abs(traj.sample(5.0)[0] - exact))
    assert errs[0] / errs[1] >= 8.0


def test_determinism_bitwise():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0, sigma=0.25)
    a = simulate(ps, outbreak_history(ps, 0.01), 3.0, 1e-3)
    b = simulate(ps, outbreak_history(ps, 0.01), 3.0, 1e-3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.derivs, b.derivs)


def test_delay_snapping_recorded():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.9996)
    traj = simulate(ps, outbreak_history(ps, 0.01), 1.0, 1e-3)
    assert traj.snapped_delays == (0.0, 0.5, 1.5)
    assert traj.requested_delays == (0.0, 0.5, 1.4996)


def test_delay_smaller_than_step_rejected():
    ps = ModelParams(r=2.5, p=0.5, tau=5e-4, kappa=1.0)
    with pytest.raises(DelayTooSmall):
        simulate(ps, outbreak_history(ps, 0.01), 1.0, 1e-3)


def test_nonfinite_state_detected():
    # far off the simplex the infection flux r*S*I overflows within t < 1
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0)
    hist = constant_history([1e3, 1e3, 0.0], ps.span)
    with pytest.raises(NonFiniteState):
        simulate(ps, hist, 2.0, 1e-3)


def test_sample_out_of_range():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    traj = simulate(ps, outbreak_history(ps, 0.01), 1.0, 1e-3)
    with pytest.raises(OutOfRange):
        traj.sample(1.5)
    with pytest.raises(OutOfRange):
        traj.sample(-2.5)
    # inside the prepended history is fine
    assert tuple(traj.sample(-0.25)) == (1.0, 0.0, 0.0)


def test_sample_inside_segment_matches_oracle():
    traj = integrate(decay_field, DECAY_SPEC, UNIT_HISTORY, 2.0, 1e-3)
    for t in (0.12345, 1.000495, 1.77777):
        assert abs(traj.sample(t)[0] - delayed_decay_exact(t)) <= 1e-9


def test_history_validation():
    with pytest.raises(ValueError):
        History(span=0.0, fn=lambda th: (1.0,))
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.5)
    with pytest.raises(OutOfRange):
        # history span shorter than the max delay
        simulate(ps, constant_history([1.0, 0.0, 0.0], 1.0), 1.0, 1e-3)


def test_delay_spec_sorted_and_validated():
    spec = DelaySpec((2.0, 1.0, 1.0), 3)
    assert spec.delays == (1.0, 1.0, 2.0)
    assert spec.max_delay == 2.0
    with pytest.raises(ValueError):
        DelaySpec((-1.0,), 1)
    with pytest.raises(ValueError):
        DelaySpec((1.0,), 0)


def test_trajectory_immutable():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    traj = simulate(ps, outbreak_history(ps, 0.01), 1.0, 1e-3)
    with pytest.raises(ValueError):
        traj.states[0, 0] = 99.0
    with pytest.raises(ValueError):
        traj.derivs[0, 0] = 99.0


def test_upward_snapped_delay_clamps_history_reads():
    # the longest lag snaps upward past the history span by < step/2;
    # reads at the clamped edge must succeed
    ps = ModelParams(r=2.5, p=0.5, tau=0.25, kappa=0.25056)
    hist = constant_history([0.9, 0.1, 0.0], 0.50056)
    traj = simulate(ps, hist, 1.0, 1e-3)
    assert traj.snapped_delays == (0.0, 0.25, 0.501)
    assert np.isfinite(traj.states).all()


# ---------------------------------------------------------------------------
# flux kernel against the reference, and at outbreak breakpoints
# ---------------------------------------------------------------------------

KERNEL_CASES = [
    (ModelParams(r=2.5, p=0.5, tau=0.5, kappa=2.0), False),
    (ModelParams(r=2.5, p=0.5, tau=0.0, kappa=1.0), False),
    (ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.0), False),
    (ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.0), True),
    (ModelParams(r=2.5, p=0.5, tau=0.0, kappa=0.0), False),
    (ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0, sigma=0.5), False),
]


@pytest.mark.parametrize("ps,kappa_inf", KERNEL_CASES)
def test_kernel_matches_reference_on_jump_free_histories(ps, kappa_inf):
    # tau = 0 and kappa = 0 make lags coincide or vanish, kappa = inf drops
    # the return lag, sigma > 0 is the four-state model
    hist = smooth_simplex_history(max(ps.span, 1e-3), seed=5,
                                  dim=4 if ps.sigma else 3)
    for step, tol in ((1e-3, 1e-12), (1e-2, 1e-9)):
        got = simulate(ps, hist, 20.0, step, kappa_inf=kappa_inf)
        want = reference_simulate(ps, hist, 20.0, step, kappa_inf=kappa_inf)
        assert got.kink_nodes.size == 0
        assert np.abs(got.states - want.states).max() <= tol
        assert np.abs(got.derivs - want.derivs).max() <= tol


def test_isolation_starts_from_zero_on_outbreak_data():
    # Q' = eps*(Phi(t - tau) - Phi(t - tau - kappa)) reads the pre-outbreak
    # flux 0 up to t = tau; the k4 stage of the cell ending at tau must
    # read that left limit, not Phi(0+) = r*S(0)*i0
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=2.0)
    traj = simulate(ps, outbreak_history(ps, 0.01), 1.0, 1e-3)
    assert traj.states[500, 2] == 0.0
    assert traj.kink_nodes.tolist() == [500]
    # the cell ending at the kink uses the left derivative, Q' = 0
    assert traj.kink_derivs[0, 2] == 0.0
    assert traj.derivs[500, 2] > 0.0
    _, ders = traj.evaluate([0.5 - 1e-4, 0.5])
    assert abs(ders[0, 2]) <= 1e-12
    assert ders[1, 2] == traj.derivs[500, 2]


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_kernel_fourth_order_on_outbreak_data(sigma):
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=2.0, sigma=sigma)
    hist = outbreak_history(ps, 0.01)
    exact = simulate(ps, hist, 4.0, 1.25e-3).sample(4.0)
    errs = [np.abs(simulate(ps, hist, 4.0, h).sample(4.0) - exact).max()
            for h in (0.02, 0.01, 0.005)]
    assert errs[0] / errs[1] >= 12.0
    assert errs[1] / errs[2] >= 12.0


def test_history_jump_off_grid_rejected():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0)
    hist = History(span=ps.span,
                   fn=lambda th: (0.9, 0.1, 0.0) if th >= -0.2505
                   else (1.0, 0.0, 0.0), jumps=(-0.2505,))
    with pytest.raises(JumpOffGrid):
        simulate(ps, hist, 1.0, 1e-3)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_kernel_memory_per_node(sigma):
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=5.0, sigma=sigma)
    hist = outbreak_history(ps, 0.01)
    tracemalloc.start()
    try:
        traj = simulate(ps, hist, 100.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_nodes == 10_001
    assert peak / traj.n_nodes < 100.0
