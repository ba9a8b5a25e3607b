"""Integrator tests.

The generic reference integrator (``dde_reference.integrate``) is checked
against exact method-of-steps solutions: for x'(t) = -x(t-1) with history
1, the solution on [n, n+1] is an explicit polynomial obtained by repeated
antidifferentiation.  The flux kernel ``siq.dde_core.integrate`` is then
checked against the reference on jump-free histories, where both are
fourth order, and by its own convergence order on outbreak data, where the
reference is first order.  Its loop carries only (S, I) and rebuilds E, Q
and the node derivatives after it, so it must give exactly the trajectory
of the four-state loop ``dde_reference.flux_integrate``.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from conftest import smooth_simplex_history
from dde_reference import (DelaySpec, flux_integrate, integrate,
                           reference_simulate)
from siq import dde_core
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
    assert abs(traj.evaluate([1.0])[0, 0] - 0.0) <= 1e-9
    assert abs(traj.evaluate([0.5])[0, 0] - 0.5) <= 1e-9


def test_delayed_decay_matches_polynomial_oracle_far_out():
    traj = integrate(decay_field, DECAY_SPEC, UNIT_HISTORY, 6.0, 1e-3)
    for t in (1.5, 2.0, 3.25, 4.75, 6.0):
        assert abs(traj.evaluate([t])[0, 0] - delayed_decay_exact(t)) <= 1e-10


def test_zero_field_is_constant():
    hist = constant_history([0.7, 0.3], 2.0)
    traj = integrate(lambda t, y, z: (0.0, 0.0), DelaySpec((2.0,), 2),
                     hist, 5.0, 1e-3)
    assert np.allclose(traj.evaluate([5.0])[0], [0.7, 0.3], atol=0)
    assert np.allclose(traj.states, [0.7, 0.3])


def test_zero_delay_reads_current_state():
    # x' = -x via a zero delay; closed form e^{-t}
    hist = constant_history([1.0], 1.0)
    traj = integrate(lambda t, y, z: (-z[0][0],), DelaySpec((0.0,), 1),
                     hist, 1.0, 1e-3)
    assert abs(traj.evaluate([1.0])[0, 0] - math.exp(-1.0)) <= 1e-7


def test_interpolation_anchored_at_nodes():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0)
    traj = simulate(ps, outbreak_history(ps, 0.01), 2.0, 1e-3)
    for i in (0, 1, 499, 500, 517, 1000, 1500, 1999, 2000):
        t = i * traj.step
        assert np.array_equal(traj.evaluate([t])[0], traj.states[i])


def test_convergence_order_at_least_four():
    # error at t = 5 (past several breakpoints, solution genuinely curved);
    # note the t = 1 error is identically ~0 since the first segment is
    # linear and reproduced exactly at any step
    exact = delayed_decay_exact(5.0)
    errs = []
    for h in (0.02, 0.01):
        traj = integrate(decay_field, DECAY_SPEC, UNIT_HISTORY, 5.0, h)
        errs.append(abs(traj.evaluate([5.0])[0, 0] - exact))
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


def test_nonfinite_step_and_horizon_rejected():
    hist = constant_history([0.99, 0.01, 0.0], 1.0)
    for t_end, step in ((math.inf, 0.01), (math.nan, 0.01), (5.0, math.nan),
                        (5.0, math.inf), (5.0, 0.0), (-1.0, 0.01)):
        with pytest.raises(ValueError, match="must be finite and > 0$"):
            dde_core.integrate(hist, t_end, step, r=2.5, eps=0.5, tau=0.5,
                               kappa=0.5)


def test_sample_out_of_range():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    traj = simulate(ps, outbreak_history(ps, 0.01), 1.0, 1e-3)
    with pytest.raises(OutOfRange):
        traj.evaluate([1.5])
    with pytest.raises(OutOfRange):
        traj.evaluate([-2.5])
    # inside the prepended history is fine
    assert tuple(traj.evaluate([-0.25])[0]) == (1.0, 0.0, 0.0)


def test_sample_inside_segment_matches_oracle():
    traj = integrate(decay_field, DECAY_SPEC, UNIT_HISTORY, 2.0, 1e-3)
    for t in (0.12345, 1.000495, 1.77777):
        assert abs(traj.evaluate([t])[0, 0] - delayed_decay_exact(t)) <= 1e-9


def test_history_and_trajectory_share_one_reader():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    hist = outbreak_history(ps, 0.01)
    assert hist.dimension == 3
    assert hist.evaluate([]).shape == (0, 3)
    assert constant_history([0.25] * 4, 1.0).evaluate([]).shape == (0, 4)
    traj = simulate(ps, hist, 1.0, 1e-2)
    assert traj.dimension == hist.dimension
    ts = [-0.5, -0.25, 0.0]
    assert traj.evaluate(ts).tolist() == hist.evaluate(ts).tolist()


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
    # so Q stays 0 across that cell's Hermite; the right derivative would
    # bend it to about -6e-7 at 0.5 - 1e-4
    vals = traj.evaluate([0.5 - 1e-4, 0.5])
    assert abs(vals[0, 2]) <= 1e-15
    assert vals[1, 2] == 0.0


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_kernel_fourth_order_on_outbreak_data(sigma):
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=2.0, sigma=sigma)
    hist = outbreak_history(ps, 0.01)
    exact = simulate(ps, hist, 4.0, 1.25e-3).evaluate([4.0])[0]
    errs = [np.abs(simulate(ps, hist, 4.0, h).evaluate([4.0])[0] - exact).max()
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


# ---------------------------------------------------------------------------
# the (S, I) loop and its rebuild against the four-state loop
# ---------------------------------------------------------------------------

def _pulse_history(span, at0, pulse, start):
    """No infection before ``start``, the state ``pulse`` on [start, 0) and
    ``at0`` from 0 on: jumps at ``start`` and at 0."""
    pre = (1.0,) + (0.0,) * (len(at0) - 1)

    def fn(theta):
        return pre if theta < start else pulse if theta < 0.0 else at0

    return History(span=span, fn=fn, jumps=(start, 0.0))


def _random_kernel_point(k):
    """Point k: SIQ on even k, SEIQ on odd (at sigma = 0 on every eighth);
    tau = 0 on every fourth, kappa = inf on every fifth and kappa = 0 on
    every third of the rest; histories cycle through outbreak data (one
    jump), outbreak data with q0/e0 > 0, a pulse (two jumps) and a smooth
    history (no jump)."""
    rng = np.random.default_rng(1600 + k)
    seiq = k % 2 == 1
    tau = 0.0 if k % 4 == 0 else float(rng.uniform(0.05, 1.0))
    kappa = math.inf if k % 5 == 2 else 0.0 if k % 3 == 0 else \
        float(rng.uniform(0.05, 4.0))
    sigma = float(rng.uniform(0.05, 1.0)) if seiq and k % 8 != 5 else 0.0
    ps = ModelParams(r=float(rng.uniform(1.2, 8.0)),
                     p=float(rng.uniform(0.1, 0.95)), tau=tau,
                     kappa=0.0 if math.isinf(kappa) else kappa, sigma=sigma)
    step = float(rng.choice([1e-3, 2e-3, 5e-3, 0.01, 0.02]))
    i0 = float(rng.uniform(1e-3, 0.1))
    kind = (k // 2) % 4
    if kind == 0:
        hist = outbreak_history(ps, i0)
    elif kind == 1:
        hist = outbreak_history(ps, i0, q0=float(rng.uniform(0.0, 0.05)),
                                e0=float(rng.uniform(0.0, 0.05)) if seiq
                                else 0.0)
    elif kind == 2:
        lead = int(rng.integers(1, max(2, int(ps.span / step))))
        pulse = (1.0 - i0, 0.0, i0, 0.0) if seiq else (1.0 - i0, i0, 0.0)
        at0 = (1.0 - 2 * i0, 0.0, 2 * i0, 0.0) if seiq else \
            (1.0 - 2 * i0, 2 * i0, 0.0)
        hist = _pulse_history(ps.span + step, at0, pulse, -lead * step)
    else:
        hist = smooth_simplex_history(ps.span + step, seed=k,
                                      dim=4 if seiq else 3)
    kw = dict(r=ps.r, eps=ps.eps, sigma=ps.sigma, tau=ps.tau, kappa=kappa)
    return hist, step, kw


@pytest.mark.parametrize("k", range(64))
def test_kernel_matches_four_state_loop_bitwise(k):
    hist, step, kw = _random_kernel_point(k)
    got = dde_core.integrate(hist, 6.0, step, **kw)
    want = flux_integrate(hist, 6.0, step, **kw)
    for name in ("states", "derivs", "kink_nodes", "kink_derivs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    if hist.jumps and max(got.snapped_delays) > 0:
        assert got.kink_nodes.size     # the jump at 0 reaches the solution


def _nonfinite_t(fn, hist, step, **kw):
    with pytest.raises(NonFiniteState) as err:
        fn(hist, 3.0, step, **kw)
    return float(re.search(r"at t=(\S+):", str(err.value)).group(1))


@pytest.mark.parametrize("state, kw", [
    # the flux r*S*I overflows, at once or after a few steps, with and
    # without zero lags
    ((1e3, 1e3, 0.0), dict(tau=0.5, kappa=1.0)),
    ((1e3, 1e4, 0.0), dict(tau=0.0, kappa=0.0)),
    ((1e3, 1e3, 0.0), dict(tau=0.5, kappa=math.inf)),
    ((-1e2, 1e2, 0.0), dict(tau=0.25, kappa=0.5)),
    ((1e200, 1e200, 0.0), dict(tau=0.5, kappa=1.0)),
    ((1e3, 0.0, 1e3, 0.0), dict(sigma=0.5, tau=0.5, kappa=1.0)),
    ((1e3, 0.0, 1e3, 0.0), dict(sigma=0.25, tau=0.0, kappa=0.0)),
    # only Q or E is not finite: the loop over (S, I) never sees it
    ((0.5, 0.1, math.inf), dict(tau=0.5, kappa=1.0)),
    ((0.5, math.nan, 0.1, 0.0), dict(sigma=0.5, tau=0.5, kappa=1.0)),
])
def test_nonfinite_state_raised_where_the_four_state_loop_raises(state, kw):
    kw = dict(r=2.5, eps=0.5, **kw)
    hist = constant_history(state, 2.5)
    for step in (1e-3, 0.01):
        t = _nonfinite_t(dde_core.integrate, hist, step, **kw)
        assert t == _nonfinite_t(flux_integrate, hist, step, **kw)


#: (sigma, tau, kappa): sigma, tau and kappa each zero or not, and kappa = inf
LAG_PATTERNS = [(sigma, tau, kappa) for sigma in (0.0, 0.3)
                for tau in (0.0, 0.2) for kappa in (0.0, 0.5, math.inf)]


def _corner_history(kind, seiq, span):
    """Signed-zero corners of the rates: I == +0 or -0 (the flux is a
    signed zero), and r*S = 1 at r = 2 (the flux equals I, so I - Phi
    is an exact zero); the last two jump at 0."""
    def state(s, i, q):
        return (s, 0.0, i, q) if seiq else (s, i, q)

    if kind == "I=+0":
        return constant_history(state(1.0, 0.0, 0.0), span)
    if kind == "I=-0":
        return constant_history(state(1.0, -0.0, -0.0), span)
    pre, at0 = state(0.5, 0.25, 0.25), state(0.5, 0.3, 0.2)
    return History(span=span, fn=lambda theta: at0 if theta >= 0.0 else pre,
                   jumps=(0.0,))


@pytest.mark.parametrize("sigma, tau, kappa", LAG_PATTERNS)
@pytest.mark.parametrize("eps", [0.5, 0.0, -0.0])
@pytest.mark.parametrize("kind", ["I=+0", "I=-0", "rS=1"])
def test_kernel_matches_four_state_loop_bitwise_at_corners(kind, eps, sigma,
                                                           tau, kappa):
    step = 0.05
    span = sigma + tau + (0.0 if math.isinf(kappa) else kappa) + step
    hist = _corner_history(kind, sigma > 0, span)
    kw = dict(r=2.0, eps=eps, sigma=sigma, tau=tau, kappa=kappa)
    got = dde_core.integrate(hist, 3.0, step, **kw)
    want = flux_integrate(hist, 3.0, step, **kw)
    for name in ("states", "derivs", "kink_nodes", "kink_derivs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
