"""Spectral tests: characteristic function identities, continuation
counts against the winding-number reference, the collocation oracle and
bisection, Hopf detection, and the tau = 0 large-delay formulas."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from dde_reference import siq_field
from siq.equilibria import endemic_point, q_critical
from siq.errors import EpsNotBelowOne, InvalidFractions, NumericalError
from siq.siq_model import ModelParams
from siq.spectral import (CharEq, asymptotic_spectrum_tau0, axis_crossings,
                          count_unstable, disease_free_chareq,
                          e0_hopf_bound, endemic_chareq, hopf_crossings,
                          hopf_kappa0, hopf_sequence, HopfData,
                          seiq_disease_free_chareq, stability_map,
                          strong_spectrum_tau0)
from spectral_reference import (Box, ContourThroughZero, default_box,
                                winding_count)

PS = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0)
QC = q_critical(2.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# characteristic function identities
# ---------------------------------------------------------------------------

def test_chi_vanishes_at_zero():
    for chi in (disease_free_chareq(PS, 0.3), endemic_chareq(PS, 0.1),
                seiq_disease_free_chareq(
                    ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0, sigma=0.7),
                    0.1, 0.1)):
        assert complex(chi(0.0)) == 0.0


def test_disease_free_specialization():
    # chi at (1-q, 0, q) collapses to lam*(lam + 1 - r(1-q)(1 - eps e^{-tau lam}))
    rng = np.random.default_rng(1)
    chi = disease_free_chareq(PS, 0.3)
    eps = PS.eps
    for _ in range(20):
        lam = complex(rng.normal(), rng.normal())
        direct = lam * (lam + 1 - 2.5 * 0.7 * (1 - eps * cmath.exp(-0.5 * lam)))
        assert abs(complex(chi(lam)) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_disease_free_factor_at_special_q():
    # at q = 1 - 1/r the nonzero factor becomes lam + eps*e^{-tau lam}
    q = 1.0 - 1.0 / 2.5
    chi = disease_free_chareq(PS, q)
    eps = PS.eps
    rng = np.random.default_rng(2)
    for _ in range(20):
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-3:
            continue
        factor = complex(chi(lam)) / lam
        assert abs(factor - (lam + eps * cmath.exp(-0.5 * lam))) <= 1e-12 * (
            1.0 + abs(lam))


def test_endemic_kappa0_collapse_dual_evaluation():
    # kappa = 0: chi equals lam*(lam + 1 - r(1 - q - 2(q_c - q))(1 - eps e^{-tau lam}))
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.0)
    qc = q_critical(2.5, 0.5, 0.5)
    q = 0.08
    chi = endemic_chareq(ps, q)
    eps = ps.eps
    rng = np.random.default_rng(3)
    for _ in range(20):
        lam = complex(rng.normal(), rng.normal())
        direct = lam * (lam + 1 - 2.5 * (1 - q - 2 * (qc - q))
                        * (1 - eps * cmath.exp(-0.5 * lam)))
        assert abs(complex(chi(lam)) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_seiq_disease_free_double_zero_root():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0, sigma=0.7)
    chi = seiq_disease_free_chareq(ps, 0.05, 0.05)
    assert chi.trivial_order == 2
    # chi(h)/h^2 tends to a nonzero constant away from eta+q = q_c
    vals = [complex(chi(h)) / h ** 2 for h in (1e-5, 1e-6)]
    assert abs(vals[0] - vals[1]) <= 1e-4 * abs(vals[1])
    assert abs(vals[1]) > 1e-3


# ---------------------------------------------------------------------------
# counting and locating
# ---------------------------------------------------------------------------

def bisect_real_root(r, p, tau, q, hi=50.0):
    """Independent oracle: positive real root of the disease-free factor."""
    eps = p * math.exp(-tau)

    def g(x):
        return x + 1.0 - r * (1.0 - q) * (1.0 - eps * math.exp(-tau * x))

    lo = 1e-12
    assert g(lo) < 0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_disease_free_counts_and_root():
    above = count_unstable(disease_free_chareq(PS, QC + 0.05), locate=False)
    assert above.unstable_count == 0
    assert above.classification == "stable"

    below = count_unstable(disease_free_chareq(PS, QC - 0.05))
    assert below.unstable_count == 1
    assert len(below.roots) == 1
    root = below.roots[0]
    assert abs(root.imag) <= 1e-10
    assert below.residuals[0] <= 1e-10
    oracle = bisect_real_root(2.5, 0.5, 0.5, QC - 0.05)
    assert abs(root.real - oracle) <= 1e-8


def test_disease_free_flip_within_tolerance_of_qc():
    # the count changes within 1e-6 of q_c
    lo, hi = QC - 1e-3, QC + 1e-3
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        c = count_unstable(disease_free_chareq(PS, mid), locate=False).unstable_count
        if c == 1:
            lo = mid
        else:
            hi = mid
    assert hi - lo <= 1e-6 * 4
    assert abs(0.5 * (lo + hi) - QC) <= 1e-6


def test_no_complex_unstable_roots_on_disease_free_family():
    # no imaginary-axis crossings with |omega| > 1e-6: the stable side has
    # an empty right half plane and the unstable side's unique root is real
    rng = np.random.default_rng(4)
    done = 0
    while done < 6:
        r = rng.uniform(1.3, 5.0)
        p = rng.uniform(0.1, 0.95)
        tau = rng.uniform(0.0, 1.5)
        qc = q_critical(r, p, tau)
        if not 0.07 <= qc <= 0.93:
            continue
        done += 1
        ps = ModelParams(r=r, p=p, tau=tau, kappa=1.0)
        stable = count_unstable(disease_free_chareq(ps, qc + 0.05),
                                locate=False)
        assert stable.unstable_count == 0
        unstable = count_unstable(disease_free_chareq(ps, qc - 0.05))
        assert unstable.unstable_count == 1
        assert len(unstable.roots) == 1
        assert abs(unstable.roots[0].imag) <= 1e-6


def test_char_eval_and_custom_box():
    # chi evaluates the same at one point as on an array
    chi = disease_free_chareq(PS, QC - 0.05)
    lams = np.array([0.3 + 0.2j, -1.0 + 4.0j, 2.0])
    assert np.array_equal(chi(lams), [complex(chi(z)) for z in lams])
    # the reference winding count on a hand-sized rectangle around the
    # known real root counts it, undeflated since the box avoids 0
    oracle = bisect_real_root(2.5, 0.5, 0.5, QC - 0.05)
    box = Box(0.01, max(1.0, 2 * oracle), -5.0, 5.0)
    assert box.re_min < oracle < box.re_max
    assert winding_count(chi, box) == 1
    assert default_box(chi).re_min == pytest.approx(1e-8, abs=0)


def test_default_box_extent():
    # the reference's Im extent: the former max(4 pi/max(kappa, tau, 1),
    # 20 pi) is 20 pi on every input, since its first term never exceeds 4 pi
    for r in (1.5, 2.5, 12.0):
        for kappa in (0.0, 0.3, 1.0, 25.0):
            for tau in (0.0, 0.5, 2.0):
                ps = ModelParams(r=r, p=0.5, tau=tau, kappa=kappa)
                im = max(4.0 * math.pi / max(kappa, tau, 1.0), 20.0 * math.pi)
                chis = [disease_free_chareq(ps, 0.1)]
                if q_critical(r, 0.5, tau) > 0.0:   # an endemic point exists
                    chis.append(endemic_chareq(ps, 0.0))
                for chi in chis:
                    assert default_box(chi) == Box(1e-8, max(10.0, r),
                                                   -im, im)


def test_endemic_stable_at_kappa0_tau0():
    ps = ModelParams(r=2.5, p=0.5, tau=0.0, kappa=0.0)
    rep = count_unstable(endemic_chareq(ps, 0.0), locate=False)
    assert rep.unstable_count == 0


def _random_chareq(rng, family):
    """A physical point of one equilibrium family: r in [1.3, 16],
    tau in [0, 2], kappa in [0, 30], leaf labels in the simplex."""
    while True:
        r, p = rng.uniform(1.3, 16.0), rng.uniform(0.05, 0.95)
        tau, kappa = rng.uniform(0.0, 2.0), rng.uniform(0.0, 30.0)
        qc = q_critical(r, p, tau)
        if family == "endemic" and qc > 0.0:
            return endemic_chareq(ModelParams(r, p, tau, kappa),
                                  rng.uniform(0.0, qc))
        if family == "disease-free":
            return disease_free_chareq(ModelParams(r, p, tau, kappa),
                                       rng.uniform(0.0, 1.0))
        if family == "latent":
            s = rng.uniform(0.0, 1.0)
            eta = rng.uniform(0.0, s)
            return seiq_disease_free_chareq(
                ModelParams(r, p, tau, kappa, sigma=rng.uniform(0.0, 2.0)),
                eta, s - eta)


def test_continuation_matches_reference_on_random_points():
    # continuation (closed-form base plus signed crossings) against the
    # argument principle wherever the contour answers; the located roots
    # number the count at every point
    rng = np.random.default_rng(707)
    compared = 0
    for k in range(102):
        chi = _random_chareq(rng, ("endemic", "disease-free", "latent")[k % 3])
        rep = count_unstable(chi)
        assert len(rep.roots) == rep.unstable_count
        assert all(z.real > 0.0 for z in rep.roots)
        try:
            ref = winding_count(chi)
        except ContourThroughZero:
            continue
        assert rep.unstable_count == ref, chi
        compared += 1
    assert compared >= 95


def test_report_counters():
    # endemic at (5, 0.85, 0.2, 0) with kappa past two crossings: base 0,
    # two rightward pairs; the collocation finds both with tiny residuals
    cs = axis_crossings(5.0, 0.85, 0.2, 0.0, 20.0)
    kappa = 0.5 * (cs[1].kappa_0 + cs[2].kappa_0)
    rep = count_unstable(endemic_chareq(
        ModelParams(r=5.0, p=0.85, tau=0.2, kappa=kappa), 0.0))
    assert (rep.base, rep.crossings, rep.unstable_count) == (0, 2, 4)
    assert rep.collocation_n >= 8 and len(rep.roots) == 4
    assert rep.max_residual == max(rep.residuals) <= 1e-10
    # unlocated: nothing collocated
    rep = count_unstable(disease_free_chareq(PS, QC - 0.05), locate=False)
    assert (rep.base, rep.crossings, rep.collocation_n) == (1, 0, 0)
    assert rep.roots == () and rep.max_residual == 0.0
    # latent family: the count moves by signed crossings in sigma
    chi = seiq_disease_free_chareq(
        ModelParams(r=12.0, p=0.9, tau=0.2, kappa=1.0, sigma=1.5), 0.0, 0.0)
    rep = count_unstable(chi)
    assert rep.base == 1 and rep.crossings > 0
    assert rep.unstable_count == winding_count(chi) == len(rep.roots)


def test_hayes_base_closed_form():
    # lam + a + b e^{-tau lam} with a = 0, b = 1: lam = -e^{-tau lam} gains
    # its first unstable pair at tau = pi/2 and the next at 5 pi/2
    # (c = r w_S = 1, eps = 1 gives a = 0 and b = 1)
    for tau, want in ((1.5, 0), (1.6, 2), (7.8, 2), (7.9, 4)):
        chi = CharEq(r=1.0, eps=1.0, tau=tau, kappa=0.0, w_s=1.0, w_i=0.0)
        assert count_unstable(chi, locate=False).unstable_count == want
        assert winding_count(chi) == want


def test_collocation_cap_raises_named_error(monkeypatch):
    import siq.spectral as spectral
    monkeypatch.setattr(spectral, "MAX_COLLOCATION_N", 8)
    chi = endemic_chareq(ModelParams(7.9105, 0.90093, 0.32737, 14.170),
                         0.076817)
    with pytest.raises(NumericalError, match=r"r=7\.9105.*kappa=14\.17"):
        count_unstable(chi)
    assert count_unstable(chi, locate=False).unstable_count == 10


def test_collocation_system_is_the_linearization():
    # det(lam - sum_k A_k e^{-d_k lam}) of the collocated delay system is
    # chi (the (S, I) system) or chi/lam^d (the I equation alone); and the
    # raw collocation eigenvalues already sit on the roots before Newton
    from siq.spectral import _collocation_eigvals, _delay_terms
    rng = np.random.default_rng(11)
    latent = ModelParams(r=4.0, p=0.7, tau=0.4, kappa=3.0, sigma=0.6)
    located = 0
    for chi, d in ((endemic_chareq(ModelParams(3.0, 0.6, 0.3, 20.0), 0.05), 0),
                   (disease_free_chareq(PS, 0.1), 1),
                   (seiq_disease_free_chareq(latent, 0.1, 0.1), 2)):
        terms = _delay_terms(chi)
        for _ in range(5):
            lam = complex(rng.normal(), 3.0 * rng.normal())
            m = lam * np.eye(len(terms[0][1])) - sum(
                a * np.exp(-delay * lam) for delay, a in terms)
            want = complex(chi(lam)) / lam ** d
            assert abs(np.linalg.det(m) - want) <= 1e-12 * (1.0 + abs(want))
        rep = count_unstable(chi)
        ev = _collocation_eigvals(terms, 64)
        for z in rep.roots:
            assert np.min(np.abs(ev - z)) <= 1e-8 * (1.0 + abs(z))
        located += len(rep.roots)
    assert located >= 4


def test_real_root_through_zero_raises():
    # off the endemic family chi'(0) = 1 - r(w_S - w_I)(1 - eps)
    # + r w_I eps kappa changes sign at kappa = 9: a real root crosses at
    # lam = 0, which the axis frequencies omega > 0 do not see
    chi = CharEq(r=2.0, eps=0.5, tau=0.1, kappa=10.0, w_s=2.0, w_i=0.1)
    with pytest.raises(NumericalError, match="crosses 0"):
        count_unstable(chi)
    assert count_unstable(replace(chi, kappa=8.0)).unstable_count >= 1


@pytest.mark.parametrize("call", [
    lambda: disease_free_chareq(PS, -0.3),
    lambda: disease_free_chareq(PS, 1.2),
    lambda: endemic_chareq(PS, -0.01),
    lambda: seiq_disease_free_chareq(PS, -0.1, 0.2),
    lambda: seiq_disease_free_chareq(PS, 0.1, -0.2),
    lambda: seiq_disease_free_chareq(PS, 0.7, 0.4),
    lambda: stability_map(2.5, 0.5, 0.0, [-0.5, 0.0], [1.0]),
    lambda: hopf_crossings(2.5, 0.5, 0.0, -0.1, 10.0),
    # the endemic family (1 - q_c, q_c - q, q) needs q < q_c (w_I > 0)
    lambda: endemic_chareq(PS, q_critical(PS.r, PS.p, PS.tau)),
    lambda: endemic_chareq(PS, 0.6),
    lambda: stability_map(2.5, 0.5, 0.0, [0.0, 0.25], [1.0]),   # q_c = 0.2
    lambda: asymptotic_spectrum_tau0(2.5, 0.5, -0.1),
    lambda: asymptotic_spectrum_tau0(2.5, 0.5, 0.25),
], ids=["disease-free q<0", "disease-free q>1", "endemic q<0",
        "seiq eta<0", "seiq q<0", "seiq eta+q>1", "stability-map q<0",
        "hopf q<0", "endemic q=q_c", "endemic q>q_c", "stability-map q>q_c",
        "asymptotic q<0", "asymptotic q>q_c"])
def test_leaf_labels_outside_simplex_rejected(call):
    with pytest.raises(InvalidFractions):
        call()


# ---------------------------------------------------------------------------
# closed forms at tau = 0
# ---------------------------------------------------------------------------

def test_strong_spectrum_values():
    lp, lm = strong_spectrum_tau0(2.5, 0.5, 0.0)
    assert lp == pytest.approx(-0.125 + 0.2904737509655563j, abs=1e-9)
    assert lm == pytest.approx(-0.125 - 0.2904737509655563j, abs=1e-9)


def test_strong_spectrum_vanishes_at_qc():
    qc = q_critical(2.5, 0.5, 0.0)
    lp, lm = strong_spectrum_tau0(2.5, 0.5, qc - 1e-12)
    assert abs(lp) <= 1e-6 and abs(lm) <= 1e-6


def test_strong_spectrum_always_damped():
    qc = q_critical(2.5, 0.5, 0.0)
    for q in np.linspace(0.0, qc - 1e-9, 100):
        lp, lm = strong_spectrum_tau0(2.5, 0.5, float(q))
        assert lp.real < 0 and lm.real < 0


def test_asymptotic_spectrum_h_and_window():
    a = asymptotic_spectrum_tau0(2.5, 0.5, 0.0)
    assert a.h == pytest.approx(-5.0, abs=1e-12)
    assert a.q_h is None and a.note is not None   # discriminant < 0, flagged
    assert a.gamma(0.0) == 0.0

    b = asymptotic_spectrum_tau0(2.5, 0.5, 0.1)
    assert b.h == pytest.approx(19.0, abs=1e-12)
    grid = np.linspace(0.05, 8.0, 400)
    assert np.max(b.gamma(grid)) < 0.0            # damped comb off omega = 0

    c = asymptotic_spectrum_tau0(2.5, 0.59, 0.01)
    assert c.q_h is not None                      # discriminant >= 0 here
    assert c.q_h[0] <= c.q_h[1]


def test_gamma_zero_at_origin_grid():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = rng.uniform(1.3, 5.0)
        p = rng.uniform(0.05, 0.95)
        qc = q_critical(r, p, 0.0)
        if qc <= 0.01:
            continue
        q = rng.uniform(0.0, qc - 0.01)
        a = asymptotic_spectrum_tau0(r, p, q)
        assert a.gamma(0.0) == pytest.approx(0.0, abs=1e-14)


def test_e0_hopf_bound():
    q_max, w2 = e0_hopf_bound(2.5, 0.5, 0.0)
    assert w2 == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert q_max == pytest.approx(1.0 - 0.4 / 0.75, abs=1e-12)
    # eps -> 0: no delayed feedback, the bound collapses
    _, w2_small = e0_hopf_bound(2.5, 1e-8, 0.0)
    assert w2_small <= 1e-15
    with pytest.raises(EpsNotBelowOne):
        e0_hopf_bound(2.5, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Hopf detection
# ---------------------------------------------------------------------------

def test_hopf_kappa0_closed_form_values():
    # D-subdivision values at tau = 0 (ROADMAP's crossing-solve figures)
    h = hopf_kappa0(2.5, 0.5, 0.0, 0.0, 25.0)
    assert h.kappa_0 == pytest.approx(8.948101278054, abs=1e-9)
    assert h.omega == pytest.approx(0.5590169944, abs=1e-9)
    assert h.direction == 1 and h.residual <= 1e-10
    h = hopf_kappa0(2.5, 0.5, 0.0, 0.1, 25.0)
    assert h.kappa_0 == pytest.approx(10.0501776, abs=1e-7)


#: (r, p, tau, q) with two crossings in kappa <= 30 each
CROSSING_POINTS = [(5.0, 0.85, 0.2, 0.0), (6.0, 0.85, 0.1, 0.0),
                   (4.5, 0.85, 0.25, 0.02), (2.5, 0.5, 0.0, 0.0),
                   (2.5, 0.5, 0.0, 0.1), (3.0, 0.6, 0.3, 0.05)]


def _count_steps(r, p, tau, q, unstable):
    """(count at kappa_m + 0.25) - (count at kappa_m - 0.25) and 2 *
    direction, for the first two crossings."""
    out = []
    for c in axis_crossings(r, p, tau, q, 30.0)[:2]:
        below, above = (unstable(ModelParams(r=r, p=p, tau=tau,
                                             kappa=c.kappa_0 + d))
                        for d in (-0.25, 0.25))
        out.append((above - below, 2 * c.direction))
    assert len(out) == 2
    return out


@pytest.mark.parametrize("r, p, tau, q", CROSSING_POINTS[:5])
def test_crossing_direction_steps_the_winding_count(r, p, tau, q):
    # the reference winding count, independent of the crossing solve
    def unstable(ps):
        return winding_count(endemic_chareq(ps, q))

    for step, want in _count_steps(r, p, tau, q, unstable):
        assert step == want


def test_crossing_direction_steps_the_collocation_count():
    # at (3, 0.6, 0.3, 0.05) the crossing pair moves slowly: Re = -1.4e-4
    # at kappa_0 - 0.25 and +1.2e-4 at kappa_0 + 0.25, nearer the contour
    # than the reference winding count resolves (it raises
    # ContourThroughZero there), so the collocation of the field decides
    # the count on both sides
    r, p, tau, q = CROSSING_POINTS[5]
    qc = q_critical(r, p, tau)
    state = np.array([1.0 - qc, qc - q, q])
    for n in (80, 120):
        for step, want in _count_steps(
                r, p, tau, q, lambda ps: _pseudospectral_unstable(ps, state, n)):
            assert step == want


def test_axis_crossings_residuals_and_cascade():
    # at a fixed equilibrium the crossings of one frequency are spaced
    # 2 pi/omega, and every one is a root of chi on the axis
    cs = axis_crossings(5.0, 0.85, 0.2, 0.0, 20.0)
    assert len(cs) == 5
    for a, b in zip(cs, cs[1:]):
        assert b.omega == a.omega
        assert b.kappa_0 - a.kappa_0 == pytest.approx(2 * math.pi / a.omega,
                                                      abs=1e-12)
    for c in cs:
        chi = endemic_chareq(ModelParams(r=5.0, p=0.85, tau=0.2,
                                         kappa=c.kappa_0), 0.0)
        assert abs(complex(chi(1j * c.omega))) == c.residual <= 1e-10
    assert axis_crossings(5.0, 0.85, 0.2, 0.0, 3.0) == []
    with pytest.raises(ValueError):
        axis_crossings(5.0, 0.85, 0.2, 0.0, -1.0)


def test_hopf_cascade_tau0():
    # regression numbers computed by this machinery and cross-validated by
    # direct perturbation integration of the flow
    first = hopf_kappa0(2.5, 0.5, 0.0, 0.0, 25.0)
    assert first is not None
    assert first.kappa_0 == pytest.approx(8.948101, abs=1e-3)
    assert first.omega == pytest.approx(0.5590170, abs=1e-4)
    chi = endemic_chareq(ModelParams(r=2.5, p=0.5, tau=0.0,
                                     kappa=first.kappa_0), 0.0)
    assert abs(complex(chi(1j * first.omega))) <= 1e-8


def test_hopf_sequence_arithmetic():
    h = HopfData(kappa_0=3.0, omega=0.5)
    assert hopf_sequence(h, 0) == 3.0
    diffs = [hopf_sequence(h, m + 1) - hopf_sequence(h, m) for m in range(4)]
    assert all(d == pytest.approx(2 * math.pi / 0.5, abs=1e-12) for d in diffs)
    with pytest.raises(ValueError):
        hopf_sequence(h, -1)


def test_hopf_residual_at_cascade_members():
    first = hopf_kappa0(2.5, 0.5, 0.0, 0.0, 25.0)
    for m in (1, 2):
        km = hopf_sequence(first, m)
        chi = endemic_chareq(ModelParams(r=2.5, p=0.5, tau=0.0, kappa=km), 0.0)
        assert abs(complex(chi(1j * first.omega))) <= 1e-8


def test_hopf_absent_when_scan_range_is_stable():
    # q = 0.18 destabilizes only past kappa ~ 19 for these parameters
    assert hopf_kappa0(2.5, 0.5, 0.0, 0.18, 12.0) is None


def test_hopf_rejects_leaf_beyond_qc():
    with pytest.raises(InvalidFractions):
        hopf_kappa0(2.5, 0.5, 0.0, 0.25, 10.0)    # q_c = 0.2


# ---------------------------------------------------------------------------
# stability map
# ---------------------------------------------------------------------------

def test_stability_map_known_cells():
    res = stability_map(2.5, 0.5, 0.0, [0.0], [0.1, 9.448101, 20.688])
    assert res.counts.shape == (1, 3)
    assert res.counts[0, 0] == 0        # small kappa: stable
    assert res.counts[0, 1] == 2        # past kappa_0
    assert res.counts[0, 2] == 4        # past kappa_1
    assert res.errors == ()


def test_stability_map_monotone_between_crossings():
    ks = np.linspace(0.5, 24.5, 13)
    res = stability_map(2.5, 0.5, 0.0, [0.0, 0.05], ks)
    for row in res.counts:
        valid = row[row >= 0]
        assert np.all(np.diff(valid) >= 0)


def test_stability_map_thread_determinism():
    # repeated calls agree exactly
    qs = [0.0, 0.1]
    ks = [0.5, 5.0, 12.0]
    a = stability_map(2.5, 0.5, 0.0, qs, ks)
    b = stability_map(2.5, 0.5, 0.0, qs, ks)
    assert np.array_equal(a.counts, b.counts)


def test_stability_map_matches_cell_counts():
    qs = [0.0, 0.05, 0.1]
    ks = np.linspace(0.0, 25.0, 6)
    res = stability_map(4.0, 0.8, 0.2, qs, ks)
    assert res.errors == ()
    checked = 0
    for i, q in enumerate(qs):
        cross = [c.kappa_0 for c in axis_crossings(4.0, 0.8, 0.2, q, 26.0)]
        for j, k in enumerate(ks):
            if any(abs(k - c) < 0.25 for c in cross):
                continue
            chi = endemic_chareq(ModelParams(r=4.0, p=0.8, tau=0.2,
                                             kappa=float(k)), q)
            assert res.counts[i, j] == winding_count(chi)
            checked += 1
    assert checked >= 16
    assert res.counts.max() >= 8


def test_stability_map_reports_failed_rows(monkeypatch):
    import siq.spectral as spectral
    real = spectral.axis_crossings

    def failing(r, p, tau, q, kappa_max, **kw):
        if q == 0.1:
            raise NumericalError("forced")
        return real(r, p, tau, q, kappa_max, **kw)

    monkeypatch.setattr(spectral, "axis_crossings", failing)
    res = stability_map(2.5, 0.5, 0.0, [0.0, 0.1], [1.0, 12.0])
    assert res.counts.tolist() == [[0, 2], [-1, -1]]
    assert res.errors == ((1, "NumericalError: forced"),)
    with pytest.raises(ValueError):
        stability_map(2.5, 0.5, 0.0, [0.0], [-1.0, 1.0])


def test_hopf_tracked_leaf_regression():
    # outbreak-scenario destabilization (equilibrium re-read from leaf 0 at
    # each kappa): regression value cross-validated by long trajectory runs
    # (tails decay at kappa <= 13, steady oscillation at kappa = 14)
    h = hopf_kappa0(2.5, 0.5, 0.5, 0.0, 14.5, track_leaf=True)
    assert h is not None
    assert h.kappa_0 == pytest.approx(13.538, abs=2e-2)


def test_hopf_tracked_leaf_crossing_solve():
    # zeros of S_m(kappa) = kappa omega(kappa) - theta(kappa) - 2 pi m on
    # the leaf-0 branch; the collocation test below brackets it in (13, 14)
    h = hopf_kappa0(2.5, 0.5, 0.5, 0.0, 16.0, track_leaf=True)
    assert h.kappa_0 == pytest.approx(13.538045, abs=1e-6)
    assert h.direction == 1 and h.residual <= 1e-10
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=h.kappa_0)
    v = endemic_point(ps, 0.0)
    chi = CharEq(r=ps.r, eps=ps.eps, tau=ps.tau, kappa=ps.kappa,
                 w_s=v.v_S, w_i=v.v_I)
    assert abs(complex(chi(1j * h.omega))) <= 1e-10
    # the fixed equilibrium (1 - q_c, q_c, 0) does not cross up to 40
    assert axis_crossings(2.5, 0.5, 0.5, 0.0, 40.0) == []


# ---------------------------------------------------------------------------
# pseudospectral oracle
# ---------------------------------------------------------------------------

def _pseudospectral_unstable(params: ModelParams, x: np.ndarray,
                             n: int) -> int:
    """Unstable eigenvalues of the SIQ field linearized at the equilibrium
    x = (S, I, Q), by a Chebyshev collocation of the infinitesimal generator
    (Breda, Maset & Vermiglio 2005, SIAM J. Sci. Comput. 27:482-495).

    The Jacobians come from central differences of ``siq_field`` (exact
    for its quadratic terms), not from the characteristic function; Q
    enters no right-hand side, so the (S, I) block carries the spectrum.
    """
    field = siq_field(params)

    def jac(slot):
        cols = []
        for c in range(2):
            h = np.zeros(3)
            h[c] = 1e-6
            args = [[x, [x, x]] for _ in range(2)]
            if slot == 0:
                args[0][0], args[1][0] = x + h, x - h
            else:
                args[0][1][slot - 1] = x + h
                args[1][1][slot - 1] = x - h
            cols.append((np.array(field.fn(0.0, *args[0]))
                         - np.array(field.fn(0.0, *args[1])))[:2] / 2e-6)
        return np.column_stack(cols)

    a_now, a_tau, a_ret = jac(0), jac(1), jac(2)
    span = params.tau + params.kappa
    nodes = np.cos(np.pi * np.arange(n + 1) / n)       # 1 .. -1
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = nodes[:, None] - nodes[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    d *= 2.0 / span                                    # theta in [-span, 0]
    theta = span * (nodes - 1.0) / 2.0
    w = (-1.0) ** np.arange(n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    bary = w / (-params.tau - theta)                   # interpolate at -tau
    gen = np.kron(d, np.eye(2))
    gen[:2, :] = np.kron(bary[None, :] / bary.sum(), a_tau)
    gen[:2, :2] += a_now
    gen[:2, 2 * n:] += a_ret
    ev = np.linalg.eigvals(gen)
    return int(np.sum(ev.real > 1e-8))


@pytest.mark.parametrize("kappa, unstable", [(12.0, 0), (13.0, 0),
                                             (14.0, 2), (15.0, 2)])
def test_pseudospectral_oracle_matches_tracked_leaf_counts(kappa, unstable):
    # the outbreak scenario's leaf q = 0 (criterion 6) loses stability
    # between kappa = 13 and 14; the collocation of the field and the
    # continuation count of the characteristic function must agree on
    # both sides
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=kappa)
    v = endemic_point(ps, 0.0)
    chi = CharEq(r=ps.r, eps=ps.eps, tau=ps.tau, kappa=ps.kappa,
                 w_s=v.v_S, w_i=v.v_I)
    assert count_unstable(chi, locate=False).unstable_count == unstable
    for n in (80, 120):
        assert _pseudospectral_unstable(ps, v.state(), n) == unstable


#: (r, p, tau, kappa, q, count): points where the argument-principle
#: contour raised ContourThroughZero (a root within rounding of its edge)
CONTOUR_FAILURES = [(15.8916, 0.94096, 0.28832, 28.4595, 0.24223, 34),
                    (7.9105, 0.90093, 0.32737, 14.170, 0.076817, 10)]


@pytest.mark.parametrize("r, p, tau, kappa, q, count", CONTOUR_FAILURES)
def test_contour_failure_points_count(r, p, tau, kappa, q, count):
    ps = ModelParams(r=r, p=p, tau=tau, kappa=kappa)
    rep = count_unstable(endemic_chareq(ps, q))
    assert rep.unstable_count == count == len(rep.roots)
    assert rep.max_residual <= 1e-10
    qc = q_critical(r, p, tau)
    state = np.array([1.0 - qc, qc - q, q])
    assert _pseudospectral_unstable(ps, state, 160) == count


@pytest.mark.parametrize("kappa", [11.81, 25.29, 25.79])
def test_slow_crossing_points_answer(kappa):
    # (3, 0.6, 0.3, 0.05) at the fixed equilibrium: the crossing pairs sit
    # at |Re| ~ 1e-4 here, where the contour raised ContourThroughZero
    r, p, tau, q = CROSSING_POINTS[5]
    ps = ModelParams(r=r, p=p, tau=tau, kappa=kappa)
    rep = count_unstable(endemic_chareq(ps, q))
    assert len(rep.roots) == rep.unstable_count
    qc = q_critical(r, p, tau)
    state = np.array([1.0 - qc, qc - q, q])
    assert _pseudospectral_unstable(ps, state, 120) == rep.unstable_count
