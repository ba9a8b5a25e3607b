"""Spectral tests: characteristic function identities, continuation
counts against the winding-number reference, the collocation oracle and
bisection, the large-delay spectrum against max gamma of A/B, and Hopf
detection."""

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dde_reference import seiq_field, siq_field
from siq.equilibria import endemic_point, q_critical
from siq.errors import InvalidFractions, NumericalError
from siq import spectral
from siq.dde_core import History
from siq.siq_model import ModelParams, simulate
from siq.spectral import (CharEq, axis_crossings, count_unstable,
                          disease_free_chareq, endemic_chareq, hopf_crossings,
                          stability_map)
from spectral_reference import (Box, ContourThroughZero, axis_roots,
                                default_box, kappa_leg_g, winding_count)

PS = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0)
QC = q_critical(2.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# characteristic function identities
# ---------------------------------------------------------------------------

def test_chi_vanishes_at_zero():
    for chi in (disease_free_chareq(PS, 0.3), endemic_chareq(PS, 0.1),
                disease_free_chareq(
                    ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0, sigma=0.7),
                    0.1, eta=0.1)):
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


def test_seiq_disease_free_simple_zero_root():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=1.0, sigma=0.7)
    chi = disease_free_chareq(ps, 0.05, eta=0.05)
    # chi(h)/h tends to a nonzero constant away from eta+q = q_c
    vals = [complex(chi(h)) / h for h in (1e-5, 1e-6)]
    assert abs(vals[0] - vals[1]) <= 1e-4 * abs(vals[1])
    assert abs(vals[1]) > 1e-3


def _seiq_jacobians(params: ModelParams, x: np.ndarray) -> list[np.ndarray]:
    """Jacobians of ``seiq_field`` at the state x = (S, E, I, Q), in the
    current state and in the states at lags sigma, sigma + tau and
    sigma + tau + kappa, by central differences (h = 1e-3 is exact for the
    bilinear field up to rounding)."""
    field, h = seiq_field(params), 1e-3

    def rhs(slot, dx):
        y, z = x, [x, x, x]
        if slot == 0:
            y = x + dx
        else:
            z[slot - 1] = x + dx
        return np.array(field.fn(0.0, y, z))

    return [np.column_stack([(rhs(slot, h * e) - rhs(slot, -h * e)) / (2 * h)
                             for e in np.eye(4)]) for slot in range(4)]


def test_chareq_is_the_seiq_linearization():
    # independent of chi's formula: det(lam - J_0 - sum_k J_k e^{-d_k lam})
    # of the four-state SEIQ system is lam^2 chi (E and Q feed no right-hand
    # side), at random points with sigma > 0 and w_I > 0; the collocated
    # (S, I) delay system has determinant chi there too
    from siq.spectral import _delay_terms
    rng = np.random.default_rng(1313)
    worst_full = worst_terms = 0.0
    for _ in range(24):
        ps = ModelParams(r=rng.uniform(1.3, 16.0), p=rng.uniform(0.05, 0.95),
                         tau=rng.uniform(0.0, 2.0), kappa=rng.uniform(0.0, 30.0),
                         sigma=rng.uniform(0.05, 2.0))
        x = rng.dirichlet(np.ones(4))
        chi = CharEq(r=ps.r, eps=ps.eps, tau=ps.tau, kappa=ps.kappa,
                     w_s=x[0], w_i=x[2], sigma=ps.sigma)
        jacs = _seiq_jacobians(ps, x)
        lags = (ps.sigma, ps.sigma + ps.tau, ps.span)
        terms = _delay_terms(chi)
        for _ in range(3):
            lam = complex(rng.uniform(-0.5, 2.0), 3.0 * rng.normal())
            want = complex(chi(lam))
            full = np.linalg.det(lam * np.eye(4) - jacs[0] - sum(
                j * np.exp(-d * lam) for j, d in zip(jacs[1:], lags)))
            block = np.linalg.det(lam * np.eye(2) - sum(
                a * np.exp(-d * lam) for d, a in terms))
            worst_full = max(worst_full, abs(full / lam ** 2 - want)
                             / (1.0 + abs(want)))
            worst_terms = max(worst_terms,
                              abs(block - want) / (1.0 + abs(want)))
    assert worst_full <= 1e-10
    assert worst_terms <= 1e-12


def test_count_unstable_continues_sigma_with_infected():
    # (5, 0.85, 0.2, kappa = 8) with infected: the kappa leg at sigma = 0
    # gives 4, and the sigma leg at kappa = 8 takes the pairs back out
    chi = endemic_chareq(ModelParams(r=5.0, p=0.85, tau=0.2, kappa=8.0), 0.0)
    for sigma, want in ((0.0, 4), (0.5, 2), (3.0, 0)):
        seiq = replace(chi, sigma=sigma)
        rep = count_unstable(seiq)
        assert rep.unstable_count == want == winding_count(seiq)
        assert len(rep.roots) == want


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


@pytest.mark.parametrize("r, p, q, eta", [(2.5, 0.5, 0.0, 0.0),
                                          (3.0, 0.2, 0.1, 0.1),
                                          (4.0, 0.5, 0.2, 0.0)])
def test_zero_delay_disease_free_root_is_closed_form(r, p, q, eta):
    # tau = kappa = sigma = 0: chi/lam = lam + 1 - r(1 - q - eta)(1 - eps),
    # located from the eigenvalues of the summed matrix, no collocation
    ps = ModelParams(r=r, p=p, tau=0.0, kappa=0.0)
    rep = count_unstable(disease_free_chareq(ps, q, eta))
    assert (rep.unstable_count, rep.collocation_n) == (1, 0)
    [root] = rep.roots
    assert root == pytest.approx(r * (1 - q - eta) * (1 - p) - 1, abs=1e-14)
    assert rep.max_residual <= 1e-14


def test_zero_delay_endemic_point_is_stable():
    # chi/lam = lam + r w_I (1 - eps) at the endemic point, w_I = q_c - q
    ps = ModelParams(r=2.5, p=0.5, tau=0.0, kappa=0.0)
    rep = count_unstable(endemic_chareq(ps, 0.1))
    assert (rep.unstable_count, rep.roots, rep.collocation_n) == (0, (), 0)


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
        if family == "seiq disease-free":
            s = rng.uniform(0.0, 1.0)
            eta = rng.uniform(0.0, s)
            return disease_free_chareq(
                ModelParams(r, p, tau, kappa, sigma=rng.uniform(0.0, 2.0)),
                s - eta, eta=eta)


def test_continuation_matches_reference_on_random_points():
    # continuation (closed-form base plus signed crossings) against the
    # argument principle wherever the contour answers; the located roots
    # number the count at every point
    rng = np.random.default_rng(707)
    compared = 0
    for k in range(102):
        chi = _random_chareq(
            rng, ("endemic", "disease-free", "seiq disease-free")[k % 3])
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
    # sigma > 0 at the disease-free point: the count moves by signed
    # crossings in sigma
    chi = disease_free_chareq(
        ModelParams(r=12.0, p=0.9, tau=0.2, kappa=1.0, sigma=1.5), 0.0)
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
    # chi (the (S, I) system) or chi/lam (the I equation alone); and the
    # raw collocation eigenvalues already sit on the roots before Newton
    from siq.spectral import _collocation_eigvals, _delay_terms
    rng = np.random.default_rng(11)
    seiq = ModelParams(r=4.0, p=0.7, tau=0.4, kappa=3.0, sigma=0.6)
    located = 0
    for chi, d in ((endemic_chareq(ModelParams(3.0, 0.6, 0.3, 20.0), 0.05), 0),
                   (disease_free_chareq(PS, 0.1), 1),
                   (disease_free_chareq(seiq, 0.1, eta=0.1), 1)):
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
    lambda: disease_free_chareq(PS, 0.2, eta=-0.1),
    lambda: disease_free_chareq(PS, -0.2, eta=0.1),
    lambda: disease_free_chareq(PS, 0.4, eta=0.7),
    lambda: stability_map(2.5, 0.5, 0.0, [-0.5, 0.0], [1.0]),
    lambda: hopf_crossings(2.5, 0.5, 0.0, -0.1, 10.0),
    # the endemic family (1 - q_c, q_c - q, q) needs q < q_c (w_I > 0)
    lambda: endemic_chareq(PS, q_critical(PS.r, PS.p, PS.tau)),
    lambda: endemic_chareq(PS, 0.6),
    lambda: stability_map(2.5, 0.5, 0.0, [0.0, 0.25], [1.0]),   # q_c = 0.2
    # and with E-component eta, q + eta < q_c
    lambda: endemic_chareq(PS, 0.1, eta=-0.05),
    lambda: endemic_chareq(PS, 0.2, eta=0.3),
], ids=["disease-free q<0", "disease-free q>1", "endemic q<0",
        "seiq eta<0", "seiq q<0", "seiq eta+q>1", "stability-map q<0",
        "hopf q<0", "endemic q=q_c", "endemic q>q_c", "stability-map q>q_c",
        "endemic eta<0", "endemic q+eta>q_c"])
def test_leaf_labels_outside_simplex_rejected(call):
    with pytest.raises(InvalidFractions):
        call()


def test_endemic_chareq_counts_the_seiq_point():
    # the SEIQ endemic point (1 - q_c, eta, q_c - q - eta, q) at
    # (2.5, 0.5, tau = 0, sigma = 0.5): stable at kappa = 10, where the SIQ
    # linearization has 2 unstable roots, and unstable past kappa_0 = 12.35
    for kappa, want in ((10.0, 0), (13.35, 2)):
        ps = ModelParams(r=2.5, p=0.5, tau=0.0, kappa=kappa, sigma=0.5)
        chi = endemic_chareq(ps, 0.0)
        assert chi.sigma == 0.5 and chi.w_s + chi.w_i == 1.0   # q_c = 0.2
        rep = count_unstable(chi)
        assert rep.unstable_count == want == winding_count(chi)
        assert len(rep.roots) == want
    chi = endemic_chareq(ps, 0.05, eta=0.1)
    assert chi.w_i == pytest.approx(0.05, abs=1e-15)
    assert complex(chi(0.0)) == 0.0


def _random_seiq_endemic(rng):
    """A point of the SEIQ endemic family (1 - q_c, eta, q_c - q - eta, q):
    r in [2, 12], p in [0.3, 0.95], tau in [0, 1], kappa in [5, 40],
    sigma in [0.05, 3]."""
    while True:
        r, p, tau = rng.uniform(2.0, 12.0), rng.uniform(0.3, 0.95), \
            rng.uniform(0.0, 1.0)
        ps = ModelParams(r, p, tau, rng.uniform(5.0, 40.0),
                         sigma=rng.uniform(0.05, 3.0))
        qc = q_critical(r, p, tau)
        if qc > 0.0:
            q = rng.uniform(0.0, qc)
            return endemic_chareq(ps, q, eta=rng.uniform(0.0, qc - q))


def test_seiq_endemic_continuation_matches_reference():
    # the kappa-then-sigma continuation against the argument principle
    # wherever the contour answers; the located roots number the count,
    # and at many points the sigma leg moves the count of the SIQ point
    rng = np.random.default_rng(1717)
    compared = moved = 0
    for _ in range(40):
        chi = _random_seiq_endemic(rng)
        rep = count_unstable(chi)
        assert len(rep.roots) == rep.unstable_count
        moved += rep.unstable_count != count_unstable(
            replace(chi, sigma=0.0), locate=False).unstable_count
        try:
            ref = winding_count(chi)
        except ContourThroughZero:
            continue
        assert rep.unstable_count == ref, chi
        compared += 1
    assert compared >= 36 and moved >= 10


# ---------------------------------------------------------------------------
# large-delay spectrum
# ---------------------------------------------------------------------------

def _gamma_split(chi):
    """chi = A + B e^{-kappa lam} with A = lam^2 + lam (c + beta e) + b e,
    B = -b e (lam + 1), e = e^{-tau lam}: (A, B) and
    gamma(omega) = -log|A(i omega)/B(i omega)|."""
    r, eps, tau = chi.r, chi.eps, chi.tau
    b, beta = r * chi.w_i * eps, r * chi.w_s * eps
    c = 1.0 - r * chi.w_s + r * chi.w_i

    def a_term(lam):
        e = np.exp(-tau * lam)
        return lam * lam + lam * (c + beta * e) + b * e

    def b_term(lam):
        return -b * np.exp(-tau * lam) * (lam + 1.0)

    def gamma(omega):
        return -np.log(np.abs(a_term(1j * omega) / b_term(1j * omega)))

    return a_term, b_term, gamma


@pytest.mark.parametrize("tau, q, unstable", [
    (0.0, 0.0, True), (0.0, 0.1, True), (0.5, 0.0, False)])
def test_large_delay_spectrum_tends_to_max_gamma(tau, q, unstable):
    # Lichtner, Wolfrum & Yanchuk (SIAM J. Math. Anal. 43, 2011): as kappa
    # grows, kappa Re lam of the rightmost roots of A + B e^{-kappa lam}
    # tends to max gamma, here from below with a gap of order 1/kappa;
    # where max gamma <= 0 no root is unstable
    ps = ModelParams(r=2.5, p=0.5, tau=tau, kappa=0.0)
    a_term, b_term, gamma = _gamma_split(endemic_chareq(ps, q))
    rng = np.random.default_rng(11)
    for kappa in (0.0, 3.0, 100.0):
        chi = endemic_chareq(replace(ps, kappa=kappa), q)
        for lam in rng.normal(size=5) + 1j * rng.normal(size=5):
            want = a_term(lam) + b_term(lam) * np.exp(-kappa * lam)
            assert abs(complex(chi(lam)) - want) <= 1e-12 * (1.0 + abs(want))
    grid = np.linspace(1e-3, 10.0, 10000)
    k = int(np.argmax(gamma(grid)))
    top = float(gamma(np.linspace(grid[max(k - 1, 0)], grid[k + 1],
                                  2001)).max())
    assert (top > 0.1) if unstable else (top <= 0.0)
    gaps = []
    for kappa in (100.0, 200.0, 400.0):
        rep = count_unstable(endemic_chareq(replace(ps, kappa=kappa), q),
                             locate=unstable)
        if not unstable:
            assert rep.unstable_count == 0
            continue
        assert len(rep.roots) == rep.unstable_count > 0
        gaps.append(top - kappa * max(z.real for z in rep.roots))
    assert all(g > 0.0 for g in gaps)
    for wide, narrow in zip(gaps, gaps[1:]):
        assert 1.8 <= wide / narrow <= 2.1


# ---------------------------------------------------------------------------
# Hopf detection
# ---------------------------------------------------------------------------

def test_hopf_kappa0_closed_form_values():
    # D-subdivision values at tau = 0 (ROADMAP's crossing-solve figures)
    [h] = hopf_crossings(2.5, 0.5, 0.0, 0.0, 25.0)
    assert h.kappa_0 == pytest.approx(8.948101278054, abs=1e-9)
    assert h.omega == pytest.approx(0.5590169944, abs=1e-9)
    assert h.direction == 1 and h.residual <= 1e-10
    [h] = hopf_crossings(2.5, 0.5, 0.0, 0.1, 25.0)
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
    [first] = hopf_crossings(2.5, 0.5, 0.0, 0.0, 25.0)
    assert first.kappa_0 == pytest.approx(8.948101, abs=1e-3)
    assert first.omega == pytest.approx(0.5590170, abs=1e-4)
    chi = endemic_chareq(ModelParams(r=2.5, p=0.5, tau=0.0,
                                     kappa=first.kappa_0), 0.0)
    assert abs(complex(chi(1j * first.omega))) <= 1e-8


def test_hopf_residual_at_cascade_members():
    # at a fixed equilibrium the solved destabilizing crossings of one
    # frequency are spaced 2 pi / Omega apart, each a root of chi
    found = hopf_crossings(2.5, 0.5, 0.0, 0.0, 35.0, max_crossings=4)
    assert len(found) == 3
    first = found[0]
    for m, c in enumerate(found):
        assert c.omega == pytest.approx(first.omega, rel=1e-12)
        assert c.kappa_0 - first.kappa_0 == pytest.approx(
            2 * math.pi * m / first.omega, rel=1e-12, abs=1e-12)
        chi = endemic_chareq(ModelParams(r=2.5, p=0.5, tau=0.0,
                                         kappa=c.kappa_0), 0.0)
        assert abs(complex(chi(1j * c.omega))) == pytest.approx(
            c.residual, abs=1e-15)
        assert c.residual <= 1e-10 and c.direction == 1


def test_hopf_absent_when_scan_range_is_stable():
    # q = 0.18 destabilizes only past kappa ~ 19 for these parameters
    assert hopf_crossings(2.5, 0.5, 0.0, 0.18, 12.0) == []


@pytest.mark.parametrize("call", [
    lambda: axis_crossings(5.0, 0.85, 0.2, 0.0, 20.0),
    lambda: hopf_crossings(2.5, 0.5, 0.5, 0.0, 16.0, track_leaf=True)],
    ids=["fixed", "tracked"])
def test_hopf_scan_checks_its_leaf_once(monkeypatch, call):
    # every kappa sample rebuilt and re-checked the endemic point: 7 checks
    # on the fixed scan, 65 or more on the tracked one
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return endemic_chareq(*args, **kwargs)

    monkeypatch.setattr(spectral, "endemic_chareq", counted)
    assert call()                       # the scan finds its crossings
    assert len(calls) == 1


def test_hopf_rejects_leaf_beyond_qc():
    with pytest.raises(InvalidFractions):
        hopf_crossings(2.5, 0.5, 0.0, 0.25, 10.0)    # q_c = 0.2


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


def test_stability_map_is_deterministic():
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


def test_stability_map_checks_each_leaf_once(monkeypatch):
    # each row's leaf was checked in the up-front pass and again by the
    # row's crossing solve: 20 checks for 10 rows
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return endemic_chareq(*args, **kwargs)

    monkeypatch.setattr(spectral, "endemic_chareq", counted)
    qs = np.linspace(0.0, 0.18, 10)
    res = stability_map(2.5, 0.5, 0.0, qs, [1.0, 12.0])
    assert not res.errors and res.counts.max() > 0
    assert len(calls) == 10


def test_stability_map_reports_failed_rows(monkeypatch):
    import siq.spectral as spectral
    real = spectral._crossings

    def failing(checked, kappa_max, leaf):
        if checked.w_i < 0.15:          # the row q = 0.1: w_I = q_c - q
            raise NumericalError("forced")
        return real(checked, kappa_max, leaf)

    monkeypatch.setattr(spectral, "_crossings", failing)
    res = stability_map(2.5, 0.5, 0.0, [0.0, 0.1], [1.0, 12.0])
    assert res.counts.tolist() == [[0, 2], [-1, -1]]
    assert res.errors == ((1, "NumericalError: forced"),)
    for bad in (-1.0, math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            stability_map(2.5, 0.5, 0.0, [0.0], [bad, 1.0])
    # only numerical failures become rows: p = 1.5 used to be recorded as
    # a failed row per q, not rejected
    with pytest.raises(ValueError, match=r"^p = 1.5 must be in \[0, 1\]$"):
        stability_map(2.5, 1.5, 1.0, [0.0, 0.1], [1.0])


def test_hopf_tracked_leaf_regression():
    # outbreak-scenario destabilization (equilibrium re-read from leaf 0 at
    # each kappa): regression value cross-validated by long trajectory runs
    # (tails decay at kappa <= 13, steady oscillation at kappa = 14)
    [h] = hopf_crossings(2.5, 0.5, 0.5, 0.0, 14.5, track_leaf=True)
    assert h.kappa_0 == pytest.approx(13.538, abs=2e-2)


def test_hopf_tracked_leaf_crossing_solve():
    # zeros of S_m(kappa) = kappa omega(kappa) - theta(kappa) - 2 pi m on
    # the leaf-0 branch; the collocation test below brackets it in (13, 14)
    [h] = hopf_crossings(2.5, 0.5, 0.5, 0.0, 16.0, track_leaf=True)
    assert h.kappa_0 == pytest.approx(13.538045, abs=1e-6)
    assert h.direction == 1 and h.residual <= 1e-10
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=h.kappa_0)
    v = endemic_point(ps, 0.0)
    chi = CharEq(r=ps.r, eps=ps.eps, tau=ps.tau, kappa=ps.kappa,
                 w_s=v.v_S, w_i=v.v_I)
    assert abs(complex(chi(1j * h.omega))) <= 1e-10
    # the fixed equilibrium (1 - q_c, q_c, 0) does not cross up to 40
    assert axis_crossings(2.5, 0.5, 0.5, 0.0, 40.0) == []


def _bisected_axis_roots(g, w_hi, tau):
    """The reference polish: the same grid and brackets, each bisected 60
    times (2^-60 of a cell: adjacent floats)."""
    grid = np.linspace(0.0, w_hi,
                       max(2048, math.ceil(64.0 * tau * w_hi / (2 * math.pi))))
    pos = g(grid) > 0.0
    k = np.nonzero(pos[:-1] != pos[1:])[0]
    lo, hi, lo_pos = grid[k], grid[k + 1], pos[k]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = (g(mid) > 0.0) == lo_pos
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    keep = lo > 0.0
    return lo[keep], np.where(lo_pos, -1, 1)[keep]


def test_axis_frequency_polish_matches_bisection(monkeypatch):
    # the axis routine on the kappa leg (g = F/omega^2 from complex A - B
    # and A + B, Illinois-polished) against 60 bisections of the hand g of
    # that leg on the same grid, at random endemic points (fixed and
    # tracked leaf, every fourth at tau = 0): the same roots and
    # directions, each omega within 16 ulp, plus the rounding band
    # eps G/|g'| of g where g is ill-conditioned (G: its terms'
    # magnitudes), where any point of the band is a sign change of the
    # computed g; and g(0) is the hand g's value there
    import siq.spectral as spectral
    polish = spectral._axis_roots
    calls, solves = [], []

    def counted(g, w_hi, tau):
        def g_counted(w):
            calls[-1] += 1
            return g(w)
        calls.append(0)
        solves.append((g, w_hi, tau))
        return polish(g_counted, w_hi, tau)

    monkeypatch.setattr(spectral, "_axis_roots", counted)
    rng = np.random.default_rng(1414)
    seen = {"no root": 0, "tau = 0 with roots": 0, "tau > 0 with roots": 0}
    for k in range(40):
        tau = 0.0 if k % 4 == 0 else rng.uniform(0.0, 1.5)
        p = rng.uniform(0.2, 1.0)
        r = rng.uniform(1.2, 4.0) / (1.0 - p * math.exp(-tau))  # q_c > 0
        qc = q_critical(r, p, tau)
        ps = ModelParams(r=r, p=p, tau=tau, kappa=rng.uniform(0.0, 30.0))
        q = rng.uniform(0.0, 0.98 * qc)
        w_s, w_i = 1.0 - qc, endemic_point(ps, q).v_I if k % 2 else qc - q
        eps = ps.eps
        b, c, beta = r * w_i * eps, 1.0 - r * w_s + r * w_i, r * w_s * eps
        chi = CharEq(r=r, eps=eps, tau=tau, kappa=ps.kappa, w_s=w_s, w_i=w_i)

        omega, direction, _ = spectral._axis_branches(
            spectral._legs(chi)[0])
        g_axis, w_hi, span = solves[-1]
        g = kappa_leg_g(b, c, beta, tau)
        ref, ref_dir = _bisected_axis_roots(g, w_hi, span)
        assert span == tau
        # the hand g at 0, in exact rationals: in floats it cancels digits
        # where c ~ -beta
        fb, fc, fbeta, ftau = map(Fraction, (b, c, beta, tau))
        g_at_0 = float(fbeta * fbeta + fc * fc - fb * fb
                       + 2 * (fbeta * fc - fb) - 2 * fb * fc * ftau)
        assert abs(float(g_axis(0.0)) - g_at_0) <= 1e-12 * abs(g_at_0)

        assert len(omega) == len(ref) and np.array_equal(direction, ref_dir)
        if len(omega) == 0:
            assert calls[-1] == 1
            seen["no root"] += 1
            continue
        assert calls[-1] <= 25
        seen[f"tau {'=' if tau == 0.0 else '>'} 0 with roots"] += 1

        big = (ref * ref + beta * beta + c * c + b * b + 2 * abs(beta * c - b)
               + 2.0 * np.abs(b * c + beta * ref * ref) * tau)
        h = 1e-6 * (1.0 + ref)
        slope = np.abs(g(ref + h) - g(ref - h)) / (2.0 * h)
        band = np.finfo(float).eps * big / slope
        assert np.all(np.abs(omega - ref) <= 16 * np.spacing(ref) + band)
    assert min(seen.values()) >= 3, seen


def test_axis_branches_sigma_leg_limit_at_zero(monkeypatch):
    # on the sigma leg at w_I = 0, chi = lam (lam + 1) - lam r w_S
    # (1 - eps e^{-tau lam}) e^{-sigma lam}: g = F/omega^2 at omega = 0
    # is 1 - (r w_S (1 - eps))^2, and g is finite on the whole grid
    import siq.spectral as spectral
    polish = spectral._axis_roots
    solves = []

    def captured(g, w_hi, tau):
        solves.append((g, w_hi, tau))
        return polish(g, w_hi, tau)

    monkeypatch.setattr(spectral, "_axis_roots", captured)
    rng = np.random.default_rng(1818)
    for _ in range(20):
        chi = _random_chareq(rng, "seiq disease-free")
        spectral._axis_branches(spectral._legs(chi)[1])
        g, w_hi, span = solves[-1]
        want = 1.0 - (chi.r * chi.w_s * (1.0 - chi.eps)) ** 2
        assert abs(float(g(0.0)) - want) <= 1e-12 * abs(want)
        assert span == chi.tau
        assert np.all(np.isfinite(g(np.linspace(0.0, w_hi, 9))))


def test_axis_frequency_polish_matches_vectorized_reference():
    # the per-bracket float polish of _axis_roots against the same step
    # rule run on all brackets at once (spectral_reference.axis_roots), on
    # the hand-expanded g of the kappa leg at random inputs: every third
    # an endemic point (fixed or tracked leaf), the rest raw (b, c, beta)
    # with the bound c1 = 1 + |c| + |beta|; every fourth at tau = 0.  The
    # roots are bitwise equal, g is called once on the grid and then on
    # one point per step, and only once without a sign change
    from siq.spectral import _axis_roots
    rng = np.random.default_rng(1515)
    seen = {"tau = 0 with roots": 0, "no sign change": 0, ">= 2 brackets": 0}
    for k in range(240):
        tau = 0.0 if k % 4 == 0 else rng.uniform(0.0, 4.0)
        if k % 3 == 0:
            p = rng.uniform(0.2, 1.0)
            r = rng.uniform(1.2, 4.0) / (1.0 - p * math.exp(-tau))
            qc = q_critical(r, p, tau)
            ps = ModelParams(r=r, p=p, tau=tau, kappa=rng.uniform(0.0, 30.0))
            q = rng.uniform(0.0, 0.98 * qc)
            w_s = 1.0 - qc
            w_i = endemic_point(ps, q).v_I if k % 2 else qc - q
            eps = ps.eps
            b, c, beta = r * w_i * eps, 1.0 - r * w_s + r * w_i, r * w_s * eps
            c1 = 1.0 + r * (w_s * (1.0 + eps) + w_i)
        else:
            b, c = rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)
            beta = rng.uniform(0.0, 5.0)
            c1 = 1.0 + abs(c) + beta
        g = kappa_leg_g(b, c, beta, tau)
        s = c1 + abs(b)
        w_hi = 0.5 * (s + math.sqrt(s * s + 8.0 * abs(b)))

        ref, ref_dir = axis_roots(g, w_hi, tau)
        calls = []

        def g_counted(w):
            out = g(w)
            calls.append((np.size(w), out))
            return out

        omega, direction = _axis_roots(g_counted, w_hi, tau)

        assert omega.dtype == ref.dtype and direction.dtype == ref_dir.dtype
        assert omega.tobytes() == ref.tobytes()
        assert np.array_equal(direction, ref_dir)
        (_, grid_g), *steps = calls
        pos = grid_g > 0.0
        brackets = int(np.count_nonzero(pos[:-1] != pos[1:]))
        assert all(size == 1 for size, _ in steps)
        if brackets == 0:
            assert not steps
            seen["no sign change"] += 1
        seen[">= 2 brackets"] += brackets >= 2
        seen["tau = 0 with roots"] += tau == 0.0 and len(omega) > 0
    assert seen["tau = 0 with roots"] >= 3 and seen["no sign change"] >= 20
    assert seen[">= 2 brackets"] >= 10, seen


# ---------------------------------------------------------------------------
# pseudospectral oracle
# ---------------------------------------------------------------------------

def _pseudospectral_unstable(params: ModelParams, x: np.ndarray,
                             n: int) -> int:
    """Unstable eigenvalues of the field linearized at the equilibrium
    x = (S, I, Q) of the SIQ model or x = (S, E, I, Q) of the SEIQ model,
    by a Chebyshev collocation of the infinitesimal generator (Breda,
    Maset & Vermiglio 2005, SIAM J. Sci. Comput. 27:482-495).

    The Jacobians come from central differences of ``siq_field`` (exact
    for its quadratic terms) or ``_seiq_jacobians``, not from the
    characteristic function; E and Q enter no right-hand side, so the
    (S, I) block carries the spectrum, with lags tau and tau + kappa, or
    sigma, sigma + tau and sigma + tau + kappa.
    """
    if len(x) == 4:
        si = np.ix_([0, 2], [0, 2])
        jacs = [j[si] for j in _seiq_jacobians(params, x)]
        lags = (params.sigma, params.sigma + params.tau, params.span)
    else:
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

        jacs = [jac(0), jac(1), jac(2)]
        lags = (params.tau, params.tau + params.kappa)
    span = lags[-1]
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
    gen = np.kron(d, np.eye(2))
    gen[:2, :] = 0.0
    gen[:2, :2] = jacs[0]
    for lag, a in zip(lags, jacs[1:]):
        gap = -lag - theta                             # interpolate at -lag
        row = (gap == 0.0).astype(float) if (gap == 0.0).any() else w / gap
        gen[:2, :] += np.kron(row[None, :] / row.sum(), a)
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


#: SEIQ endemic point (r, p, tau, q, sigma) with kappa_0 = 12.35 (first
#: Hopf point of the fixed equilibrium (1 - q_c, 0, q_c, 0), scan step 0.05)
SEIQ_HOPF = (2.5, 0.5, 0.0, 0.0, 0.5)


@pytest.mark.parametrize("kappa, unstable", [(11.35, 0), (13.35, 2)])
def test_seiq_endemic_count_matches_field_collocation(kappa, unstable):
    # the four-lag collocation of the SEIQ field, whose Jacobians come from
    # central differences of seiq_field, on both sides of kappa_0
    r, p, tau, q, sigma = SEIQ_HOPF
    ps = ModelParams(r=r, p=p, tau=tau, kappa=kappa, sigma=sigma)
    qc = q_critical(r, p, tau)
    assert count_unstable(endemic_chareq(ps, q),
                          locate=False).unstable_count == unstable
    for n in (80, 120):
        assert _pseudospectral_unstable(
            ps, np.array([1.0 - qc, 0.0, qc - q, q]), n) == unstable


def test_seiq_endemic_flow_decays_below_kappa0_and_grows_above():
    # a jump of 1e-3 from S into I at t = 0, integrated by the DDE kernel:
    # the oscillation of I over [800, 1200] against [400, 800] shrinks at
    # kappa_0 - 1 (0.65) and grows at kappa_0 + 1 (6.2, e^{400 Re lam} with
    # Re lam = 0.0046 the located root)
    r, p, tau, q, sigma = SEIQ_HOPF
    qc, step = q_critical(r, p, tau), 0.05
    x = (1.0 - qc, 0.0, qc - q, q)
    at0 = (x[0] - 1e-3, 0.0, x[2] + 1e-3, q)
    ratios = []
    for kappa in (11.35, 13.35):
        ps = ModelParams(r=r, p=p, tau=tau, kappa=kappa, sigma=sigma)
        history = History(span=ps.span, jumps=(0.0,),
                          fn=lambda theta: at0 if theta >= 0.0 else x)
        i_vals = simulate(ps, history, 1200.0, step).states[:, 2]
        amp = [np.ptp(i_vals[round(lo / step):round(hi / step) + 1])
               for lo, hi in ((400.0, 800.0), (800.0, 1200.0))]
        ratios.append(amp[1] / amp[0])
    assert ratios[0] < 0.8 and ratios[1] > 4.0, ratios
