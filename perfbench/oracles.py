"""Reference answers written from the model's formulas, without ``siq``.

Each function here restates a closed form or a root-finding problem from
the SIQ equations in plain numpy, so that the workload checks compare the
program's artifacts with something the program did not compute.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def q_critical(r: float, p: float, tau: float) -> float:
    """Leaf label at which the endemic point meets the disease-free line:
    q_c = 1 - 1/(r(1 - eps)), eps = p e^{-tau}."""
    return 1.0 - 1.0 / (r * (1.0 - p * math.exp(-tau)))


# ---------------------------------------------------------------------------
# D-subdivision: imaginary-axis crossings of the endemic characteristic
# function chi(lam) = A(lam) + B(lam) e^{-kappa lam} at a fixed equilibrium
# ---------------------------------------------------------------------------

def _coefficients(r, p, tau, q):
    eps = p * math.exp(-tau)
    qc = q_critical(r, p, tau)
    w_s, w_i = 1.0 - qc, qc - q

    def a_of(lam):
        et = np.exp(-tau * lam)
        return lam * (lam + 1.0 - r * w_s * (1.0 - eps * et) + r * w_i) \
            + r * w_i * eps * et

    def b_of(lam):
        return -r * w_i * eps * np.exp(-tau * lam) * (lam + 1.0)

    return a_of, b_of


def chi(r: float, p: float, tau: float, q: float, kappa: float, lam):
    """The written-out characteristic function A + B e^{-kappa lam}."""
    a_of, b_of = _coefficients(r, p, tau, q)
    lam = np.asarray(lam, dtype=complex)
    return a_of(lam) + b_of(lam) * np.exp(-kappa * lam)


def _bisect(f, lo: float, hi: float) -> float:
    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = f(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossing_frequencies(r: float, p: float, tau: float, q: float,
                         omega_max: float = 200.0, grid: int = 200_001
                         ) -> list[tuple[float, int]]:
    """Positive roots omega of F = |A(i w)|^2 - |B(i w)|^2 with sign F'(w).

    F(0) = 0 belongs to the structural root lam = 0, so the roots are
    sought for F(w)/w^2, which has the same sign as F for w > 0.  F grows
    like w^4, so the roots lie in a bounded interval; they are bracketed on
    a fine grid up to ``omega_max`` and bisected to machine precision.
    """
    a_of, b_of = _coefficients(r, p, tau, q)

    def F(w):
        w = np.asarray(w, dtype=float)
        lam = 1j * w
        return (np.abs(a_of(lam)) ** 2 - np.abs(b_of(lam)) ** 2) / (w * w)

    ws = np.linspace(1e-6, omega_max, grid)
    fs = F(ws)
    out = []
    for k in np.nonzero(np.sign(fs[:-1]) != np.sign(fs[1:]))[0]:
        w = _bisect(lambda x: float(F(x)), float(ws[k]), float(ws[k + 1]))
        out.append((w, 1 if fs[k + 1] > fs[k] else -1))
    return out


def crossing_kappas(r: float, p: float, tau: float, q: float, omega: float,
                    m_max: int) -> list[float]:
    """kappa_m = ((-arg(-A/B)) mod 2 pi + 2 pi m) / omega, m = 0..m_max."""
    a_of, b_of = _coefficients(r, p, tau, q)
    lam = 1j * omega
    phase = (-np.angle(-a_of(lam) / b_of(lam))) % TWO_PI
    return [(phase + TWO_PI * m) / omega for m in range(m_max + 1)]


def crossings(r: float, p: float, tau: float, q: float, kappa_max: float
              ) -> list[tuple[float, float, int]]:
    """Every crossing (kappa, omega, direction) with 0 < kappa <= kappa_max,
    sorted by kappa; direction +1 moves a root pair into Re > 0."""
    out = []
    for omega, sign in crossing_frequencies(r, p, tau, q):
        m_max = int(kappa_max * omega / TWO_PI) + 1
        out += [(k, omega, sign)
                for k in crossing_kappas(r, p, tau, q, omega, m_max)
                if 0.0 < k <= kappa_max]
    return sorted(out)


def unstable_count(r: float, p: float, tau: float, q: float,
                   kappa: float) -> int:
    """Roots in Re > 0 at ``kappa``: twice the signed number of crossings
    below it, for families that are stable as kappa -> 0."""
    return 2 * sum(sign for k, _, sign in crossings(r, p, tau, q, kappa))


def disease_free_real_root(r: float, p: float, tau: float, q: float) -> float:
    """Positive root of lam + 1 - r(1 - q)(1 - eps e^{-tau lam}), the
    disease-free factor of chi, for q below q_c (where it is < 0 at 0)."""
    eps = p * math.exp(-tau)
    w_s = 1.0 - q

    def g(lam):
        return lam + 1.0 - r * w_s * (1.0 - eps * math.exp(-tau * lam))

    return _bisect(g, 0.0, r * w_s)


# ---------------------------------------------------------------------------
# closed forms of the flow
# ---------------------------------------------------------------------------

def logistic_infected(r: float, p: float, i0: float, t):
    """I(t) at tau = kappa = 0: I' = r' I (1 - I) - I with r' = r(1 - p),
    so I = K / (1 + (K/i0 - 1) e^{-(r' - 1) t}), K = 1 - 1/r'."""
    rp = r * (1.0 - p)
    k = 1.0 - 1.0 / rp
    t = np.asarray(t, dtype=float)
    return k / (1.0 + (k / i0 - 1.0) * np.exp(-(rp - 1.0) * t))


def endemic_leaf_zero(r: float, p: float, tau: float, kappa: float
                      ) -> tuple[float, float, float]:
    """Endemic point (S, I, Q) on the leaf q = 0:
    v_S = 1/(r(1 - eps)), v_I = (1 - eps) q_c / (1 - eps + eps kappa)."""
    eps = p * math.exp(-tau)
    qc = q_critical(r, p, tau)
    v_s = 1.0 / (r * (1.0 - eps))
    v_i = (1.0 - eps) * qc / (1.0 - eps + eps * kappa)
    return v_s, v_i, 1.0 - v_s - v_i


def pure_death(gamma: float, t):
    """I(t)/I(0) = e^{-gamma t} when nothing is transmitted (beta = 0)."""
    return np.exp(-gamma * np.asarray(t, dtype=float))


def dkw_band(n: int, fail_prob: float) -> float:
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz band: the empirical
    survival function of n iid lifetimes leaves it, anywhere in time, with
    probability at most ``fail_prob``."""
    return math.sqrt(math.log(2.0 / fail_prob) / (2.0 * n))
