"""Characteristic quasi-polynomials of the equilibrium families, unstable
root counts by continuation, root location by collocation, Hopf points in
the isolation time by D-subdivision, and the large-delay closed forms at
tau = 0.

chi has a structural zero root (order 1, or 2 for the latent disease-free
family).  Divided by it, chi at kappa = 0 (sigma = 0) is
lam + a + b e^{-tau lam}, whose unstable count is closed form (Hayes 1950).
The equations are retarded, so roots then move into or out of Re > 0 only
across the imaginary axis, where chi = A + B e^{-kappa lam} has |A| = |B|;
each crossing moves the count by 2 sign F'(omega), F = |A|^2 - |B|^2.
Roots are located by a Chebyshev collocation of the linearized system,
Newton-polished on chi, refined until they number exactly the count.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import EpsNotBelowOne, InvalidFractions, NumericalError
from .equilibria import endemic_point, q_critical
from .siq_model import ModelParams

TWO_PI = 2.0 * math.pi


def _one_minus_exp(z):
    """1 - exp(-z), accurate for small |z| (complex, vectorized)."""
    z = np.asarray(z)
    out = -np.expm1(-z.real) * np.exp(-1j * z.imag) + (1 - np.exp(-1j * z.imag))
    # assembled as 1 - e^{-x}e^{-iy} = (1 - e^{-iy}) + e^{-iy}(1 - e^{-x})
    return out


@dataclass(frozen=True)
class CharEq:
    """Characteristic function chi(lambda) at one equilibrium.

    For the three-compartment model (latent=False):
        chi = lam*(lam + 1 - r*w_S*(1 - eps*e^{-tau*lam})
                        + r*w_I*(1 - eps*e^{-(tau+kappa)*lam}))
              + r*w_I*eps*e^{-tau*lam}*(1 - e^{-kappa*lam})
    For the latent-model disease-free family (latent=True, w_I = 0):
        chi = lam^2*(lam + 1 - r*w_S*e^{-sigma*lam}*(1 - eps*e^{-tau*lam}))

    chi(0) = 0 exactly; ``trivial_order`` is the multiplicity of that
    structural zero root (1, or 2 for the latent family).
    """

    r: float
    eps: float
    tau: float
    kappa: float
    w_s: float
    w_i: float
    sigma: float = 0.0
    latent: bool = False

    @property
    def trivial_order(self) -> int:
        return 2 if self.latent else 1

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        et = np.exp(-self.tau * lam)
        if self.latent:
            es = np.exp(-self.sigma * lam)
            return lam * lam * (lam + 1.0
                                - self.r * self.w_s * es * (1.0 - self.eps * et))
        ek = np.exp(-self.kappa * lam)
        lin = (lam + 1.0
               - self.r * self.w_s * (1.0 - self.eps * et)
               + self.r * self.w_i * (1.0 - self.eps * et * ek))
        return lam * lin + self.r * self.w_i * self.eps * et * _one_minus_exp(
            self.kappa * lam)


def _check_fractions(**labels: float) -> None:
    """Leaf labels are compartment fractions: each >= 0, their sum <= 1."""
    if not (all(v >= 0.0 for v in labels.values())
            and sum(labels.values()) <= 1.0):
        raise InvalidFractions(
            "leaf labels must be >= 0 with sum <= 1, got "
            + ", ".join(f"{k} = {v!r}" for k, v in labels.items()))


def disease_free_chareq(params: ModelParams, q: float) -> CharEq:
    """Linearization at the disease-free point (1-q, 0, q)."""
    _check_fractions(q=q)
    return CharEq(r=params.r, eps=params.eps, tau=params.tau,
                  kappa=params.kappa, w_s=1.0 - q, w_i=0.0)


def _check_endemic_leaf(q: float, qc: float) -> None:
    """The endemic family (1 - q_c, q_c - q, q) needs 0 <= q < q_c."""
    _check_fractions(q=q)
    if not q < qc:
        raise InvalidFractions(f"endemic leaf q = {q!r} must lie below "
                               f"q_c = {qc!r}: w_I = q_c - q <= 0")


def endemic_chareq(params: ModelParams, q: float) -> CharEq:
    """Linearization at the endemic point with Q-component q:
    (1 - q_c, q_c - q, q)."""
    qc = q_critical(params.r, params.p, params.tau)
    _check_endemic_leaf(q, qc)
    return CharEq(r=params.r, eps=params.eps, tau=params.tau,
                  kappa=params.kappa, w_s=1.0 - qc, w_i=qc - q)


def seiq_disease_free_chareq(params: ModelParams, eta: float,
                             q: float) -> CharEq:
    """Linearization at the latent-model disease-free point
    (1-eta-q, eta, 0, q); the zero root has multiplicity 2."""
    _check_fractions(eta=eta, q=q)
    return CharEq(r=params.r, eps=params.eps, tau=params.tau,
                  kappa=params.kappa, w_s=1.0 - eta - q, w_i=0.0,
                  sigma=params.sigma, latent=True)


@dataclass(frozen=True)
class SpectralReport:
    """unstable_count = base + 2 * crossings: the closed-form count at
    kappa = 0 (sigma = 0 for the latent family) and the signed axis
    crossings below kappa (sigma).  ``roots`` (Re > 0) come from collocation
    size ``collocation_n`` (0: none located); ``max_residual`` = max |chi|."""

    unstable_count: int
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    classification: str
    base: int
    crossings: int
    collocation_n: int
    max_residual: float


def _base_count(chareq: CharEq) -> int:
    """Unstable roots of chi/lam^d = lam + a + b e^{-tau lam} at kappa = 0
    (sigma = 0), c = r(w_S - w_I), a = 1 - c, b = c eps (Hayes 1950): the
    root -(a + b) of tau = 0 if negative, plus a pair crossing rightward at
    each (theta + 2 pi k)/omega < tau when |b| > |a|, with
    omega = sqrt(b^2 - a^2), theta in (0, 2 pi], cos theta = -a/b and
    sin theta = omega/b."""
    c = chareq.r * (chareq.w_s - (0.0 if chareq.latent else chareq.w_i))
    a, b, tau = 1.0 - c, c * chareq.eps, chareq.tau
    count = int(a + b < 0.0)
    if abs(b) > abs(a):
        omega = math.sqrt(b * b - a * a)
        theta = math.atan2(omega / b, -a / b) % TWO_PI or TWO_PI
        count += 2 * max(0, math.ceil((tau * omega - theta) / TWO_PI))
    return count


def _signed_crossings(omega: np.ndarray, direction: np.ndarray,
                      alpha: np.ndarray, top: float) -> int:
    """Signed crossings below ``top`` at a fixed equilibrium: branch j
    crosses at (theta_j + 2 pi m)/omega_j, m >= 0, where theta_j in
    (0, 2 pi] is -alpha_j mod 2 pi."""
    theta = TWO_PI - np.mod(alpha, TWO_PI)
    return int(np.dot(direction, np.maximum(
        0.0, np.ceil((top * omega - theta) / TWO_PI))))


def _latent_branches(chareq: CharEq):
    """Axis frequencies in sigma of chi/lam^2 = A + B e^{-sigma lam},
    A = lam + 1, B = -r w_S (1 - eps e^{-tau lam}), from
    F = 1 + omega^2 - (r w_S)^2 (1 - 2 eps cos(tau omega) + eps^2) > 0
    past |r w_S| (1 + eps); directions and alpha = arg(-A/B)."""
    rw, eps, tau = chareq.r * chareq.w_s, chareq.eps, chareq.tau
    omega, direction = _axis_roots(
        lambda w: 1.0 + w * w - rw * rw * (1.0 - 2.0 * eps * np.cos(tau * w)
                                           + eps * eps),
        abs(rw) * (1.0 + eps), tau)
    lam = 1j * omega
    alpha = np.angle((lam + 1.0) / (rw * (1.0 - eps * np.exp(-tau * lam))))
    return omega, direction, alpha


def _continuation(chareq: CharEq) -> tuple[int, int]:
    """(base, signed crossings): continued in kappa from kappa = 0, or in
    sigma from sigma = 0 for the latent family."""
    if chareq.latent:
        return _base_count(chareq), _signed_crossings(
            *_latent_branches(chareq), chareq.sigma)
    # chi'(0) moves with kappa, and a real root crossing at lam = 0 is
    # invisible to the axis frequencies omega > 0
    r, eps, w_i = chareq.r, chareq.eps, chareq.w_i
    g0 = 1.0 - r * (chareq.w_s - w_i) * (1.0 - eps)
    if (g0 > 0.0) != (g0 + r * w_i * eps * chareq.kappa > 0.0):
        raise NumericalError(f"a real root crosses 0 at {_point(chareq)}")
    return _base_count(chareq), _signed_crossings(*_kappa_branches(chareq),
                                                  chareq.kappa)


def _point(chareq: CharEq) -> str:
    return ", ".join(f"{k}={getattr(chareq, k)!r}" for k in (
        "r", "eps", "tau", "kappa", "w_s", "w_i", "sigma"))


# ---------------------------------------------------------------------------
# root location: Chebyshev collocation of the linearized system
# ---------------------------------------------------------------------------

#: Largest collocation size before location gives up.
MAX_COLLOCATION_N = 512


def _delay_terms(chareq: CharEq) -> list[tuple[float, np.ndarray]]:
    """(delay, A_k) of x' = sum_k A_k x(t - d_k), the system linearized at
    the equilibrium, with d Phi = r (w_I dS + w_S dI).

    Without infected (w_I = 0, and always in the latent family) S and E
    decouple and carry the trivial roots, so the I equation alone,
    I' = -I + r w_S I(t - sigma) - eps r w_S I(t - sigma - tau), has
    characteristic function chi/lam^d.  Otherwise (S, I) obeys
    S' = -dPhi + I + eps dPhi(t-tau-kappa), I' = dPhi - I - eps dPhi(t-tau).
    """
    r, eps, tau = chareq.r, chareq.eps, chareq.tau
    if chareq.latent or chareq.w_i == 0.0:
        rw, sigma = r * chareq.w_s, chareq.sigma if chareq.latent else 0.0
        return [(0.0, np.array([[-1.0]])), (sigma, np.array([[rw]])),
                (sigma + tau, np.array([[-eps * rw]]))]
    f = r * np.array([chareq.w_i, chareq.w_s])
    flux = np.array([[-1.0], [1.0]]) * f
    return [(0.0, flux + np.array([[0.0, 1.0], [0.0, -1.0]])),
            (tau, -eps * np.array([[0.0, 0.0], f])),
            (tau + chareq.kappa, eps * np.array([f, [0.0, 0.0]]))]


def _collocation_eigvals(terms, n: int) -> np.ndarray:
    """Eigenvalues of the infinitesimal generator collocated on n + 1
    Chebyshev points of [-T, 0], T the largest delay (Breda, Maset &
    Vermiglio 2005, SIAM J. Sci. Comput. 27:482-495)."""
    span = max(d for d, _ in terms)
    if span == 0.0:
        return np.linalg.eigvals(sum(a for _, a in terms))
    dim = terms[0][1].shape[0]
    x = np.cos(np.pi * np.arange(n + 1) / n)               # 1 .. -1
    w = (-1.0) ** np.arange(n + 1)                         # barycentric
    w[[0, -1]] *= 0.5
    d = np.outer(1.0 / w, w) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    gen = np.kron(d * (2.0 / span), np.eye(dim))
    gen[:dim, :] = 0.0
    theta = span * (x - 1.0) / 2.0                         # 0 .. -T
    for delay, a in terms:
        gap = -delay - theta
        row = (gap == 0.0).astype(float) if (gap == 0.0).any() else w / gap
        gen[:dim, :] += np.kron(row[None, :] / row.sum(), a)
    return np.linalg.eigvals(gen)


def _polish(h, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton on h from every start at once (central-difference slope),
    with |h| at the results; starts that run off to overflow stop where
    they are."""
    with np.errstate(all="ignore"):
        for _ in range(40):
            step = 1e-7 * (1.0 + np.abs(lam))
            delta = h(lam) * (2.0 * step) / (h(lam + step) - h(lam - step))
            delta[~np.isfinite(delta)] = 0.0
            lam = lam - delta
            if np.all(np.abs(delta) <= 1e-15 * (1.0 + np.abs(lam))):
                break
        return lam, np.abs(h(lam))


def _locate(chareq: CharEq, count: int) -> tuple[list[complex], int]:
    """The ``count`` roots with Re > 0 and the collocation N that found
    them.  N starts from the bound |lam + 1| <= rho - 1 on unstable roots,
    rho - 1 = r (w_S + w_I)(1 + eps) + r w_I eps min(kappa, 2/|lam|), and
    doubles until the polished roots with Re > 0 number exactly ``count``."""
    w_i = 0.0 if chareq.latent else abs(chareq.w_i)
    rho = 1.0 + chareq.r * ((abs(chareq.w_s) + w_i) * (1.0 + chareq.eps)
                            + w_i * chareq.eps * min(chareq.kappa, 2.0))
    terms = _delay_terms(chareq)
    span = max(delay for delay, _ in terms)
    n = min(max(8, math.ceil(rho * span / 6.0)), MAX_COLLOCATION_N)
    while True:
        ev = _collocation_eigvals(terms, n)
        lam, resid = _polish(lambda z: chareq(z) / z ** chareq.trivial_order,
                             ev[(ev.real > -1.0) & (np.abs(ev) <= 2.0 * rho)])
        roots: list[complex] = []
        for z in map(complex, lam[(lam.real > 0.0) & (
                resid <= 1e-10 * (1.0 + np.abs(lam) + rho))]):
            if all(abs(z - y) > 1e-7 * (1.0 + abs(z)) for y in roots):
                roots.append(z)
        if len(roots) == count:
            roots.sort(key=lambda z: (z.real, z.imag))
            return roots, n if span else 0
        if span == 0.0 or n >= MAX_COLLOCATION_N:
            raise NumericalError(
                f"collocation at N = {n} locates {len(roots)} roots with "
                f"Re > 0, continuation counts {count}, at {_point(chareq)}")
        n = min(2 * n, MAX_COLLOCATION_N)


def count_unstable(chareq: CharEq, *, locate: bool = True) -> SpectralReport:
    """Roots of chi with Re > 0, the structural zero root excluded: the
    closed-form base continued through the signed axis crossings below
    the chareq's own kappa (sigma).  With ``locate`` the roots are found
    by collocation and must number the count, else NumericalError names
    the point."""
    base, crossings = _continuation(chareq)
    count = base + 2 * crossings
    if count < 0:
        raise NumericalError(f"negative count {count} at {_point(chareq)}")
    roots, n = _locate(chareq, count) if locate and count else ([], 0)
    residuals = tuple(float(abs(chareq(z))) for z in roots)
    if count == 0:
        cls = "stable"
    elif any(abs(z.real) < 1e-6 for z in roots):
        cls = "marginal"
    else:
        cls = f"unstable({count})"
    return SpectralReport(count, tuple(roots), residuals, cls, base,
                          crossings, n, max(residuals, default=0.0))


# ---------------------------------------------------------------------------
# closed forms at tau = 0
# ---------------------------------------------------------------------------

def strong_spectrum_tau0(r: float, p: float, q: float) -> tuple[complex, complex]:
    """Large-isolation-time strong spectrum at tau = 0 (q_c taken at eps = p):

    lambda_pm = (1/2) * [-r(1-p)(q_c - q)
                         +- sqrt((q_c - q)(r^2 (1-p)^2 (q_c - q) - 4p))]
    Both real parts are negative for every q in [0, q_c).
    """
    qc = q_critical(r, p, 0.0)
    dq = qc - q
    disc = dq * (r * r * (1.0 - p) ** 2 * dq - 4.0 * p)
    root = cmath.sqrt(complex(disc))
    a = -r * (1.0 - p) * dq
    return (0.5 * (a + root), 0.5 * (a - root))


@dataclass(frozen=True)
class AsymptoticSpectrum:
    """Large-kappa continuous-spectrum data at tau = 0.

    gamma(omega) is the rescaled real part (-log|Y(i omega)|); its sign
    pattern decides destabilization for large kappa.  h is the curvature
    proxy of |Y| at omega = 0 (h < 0: modulational instability).  q_h is
    the closed-form [q_h-, q_h+] stability window, or None when its
    discriminant is negative (flagged in ``note``, since the source
    formula asserts non-emptiness: cross-check against the sign of h).
    """

    h: float
    q_h: tuple[float, float] | None
    gamma: Callable[[np.ndarray], np.ndarray]
    note: str | None = None


def asymptotic_spectrum_tau0(r: float, p: float, q: float) -> AsymptoticSpectrum:
    """Asymptotic continuous spectrum of the endemic family at tau = 0."""
    qc = q_critical(r, p, 0.0)
    _check_endemic_leaf(q, qc)
    dq = qc - q

    denom = p * r * dq
    h = ((1.0 - r * (1.0 - p + (p - 2.0) * qc - q)) / denom) ** 2 \
        - 2.0 / denom - 1.0

    a = (1.0 - 1.0 / r) - p + (p - 3.0) * qc
    disc = (a + p) ** 2 - (1.0 - p * p) * a * a
    note = None
    if disc >= 0.0:
        root = math.sqrt(disc)
        q_h = (qc - (a + p + root) / (1.0 - p * p),
               qc - (a + p - root) / (1.0 - p * p))
    else:
        q_h = None
        note = (f"q_h discriminant negative ({disc:.6g}); the closed-form "
                "window is empty here although its source asserts "
                "non-emptiness -- rely on the sign of h instead")

    lin = 1.0 + r * (1.0 - q) + p / (1.0 - p)
    const = r * dq * p

    def gamma(omega):
        lam = 1j * np.asarray(omega, dtype=float)
        y = (lam * lam + lam * lin + const) / (const * (lam + 1.0))
        return -np.log(np.abs(y))

    return AsymptoticSpectrum(h=h, q_h=q_h, gamma=gamma, note=note)


def e0_hopf_bound(r: float, p: float, tau: float) -> tuple[float, float]:
    """Peak of the disease-free crossing-frequency relation:
    q_max = 1 - (1/r)/(1 - eps^2) and omega_max^2 = eps^2/(1 - eps^2).

    No disease-free Hopf point exists; this bounds where one could have
    been, and caps |omega| in axis scans.
    """
    eps = p * math.exp(-tau)
    if eps >= 1.0:
        raise EpsNotBelowOne(f"eps = {eps!r} must be < 1")
    q_max = 1.0 - (1.0 / r) / (1.0 - eps * eps)
    w2 = eps * eps / (1.0 - eps * eps)
    return q_max, w2


# ---------------------------------------------------------------------------
# Hopf detection in kappa: D-subdivision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfData:
    """Root pair +-i*omega on the imaginary axis at kappa = kappa_0, with
    direction = sign Re dlambda/dkappa there (+1: the pair enters Re > 0)
    and residual = |chi(i omega)|."""

    kappa_0: float
    omega: float
    direction: int = 1
    residual: float = math.nan

    def kappa_m(self, m: int) -> float:
        return self.kappa_0 + TWO_PI * m / self.omega


def hopf_sequence(hopf: HopfData, m: int) -> float:
    """m-th member of the crossing cascade, kappa_0 + 2*pi*m/Omega."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return hopf.kappa_m(m)


def _endemic_chareq_at(r, p, tau, q, kappa, track_leaf):
    params = ModelParams(r=r, p=p, tau=tau, kappa=kappa)
    chi = endemic_chareq(params, q)
    if track_leaf:
        return replace(chi, w_i=endemic_point(params, q).v_I)
    return chi


def _axis_roots(g, w_hi: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots omega in (0, w_hi) of g and the sign of g' there: sign changes
    on >= 64 points per 2 pi/tau, bisected to adjacent floats."""
    grid = np.linspace(0.0, w_hi,
                       max(2048, math.ceil(64.0 * tau * w_hi / TWO_PI)))
    pos = g(grid) > 0.0
    k = np.nonzero(pos[:-1] != pos[1:])[0]
    lo, hi, lo_pos = grid[k], grid[k + 1], pos[k]
    for _ in range(60):            # 2^-60 of a cell: adjacent floats
        mid = 0.5 * (lo + hi)
        left = (g(mid) > 0.0) == lo_pos
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    keep = lo > 0.0
    return lo[keep], np.where(lo_pos, -1, 1)[keep]


def _axis_frequencies(b: float, c: float, beta: float, c1: float,
                      tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots omega > 0 of F = |A(i omega)|^2 - |B(i omega)|^2 and sign F',
    where chi = A + B e^{-kappa lam}, A = lam^2 + lam (c + beta e) + b e,
    B = -b e (lam + 1), e = e^{-tau lam}.  As |A| >= omega^2 - c1 omega - |b|
    and |B| <= |b| (1 + omega), F > 0 past the positive root of
    omega^2 - (c1 + |b|) omega - 2|b|.  The roots are those of F/omega^2,
    free of the structural root at 0.
    """
    if b == 0.0:                   # chi does not depend on kappa
        return np.empty(0), np.empty(0, dtype=int)

    def g(w):
        return (w * w + beta * beta + c * c - b * b
                + 2.0 * (beta * c - b) * np.cos(tau * w)
                - 2.0 * (b * c + beta * w * w) * tau
                * np.sinc(tau * w / math.pi))

    s = c1 + abs(b)
    return _axis_roots(g, 0.5 * (s + math.sqrt(s * s + 8.0 * abs(b))), tau)


def _kappa_branches(chi: CharEq, solve=_axis_frequencies):
    """Axis frequencies of chi in kappa, their directions sign F' and
    alpha = arg(-A/B) at each."""
    r, tau, w_s, w_i, eps = chi.r, chi.tau, chi.w_s, chi.w_i, chi.eps
    b, c, beta = r * w_i * eps, 1.0 - r * w_s + r * w_i, r * w_s * eps
    omega, direction = solve(b, c, beta, 1.0 + r * (abs(w_s) * (1.0 + eps)
                                                    + abs(w_i)), tau)
    lam = 1j * omega
    e = np.exp(-tau * lam)
    alpha = np.angle((lam * lam + lam * (c + beta * e) + b * e)
                     / (b * e * (lam + 1.0)))
    return omega, direction, alpha


class _Sample(NamedTuple):
    """The axis frequencies at one kappa, with alpha = arg(-A/B) at each."""

    kappa: float
    chi: CharEq
    omega: np.ndarray
    direction: np.ndarray
    alpha: np.ndarray

    def psi(self, j: int, alpha_ref: float) -> float:
        """kappa omega + arg(-A/B) on branch j, the arg unwrapped next to
        alpha_ref; chi(i omega) = 0 where it is in 2 pi Z."""
        jump = (self.alpha[j] - alpha_ref + math.pi) % TWO_PI - math.pi
        return self.kappa * self.omega[j] + alpha_ref + jump


def _interval_crossings(sample, s0: _Sample, s1: _Sample) -> list[HopfData]:
    """Crossings with s0.kappa < kappa <= s1.kappa: the kappas where a
    branch's psi passes 2 pi m, by Illinois iteration (exact in one step
    when psi is linear in kappa, as at a fixed equilibrium)."""
    if not np.array_equal(s0.direction, s1.direction):
        # a branch pair is born or dies inside: split down to its birth
        if s1.kappa - s0.kappa <= 1e-12 * (1.0 + s1.kappa):
            return []
        mid = sample(0.5 * (s0.kappa + s1.kappa))
        return (_interval_crossings(sample, s0, mid)
                + _interval_crossings(sample, mid, s1))
    found = []
    for j, alpha_ref in enumerate(s0.alpha):
        psi0, psi1 = s0.psi(j, alpha_ref), s1.psi(j, alpha_ref)
        up = psi1 > psi0           # targets in (psi0, psi1] or [psi1, psi0)
        ms = (range(math.floor(psi0 / TWO_PI) + 1,
                    math.floor(psi1 / TWO_PI) + 1) if up else
              range(math.ceil(psi1 / TWO_PI), math.ceil(psi0 / TWO_PI)))
        for target in (TWO_PI * m for m in ms):
            a, fa, b, fb = s0.kappa, psi0 - target, s1.kappa, psi1 - target
            for _ in range(100):
                s = sample(b - fb * (b - a) / (fb - fa))
                if not np.array_equal(s.direction, s0.direction):
                    raise NumericalError(
                        f"crossing branches change near kappa={s.kappa!r}")
                fk = s.psi(j, alpha_ref) - target
                if (abs(fk) <= 1e-14 * (1.0 + abs(target))
                        or abs(b - a) <= 1e-14 * (1.0 + s.kappa)):
                    break
                a, fa = (b, fb) if (fk > 0.0) != (fb > 0.0) else (a, 0.5 * fa)
                b, fb = s.kappa, fk
            omega = float(s.omega[j])
            resid = abs(complex(s.chi(1j * omega)))
            if not resid <= 1e-10:
                raise NumericalError(f"|chi(i omega)| = {resid!r} at {s.chi}, "
                                     f"omega={omega!r}")
            found.append(HopfData(s.kappa, omega, int(s.direction[j])
                                  * (1 if up else -1), resid))
    return found


def axis_crossings(r: float, p: float, tau: float, q: float,
                   kappa_max: float, *,
                   track_leaf: bool = False) -> list[HopfData]:
    """Every imaginary-axis crossing of the endemic spectrum with
    0 < kappa <= kappa_max, sorted by kappa (D-subdivision).

    chi = A + B e^{-kappa lam} vanishes at i omega exactly when F(omega) = 0
    and kappa omega + arg(-A/B) is in 2 pi Z.  At a fixed equilibrium that
    gives kappa_m = ((-arg(-A/B)) mod 2 pi + 2 pi m)/omega, crossing in
    direction sign F'(omega) (Cooke & van den Driessche 1986).  With
    ``track_leaf`` the point is re-read from the leaf q at each kappa, and
    the zeros of S_m(kappa) = kappa omega(kappa) - theta(kappa) - 2 pi m
    are solved on branches sampled every 0.25, in direction
    sign F' * sign S_m' (Beretta & Kuang 2002).  Raises NumericalError
    when |chi(i omega)| > 1e-10 at a crossing.
    """
    solve = functools.lru_cache(maxsize=None)(_axis_frequencies)

    def sample(kappa: float) -> _Sample:
        chi = _endemic_chareq_at(r, p, tau, q, float(kappa), track_leaf)
        return _Sample(float(kappa), chi, *_kappa_branches(chi, solve))

    steps = max(1, math.ceil(kappa_max / 0.25)) if track_leaf else 1
    samples = [sample(k) for k in np.linspace(0.0, kappa_max, steps + 1)]
    return sorted((c for s0, s1 in zip(samples, samples[1:])
                   for c in _interval_crossings(sample, s0, s1)),
                  key=lambda c: c.kappa_0)


def hopf_crossings(r: float, p: float, tau: float, q: float,
                   kappa_max: float, *, max_crossings: int = 1,
                   track_leaf: bool = False) -> list[HopfData]:
    """The first ``max_crossings`` destabilizing crossings (+2 jumps of the
    unstable count) with kappa <= kappa_max, at the fixed equilibrium of
    leaf q or, with ``track_leaf``, at the point re-read from leaf q at
    each kappa (the outbreak-scenario destabilization)."""
    _check_endemic_leaf(q, q_critical(r, p, tau))
    return [c for c in axis_crossings(r, p, tau, q, kappa_max,
                                      track_leaf=track_leaf)
            if c.direction > 0][:max_crossings]


def hopf_kappa0(r: float, p: float, tau: float, q: float, kappa_max: float,
                *, track_leaf: bool = False) -> HopfData | None:
    """First Hopf point kappa_0(q) with its frequency Omega(q), or None if
    the equilibrium stays stable for kappa up to kappa_max."""
    found = hopf_crossings(r, p, tau, q, kappa_max, track_leaf=track_leaf)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# stability map over (q, kappa)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityMap:
    """Unstable-root counts of the endemic family on a (q, kappa) grid.

    counts[i, j] belongs to (q_grid[i], kappa_grid[j]); a q-row whose
    count failed is all -1, with (i, error) in ``errors``.
    """

    q_grid: tuple[float, ...]
    kappa_grid: tuple[float, ...]
    counts: np.ndarray
    errors: tuple[tuple[int, str], ...]


def stability_map(r: float, p: float, tau: float,
                  q_grid: Sequence[float],
                  kappa_grid: Sequence[float]) -> StabilityMap:
    """Unstable counts of the endemic equilibria w(q): per q-row, the
    closed-form count at kappa = 0 plus twice the signed number of axis
    crossings below kappa (roots of this retarded equation enter the right
    half-plane only across the imaginary axis as kappa grows)."""
    qs = [float(v) for v in q_grid]
    ks = [float(v) for v in kappa_grid]
    if not all(k >= 0.0 for k in ks):
        raise ValueError("kappa grid values must be >= 0")
    qc = q_critical(r, p, tau)
    for q in qs:
        _check_endemic_leaf(q, qc)
    counts = np.full((len(qs), len(ks)), -1, dtype=int)
    errors: list[tuple[int, str]] = []
    for i, q in enumerate(qs):
        try:
            base = _base_count(_endemic_chareq_at(r, p, tau, q, 0.0, False))
            cross = axis_crossings(r, p, tau, q, max(ks, default=0.0))
            row = [base + 2 * sum(c.direction for c in cross if c.kappa_0 < k)
                   for k in ks]
            if min(row, default=0) < 0:
                raise NumericalError(f"negative counts {row} at q={q!r}")
            counts[i] = row
        except (NumericalError, ValueError) as exc:
            errors.append((i, f"{type(exc).__name__}: {exc}"))
    return StabilityMap(q_grid=tuple(qs), kappa_grid=tuple(ks),
                        counts=counts, errors=tuple(errors))


__all__ = [
    "CharEq", "disease_free_chareq", "endemic_chareq",
    "seiq_disease_free_chareq", "SpectralReport",
    "count_unstable", "strong_spectrum_tau0", "AsymptoticSpectrum",
    "asymptotic_spectrum_tau0", "e0_hopf_bound", "HopfData",
    "hopf_sequence", "axis_crossings", "hopf_crossings", "hopf_kappa0",
    "StabilityMap", "stability_map",
]
