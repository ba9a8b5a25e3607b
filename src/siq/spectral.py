"""Characteristic quasi-polynomials of the equilibrium families, winding
number root counts, Hopf points in the isolation time by D-subdivision,
and the closed-form large-delay spectra at tau = 0.

The characteristic function of a linearization with components (w_S, w_I)
is entire in lambda, with a trivial zero root along each equilibrium
family (order 1, or 2 for the latent-model disease-free family).  Right
half-plane roots are counted by the argument principle on rectangular
contours with adaptive sampling, and located by contour subdivision plus
Newton polishing.  Imaginary-axis crossings in kappa solve |A| = |B| on
the axis, where chi = A + B e^{-kappa lam}.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContourThroughZero, EpsNotBelowOne, NumericalError
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
    trivial_order: int = 1

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


def char_eval(chareq: CharEq, lam: complex) -> complex:
    """Evaluate chi at one point (functional form of CharEq.__call__)."""
    return complex(chareq(lam))


def disease_free_chareq(params: ModelParams, q: float) -> CharEq:
    """Linearization at the disease-free point (1-q, 0, q)."""
    return CharEq(r=params.r, eps=params.eps, tau=params.tau,
                  kappa=params.kappa, w_s=1.0 - q, w_i=0.0)


def endemic_chareq(params: ModelParams, q: float) -> CharEq:
    """Linearization at the endemic point with Q-component q:
    (1 - q_c, q_c - q, q)."""
    qc = q_critical(params.r, params.p, params.tau)
    return CharEq(r=params.r, eps=params.eps, tau=params.tau,
                  kappa=params.kappa, w_s=1.0 - qc, w_i=qc - q)


def seiq_disease_free_chareq(params: ModelParams, eta: float,
                             q: float) -> CharEq:
    """Linearization at the latent-model disease-free point
    (1-eta-q, eta, 0, q); the zero root has multiplicity 2."""
    return CharEq(r=params.r, eps=params.eps, tau=params.tau,
                  kappa=params.kappa, w_s=1.0 - eta - q, w_i=0.0,
                  sigma=params.sigma, latent=True, trivial_order=2)


class Box(NamedTuple):
    """Axis-aligned search rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def contains(self, lam: complex, slack: float = 0.0) -> bool:
        return (self.re_min - slack <= lam.real <= self.re_max + slack and
                self.im_min - slack <= lam.imag <= self.im_max + slack)


def default_box(chareq: CharEq) -> Box:
    """Right-half-plane rectangle excluding the trivial zero root:
    Re in [1e-8, max(10, r)], |Im| <= 20*pi (a heuristic extent)."""
    return Box(1e-8, max(10.0, chareq.r), -20.0 * math.pi, 20.0 * math.pi)


@dataclass(frozen=True)
class SpectralReport:
    """Root count and located roots inside a search box."""

    unstable_count: int
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    classification: str
    box: Box


class _NearZero(Exception):
    """Internal: |chi| below threshold on the contour."""


def _pow2_at_least(n: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(n, 1.0))))


def _scaled_samples(box: Box, chareq: CharEq, floor: int) -> int:
    """Samples per side: resolve the 2*pi/kappa eigenvalue comb spacing."""
    extent = max(box.re_max - box.re_min, box.im_max - box.im_min)
    scale = max(chareq.kappa, chareq.tau + chareq.sigma, 1.0)
    return max(floor, min(16384, _pow2_at_least(1.3 * extent * scale)))


def _contour(box: Box, n: int) -> np.ndarray:
    re0, re1, im0, im1 = box
    bottom = re0 + (re1 - re0) * np.arange(n) / n + 1j * im0
    right = re1 + 1j * (im0 + (im1 - im0) * np.arange(n) / n)
    top = re1 - (re1 - re0) * np.arange(n) / n + 1j * im1
    left = re0 + 1j * (im1 - (im1 - im0) * np.arange(n) / n)
    pts = np.concatenate([bottom, right, top, left])
    return np.append(pts, pts[0])


def _winding_once(f, box: Box, n: int) -> int | None:
    vals = f(_contour(box, n))
    if np.min(np.abs(vals)) < 1e-12:
        raise _NearZero
    ang = np.angle(vals[1:] / vals[:-1])
    if np.max(np.abs(ang)) > 2.8:
        return None            # undersampled: a phase step neared pi
    total = ang.sum() / TWO_PI
    w = round(total)
    if abs(total - w) > 0.05:
        return None
    return int(w)


def _winding(f, box: Box, n0: int = 512, max_doublings: int = 8) -> int:
    """Winding number of f around box, doubling samples until the rounded
    count is stable twice (three consecutive agreements)."""
    counts: list[int] = []
    n = n0
    for _ in range(max_doublings):
        w = _winding_once(f, box, n)
        if w is not None:
            counts.append(w)
            if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
                return counts[-1]
        n *= 2
    # persistent disagreement almost always means a root hugs the contour
    raise _NearZero


def _newton_polish(f, lam: complex, tol: float = 5e-14,
                   max_iter: int = 60) -> complex:
    for _ in range(max_iter):
        val = complex(f(lam))
        if abs(val) < tol:
            break
        h = 1e-7 * (1.0 + abs(lam))
        der = (complex(f(lam + h)) - complex(f(lam - h))) / (2.0 * h)
        if der == 0:
            break
        step = val / der
        lam = lam - step
        if abs(step) < 1e-15 * (1.0 + abs(lam)):
            break
    return lam


_CUT_FRACTIONS = (0.53, 0.47, 0.5, 0.57, 0.43, 0.61)


def _locate_roots(f, box: Box, count: int, chareq: CharEq) -> list[complex]:
    """Subdivide until cells are small, then Newton-polish cell centers."""
    roots: list[complex] = []

    def add(lam):
        for r0 in roots:
            if abs(lam - r0) < 1e-7 * (1.0 + abs(lam)):
                return
        roots.append(lam)

    stack: list[tuple[Box, int]] = [(box, count)]
    while stack and len(roots) < count:
        b, c = stack.pop()
        size = max(b.re_max - b.re_min, b.im_max - b.im_min)
        if size < 2e-3:
            lam = _newton_polish(f, complex(0.5 * (b.re_min + b.re_max),
                                            0.5 * (b.im_min + b.im_max)))
            if box.contains(lam, slack=1e-6):
                add(lam)
            continue
        for fx in _CUT_FRACTIONS:
            cut_re = b.re_min + fx * (b.re_max - b.re_min)
            cut_im = b.im_min + fx * (b.im_max - b.im_min)
            quads = [Box(b.re_min, cut_re, b.im_min, cut_im),
                     Box(cut_re, b.re_max, b.im_min, cut_im),
                     Box(b.re_min, cut_re, cut_im, b.im_max),
                     Box(cut_re, b.re_max, cut_im, b.im_max)]
            try:
                sub = [(qb, _winding(f, qb,
                                     n0=_scaled_samples(qb, chareq, 128),
                                     max_doublings=7))
                       for qb in quads]
            except _NearZero:
                continue       # a root sits on the cut: shift the cut
            for qb, wc in sub:
                if wc > 0:
                    stack.append((qb, wc))
            break
        else:
            raise ContourThroughZero(
                f"could not subdivide {b} without hitting a root")
    return roots


def count_unstable(chareq: CharEq, box: Box | None = None, *,
                   deflation: int | None = None, locate: bool = True,
                   samples: int = 512) -> SpectralReport:
    """Count (and optionally locate) roots of chi inside a rectangle.

    With box.re_min <= 0 the trivial zero root would sit inside, so chi is
    deflated by lambda^d; d defaults to the equilibrium family's trivial
    root order.  The contour is inflated and retried up to 3 times if a
    root (near-)touches it; ContourThroughZero is raised when that fails.
    """
    b = box or default_box(chareq)
    if deflation is not None:
        d = deflation
    elif b.re_min <= 1e-4:
        # also deflate when the edge merely hugs the axis: the trivial root
        # at 0 otherwise puts a near-pi phase step on straddling samples
        d = chareq.trivial_order
    else:
        d = 0

    if d:
        def f(lam):
            lam = np.asarray(lam, dtype=complex)
            return chareq(lam) / lam ** d
    else:
        f = chareq

    count = None
    n0 = _scaled_samples(b, chareq, samples)
    for attempt in range(4):
        try:
            count = _winding(f, b, n0=n0)
            break
        except _NearZero:
            pad = 1e-6 * (attempt + 1)
            re_min = b.re_min * 0.5 if b.re_min > 0 else b.re_min - pad
            b = Box(re_min, b.re_max + pad, b.im_min - pad, b.im_max + pad)
    if count is None:
        raise ContourThroughZero(f"contour repeatedly hit roots on {b}")

    roots: tuple[complex, ...] = ()
    residuals: tuple[float, ...] = ()
    if locate and count > 0:
        try:
            found = _locate_roots(f, b, count, chareq)
        except _NearZero:
            found = []
        roots = tuple(sorted(found, key=lambda z: (z.real, z.imag)))
        residuals = tuple(abs(complex(chareq(z))) for z in roots)

    if count == 0:
        cls = "stable"
    elif any(abs(z.real) < 1e-6 for z in roots):
        cls = "marginal"
    else:
        cls = f"unstable({count})"
    return SpectralReport(unstable_count=count, roots=roots,
                          residuals=residuals, classification=cls, box=b)


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
    if not q < qc:
        raise ValueError(f"q = {q!r} must be below q_c = {qc!r}")
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


def _axis_frequencies(b: float, c: float, beta: float, c1: float,
                      tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots omega > 0 of F = |A(i omega)|^2 - |B(i omega)|^2 and sign F',
    where chi = A + B e^{-kappa lam}, A = lam^2 + lam (c + beta e) + b e,
    B = -b e (lam + 1), e = e^{-tau lam}.  As |A| >= omega^2 - c1 omega - |b|
    and |B| <= |b| (1 + omega), F > 0 past the positive root of
    omega^2 - (c1 + |b|) omega - 2|b|.  The roots of F/omega^2 (free of the
    structural root at 0) are bracketed on >= 64 points per 2 pi/tau and
    bisected to adjacent floats.
    """
    if b == 0.0:                   # chi does not depend on kappa
        return np.empty(0), np.empty(0, dtype=int)

    def g(w):
        return (w * w + beta * beta + c * c - b * b
                + 2.0 * (beta * c - b) * np.cos(tau * w)
                - 2.0 * (b * c + beta * w * w) * tau
                * np.sinc(tau * w / math.pi))

    s = c1 + abs(b)
    w_hi = 0.5 * (s + math.sqrt(s * s + 8.0 * abs(b)))
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
        w_s, w_i, eps = chi.w_s, chi.w_i, chi.eps
        b, c, beta = r * w_i * eps, 1.0 - r * w_s + r * w_i, r * w_s * eps
        omega, direction = solve(b, c, beta, 1.0 + r * (abs(w_s) * (1.0 + eps)
                                                        + abs(w_i)), tau)
        lam = 1j * omega
        e = np.exp(-tau * lam)
        alpha = np.angle((lam * lam + lam * (c + beta * e) + b * e)
                         / (b * e * (lam + 1.0)))
        return _Sample(float(kappa), chi, omega, direction, alpha)

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
    qc = q_critical(r, p, tau)
    if not q < qc:
        raise ValueError(f"q = {q!r} must be below q_c = {qc!r}")
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
    winding count at kappa = 0 plus twice the signed number of axis
    crossings below kappa (roots of this retarded equation enter the right
    half-plane only across the imaginary axis as kappa grows)."""
    qs = [float(v) for v in q_grid]
    ks = [float(v) for v in kappa_grid]
    if not all(k >= 0.0 for k in ks):
        raise ValueError("kappa grid values must be >= 0")
    counts = np.full((len(qs), len(ks)), -1, dtype=int)
    errors: list[tuple[int, str]] = []
    for i, q in enumerate(qs):
        try:
            base = count_unstable(_endemic_chareq_at(r, p, tau, q, 0.0, False),
                                  locate=False).unstable_count
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
    "CharEq", "char_eval", "disease_free_chareq", "endemic_chareq",
    "seiq_disease_free_chareq", "Box", "default_box", "SpectralReport",
    "count_unstable", "strong_spectrum_tau0", "AsymptoticSpectrum",
    "asymptotic_spectrum_tau0", "e0_hopf_bound", "HopfData",
    "hopf_sequence", "axis_crossings", "hopf_crossings", "hopf_kappa0",
    "StabilityMap", "stability_map",
]
