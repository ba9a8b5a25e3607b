"""Characteristic quasi-polynomials of the equilibria, unstable root counts
by continuation, root location by collocation, and Hopf points in the
isolation time by D-subdivision.

One chi serves every equilibrium (w_S, w_I) of the SEIQ system, the SIQ
model being sigma = 0.  Its structural zero root is simple.  Divided by
it, chi at sigma = kappa = 0 is lam + a + b e^{-tau lam}, whose unstable
count is closed form (Hayes 1950).  The equations are retarded, so roots
then move into or out of Re > 0 only across the imaginary axis, first as
kappa grows at sigma = 0, then as sigma grows.  On both legs
chi = A + B e^{-s lam} in the leg's delay s, and a crossing, where
|A| = |B|, moves the count by 2 sign F'(omega), F = |A|^2 - |B|^2.  Roots
are located by a Chebyshev collocation of the linearized system,
Newton-polished on chi, refined until they number exactly the count.  The
large-kappa spectrum is the same count at that kappa: kappa Re lam of the
rightmost roots tends to max -log|A(i omega)/B(i omega)| (Lichtner,
Wolfrum & Yanchuk 2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (InvalidFractions, NumericalError, finite_nonnegative,
                     fractions)
from .equilibria import _NO_ENDEMIC, endemic_point, q_critical
from .siq_model import ModelParams

TWO_PI = 2.0 * math.pi


def _one_minus_exp(z):
    """1 - exp(-z), accurate for small |z| (complex, vectorized)."""
    z = np.asarray(z)
    rot = np.exp(-1j * z.imag)
    # assembled as 1 - e^{-x}e^{-iy} = (1 - e^{-iy}) + e^{-iy}(1 - e^{-x})
    return (1 - rot) - np.expm1(-z.real) * rot


@dataclass(frozen=True)
class CharEq:
    """Characteristic function chi(lambda) at the equilibrium (w_S, w_I):
    the determinant of the (S, I) block of the SEIQ system linearized
    there.  With u = e^{-sigma lam}, v = e^{-tau lam}, k = e^{-kappa lam}:

        chi = lam*(lam + 1 - r*w_S*u*(1 - eps*v) + r*w_I*(1 - eps*u*v*k))
              + r*w_I*((1 - u) + eps*u*v*(1 - k))

    E and Q feed no right-hand side, so the full determinant is lam^2 chi.
    sigma = 0 is the SIQ model.  chi(0) = 0 exactly, a simple structural
    zero root.
    """

    r: float
    eps: float
    tau: float
    kappa: float
    w_s: float
    w_i: float
    sigma: float = 0.0

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        du = _one_minus_exp(self.sigma * lam)               # 1 - u
        dk = _one_minus_exp(self.kappa * lam)               # 1 - k
        uv = (1.0 - du) * np.exp(-self.tau * lam)
        lin = (lam + 1.0
               - self.r * self.w_s * (1.0 - du - self.eps * uv)
               + self.r * self.w_i * (1.0 - self.eps * uv * (1.0 - dk)))
        return lam * lin + self.r * self.w_i * (du + self.eps * uv * dk)


def disease_free_chareq(params: ModelParams, q: float,
                        eta: float = 0.0) -> CharEq:
    """Linearization at the disease-free point with E-component eta and
    Q-component q: (1-eta-q, eta, 0, q), the SIQ point (1-q, 0, q) at
    sigma = 0 and eta = 0."""
    fractions(eta=eta, q=q)
    return CharEq(r=params.r, eps=params.eps, tau=params.tau,
                  kappa=params.kappa, w_s=1.0 - eta - q, w_i=0.0,
                  sigma=params.sigma)


def endemic_chareq(params: ModelParams, q: float, eta: float = 0.0) -> CharEq:
    """Linearization at the endemic point with E-component eta and
    Q-component q: (1 - q_c, eta, q_c - q - eta, q), the SIQ point
    (1 - q_c, q_c - q, q) at sigma = 0 and eta = 0.  It needs q, eta >= 0
    and q + eta < q_c (w_I > 0), hence q_c > 0, i.e. R_eff(0) > 1."""
    fractions(eta=eta, q=q)
    qc = q_critical(params.r, params.p, params.tau)
    if not qc > 0.0:
        raise InvalidFractions(_NO_ENDEMIC.format(qc))
    if not q + eta < qc:
        raise InvalidFractions(f"endemic leaf q = {q!r}, eta = {eta!r} must "
                               f"sum below q_c = {qc!r}: w_I <= 0")
    return CharEq(r=params.r, eps=params.eps, tau=params.tau,
                  kappa=params.kappa, w_s=1.0 - qc, w_i=qc - q - eta,
                  sigma=params.sigma)


@dataclass(frozen=True)
class SpectralReport:
    """unstable_count = base + 2 * crossings: the closed-form count at
    sigma = kappa = 0 and the signed axis crossings below kappa at
    sigma = 0, then below sigma.  ``roots`` (Re > 0) come from collocation
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
    """Unstable roots of chi/lam = lam + a + b e^{-tau lam} at
    sigma = kappa = 0, c = r(w_S - w_I), a = 1 - c, b = c eps (Hayes
    1950): the root -(a + b) of tau = 0 if negative, plus a pair crossing
    rightward at each (theta + 2 pi k)/omega < tau when |b| > |a|, with
    omega = sqrt(b^2 - a^2), theta in (0, 2 pi], cos theta = -a/b and
    sin theta = omega/b."""
    c = chareq.r * (chareq.w_s - chareq.w_i)
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


def _continuation(chareq: CharEq) -> tuple[int, int]:
    """(base, signed crossings): the count at sigma = kappa = 0, continued
    in kappa at sigma = 0 and then in sigma at the chareq's own kappa."""
    r, eps, w_i = chareq.r, chareq.eps, chareq.w_i
    # chi'(0) is affine in kappa and in sigma, and a real root crossing at
    # lam = 0 is invisible to the axis frequencies omega > 0
    g0 = 1.0 - r * (chareq.w_s - w_i) * (1.0 - eps)
    corners = (g0, g0 + r * w_i * eps * chareq.kappa,
               g0 + r * w_i * (chareq.sigma + eps * chareq.kappa))
    if len({c > 0.0 for c in corners}) > 1:
        raise NumericalError(f"a real root crosses 0 at {chareq}")
    return _base_count(chareq), sum(
        _signed_crossings(*_axis_branches(leg), top) for leg, top in zip(
            _legs(chareq), (chareq.kappa, chareq.sigma)) if top > 0.0)


# ---------------------------------------------------------------------------
# root location: Chebyshev collocation of the linearized system
# ---------------------------------------------------------------------------

#: Largest collocation size before location gives up.
MAX_COLLOCATION_N = 512


def _delay_terms(chareq: CharEq) -> list[tuple[float, np.ndarray]]:
    """(delay, A_k) of x' = sum_k A_k x(t - d_k), the system linearized at
    the equilibrium, with d Phi = r (w_I dS + w_S dI).

    Without infected (w_I = 0) S and E decouple and carry the trivial
    roots, so the I equation alone,
    I' = -I + r w_S I(t - sigma) - eps r w_S I(t - sigma - tau), has
    characteristic function chi/lam.  Otherwise (S, I) obeys
    S' = -dPhi + I + eps dPhi(t - sigma - tau - kappa),
    I' = dPhi(t - sigma) - I - eps dPhi(t - sigma - tau), whose
    determinant is chi.
    """
    r, eps, tau, sigma = chareq.r, chareq.eps, chareq.tau, chareq.sigma
    if chareq.w_i == 0.0:
        rw = r * chareq.w_s
        return [(0.0, np.array([[-1.0]])), (sigma, np.array([[rw]])),
                (sigma + tau, np.array([[-eps * rw]]))]
    f = r * np.array([chareq.w_i, chareq.w_s])
    zero = np.zeros(2)
    return [(0.0, np.array([-f, zero]) + np.array([[0.0, 1.0], [0.0, -1.0]])),
            (sigma, np.array([zero, f])),
            (sigma + tau, -eps * np.array([zero, f])),
            (sigma + tau + chareq.kappa, eps * np.array([f, zero]))]


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
    w_i = abs(chareq.w_i)
    rho = 1.0 + chareq.r * ((abs(chareq.w_s) + w_i) * (1.0 + chareq.eps)
                            + w_i * chareq.eps * min(chareq.kappa, 2.0))
    terms = _delay_terms(chareq)
    span = max(delay for delay, _ in terms)
    n = min(max(8, math.ceil(rho * span / 6.0)), MAX_COLLOCATION_N)
    while True:
        ev = _collocation_eigvals(terms, n)
        lam, resid = _polish(lambda z: chareq(z) / z,
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
                f"Re > 0, continuation counts {count}, at {chareq}")
        n = min(2 * n, MAX_COLLOCATION_N)


def count_unstable(chareq: CharEq, *, locate: bool = True) -> SpectralReport:
    """Roots of chi with Re > 0, the structural zero root excluded: the
    closed-form base continued through the signed axis crossings below
    the chareq's own kappa at sigma = 0, then below its own sigma.  With
    ``locate`` the roots are found by collocation and must number the
    count, else NumericalError names the point."""
    base, crossings = _continuation(chareq)
    count = base + 2 * crossings
    if count < 0:
        raise NumericalError(f"negative count {count} at {chareq}")
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
# Hopf detection in kappa: D-subdivision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfData:
    """Root pair +-i*omega on the imaginary axis at kappa = kappa_0, with
    direction = sign Re dlambda/dkappa there (+1: the pair enters Re > 0)
    and residual = |chi(i omega)|."""

    kappa_0: float
    omega: float
    direction: int
    residual: float


def _axis_roots(g, w_hi: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots omega in (0, w_hi) of g and the sign of g' there: sign changes
    of g > 0 on >= 64 points per 2 pi/tau, each bracket then polished on
    its own, in floats, by Illinois false position from the grid values at
    its ends, until it is at most 2 ulp wide; omega is its left end.

    A step lands at least tol inside the bracket, tol doubling from 1 ulp
    while steps keep being clamped: that walks out of a stretch where g
    rounds to 0.  A bracket that three steps have not halved is bisected,
    so each halving costs at most 4 calls of g.  g is called once on the
    grid and then on one float per step; without a sign change it is
    called once.
    """
    grid = np.linspace(0.0, w_hi,
                       max(2048, math.ceil(64.0 * tau * w_hi / TWO_PI)))
    val = g(grid)
    pos = val > 0.0
    omega, direction = [], []
    for k in np.nonzero(pos[:-1] != pos[1:])[0].tolist():
        lo, hi, lo_pos = float(grid[k]), float(grid[k + 1]), bool(pos[k])
        g_lo, g_hi = float(val[k]), float(val[k + 1])
        ref = hi - lo              # the width when it last halved
        stale = clamped = 0        # steps since then; clamped steps in a row
        moved_lo = moved_hi = False
        while hi - lo > 2.0 * math.ulp(hi):
            # g_lo and g_hi lie in opposite classes, so they differ
            fp = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            tol = min(math.ulp(hi) * 2.0 ** clamped, 0.5 * (hi - lo))
            x = min(max(fp, lo + tol), hi - tol)
            clamped = clamped + 1 if x != fp else 0
            if stale >= 3:
                x = 0.5 * (lo + hi)
            gx = float(g(x))
            # Illinois: an end that moves twice in a row halves the other's g
            if (gx > 0.0) == lo_pos:
                if moved_lo:
                    g_hi *= 0.5
                lo, g_lo, moved_lo, moved_hi = x, gx, True, False
            else:
                if moved_hi:
                    g_lo *= 0.5
                hi, g_hi, moved_lo, moved_hi = x, gx, False, True
            if hi - lo <= 0.5 * ref:
                ref, stale = hi - lo, 0
            else:
                stale += 1
        if lo > 0.0:
            omega.append(lo)
            direction.append(-1 if lo_pos else 1)
    return np.array(omega, dtype=float), np.array(direction, dtype=int)


def _axis_branches(rows: tuple):
    """Axis frequencies of chi = A + B e^{-s lam} in a delay s, where
    A = lam^2 + sum (a0 + a1 lam) e, B = sum (b0 + b1 lam) e, e = e^{-d lam}
    over rows (d, a0, a1, b0, b1) free of s, the a0 and b0 summing to 0:
    the roots omega > 0 of F = |A(i omega)|^2 - |B(i omega)|^2, the signs
    of F' there (+1: a pair enters Re > 0 as s grows) and alpha = arg(-A/B)
    at each (Cooke & van den Driessche 1986).

    The roots are those of g = F/omega^2 = Re((A - B) conj(A + B))/omega^2,
    g(0) its limit.  A + B is O(omega), summed as lam^2 + sum ((a1 + b1)
    lam e + (a0 + b0)(e - 1)) with e - 1 from expm1, so g keeps the digits
    of its terms.  On the axis |A| >= omega^2 - sum (|a0| + |a1| omega)
    and |B| <= sum (|b0| + |b1| omega): F > 0 past the positive root of
    omega^2 - P1 omega - P0, P1 = sum |a1| + |b1|, P0 = sum |a0| + |b0|."""
    rows = tuple(row for row in rows if any(row[1:]))
    if not any(row[3] or row[4] for row in rows):  # chi is free of s
        return np.empty(0), np.empty(0, dtype=int), np.empty(0)
    # g(0) = D1 S1 - D0 S2, Taylor coefficients at 0 of D = A - B, S = A + B
    d0, d1, s1, s2 = map(sum, zip(*((
        a0 - b0, a1 - b1 - d * (a0 - b0), a1 + b1 - d * (a0 + b0),
        d * (0.5 * d * (a0 + b0) - a1 - b1)) for d, a0, a1, b0, b1 in rows)))
    g0 = d1 * s1 - d0 * (1.0 + s2)

    def at(w):                     # A - B and A + B at i w
        lam = 1j * w
        diff = total = lam * lam
        for d, a0, a1, b0, b1 in rows:
            e = np.exp(-d * lam) if d else 1.0
            diff = diff + (a0 - b0 + (a1 - b1) * lam) * e
            total = total + (a1 + b1) * lam * e
            if d and a0 + b0:
                total = total + (a0 + b0) * np.expm1(-d * lam)
        return diff, total

    def g(w):
        diff, total = at(w)
        f = diff.real * total.real + diff.imag * total.imag
        if isinstance(w, float):   # one polish step
            return f / w / w if w else g0      # w * w may underflow
        return np.where(w == 0.0, g0, f / np.where(w == 0.0, 1.0, w * w))

    p0, p1 = (sum(abs(row[k]) + abs(row[k + 2]) for row in rows)
              for k in (1, 2))
    omega, direction = _axis_roots(g, 0.5 * (p1 + math.sqrt(p1 * p1 + 4 * p0)),
                                   max(row[0] for row in rows))
    diff, total = at(omega)
    return omega, direction, np.angle((total + diff) / (diff - total))


def _legs(chi: CharEq) -> tuple[tuple, tuple]:
    """The rows of chi = A + B e^{-s lam} on the two legs of the path, with
    v = e^{-tau lam}, k = e^{-kappa lam}.  In s = kappa at sigma = 0:
    A = lam^2 + (1 - r w_S + r w_I) lam + r eps (w_I + w_S lam) v and
    B = -r w_I eps (1 + lam) v.  In s = sigma at chi's kappa:
    A = lam (lam + 1 + r w_I) + r w_I and B = -lam r w_S (1 - eps v)
    - lam r w_I eps v k - r w_I (1 - eps v (1 - k))."""
    rs, ri, e, tau = chi.r * chi.w_s, chi.r * chi.w_i, chi.eps, chi.tau
    return (((0.0, 0.0, 1.0 - rs + ri, 0.0, 0.0),
             (tau, ri * e, rs * e, -ri * e, -ri * e)),
            ((0.0, ri, 1.0 + ri, -ri, -rs), (tau, 0.0, 0.0, ri * e, rs * e),
             (tau + chi.kappa, 0.0, 0.0, -ri * e, -ri * e)))


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
    when |chi(i omega)| > 1e-10 at a crossing, ValueError unless
    kappa_max is finite and >= 0.
    """
    finite_nonnegative(kappa_max, "kappa_max")
    checked = endemic_chareq(ModelParams(r, p, tau, 0.0), q)  # checked once
    return _crossings(checked, kappa_max,
                      (r, p, tau, q) if track_leaf else None)


def _crossings(checked: CharEq, kappa_max: float,
               leaf: tuple[float, float, float, float] | None) -> list[HopfData]:
    """``axis_crossings`` of the checked endemic chi ``checked``: at its
    fixed point, or re-read at each kappa from ``leaf`` = (r, p, tau, q)."""
    # the kappa leg is free of kappa: a fixed equilibrium solves it once
    fixed = None if leaf else _axis_branches(_legs(checked)[0])

    def at_kappa(kappa: float) -> _Sample:
        chi = replace(checked, kappa=float(kappa))
        if leaf:
            r, p, tau, q = leaf
            chi = replace(chi, w_i=endemic_point(
                ModelParams(r, p, tau, chi.kappa), q).v_I)
        return _Sample(chi.kappa, chi,
                       *(fixed or _axis_branches(_legs(chi)[0])))

    steps = max(1, math.ceil(kappa_max / 0.25)) if leaf else 1
    samples = [at_kappa(k) for k in np.linspace(0.0, kappa_max, steps + 1)]
    return sorted((c for s0, s1 in zip(samples, samples[1:])
                   for c in _interval_crossings(at_kappa, s0, s1)),
                  key=lambda c: c.kappa_0)


def hopf_crossings(r: float, p: float, tau: float, q: float,
                   kappa_max: float, *, max_crossings: int = 1,
                   track_leaf: bool = False) -> list[HopfData]:
    """The first ``max_crossings`` destabilizing crossings (+2 jumps of the
    unstable count) with kappa <= kappa_max, at the fixed equilibrium of
    leaf q or, with ``track_leaf``, at the point re-read from leaf q at
    each kappa (the outbreak-scenario destabilization).  A leaf outside
    0 <= q < q_c raises InvalidFractions before any kappa is sampled."""
    return [c for c in axis_crossings(r, p, tau, q, kappa_max,
                                      track_leaf=track_leaf)
            if c.direction > 0][:max_crossings]


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
    half-plane only across the imaginary axis as kappa grows).  Invalid
    (r, p, tau) raise ValueError; a q-row whose count fails numerically
    is recorded in ``errors``."""
    params = ModelParams(r=r, p=p, tau=tau, kappa=0.0)
    qs = [float(v) for v in q_grid]
    ks = [finite_nonnegative(v, "kappa") for v in kappa_grid]
    # every leaf is checked once, before any row is counted
    checked = [endemic_chareq(params, q) for q in qs]
    bases = [_base_count(chi) for chi in checked]
    counts = np.full((len(qs), len(ks)), -1, dtype=int)
    errors: list[tuple[int, str]] = []
    for i, (q, chi, base) in enumerate(zip(qs, checked, bases)):
        try:
            cross = _crossings(chi, max(ks, default=0.0), None)
            row = [base + 2 * sum(c.direction for c in cross if c.kappa_0 < k)
                   for k in ks]
            if min(row, default=0) < 0:
                raise NumericalError(f"negative counts {row} at q={q!r}")
            counts[i] = row
        except NumericalError as exc:
            errors.append((i, f"{type(exc).__name__}: {exc}"))
    return StabilityMap(q_grid=tuple(qs), kappa_grid=tuple(ks),
                        counts=counts, errors=tuple(errors))


__all__ = [
    "CharEq", "disease_free_chareq", "endemic_chareq", "SpectralReport",
    "count_unstable", "HopfData",
    "axis_crossings", "hopf_crossings",
    "StabilityMap", "stability_map",
]
