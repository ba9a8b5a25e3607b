"""Reference root counter: the argument principle on rectangular contours.

This is the second method ``siq.spectral.count_unstable`` (continuation
from a closed-form base) is checked against.  The winding number of chi,
deflated by lambda where the contour hugs the trivial zero root, is taken
on a rectangle with adaptive sampling: samples per side resolve the
2 pi/kappa eigenvalue comb, and are doubled until the rounded count is
stable three times.  A root on (or within rounding of) the contour raises
``ContourThroughZero`` after the contour is inflated and retried three
times; callers skip such points.  The default rectangle is a heuristic
extent, Re in [1e-8, max(10, r)], |Im| <= 20 pi, not a proven bound.

It also holds the second method the per-bracket float polish
``siq.spectral._axis_roots`` is checked against: ``axis_roots``, the same
grid, brackets and step rule run on all brackets at once as masked numpy
arrays; and ``kappa_leg_g``, F/omega^2 of the kappa leg expanded by hand,
which the generic axis routine (F from complex A - B and A + B) is
checked against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from siq.spectral import CharEq

TWO_PI = 2.0 * math.pi


class ContourThroughZero(Exception):
    """The counting contour passes through (or too close to) a root."""


class Box(NamedTuple):
    """Axis-aligned search rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float


def default_box(chareq: CharEq) -> Box:
    """Right-half-plane rectangle excluding the trivial zero root."""
    return Box(1e-8, max(10.0, chareq.r), -20.0 * math.pi, 20.0 * math.pi)


class _NearZero(Exception):
    """|chi| below threshold on the contour."""


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


def winding_count(chareq: CharEq, box: Box | None = None) -> int:
    """Roots of chi inside ``box`` (default: ``default_box``).

    With box.re_min <= 1e-4 the simple structural zero root sits inside or
    hugs the edge, so chi is deflated by lambda.  Raises
    ContourThroughZero when a root touches the contour through three
    inflations.
    """
    b = box or default_box(chareq)
    if b.re_min <= 1e-4:
        def f(lam):
            lam = np.asarray(lam, dtype=complex)
            return chareq(lam) / lam
    else:
        f = chareq

    n0 = _scaled_samples(b, chareq, 512)
    for attempt in range(4):
        try:
            return _winding(f, b, n0=n0)
        except _NearZero:
            pad = 1e-6 * (attempt + 1)
            re_min = b.re_min * 0.5 if b.re_min > 0 else b.re_min - pad
            b = Box(re_min, b.re_max + pad, b.im_min - pad, b.im_max + pad)
    raise ContourThroughZero(f"contour repeatedly hit roots on {b}")


def axis_roots(g, w_hi: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots omega in (0, w_hi) of g and the sign of g' there, as
    ``siq.spectral._axis_roots`` finds them, with every bracket polished
    at once: each step evaluates g on the whole array of brackets, closed
    ones included, and masks their updates."""
    grid = np.linspace(0.0, w_hi,
                       max(2048, math.ceil(64.0 * tau * w_hi / TWO_PI)))
    val = g(grid)
    pos = val > 0.0
    k = np.nonzero(pos[:-1] != pos[1:])[0]
    lo, hi, lo_pos = grid[k], grid[k + 1], pos[k]
    g_lo, g_hi = val[k], val[k + 1]
    ref = hi - lo                  # the width when it last halved
    stale = np.zeros(len(k), dtype=int)       # steps since then
    clamped = np.zeros(len(k))                # clamped steps in a row
    moved_lo = moved_hi = np.zeros(len(k), dtype=bool)
    while True:
        open_ = hi - lo > 2.0 * np.spacing(hi)
        if not open_.any():
            break
        fp = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        tol = np.minimum(np.spacing(hi) * 2.0 ** clamped, 0.5 * (hi - lo))
        x = np.clip(fp, lo + tol, hi - tol)
        clamped = np.where(x != fp, clamped + 1, 0.0)
        x = np.where(stale >= 3, 0.5 * (lo + hi), x)
        gx = g(x)
        to_lo = open_ & ((gx > 0.0) == lo_pos)
        to_hi = open_ & ~to_lo
        g_hi = np.where(to_lo & moved_lo, 0.5 * g_hi, g_hi)
        g_lo = np.where(to_hi & moved_hi, 0.5 * g_lo, g_lo)
        lo, g_lo = np.where(to_lo, x, lo), np.where(to_lo, gx, g_lo)
        hi, g_hi = np.where(to_hi, x, hi), np.where(to_hi, gx, g_hi)
        moved_lo, moved_hi = to_lo, to_hi
        halved = hi - lo <= 0.5 * ref
        ref = np.where(halved, hi - lo, ref)
        stale = np.where(halved, 0, stale + 1)
    keep = lo > 0.0
    return lo[keep], np.where(lo_pos, -1, 1)[keep]


def kappa_leg_g(b: float, c: float, beta: float, tau: float):
    """g = F/omega^2, F = |A(i omega)|^2 - |B(i omega)|^2, expanded by hand
    for chi = A + B e^{-kappa lam} at sigma = 0: A = lam^2 + lam (c +
    beta e) + b e, B = -b e (lam + 1), e = e^{-tau lam}, with
    b = r w_I eps, c = 1 - r w_S + r w_I and beta = r w_S eps."""
    def g(w):
        return (w * w + beta * beta + c * c - b * b
                + 2.0 * (beta * c - b) * np.cos(tau * w)
                - 2.0 * (b * c + beta * w * w) * tau
                * np.sinc(tau * w / math.pi))
    return g
