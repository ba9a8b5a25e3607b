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
