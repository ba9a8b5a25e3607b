"""Checks of ``siq`` artifacts against the oracles and method properties.

Every check takes an artifact as ``siq.cli.read_csv`` returns it --
``(meta, columns, rows)`` with string cells -- plus the scenario the job
was given, and returns a list of failure messages (empty: the artifact
passed).  Tolerances follow from the artifact format: ``siq`` writes 9
significant digits, so a value in [0, 1] carries a rounding error of at
most 5e-10.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

#: Rounding error of one written value in [0, 1].
DIGIT_ERR = 5e-10
#: Relative agreement of a written value with an oracle (9 digits).
REL_9_DIGITS = 1e-8


def _table(columns, rows) -> dict[str, np.ndarray]:
    data = np.array([[float(v) for v in row] for row in rows], dtype=float)
    data = data.reshape(len(rows), len(columns))
    return {c: data[:, k] for k, c in enumerate(columns)}


def _close(a: float, b: float, rel: float = REL_9_DIGITS) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# sweep: siq ipeak
# ---------------------------------------------------------------------------

def check_ipeak(artifact, kappas: list[float]) -> list[str]:
    """I_peak does not increase with kappa over the finite kappas, and no
    peak lies below the permanent-isolation (kappa = inf) peak."""
    _, columns, rows = artifact
    t = _table(columns, rows)
    got = sorted(t["kappa"].tolist())
    if got != sorted(kappas):
        return [f"kappa column {got} is not the requested {sorted(kappas)}"]
    peak = dict(zip(t["kappa"].tolist(), t["I_peak"].tolist()))
    finite = sorted(k for k in peak if math.isfinite(k))
    errs = [f"I_peak rises from kappa={a} ({peak[a]!r}) to kappa={b} "
            f"({peak[b]!r})"
            for a, b in zip(finite, finite[1:]) if peak[b] > peak[a] + 1e-9]
    if math.inf in peak:
        floor = peak[math.inf]
        errs += [f"I_peak({k}) = {v!r} below the kappa=inf peak {floor!r}"
                 for k, v in peak.items() if v < floor - 1e-9]
    return errs


# ---------------------------------------------------------------------------
# trajectory: siq simulate
# ---------------------------------------------------------------------------

def check_mass(artifact) -> list[str]:
    """Every row's compartments sum to 1 within the written precision."""
    _, columns, rows = artifact
    t = _table(columns, rows)
    comps = [c for c in ("S", "E", "I", "Q") if c in t]
    total = sum(t[c] for c in comps)
    tol = len(comps) * DIGIT_ERR + 1e-12
    bad = np.nonzero(np.abs(total - 1.0) > tol)[0]
    return [f"row t={t['t'][k]!r}: {'+'.join(comps)} = {total[k]!r}"
            for k in bad[:3]]


def check_logistic(artifact, r: float, p: float, i0: float) -> list[str]:
    """At tau = kappa = 0 the run follows the logistic closed form."""
    errs = check_mass(artifact)
    _, columns, rows = artifact
    t = _table(columns, rows)
    gap = np.abs(t["I"] - oracles.logistic_infected(r, p, i0, t["t"]))
    if gap.max() > 1e-9:
        errs.append(f"I departs from the logistic by {gap.max():.3e} "
                    f"at t={t['t'][int(gap.argmax())]!r}")
    return errs


def check_endemic_end(artifact, r: float, p: float, tau: float,
                      kappa: float) -> list[str]:
    """The run ends within 1e-6 of the closed-form endemic point of the
    leaf q = 0."""
    errs = check_mass(artifact)
    _, columns, rows = artifact
    t = _table(columns, rows)
    want = oracles.endemic_leaf_zero(r, p, tau, kappa)
    got = (t["S"][-1], t["I"][-1], t["Q"][-1])
    gap = max(abs(a - b) for a, b in zip(got, want))
    if gap > 1e-6:
        errs.append(f"end state {got} is {gap:.3e} from the q=0 point {want}")
    return errs


def amplitude_ratio(artifact) -> float:
    """amp[800, 1200] / amp[400, 800] of I, amp being max - min."""
    _, columns, rows = artifact
    t = _table(columns, rows)
    ts, i = t["t"], t["I"]
    first = i[(ts >= 400.0) & (ts <= 800.0)]
    second = i[(ts >= 800.0) & (ts <= 1200.0)]
    return float(np.ptp(second) / np.ptp(first))


def check_tail(artifact, converges: bool) -> list[str]:
    """Below the Hopf point the oscillation dies (ratio < 0.5); above it
    the oscillation persists (ratio >= 0.9)."""
    errs = check_mass(artifact)
    ratio = amplitude_ratio(artifact)
    if converges and not ratio < 0.5:
        errs.append(f"tail amplitude ratio {ratio:.4f} is not below 0.5")
    if not converges and not ratio >= 0.9:
        errs.append(f"tail amplitude ratio {ratio:.4f} is below 0.9")
    return errs


# ---------------------------------------------------------------------------
# spectra: siq hopf, siq stability-map, siq spectrum
# ---------------------------------------------------------------------------

def check_hopf(artifact, r: float, p: float, tau: float, q: float,
               kappa_max: float) -> list[str]:
    """kappa_0, omega and the cascade rows agree with the crossing solve."""
    meta, columns, rows = artifact
    first = [c for c in oracles.crossings(r, p, tau, q, kappa_max)
             if c[2] > 0]
    if not first:
        return ["the crossing solve finds no destabilizing crossing"]
    k0, w0, _ = first[0]
    if meta.get("found") != "True":
        return [f"no Hopf point reported; the crossing solve has {k0!r}"]
    errs = []
    if not _close(float(meta["kappa_0"]), k0):
        errs.append(f"kappa_0 = {meta['kappa_0']} against {k0!r}")
    if not _close(float(meta["omega"]), w0):
        errs.append(f"omega = {meta['omega']} against {w0!r}")
    t = _table(columns, rows)
    want = oracles.crossing_kappas(r, p, tau, q, w0, len(rows) - 1)
    for m, got, ref in zip(t["m"], t["kappa_m"], want):
        if not _close(got, ref):
            errs.append(f"kappa_{int(m)} = {got!r} against {ref!r}")
    return errs


def check_stability_map(artifact, r: float, p: float, tau: float,
                        margin: float) -> list[str]:
    """Each cell farther than ``margin`` from every crossing kappa_m(q)
    holds twice the signed number of crossings below it."""
    meta, columns, rows = artifact
    if meta.get("unknown_cells") != "0":
        return [f"{meta.get('unknown_cells')} cells have no count"]
    t = _table(columns, rows)
    errs = []
    k_max = float(t["kappa"].max())
    by_q = {q: oracles.crossings(r, p, tau, q, k_max + 1.0)
            for q in sorted(set(t["q"].tolist()))}
    for q, kappa, count in zip(t["q"], t["kappa"], t["unstable_count"]):
        cross = by_q[q]
        if any(abs(kappa - k) <= margin for k, _, _ in cross):
            continue
        want = 2 * sum(s for k, _, s in cross if k < kappa)
        if int(count) != want:
            errs.append(f"cell q={q!r} kappa={kappa!r}: count {int(count)}, "
                        f"crossings give {want}")
    return errs


def check_disease_free(artifact, r: float, p: float, tau: float,
                       q: float) -> list[str]:
    """Above q_c no root is unstable; below it exactly one is, and it is
    the real root of lam + 1 = r(1 - q)(1 - eps e^{-tau lam})."""
    meta, columns, rows = artifact
    count = int(meta["unstable_count"])
    if q > oracles.q_critical(r, p, tau):
        return [] if count == 0 and not rows else [
            f"{count} unstable roots above q_c"]
    if count != 1 or len(rows) != 1:
        return [f"{count} unstable roots ({len(rows)} located) below q_c, "
                "expected 1"]
    t = _table(columns, rows)
    want = oracles.disease_free_real_root(r, p, tau, q)
    errs = []
    if abs(t["root_im"][0]) > DIGIT_ERR:
        errs.append(f"the unstable root has Im = {t['root_im'][0]!r}")
    if not _close(t["root_re"][0], want):
        errs.append(f"root {t['root_re'][0]!r} against {want!r}")
    return errs


# ---------------------------------------------------------------------------
# network: siq network
# ---------------------------------------------------------------------------

def check_network(artifact, i0_frac: float, tau_days: float) -> list[str]:
    """Rows sum to 1; the run starts from the seeded state; nothing is in
    Q before tau (initial infected are never isolated)."""
    meta, columns, rows = artifact
    t = _table(columns, rows)
    total = t["S_frac"] + t["I_frac"] + t["Q_frac"]
    errs = [f"row t={t['t_days'][k]!r} sums to {total[k]!r}"
            for k in np.nonzero(np.abs(total - 1.0) > 3 * DIGIT_ERR)[0][:3]]
    n = int(meta["n"])
    i_start = max(1, round(i0_frac * n)) / n
    if abs(t["I_frac"][0] - i_start) > DIGIT_ERR or t["Q_frac"][0] != 0.0:
        errs.append(f"first row I={t['I_frac'][0]!r} Q={t['Q_frac'][0]!r}, "
                    f"expected I={i_start!r} Q=0")
    early = t["Q_frac"][t["t_days"] < tau_days]
    if np.any(early != 0.0):
        errs.append("nodes are isolated before tau")
    return errs


def check_pure_death(artifact, gamma: float, seeds: int, i0_frac: float,
                     fail_prob: float = 1e-9) -> list[str]:
    """With beta = 0 the averaged I(t)/I(0) is the empirical survival
    function of n0*seeds exponential lifetimes: it stays in the DKW band
    around e^{-gamma t}."""
    errs = check_network(artifact, i0_frac, math.inf)
    meta, columns, rows = artifact
    t = _table(columns, rows)
    n0 = int(meta["initial_infected"])
    band = oracles.dkw_band(n0 * seeds, fail_prob)
    gap = np.abs(t["I_frac"] / t["I_frac"][0]
                 - oracles.pure_death(gamma, t["t_days"]))
    if gap.max() > band:
        errs.append(f"I/I0 leaves the e^(-gamma t) band by {gap.max():.4f} "
                    f"> {band:.4f}")
    return errs
