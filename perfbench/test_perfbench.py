"""Tests of the benchmark's oracles and artifact checks.

    python3 -m pytest -q perfbench

Each oracle is checked against its own defining equation; each check is
shown to pass on an artifact built from the oracles and written with 9
significant digits, as ``siq`` writes them, and to fail once the artifact
is perturbed.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

#: The spectra workload's Hopf points and the paper-scale ones.
CROSSING_POINTS = workloads.HOPF_POINTS + (
    (2.5, 0.5, 0.0, 0.0), (2.5, 0.5, 0.0, 0.1), (3.0, 0.6, 0.3, 0.05))


def fmt(x) -> str:
    return format(x, ".9g") if isinstance(x, float) else str(x)


def artifact(columns, rows, **meta):
    return ({k: fmt(v) for k, v in meta.items()}, list(columns),
            [[fmt(float(v)) for v in row] for row in rows])


# ---------------------------------------------------------------------------
# oracles against their defining equations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("point", CROSSING_POINTS)
def test_crossings_are_roots_of_chi(point):
    found = oracles.crossings(*point, kappa_max=40.0)
    assert found and found[0][2] == 1
    for kappa, omega, _ in found:
        assert abs(oracles.chi(*point, kappa, 1j * omega)) <= 1e-10


def test_crossing_solve_matches_documented_values():
    # kappa_0 and Omega of the (2.5, 0.5, 0, q) family, q = 0 and 0.1
    k0, w0, _ = oracles.crossings(2.5, 0.5, 0.0, 0.0, 12.0)[0]
    assert k0 == pytest.approx(8.948101278054, abs=1e-9)
    assert w0 == pytest.approx(0.5590169944, abs=1e-9)
    assert oracles.crossings(2.5, 0.5, 0.0, 0.1, 12.0)[0][0] == \
        pytest.approx(10.0501776, abs=1e-6)


def test_crossing_direction_matches_root_motion():
    # the root on the axis at kappa_0 moves right as kappa grows
    r, p, tau, q = workloads.HOPF_POINTS[0]
    k0, w0, sign = oracles.crossings(r, p, tau, q, 10.0)[0]
    dk = 1e-6
    lam = 1j * w0
    for _ in range(50):       # Newton on chi(., k0 + dk)
        d = 1e-7
        f = oracles.chi(r, p, tau, q, k0 + dk, lam)
        df = (oracles.chi(r, p, tau, q, k0 + dk, lam + d) - f) / d
        lam = lam - f / df
    assert sign == 1 and lam.real > 0


def test_unstable_count_steps_by_two_at_each_crossing():
    r, p, tau, q = workloads.HOPF_POINTS[0]
    ks = [k for k, _, _ in oracles.crossings(r, p, tau, q, 15.0)]
    assert [oracles.unstable_count(r, p, tau, q, k + 1e-3)
            for k in ks] == [2 * (m + 1) for m in range(len(ks))]
    assert oracles.unstable_count(r, p, tau, q, ks[0] - 1e-3) == 0


def test_logistic_solves_its_ode():
    r, p, i0 = 2.5, 0.5, 0.01
    rp = r * (1 - p)
    t = np.linspace(0.0, 60.0, 601)
    i = oracles.logistic_infected(r, p, i0, t)
    h = 1e-5
    di = (oracles.logistic_infected(r, p, i0, t + h)
          - oracles.logistic_infected(r, p, i0, t - h)) / (2 * h)
    assert i[0] == pytest.approx(i0, rel=1e-15)
    assert np.max(np.abs(di - (rp * i * (1 - i) - i))) < 1e-9


@pytest.mark.parametrize("kappa", [0.0, 1.0, 5.0, 14.5])
def test_endemic_leaf_zero_is_an_equilibrium_on_leaf_zero(kappa):
    r, p, tau = 2.5, 0.5, 0.5
    eps = p * math.exp(-tau)
    s, i, q = oracles.endemic_leaf_zero(r, p, tau, kappa)
    assert -r * s * i + i + r * eps * s * i == pytest.approx(0.0, abs=1e-15)
    # the isolated mass is the isolation inflow held for kappa
    assert q == pytest.approx(r * eps * s * i * kappa, abs=1e-15)
    # H = 1 - S - I + kappa (1 - r S) I vanishes on the leaf q = 0
    assert 1 - s - i + kappa * (1 - r * s) * i == pytest.approx(0.0,
                                                                abs=1e-15)


def test_pure_death_and_dkw_band():
    t = np.linspace(0.0, 5.0, 11)
    assert oracles.pure_death(1.0, 0.0) == 1.0
    h = 1e-6
    d = (oracles.pure_death(2.0, t + h) - oracles.pure_death(2.0, t - h)) / (2 * h)
    assert np.allclose(d, -2.0 * oracles.pure_death(2.0, t), atol=1e-8)
    band = oracles.dkw_band(1000, 1e-9)
    assert 2 * math.exp(-2 * 1000 * band ** 2) == pytest.approx(1e-9)


def test_disease_free_root_solves_its_factor():
    r, p, tau, q = 2.5, 0.5, 0.5, 0.05
    lam = oracles.disease_free_real_root(r, p, tau, q)
    eps = p * math.exp(-tau)
    assert lam > 0
    assert lam + 1 - r * (1 - q) * (1 - eps * math.exp(-tau * lam)) == \
        pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# each check passes on an oracle-built artifact and fails once perturbed
# ---------------------------------------------------------------------------

KAPPAS = [0.0, 1.0, 2.0, 5.0, 10.0, 25.0, math.inf]
PEAKS = [0.42589, 0.29673, 0.22769, 0.19664, 0.19664, 0.19664, 0.19664]


def test_ipeak_check_catches_swapped_peaks():
    good = artifact(["kappa", "I_peak"], zip(KAPPAS, PEAKS))
    assert checks.check_ipeak(good, KAPPAS) == []
    swapped = PEAKS[:]
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert checks.check_ipeak(artifact(["kappa", "I_peak"],
                                       zip(KAPPAS, swapped)), KAPPAS)
    below = PEAKS[:-1] + [PEAKS[-1] + 1e-6]
    assert checks.check_ipeak(artifact(["kappa", "I_peak"],
                                       zip(KAPPAS, below)), KAPPAS)


def _logistic_rows(r=2.5, p=0.5, i0=0.01, t_end=100.0):
    t = np.linspace(0.0, t_end, 1001)
    i = oracles.logistic_infected(r, p, i0, t)
    return [[a, 1.0 - b, b, 0.0] for a, b in zip(t, i)]


def test_mass_and_logistic_checks_catch_a_row_off_by_1e7():
    rows = _logistic_rows()
    good = artifact(["t", "S", "I", "Q"], rows)
    assert checks.check_logistic(good, 2.5, 0.5, 0.01) == []
    rows[500][1] += 1e-7
    assert checks.check_mass(artifact(["t", "S", "I", "Q"], rows))
    rows = _logistic_rows()
    rows[500][2] += 1e-7
    rows[500][1] -= 1e-7
    assert checks.check_logistic(artifact(["t", "S", "I", "Q"], rows),
                                 2.5, 0.5, 0.01)


def test_endemic_end_check_catches_a_shifted_end_state():
    s, i, q = oracles.endemic_leaf_zero(2.5, 0.5, 0.5, 5.0)
    rows = [[399.0, s, i, q], [400.0, s, i, q]]
    assert checks.check_endemic_end(artifact(["t", "S", "I", "Q"], rows),
                                    2.5, 0.5, 0.5, 5.0) == []
    rows[-1] = [400.0, s - 2e-6, i + 2e-6, q]
    assert checks.check_endemic_end(artifact(["t", "S", "I", "Q"], rows),
                                    2.5, 0.5, 0.5, 5.0)


def _oscillation(decay):
    t = np.arange(0.0, 1200.05, 0.1)
    i = 0.1 + 0.01 * np.exp(-decay * t) * np.sin(0.5 * t)
    return artifact(["t", "S", "I", "Q"],
                    [[a, 0.8, b, 0.1 - (b - 0.1)] for a, b in zip(t, i)])


def test_tail_check_separates_dying_and_lasting_oscillations():
    dying, lasting = _oscillation(math.log(4) / 400), _oscillation(0.0)
    assert checks.check_tail(dying, converges=True) == []
    assert checks.check_tail(lasting, converges=False) == []
    assert checks.check_tail(dying, converges=False)
    assert checks.check_tail(lasting, converges=True)


def _hopf_artifact(point, shift=0.0, m_max=3):
    k0, w0, _ = oracles.crossings(*point, 20.0)[0]
    rows = [(m, k0 + shift + 2 * math.pi * m / w0) for m in range(m_max + 1)]
    return artifact(["m", "kappa_m"], rows, found="True", kappa_0=k0 + shift,
                    omega=w0)


@pytest.mark.parametrize("point", workloads.HOPF_POINTS)
def test_hopf_check_catches_kappa0_shifted_by_1e6(point):
    assert checks.check_hopf(_hopf_artifact(point), *point, 20.0) == []
    assert checks.check_hopf(_hopf_artifact(point, 1e-6), *point, 20.0)


def _map_rows():
    m = workloads.MAP
    rows = []
    for q in np.linspace(m["q_min"], m["q_max"], m["q_steps"]):
        for k in np.linspace(m["kappa_min"], m["kappa_max"],
                             m["kappa_steps"]):
            count = oracles.unstable_count(m["r"], m["p"], m["tau"], q, k)
            rows.append([q, k, count])
    return rows


def test_stability_map_check_catches_a_wrong_cell():
    m = workloads.MAP
    rows = _map_rows()
    assert any(row[2] > 0 for row in rows) and any(row[2] == 0 for row in rows)
    cols = ["q", "kappa", "unstable_count"]
    args = (m["r"], m["p"], m["tau"], workloads.MAP_MARGIN)
    assert checks.check_stability_map(artifact(cols, rows, unknown_cells=0),
                                      *args) == []
    rows[-1][2] += 2
    assert checks.check_stability_map(artifact(cols, rows, unknown_cells=0),
                                      *args)
    assert checks.check_stability_map(artifact(cols, _map_rows(),
                                               unknown_cells=1), *args)


def test_disease_free_check():
    d = workloads.DISEASE_FREE
    r, p, tau = d["r"], d["p"], d["tau"]
    qc = oracles.q_critical(r, p, tau)
    cols = ["root_re", "root_im", "residual"]
    root = oracles.disease_free_real_root(r, p, tau, qc - 0.05)
    below = artifact(cols, [[root, 0.0, 1e-16]], unstable_count=1)
    assert checks.check_disease_free(below, r, p, tau, qc - 0.05) == []
    assert checks.check_disease_free(artifact(cols, [], unstable_count=0),
                                     r, p, tau, qc + 0.05) == []
    assert checks.check_disease_free(below, r, p, tau, qc + 0.05)
    shifted = artifact(cols, [[root * (1 + 1e-6), 0.0, 1e-16]],
                       unstable_count=1)
    assert checks.check_disease_free(shifted, r, p, tau, qc - 0.05)
    complex_root = artifact(cols, [[root, 1e-3, 1e-16]], unstable_count=1)
    assert checks.check_disease_free(complex_root, r, p, tau, qc - 0.05)


def _network_rows(n=10000, i0=100, tau=0.5, gamma=1.0):
    t = np.linspace(0.0, 20.0, 201)
    i = i0 * np.exp(-gamma * t) / n
    q = np.where(t < tau, 0.0, 0.01 * (1 - np.exp(-(t - tau))))
    return [[a, 1 - b - c, b, c] for a, b, c in zip(t, i, q)]


def test_network_check_catches_a_row_off_by_1e7():
    cols = ["t_days", "S_frac", "I_frac", "Q_frac"]
    rows = _network_rows()
    meta = dict(n=10000, initial_infected=100)
    assert checks.check_network(artifact(cols, rows, **meta), 0.01, 0.5) == []
    rows[50][1] += 1e-7
    assert checks.check_network(artifact(cols, rows, **meta), 0.01, 0.5)
    rows = _network_rows()
    rows[2][3] = 1e-4         # isolated before tau
    rows[2][1] -= 1e-4
    assert checks.check_network(artifact(cols, rows, **meta), 0.01, 0.5)


def test_pure_death_check_catches_isolated_seeds():
    cols = ["t_days", "S_frac", "I_frac", "Q_frac"]
    n, n0 = 10000, 5000
    t = np.linspace(0.0, 20.0, 201)
    meta = dict(n=n, initial_infected=n0)
    good = [[a, 1 - 0.5 * math.exp(-a), 0.5 * math.exp(-a), 0.0] for a in t]
    assert checks.check_pure_death(artifact(cols, good, **meta), 1.0, 2,
                                   0.5) == []
    # half the seeds leave I at tau = 0.5, as if they were isolated
    fast = [[a, 1 - b, b, 0.0] for a, b in
            zip(t, 0.5 * np.exp(-t) * np.where(t < 0.5, 1.0, 0.5))]
    assert checks.check_pure_death(artifact(cols, fast, **meta), 1.0, 2, 0.5)
