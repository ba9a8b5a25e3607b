"""Network generator and event-driven simulation tests, including the
pure-death statistical oracle."""

import math

import numpy as np
import pytest

from siq.errors import BadDegree, FileParse
from siq.net_sim import (SimConfig, Network, average_runs, complete_network,
                         erdos_renyi_network, mean_field_params,
                         network_from_edge_list, simulate_network)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_complete_network_edge_count():
    net = complete_network(5)
    assert net.n == 5
    assert net.edges.shape == (10, 2)
    assert net.mean_degree == 4.0


def test_adjacency_built_once_and_runs_unchanged():
    # the neighbour lists are memoized on the graph; runs that share them
    # equal runs on a fresh copy of the graph, so no run modifies them
    net = erdos_renyi_network(300, 6.0, seed=3)
    assert net.adjacency() is net.adjacency()
    cfgs = [SimConfig(beta=0.3, gamma=1.0, p=0.5, tau_days=0.5,
                      kappa_days=2.0, t_end_days=5.0, seed=s,
                      initial_infected=(0, 1, 2)) for s in (7, 8)]
    shared = [simulate_network(net, c) for c in cfgs]
    for cfg, run in zip(cfgs, shared):
        fresh = simulate_network(Network(n=net.n, edges=net.edges.copy()), cfg)
        for key in ("s_frac", "i_frac", "q_frac"):
            assert np.array_equal(getattr(run, key), getattr(fresh, key))


def test_erdos_renyi_degree_concentration():
    net = erdos_renyi_network(10_000, 10.0, seed=99)
    assert 9.5 <= net.mean_degree <= 10.5
    assert net.edges[:, 0].min() >= 0
    assert net.edges[:, 1].max() < 10_000
    assert np.all(net.edges[:, 0] < net.edges[:, 1])   # canonical i < j
    # no duplicate pairs
    keys = net.edges[:, 0] * 10_000 + net.edges[:, 1]
    assert len(np.unique(keys)) == len(keys)


def test_erdos_renyi_deterministic_in_seed():
    a = erdos_renyi_network(500, 6.0, seed=5)
    b = erdos_renyi_network(500, 6.0, seed=5)
    c = erdos_renyi_network(500, 6.0, seed=6)
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, c.edges)


def test_bad_degree_rejected():
    with pytest.raises(BadDegree):
        erdos_renyi_network(10, 10.0, seed=1)
    with pytest.raises(BadDegree):
        erdos_renyi_network(10, -1.0, seed=1)


def test_edge_list_parsing(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\n0 1\n1 2\n2 0\n")
    net = network_from_edge_list(str(path))
    assert net.n == 3
    assert net.edges.shape == (3, 2)

    dup = tmp_path / "dup.txt"
    dup.write_text("0 1\n1 0\n")
    with pytest.raises(FileParse):
        network_from_edge_list(str(dup))

    loop = tmp_path / "loop.txt"
    loop.write_text("1 1\n")
    with pytest.raises(FileParse):
        network_from_edge_list(str(loop))

    junk = tmp_path / "junk.txt"
    junk.write_text("0 1 2\n")
    with pytest.raises(FileParse):
        network_from_edge_list(str(junk))


# ---------------------------------------------------------------------------
# simulation semantics
# ---------------------------------------------------------------------------

def run(net, **kw):
    base = dict(beta=0.3, gamma=1.0, p=0.5, tau_days=0.5, kappa_days=2.0,
                t_end_days=10.0, seed=7, initial_infected=(0,), n_out=51)
    base.update(kw)
    return simulate_network(net, SimConfig(**base))


def test_isolated_node_stays_susceptible():
    net = Network(n=2, edges=np.empty((0, 2), dtype=np.int64))
    out = run(net, initial_infected=(0,))
    # node 1 has no neighbors: at most node 0 ever leaves S
    assert np.all(out.s_frac >= 0.5)
    assert out.s_frac[-1] in (0.5, 1.0)


def test_counts_conserved_at_every_output():
    net = erdos_renyi_network(400, 8.0, seed=3)
    out = run(net, initial_infected=tuple(range(5)))
    total = out.s_frac + out.i_frac + out.q_frac
    assert np.allclose(total, 1.0, atol=1e-12)


def test_determinism_same_seed():
    net = erdos_renyi_network(300, 6.0, seed=8)
    a = run(net, initial_infected=(0, 1, 2), seed=42)
    b = run(net, initial_infected=(0, 1, 2), seed=42)
    c = run(net, initial_infected=(0, 1, 2), seed=43)
    assert np.array_equal(a.i_frac, b.i_frac)
    assert not np.array_equal(a.i_frac, c.i_frac)


def test_total_isolation_kills_epidemic_in_one_generation():
    # p = 1 and tau = 0: every node the seeds infect is isolated at once,
    # before transmitting (continuous clocks tie with probability zero).
    # The seeds themselves are never isolated, as in the mean-field model,
    # so they are the only nodes ever seen infectious
    net = complete_network(50)
    out = run(net, p=1.0, tau_days=0.0, kappa_days=100.0,
              initial_infected=(0, 1), t_end_days=40.0, n_out=401)
    assert out.i_frac[0] == pytest.approx(2 / 50, abs=1e-12)
    assert np.all(out.i_frac <= 2 / 50 + 1e-12)
    assert out.i_frac[-1] == 0.0
    assert out.q_frac[-1] > 0.0
    assert np.allclose(out.s_frac + out.q_frac, 1.0 - out.i_frac,
                       atol=1e-12)


def test_initial_infected_are_never_isolated():
    # p = 1, tau = 0, no edges: every later infection would be isolated
    # at once, but the seeds only recover
    net = Network(n=10, edges=np.empty((0, 2), dtype=np.int64))
    out = run(net, p=1.0, tau_days=0.0, kappa_days=1e6,
              initial_infected=tuple(range(10)), t_end_days=5.0)
    assert np.all(out.q_frac == 0.0)
    assert out.i_frac[0] == 1.0


def test_isolated_nodes_do_not_transmit_or_receive():
    # path 0-1-2 with seed 0: node 1, once infected, is isolated at once
    # with a huge kappa, so node 2 is never reached and node 1 is not
    # infected again while seed 0 stays infectious
    net = Network(n=3, edges=np.array([[0, 1], [1, 2]]))
    out = run(net, p=1.0, tau_days=0.0, kappa_days=1e6, beta=1e3,
              initial_infected=(0,), t_end_days=40.0, n_out=401)
    assert np.all(out.i_frac <= 1 / 3 + 1e-12)   # only the seed
    assert out.q_frac[-1] == pytest.approx(1 / 3, abs=1e-12)
    assert out.s_frac[-1] == pytest.approx(2 / 3, abs=1e-12)


def test_pure_death_oracle():
    # beta = 0, p = 0: I(t) is a pure death chain; over 20 seeds the
    # averaged survival matches e^{-gamma t} within 3 binomial SEs
    net = Network(n=1000, edges=np.empty((0, 2), dtype=np.int64))
    n0 = 100
    runs = []
    for seed in range(20):
        cfg = SimConfig(beta=0.0, gamma=1.0, p=0.0, tau_days=0.5,
                        kappa_days=2.0, t_end_days=3.0, seed=seed,
                        initial_infected=tuple(range(n0)), n_out=61)
        runs.append(simulate_network(net, cfg))
    avg = average_runs(runs)
    for t_check in (1.0, 2.0):
        k = int(round(t_check / 3.0 * 60))
        expect = math.exp(-t_check)
        se = math.sqrt(expect * (1 - expect) / (n0 * 20))
        observed = avg.i_frac[k] * 1000 / n0
        assert abs(observed - expect) <= 3 * se


def test_mean_field_params():
    mf = mean_field_params(0.25, 10.0, 1.0)
    assert mf.r == pytest.approx(2.5, abs=1e-15)
    assert mf.model_time(3.0) == 3.0
    ps = mf.to_model_params(p=0.5, tau_days=0.5, kappa_days=5.0)
    assert ps.tau == 0.5 and ps.kappa == 5.0
    assert ps.eps == pytest.approx(0.5 * math.exp(-0.5), abs=1e-15)
    # gamma = 2/day compresses model time
    mf2 = mean_field_params(0.25, 10.0, 2.0)
    assert mf2.r == pytest.approx(1.25, abs=1e-15)
    assert mf2.to_model_params(0.5, 1.0, 1.0).tau == 2.0
    with pytest.raises(ValueError):
        mean_field_params(0.25, 10.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(beta=-1, gamma=1, p=0.5, tau_days=0, kappa_days=0,
                  t_end_days=1, seed=0, initial_infected=(0,))
    with pytest.raises(ValueError):
        SimConfig(beta=1, gamma=1, p=1.5, tau_days=0, kappa_days=0,
                  t_end_days=1, seed=0, initial_infected=(0,))
    net = complete_network(3)
    with pytest.raises(ValueError):
        simulate_network(net, SimConfig(beta=1, gamma=1, p=0.5, tau_days=0,
                                        kappa_days=0, t_end_days=1, seed=0,
                                        initial_infected=(5,)))


def test_pair_index_inversion_exhaustive_small_n():
    from siq.net_sim import _pair_from_index
    for n in (2, 3, 5, 11):
        total = n * (n - 1) // 2
        pairs = _pair_from_index(np.arange(total), n)
        expected = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert [tuple(row) for row in pairs] == expected
