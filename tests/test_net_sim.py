"""Network generator and event-driven simulation tests, including the
pure-death statistical oracle and a two-sample comparison with the
per-susceptible-clock reference engine (``net_reference``)."""

import math

import numpy as np
import pytest

import net_reference
from siq.errors import BadDegree, FileParse
from siq.net_sim import (SimConfig, Network, NetworkStats, average_runs,
                         complete_network, erdos_renyi_network,
                         mean_field_params, network_from_edge_list,
                         simulate_network)


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


def test_adjacency_matches_edge_loop():
    # the vectorized build gives the lists of the edge-by-edge loop, in
    # the same order, for sorted, unsorted and empty edge arrays
    rng = np.random.default_rng(4)
    shuffled = erdos_renyi_network(200, 5.0, seed=4).edges
    shuffled = shuffled[rng.permutation(len(shuffled))][:, ::-1]
    for net in (erdos_renyi_network(500, 8.0, seed=2), complete_network(7),
                Network(n=200, edges=shuffled),
                Network(n=4, edges=np.empty((0, 2), dtype=np.int64))):
        assert net.adjacency() == net_reference.adjacency_by_loop(net)


def test_network_rejects_self_loops_and_duplicate_pairs():
    # a pair listed in both orders is one edge twice; reversed rows alone
    # stay legal
    for edges in ([[0, 1], [1, 0]], [[2, 2]], [[0, 1], [1, 2], [0, 1]]):
        with pytest.raises(FileParse):
            Network(n=3, edges=edges)
    assert Network(n=3, edges=[[1, 0], [2, 1]]).mean_degree == 4.0 / 3.0


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


@pytest.mark.parametrize("initial, message", [
    (tuple(range(400)), "ids outside [0, 200): 200, 201, 202, 203, 204, "
                        "... (200 in all)"),
    ((3, 3, 1, 0, 1), "ids repeated: 3, 1"),
    ((), "empty"),
])
def test_invalid_initial_set_names_a_few_ids(initial, message):
    # the message listed every invalid id, 10^4 of them for a whole graph
    net = Network(n=200, edges=np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ValueError) as exc:
        run(net, initial_infected=initial)
    assert str(exc.value) == f"initial infected set invalid: {message}"


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


@pytest.mark.parametrize("field, value", [
    ("beta", math.nan), ("beta", math.inf), ("gamma", math.nan),
    ("tau_days", math.nan), ("kappa_days", math.nan),
    ("t_end_days", math.nan), ("t_end_days", math.inf)])
def test_config_rejects_non_finite_fields(field, value):
    # only constructs the config: at beta = inf a run would never return
    good = dict(beta=1.0, gamma=1.0, p=0.5, tau_days=0.5, kappa_days=2.0,
                t_end_days=5.0, seed=0, initial_infected=(0,))
    with pytest.raises(ValueError, match=f"^{field} = {value}"):
        SimConfig(**{**good, field: value})
    # permanent isolation and an unreachable identification stay legal
    SimConfig(**{**good, "kappa_days": math.inf})
    SimConfig(**{**good, "tau_days": math.inf})


def test_pair_index_inversion_exhaustive_small_n():
    from siq.net_sim import _pair_from_index
    for n in (2, 3, 5, 11):
        total = n * (n - 1) // 2
        pairs = _pair_from_index(np.arange(total), n)
        expected = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert [tuple(row) for row in pairs] == expected


# ---------------------------------------------------------------------------
# the reference engine and the event counters
# ---------------------------------------------------------------------------

def test_beta_zero_runs_match_reference_bitwise():
    # with beta = 0 neither engine draws a transmission; both draw the
    # seeds' recoveries from the same exponential stream in the same order
    # (40000 seeds draw past the streams' first 2^15-value block)
    net = erdos_renyi_network(300, 6.0, seed=3)
    big = Network(n=50_000, edges=np.empty((0, 2), dtype=np.int64))
    for graph, seed, gamma, seeds in ((net, 0, 1.0, range(0, 300, 7)),
                                      (net, 1, 0.7, range(0, 300, 7)),
                                      (net, 2, 0.0, range(0, 300, 7)),
                                      (big, 3, 1.0, range(40_000))):
        cfg = SimConfig(beta=0.0, gamma=gamma, p=0.5, tau_days=0.5,
                        kappa_days=2.0, t_end_days=5.0, seed=seed,
                        initial_infected=tuple(seeds))
        new = simulate_network(graph, cfg)
        old = net_reference.simulate_network(graph, cfg)
        for key in ("t_days", "s_frac", "i_frac", "q_frac"):
            assert np.array_equal(getattr(new, key), getattr(old, key))
    assert "_adjacency" not in net.__dict__    # never built at beta = 0


#: Two-sample |z| bound on each mean.  Under agreement each |z| exceeds 4
#: with probability 6e-5, so 20 comparisons give a false alarm below 2e-3.
TWO_SAMPLE_Z = 4.0


def test_two_sample_agreement_with_reference():
    # 300 runs per engine, disjoint seeds, on one G(200, 6) at r = 3, where
    # isolation, release and reinfection all occur before t_end: the mean
    # I and Q fractions agree at all 11 output times
    net = erdos_renyi_network(200, 6.0, seed=11)
    runs = 300
    samples = []
    for engine, base in ((simulate_network, 0),
                         (net_reference.simulate_network, 10**6)):
        out = []
        for s in range(runs):
            cfg = SimConfig(beta=0.5, gamma=1.0, p=0.5, tau_days=0.5,
                            kappa_days=2.0, t_end_days=10.0, seed=base + s,
                            initial_infected=tuple(range(5)), n_out=11)
            r = engine(net, cfg)
            out.append((r.i_frac, r.q_frac))
        samples.append(np.array(out))
    a, b = samples
    diff = a.mean(axis=0) - b.mean(axis=0)
    se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / runs)
    # where both samples are constant (t = 0, and Q before tau) the means
    # must agree exactly
    assert np.all(diff[se == 0.0] == 0.0)
    z = np.abs(diff) / np.where(se > 0.0, se, 1.0)
    assert z.max() < TWO_SAMPLE_Z, np.round(z, 2)


def test_counters_bookkeeping():
    net = erdos_renyi_network(400, 8.0, seed=3)
    seeds = tuple(range(5))
    for seed in (1, 2, 3):
        out = run(net, initial_infected=seeds, seed=seed, kappa_days=1.0)
        s = out.stats
        assert s.stale_pops == 0
        assert 0 < s.releases <= s.isolations <= s.infections - len(seeds)
        assert s.infections - len(seeds) <= s.attempts
        assert s.recoveries + s.isolations <= s.infections
        assert out.i_frac[-1] * net.n == pytest.approx(
            s.infections - s.recoveries - s.isolations, abs=1e-9)
        assert out.q_frac[-1] * net.n == pytest.approx(
            s.isolations - s.releases, abs=1e-9)
        assert 0 < s.peak_heap <= 2 * net.n

    # no recovery and no isolation on a complete graph: every node is
    # infected exactly once, the seeds and n - seeds successful attempts
    out = run(complete_network(30), gamma=0.0, p=0.0, beta=1.0,
              initial_infected=(0, 1, 2), t_end_days=50.0)
    assert out.i_frac[-1] == 1.0
    assert out.stats.infections == 30
    assert out.stats.attempts >= 27
    assert out.stats.recoveries == out.stats.isolations == 0

    # beta = 0: the seeds are the only infections and nothing is attempted
    out = run(net, beta=0.0, initial_infected=seeds)
    assert out.stats.attempts == 0 and out.stats.infections == len(seeds)

    # runs combine: counts add, the peak is the larger one
    a, b = NetworkStats(1, 2, 3, 4, 5, 6, 0), NetworkStats(1, 1, 1, 1, 1, 9, 0)
    assert a + b == NetworkStats(2, 3, 4, 5, 6, 9, 0)
    runs = [run(net, initial_infected=seeds, seed=s) for s in (4, 5)]
    assert average_runs(runs).stats == runs[0].stats + runs[1].stats


def test_duplicate_initial_infected_rejected():
    with pytest.raises(ValueError):
        run(complete_network(5), initial_infected=(1, 1))
