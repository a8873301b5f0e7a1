"""Hypergraph ensembles: edge counts, marginals, interpolation, degrees."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import merge_low_bins
from gibbslab import (
    Hypergraph,
    InterpolationPoint,
    degree_stats,
    degree_tail_probability,
    edge_count,
    graph_from_json,
    graph_to_json,
    sample_er,
    sample_interpolated,
)

GOLDEN = Path(__file__).parent / "golden"


class TestEdgeCount:
    def test_exact_decimal_parsing(self):
        """floor(0.3 * 10) = 3, immune to float representation of 0.3."""
        assert edge_count(10, "0.3") == 3
        assert edge_count(10, 0.3) == 3
        assert edge_count(10, 1) == 10
        assert edge_count(7, "1.5") == 10
        assert edge_count(3, 2.5) == 7
        assert edge_count(10, "1/3") == 3

    def test_rejects_nonpositive(self):
        """Also rejects what is not a finite number, so the CLI exits 2."""
        for bad in (0, "-1", "abc", "inf", float("inf"), "nan"):
            with pytest.raises(ValueError):
                edge_count(5, bad)

    def test_rejects_unsupported_type(self):
        with pytest.raises(TypeError, match="unsupported edge density type"):
            edge_count(4, None)


class TestSampleEr:
    @pytest.mark.parametrize("n, k, match", [
        (0, 2, "need at least one node, got 0"),
        (-3, 2, "need at least one node, got -3"),
        (4, 1, "arity must be >= 2, got 1"),
        (0, 1, "need at least one node"),  # the node count is checked first
    ])
    def test_refusals(self, n, k, match):
        with pytest.raises(ValueError, match=match):
            sample_er(n, 1, k, seed=0)

    def test_plain_draw_builds_no_block_tuples(self):
        """A plain draw of 5e5 pairs peaks at about 3 times its edge bytes
        (the uniforms and two temporaries of the same size, 23.6 MiB under
        tracemalloc); building block tuples for every slot of its chain
        would peak at 5.2 times (39.4 MiB)."""
        tracemalloc.start()
        try:
            g = sample_er(500_000, 1, 2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * g.edges.nbytes

    def test_single_node_forces_self_loops(self):
        """N=1, c=3, K=2: the only tuple is (0,0), drawn three times."""
        g = sample_er(1, 3, 2, seed=0)
        assert g.n_edges == 3
        np.testing.assert_array_equal(g.edges, np.zeros((3, 2), dtype=int))

    def test_edge_count_and_range(self):
        g = sample_er(100, 2, 3, seed=5)
        assert g.n_edges == 200
        assert g.edges.min() >= 0 and g.edges.max() < 100

    def test_expected_self_loops(self):
        """N=2, c=1, K=2: mean number of self-loop edges is 2 * 2/4 = 1."""
        n_draws = 4000
        total = 0
        for seed in range(n_draws):
            g = sample_er(2, 1, 2, seed=seed)
            total += int((g.edges[:, 0] == g.edges[:, 1]).sum())
        mean = total / n_draws
        se = math.sqrt(2 * 0.25 / n_draws)  # var of one graph's count = 2*p*(1-p)
        assert abs(mean - 1.0) <= 4 * se

    def test_seed_determinism(self):
        a = sample_er(50, 1.5, 2, seed=99)
        b = sample_er(50, 1.5, 2, seed=99)
        np.testing.assert_array_equal(a.edges, b.edges)
        c = sample_er(50, 1.5, 2, seed=100)
        assert not np.array_equal(a.edges, c.edges)

    def test_tuple_marginals_uniform(self):
        """Every (i,j) tuple frequency is within 4 SE of 1/9 over 1e5 draws."""
        counts = np.zeros((3, 3))
        n_draws = 100_000
        for seed in range(n_draws):
            g = sample_er(3, 1, 2, seed=seed)
            np.add.at(counts, (g.edges[:, 0], g.edges[:, 1]), 1)
        total = counts.sum()
        p = 1.0 / 9.0
        se = math.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) <= 4 * se)


class TestInterpolated:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), c=st.floats(0.05, 4.0), k=st.integers(2, 4),
           data=st.data(), seed=st.integers(0, 2 ** 64 - 1))
    def test_t0_is_plain_ensemble(self, n, c, k, data, seed):
        """t = 0 (all edges global) is bit-identical to sample_er."""
        n1 = data.draw(st.integers(1, n))
        point = InterpolationPoint(0, n1, n - n1)
        a = sample_interpolated(n, c, k, point, seed=seed)
        b = sample_er(n, c, k, seed=seed)
        assert a.edges.dtype == b.edges.dtype
        np.testing.assert_array_equal(a.edges, b.edges)

    def test_full_block_degenerate_split(self):
        """t = m with n1 = N restricts to the whole node set: same as plain."""
        m = edge_count(6, 1)
        point = InterpolationPoint(m, 6, 0)
        a = sample_interpolated(6, 1, 2, point, seed=8)
        b = sample_er(6, 1, 2, seed=8)
        np.testing.assert_array_equal(a.edges, b.edges)

    def test_endpoint_never_crosses_blocks(self):
        """At t = m every edge lies inside one block (1e4 samples)."""
        m = edge_count(4, 1)
        point = InterpolationPoint(m, 2, 2)
        for seed in range(10_000):
            g = sample_interpolated(4, 1, 2, point, seed=seed)
            in_b1 = g.edges < 2
            assert np.all(np.all(in_b1, axis=1) | np.all(~in_b1, axis=1))

    def test_block_counts_binomial_chi_square(self):
        """Block-1 edge counts at the endpoint match Binomial(m, n1/n)."""
        n, n1, c = 10, 4, 1
        m = edge_count(n, c)
        point = InterpolationPoint(m, n1, n - n1)
        n_draws = 20_000
        counts = np.zeros(m + 1, dtype=int)
        for seed in range(n_draws):
            g = sample_interpolated(n, c, 2, point, seed=seed)
            counts[int(np.all(g.edges < n1, axis=1).sum())] += 1
        p = n1 / n
        expected = np.array([math.comb(m, k) * p ** k * (1 - p) ** (m - k)
                             for k in range(m + 1)]) * n_draws
        obs, exp = merge_low_bins(counts, expected)
        result = stats.chisquare(obs, exp)
        assert result.pvalue > 0.001

    def test_seed_determinism(self):
        point = InterpolationPoint(3, 6, 4)
        a = sample_interpolated(10, 1.2, 2, point, seed=44)
        b = sample_interpolated(10, 1.2, 2, point, seed=44)
        np.testing.assert_array_equal(a.edges, b.edges)

    def test_intermediate_step_structure(self):
        """Only the last t slots are block-restricted; earlier slots may cross."""
        n, n1, c = 6, 3, 2
        m = edge_count(n, c)
        t = 4
        point = InterpolationPoint(t, n1, n - n1)
        crossing_global = 0
        for seed in range(2000):
            g = sample_interpolated(n, c, 2, point, seed=seed)
            block_part = g.edges[m - t:]
            in_b1 = block_part < n1
            assert np.all(np.all(in_b1, axis=1) | np.all(~in_b1, axis=1))
            head = g.edges[: m - t]
            crossing_global += int(((head[:, 0] < n1) != (head[:, 1] < n1)).sum())
        assert crossing_global > 0  # global slots do cross blocks

    def test_point_validation(self):
        with pytest.raises(ValueError):
            InterpolationPoint(-1, 2, 2)
        with pytest.raises(ValueError):
            InterpolationPoint(0, 0, 4)
        with pytest.raises(ValueError):
            sample_interpolated(5, 1, 2, InterpolationPoint(0, 2, 2), seed=0)
        with pytest.raises(ValueError):
            sample_interpolated(4, 1, 2, InterpolationPoint(9, 2, 2), seed=0)
        with pytest.raises(ValueError, match="arity must be >= 2, got 1"):
            sample_interpolated(4, 1, 1, InterpolationPoint(1, 2, 2), seed=0)


class TestDegreeStats:
    def test_single_edge(self):
        g = Hypergraph(2, 2, np.array([[0, 1]]))
        d = degree_stats(g)
        np.testing.assert_array_equal(d.node_degrees, [1, 1])
        np.testing.assert_array_equal(d.edge_neighborhoods, [1])

    def test_path(self):
        g = Hypergraph(3, 2, np.array([[0, 1], [1, 2]]))
        d = degree_stats(g)
        np.testing.assert_array_equal(d.node_degrees, [1, 2, 1])
        np.testing.assert_array_equal(d.edge_neighborhoods, [2, 2])
        assert d.max_degree == 2

    def test_empty(self):
        d = degree_stats(Hypergraph(4, 2, np.zeros((0, 2), dtype=int)))
        assert d.max_degree == 0
        np.testing.assert_array_equal(d.node_degrees, np.zeros(4))

    def test_multiplicity_vs_incidence(self):
        """A repeated node counts twice toward its degree, once as incidence."""
        g = Hypergraph(2, 2, np.array([[0, 0], [0, 1]]))
        d = degree_stats(g)
        np.testing.assert_array_equal(d.node_degrees, [3, 1])
        np.testing.assert_array_equal(d.node_incidences, [2, 1])
        assert d.node_degrees.sum() == g.arity * g.n_edges

    def test_degree_sum_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(2, 4))
            g = Hypergraph(n, k, rng.integers(0, n, size=(int(rng.integers(0, 10)), k)))
            d = degree_stats(g)
            assert d.node_degrees.sum() == k * g.n_edges


class TestDegreeTail:
    def test_exact_small_case(self):
        """N=2, c=1, K=2, m=0: inclusion p=3/4, so P = (1/4)^2."""
        assert degree_tail_probability(2, 1, 2, 0) == pytest.approx(0.0625, abs=1e-15)

    def test_out_of_support(self):
        assert degree_tail_probability(5, 1, 2, 6) == 0.0
        assert degree_tail_probability(5, 1, 2, -1) == 0.0

    def test_poisson_cross_check(self):
        """Binomial pmf within factor 1.1 of the Poisson(cK) pmf at N = 1000."""
        exact = degree_tail_probability(1000, 1, 2, 10)
        poisson = 2.0 ** 10 * math.exp(-2.0) / math.factorial(10)
        assert exact / poisson < 1.1 and poisson / exact < 1.1

    def test_empirical_degrees_match(self):
        """Node-incidence histogram vs the binomial model (N=10, K=2, 4 SE)."""
        n, c, k = 10, 1, 2
        n_draws = 3000
        m = edge_count(n, c)
        counts = np.zeros(m + 1, dtype=np.int64)
        for seed in range(n_draws):
            d = degree_stats(sample_er(n, c, k, seed=seed))
            counts += np.bincount(d.node_incidences, minlength=m + 1)
        total = counts.sum()
        for deg in range(m + 1):
            p = degree_tail_probability(n, c, k, deg)
            se = math.sqrt(total * p * (1 - p)) if 0 < p < 1 else 0.0
            assert abs(counts[deg] - total * p) <= 4 * se + 1e-9


class TestSerialization:
    def test_round_trip(self):
        g = sample_er(12, 1.5, 3, seed=4)
        g2 = graph_from_json(graph_to_json(g))
        assert g2.n_nodes == g.n_nodes and g2.arity == g.arity
        np.testing.assert_array_equal(g2.edges, g.edges)

    def test_golden_bytes(self):
        """Serialization of a seeded draw is byte-stable."""
        text = graph_to_json(sample_er(8, 1, 2, seed=7))
        golden = (GOLDEN / "graph_n8_c1_k2_seed7.json").read_text()
        assert text == golden

    def test_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(2, 2, np.array([[0, 2]]))
        with pytest.raises(ValueError):
            Hypergraph(0, 2, np.zeros((0, 2), dtype=int))

    @pytest.mark.parametrize("payload, message", [
        ('{"n":3,"k":2,"edges":[[0.7,1]]}', "edge entries must be integers"),
        ('{"n":3,"k":2,"edges":[["0",1]]}', "edge entries must be integers"),
        ('{"n":3,"k":1,"edges":[[0]]}', r"arity must be >= 2, got 1"),
        ('{"n":3,"k":0,"edges":[]}', r"arity must be >= 2, got 0"),
        ('{"n":3,"k":2,"edges":[[0,1,2,0]]}', r"edges must have shape \(M, 2\)"),
    ])
    def test_from_json_refuses(self, payload, message):
        with pytest.raises(ValueError, match=message):
            graph_from_json(payload)

    def test_from_json_reads_whole_floats(self):
        """A float that is a whole number is the node it names."""
        g = graph_from_json('{"n":3,"k":2,"edges":[[1.0,2]]}')
        assert g.edges.dtype == np.int64 and g.edges.tolist() == [[1, 2]]
