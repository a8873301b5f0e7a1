"""Exact and Monte Carlo log Z, and the deterministic bounds."""

import json
import math
import pickle
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gibbslab import (
    Discrete,
    EdgePotentialSpec,
    Hypergraph,
    ModelSpec,
    NodePotentialSpec,
    PiecewiseContinuous,
    PotentialDraws,
    SoftStateParams,
    StateSpaceCapError,
    add_edge,
    build_model,
    edge_change_bound,
    embed_discrete,
    instance_from_json,
    instance_to_json,
    log_z_exact,
    log_z_mc,
    logz_bounds,
    logz_row,
    make_instance,
    node_change_bound,
    replace_node_table,
    sample_er,
    z_exact_rational,
)
from gibbslab import partition
from gibbslab.partition import Instance, LogZ, McLogZ

from conftest import random_instance
from naive import naive_log_z


IS1 = build_model("independent_set", **{"lambda": 1.0})


def _graph(n, edges, k=2):
    return Hypergraph(n, k, np.array(edges, dtype=int).reshape(-1, k))


def _constant_model(rho: float) -> ModelSpec:
    """h = rho/2 per color and J = rho everywhere, so rho_min = rho_max."""
    soft = SoftStateParams(kappa=2.0, rho_min=rho, rho_max=rho, j_max=rho,
                           alpha=rho)
    return ModelSpec("constant", Discrete(2),
                     NodePotentialSpec(table=np.full(2, rho / 2.0)),
                     EdgePotentialSpec(2, np.full((1, 2, 2), rho), [1.0]),
                     soft, {})


class TestLogZExact:
    def test_independent_set_examples(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        single = make_instance(m, _graph(2, [[0, 1]]), 0)
        assert math.exp(log_z_exact(single).value) == pytest.approx(3.0, rel=1e-12)
        path = make_instance(m, _graph(3, [[0, 1], [1, 2]]), 0)
        assert math.exp(log_z_exact(path).value) == pytest.approx(5.0, rel=1e-12)

    def test_potts_beta_zero(self):
        m = build_model("potts", q=3, beta=0.0)
        for n, edges in ((2, [[0, 1]]), (4, [[0, 1], [2, 3], [1, 2]])):
            inst = make_instance(m, _graph(n, edges), 0)
            assert log_z_exact(inst).value == pytest.approx(n * math.log(3), rel=1e-12)

    def test_cycle_lucas_number_n20(self):
        """Independent sets of the cycle C_20 number L_20 = 15127 (Lucas);
        closing the cycle makes elimination build a three-node factor."""
        m = build_model("independent_set", **{"lambda": 1.0})
        cycle = _graph(20, [[i, (i + 1) % 20] for i in range(20)])
        inst = make_instance(m, cycle, 0)
        value = log_z_exact(inst).value
        assert value == pytest.approx(math.log(15127), rel=1e-12)

    def test_zero_partition_function(self):
        """Forcing the forbidden IS configuration gives Z = 0 exactly."""
        m = build_model("independent_set", **{"lambda": 1.0})
        inst = make_instance(m, _graph(2, [[0, 1]]), 0)
        forced = replace_node_table(replace_node_table(inst, 0, [0.0, 1.0]),
                                    1, [0.0, 1.0])
        result = log_z_exact(forced)
        assert result.is_zero and result == LogZ(-math.inf)

    def test_matches_naive_oracle(self):
        """Agrees with the rational enumerator to 1e-10 relative."""
        rng = np.random.default_rng(21)
        for _ in range(30):
            inst = random_instance(rng)
            got = log_z_exact(inst).value
            want = naive_log_z(inst)
            if want == -math.inf:
                assert got == -math.inf
            else:
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_cap(self):
        """The cap limits elimination factor entries, not assignments.  K_25
        needs a factor over 25 nodes, 2^25 > DEFAULT_STATE_CAP entries, and
        is refused by the symbolic pass before any factor table exists; a
        100-node path, 2^100 assignments but factors over 2 nodes, gives
        Z = F_102, its number of independent sets."""
        m = build_model("independent_set", **{"lambda": 1.0})
        clique = make_instance(
            m, _graph(25, [[u, v] for u in range(25) for v in range(u + 1, 25)]), 0)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            with pytest.raises(StateSpaceCapError, match="2\\^25 entries exceed cap"):
                log_z_exact(clique)
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceCapError):
                log_z_exact(clique)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A 2^25-entry factor would take 256 MiB and tens of milliseconds.
        assert min(times) < 5e-3 and peak < 2 ** 20
        path = make_instance(m, _graph(100, [[i, i + 1] for i in range(99)]), 0)
        fib = [0, 1]
        while len(fib) <= 102:
            fib.append(fib[-1] + fib[-2])
        assert z_exact_rational(path) == fib[102]
        want = math.log(fib[102])
        assert abs(log_z_exact(path).value - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("n", [30, 60])
    @pytest.mark.parametrize("name, params, c", [
        ("independent_set", {"lambda": 1.0}, "0.5"),
        ("independent_set", {"lambda": 1.0}, "1"),
        ("potts", {"q": 3, "beta": 0.7}, "0.5"),
        ("ksat", {"k": 3, "beta": 0.9}, "0.15"),
    ])
    def test_rational_z_is_invariant_under_relabelling(self, name, params, c, n):
        """Z as a Fraction, at sizes no enumerator reaches, is unchanged by a
        random node relabelling and edge reordering with the node and edge
        tables permuted to match, which change the elimination order and
        every bucket's shape."""
        model = build_model(name, **params)
        inst = make_instance(model, sample_er(n, c, model.arity, 11), 11)
        rng = np.random.default_rng(n)
        label = rng.permutation(n)
        edge_perm = rng.permutation(inst.graph.n_edges)
        node_tables = np.empty_like(inst.potentials.node_tables)
        node_tables[label] = inst.potentials.node_tables
        graph = Hypergraph(n, model.arity, label[inst.graph.edges[edge_perm]])
        moved = Instance(graph, PotentialDraws(
            node_tables, inst.potentials.edge_tables[edge_perm]), model)
        order, _, _ = partition._elimination_order(n, inst.graph.edges.tolist())
        moved_order, _, _ = partition._elimination_order(n, graph.edges.tolist())
        assert label[order].tolist() != moved_order
        assert z_exact_rational(moved) == z_exact_rational(inst) > 0

    @pytest.mark.parametrize("c, k", [("0.5", 2), ("0.15", 3)])
    def test_order_pass_memory_is_linear_in_n(self, c, k):
        """The min-degree pass on G(32000, c) in the sparse regime peaks
        below 24 MiB (tracemalloc) with neighbour sets; an N-bit mask per
        node would take 62.6 MiB at K = 2 and 40.1 MiB at K = 3."""
        scopes = sample_er(32000, c, k, 0).edges.tolist()
        tracemalloc.start()
        try:
            partition._elimination_order(32000, scopes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    def test_refusal_stops_the_order_pass_at_the_cap(self):
        """Hard-core G(16000, 1) is past the cap.  Its order pass stops at
        the first factor past it, over 25 nodes, and the refusal peaks at
        15 MiB (tracemalloc); the whole pass would reach a factor over 766
        nodes and peak at 90 MiB."""
        m = build_model("independent_set", **{"lambda": 1.0})
        inst = make_instance(m, sample_er(16000, "1", 2, 0), 0)
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceCapError, match="2\\^25 entries exceed cap"):
                log_z_exact(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    def test_continuous_cells_use_lengths(self):
        """Half-width cells halve every node factor."""
        m = build_model("potts", q=2, beta=0.0)
        emb = embed_discrete(m)
        squeezed = replace(emb, domain=type(emb.domain)(((0.0, 0.5), (1.0, 1.5))))
        inst = make_instance(squeezed, _graph(2, [[0, 1]]), 0)
        # Z = (2 * 0.5)^2 = 1
        assert log_z_exact(inst).value == pytest.approx(0.0, abs=1e-12)


class TestLogZMc:
    def test_no_edges_is_exact(self):
        m = build_model("ising", beta=0.3, h=1.7)
        inst = make_instance(m, _graph(3, [], k=2), 0)
        est = log_z_mc(inst, samples=10, seed=1)
        assert est.value == pytest.approx(3 * math.log(2.7), rel=1e-12)
        assert est.std_error == 0.0

    def test_constant_edge_weight_zero_variance(self):
        """J identically 1 (potts beta=0): exact from the first sample."""
        m = build_model("potts", q=3, beta=0.0)
        inst = make_instance(m, _graph(3, [[0, 1], [1, 2]]), 0)
        est = log_z_mc(inst, samples=2, seed=0)
        assert est.value == pytest.approx(3 * math.log(3), rel=1e-12)
        assert est.std_error == 0.0

    def test_matches_exact_within_se(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        inst = make_instance(m, _graph(2, [[0, 1]]), 0)
        est = log_z_mc(inst, samples=1_000_000, seed=3)
        assert abs(est.value - math.log(3)) <= 3 * est.std_error
        assert est.std_error < 1e-3

    def test_rejects_zero_samples(self):
        inst = make_instance(build_model("ising", beta=0.3, h=1.7), _graph(2, [[0, 1]]), 0)
        with pytest.raises(ValueError, match="need at least one sample"):
            log_z_mc(inst, samples=0, seed=0)

    def test_one_sample_has_no_se(self):
        """One sample gives no standard error, and the row omits it.  Ising
        weights are positive, so the sample is not the all-zero case."""
        inst = make_instance(build_model("ising", beta=0.3, h=1.7), _graph(2, [[0, 1]]), 0)
        est = log_z_mc(inst, samples=1, seed=0)
        assert est.std_error is None and math.isfinite(est.value)
        assert "se" not in logz_row(est, 0)

    def test_all_zero_weights_reports_bound(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        inst = make_instance(m, _graph(2, [[0, 1]]), 0)
        forced = replace_node_table(replace_node_table(inst, 0, [0.0, 1.0]),
                                    1, [0.0, 1.0])
        est = log_z_mc(forced, samples=100, seed=0)
        assert est.value == -math.inf and est.std_error is None
        assert est.zero_fraction == 1.0 and est.log_upper_bound is not None

    @pytest.mark.parametrize("name, params, n, c, value, se", [
        # The README example, logz --model independent_set --lambda 1 --n 30
        # --c 1 --mc --samples 200000 (seed 0), and an Ising N=60 twin.
        ("independent_set", {"lambda": 1.0}, 30, 1.0,
         "0x1.a4e2d8286b11cp+3", "0x1.a1f26b642c3b9p-4"),
        ("ising", {"beta": 0.5, "h": 1.0}, 60, 1.5,
         "0x1.95c50e65408e2p+5", "0x1.1eaeb92b852e1p-2"),
    ])
    def test_golden_estimates(self, name, params, n, c, value, se):
        """The bits of v0.6.0's per-node ``rng.choice`` shards."""
        m = build_model(name, **params)
        inst = make_instance(m, sample_er(n, c, m.arity, 0), 0)
        est = log_z_mc(inst, samples=200_000, seed=0)
        assert (est.value.hex(), est.std_error.hex()) == (value, se)

    def test_ess(self):
        """Kong's ESS: hard-core weights are 0 or 1, so it counts the nonzero
        ones; equal weights give the sample count; no weight gives None."""
        inst = make_instance(IS1, sample_er(30, 1.0, 2, 0), 0)
        est = log_z_mc(inst, samples=20_000, seed=0)
        assert est.ess == pytest.approx(20_000 * (1.0 - est.zero_fraction), rel=1e-12)
        m = build_model("potts", q=3, beta=0.0)
        flat = log_z_mc(make_instance(m, _graph(3, [[0, 1], [1, 2]]), 0), samples=50, seed=0)
        assert flat.ess == pytest.approx(50.0, rel=1e-12)
        forced = replace_node_table(replace_node_table(
            make_instance(IS1, _graph(2, [[0, 1]]), 0), 0, [0.0, 1.0]), 1, [0.0, 1.0])
        assert log_z_mc(forced, samples=100, seed=0).ess is None

    def test_rejects_zero_mass_node(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        inst = make_instance(m, _graph(2, [[0, 1]]), 0)
        bad = replace_node_table(inst, 0, [0.0, 0.0])
        with pytest.raises(ValueError):
            log_z_mc(bad, samples=10, seed=0)


class TestBounds:
    def test_sandwich_example(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        inst = make_instance(m, _graph(2, [[0, 1]]), 0)
        lo, hi = logz_bounds(inst)
        assert lo == 0.0 and hi == pytest.approx(3 * math.log(2))
        assert lo <= log_z_exact(inst).value <= hi

    def test_constant_model_bounds_collapse(self):
        inst = make_instance(_constant_model(1.7), _graph(1, [], k=2), 0)
        lo, hi = logz_bounds(inst)
        assert lo == hi == pytest.approx(math.log(1.7))
        assert log_z_exact(inst).value == pytest.approx(lo, abs=1e-12)

    def test_ksat_plugin(self):
        m = build_model("ksat", k=3, beta=0.5)
        inst = make_instance(m, _graph(3, [[0, 1, 2], [0, 0, 1], [2, 2, 2]], k=3), 1)
        lo, hi = logz_bounds(inst)
        assert lo == pytest.approx(6 * -0.5)
        assert hi == pytest.approx(6 * math.log(2))

    def test_sandwich_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            inst = random_instance(rng, n_max=5)
            lo, hi = logz_bounds(inst)
            value = log_z_exact(inst).value
            assert lo - 1e-9 <= value <= hi + 1e-9


class TestChangeBounds:
    def test_node_bound_examples(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        isolated = make_instance(m, _graph(1, [], k=2), 0)
        assert node_change_bound(isolated, 0) == pytest.approx(2 * math.log(2))
        inst_c = make_instance(_constant_model(2.0), _graph(2, [[0, 1]]), 0)
        assert node_change_bound(inst_c, 0) == 0.0
        mp = build_model("potts", q=2, beta=1.0)
        star = make_instance(mp, _graph(4, [[0, 1], [0, 2], [0, 3]]), 0)
        assert node_change_bound(star, 0) == pytest.approx(8 * mp.soft.log_ratio)

    def test_edge_bound_examples(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        empty = make_instance(m, _graph(2, [], k=2), 0)
        # lone edge added to the empty graph: neighborhood (incl. self) = 1
        assert edge_change_bound(empty, (0, 1)) == pytest.approx(7 * math.log(2))
        inst_c = make_instance(_constant_model(1.0), _graph(2, [[0, 1]]), 0)
        assert edge_change_bound(inst_c, 0) == 0.0
        mk = build_model("ksat", k=3, beta=0.5)
        inst3 = make_instance(
            mk, _graph(5, [[0, 1, 2], [2, 3, 4], [0, 0, 3]], k=3), 0)
        # adding (1, 2, 3) touches all three existing edges: nb = 4 with self
        expect = (2 * 3 + 2 * 4 + 1) * mk.soft.log_ratio
        assert edge_change_bound(inst3, (1, 2, 3)) == pytest.approx(expect)

    @pytest.mark.parametrize("node", [-1, 3])
    def test_node_bound_rejects_bad_node(self, node):
        inst = make_instance(IS1, _graph(3, [[0, 1]]), 0)
        with pytest.raises(ValueError, match=f"node {node} out of range"):
            node_change_bound(inst, node)

    def test_edge_bound_rejects_bad_edges(self):
        inst = make_instance(IS1, _graph(3, [[0, 1]]), 0)
        for edge in (1, -1, (0, 3), (-1, 0), (0, 1, 2)):
            with pytest.raises(ValueError):
                edge_change_bound(inst, edge)

    def test_node_perturbation_respects_bound(self):
        """Swapping h between admissible tables moves log Z at most the bound."""
        rng = np.random.default_rng(17)
        m = build_model("independent_set", **{"lambda": 0.8})
        for _ in range(40):
            inst = random_instance(rng, n_max=4, model=m)
            node = int(rng.integers(inst.graph.n_nodes))
            # another admissible IS table: h(0)=1, h(1) in [rho_min, rho_max - 1]
            new_lam = float(rng.uniform(m.soft.rho_min, m.soft.rho_max - 1.0))
            changed = replace_node_table(inst, node, [1.0, new_lam])
            delta = abs(log_z_exact(changed).value - log_z_exact(inst).value)
            assert delta <= node_change_bound(inst, node) + 1e-9

    def test_edge_addition_respects_bounds(self):
        """|delta log Z| <= edge bound, and delta <= log J_max always."""
        rng = np.random.default_rng(23)
        for _ in range(40):
            inst = random_instance(rng, n_max=4)
            model = inst.model
            edge = tuple(int(x) for x in rng.integers(0, inst.graph.n_nodes,
                                                      size=model.arity))
            table = model.edge_pot.tables[model.edge_pot.draw_indices(rng, 1)[0]]
            bigger = add_edge(inst, edge, table)
            before = log_z_exact(inst).value
            after = log_z_exact(bigger).value
            assert after - before <= math.log(model.soft.j_max) + 1e-9
            if model.soft.j_max <= 1.0:
                assert after <= before + 1e-9
            assert abs(after - before) <= edge_change_bound(inst, edge) + 1e-9


class TestTableValidation:
    """Potential tables are finite and non-negative however they are made,
    and replace_node_table takes one in-range node and one table."""

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_potential_draws_reject(self, value):
        good = make_instance(IS1, _graph(2, [[0, 1]]), 0).potentials
        nodes = good.node_tables.copy()
        nodes[0, 1] = value
        with pytest.raises(ValueError, match="finite and >= 0"):
            PotentialDraws(nodes, good.edge_tables)
        edges = good.edge_tables.copy()
        edges[0, 1, 1] = value
        with pytest.raises(ValueError, match="finite and >= 0"):
            PotentialDraws(good.node_tables, edges)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_add_edge_rejects_table(self, value):
        inst = make_instance(IS1, _graph(2, [[0, 1]]), 0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            add_edge(inst, (0, 1), [[1.0, 1.0], [1.0, value]])

    @pytest.mark.parametrize("table", [[-1.0, 1.0], [math.nan, 1.0], [1.0, math.inf]])
    def test_replace_node_table_rejects_table(self, table):
        inst = make_instance(IS1, _graph(2, [[0, 1]]), 0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            replace_node_table(inst, 0, table)

    @pytest.mark.parametrize("node", [-1, 2, 5])
    def test_replace_node_table_rejects_node(self, node):
        inst = make_instance(IS1, _graph(2, [[0, 1]]), 0)
        with pytest.raises(ValueError, match="out of range"):
            replace_node_table(inst, node, [1.0, 1.0])

    @pytest.mark.parametrize("table", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_replace_node_table_rejects_shape(self, table):
        inst = make_instance(IS1, _graph(2, [[0, 1]]), 0)
        with pytest.raises(ValueError, match="shape"):
            replace_node_table(inst, 1, table)

    @pytest.mark.parametrize("field", ["edge_tables", "node_tables"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_instance_from_json_rejects(self, field, value):
        payload = json.loads(instance_to_json(
            make_instance(IS1, _graph(2, [[0, 1]]), 0)))
        table = np.array(payload[field])
        table.flat[-1] = value
        payload[field] = table.tolist()
        with pytest.raises(ValueError, match="finite and >= 0"):
            instance_from_json(json.dumps(payload))


class TestLiftOnce:
    """A PotentialDraws keeps the exact evaluator's lifted tables, one lift
    per semiring and spin domain, so its own tables are read-only."""

    @pytest.mark.parametrize("field", ["node_tables", "edge_tables"])
    def test_tables_are_read_only_copies(self, field):
        source = {"node_tables": np.ones((2, 2)), "edge_tables": np.ones((1, 2, 2))}
        draws = PotentialDraws(**source)
        table = getattr(draws, field)
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 2.0
        source[field].flat[0] = 2.0  # the caller's array stays its own
        assert table.flat[0] == 1.0

    def test_evaluated_draws_pickle_without_their_lifts(self):
        inst = make_instance(IS1, _graph(3, [[0, 1], [1, 2]]), 0)
        value = log_z_exact(inst).value
        back = pickle.loads(pickle.dumps(inst))
        assert back.potentials._lifts == {}
        assert log_z_exact(back).value.hex() == value.hex()

    def test_each_domain_gets_its_own_node_lift(self):
        """One PotentialDraws under a discrete and a continuous q = 2 model,
        evaluated in turn: each model's node factors are bit-equal to a
        fresh lift, and each log Z to that of fresh draws."""
        ising = build_model("ising", beta=0.6, h=1.4)
        cells = replace(ising, domain=PiecewiseContinuous(((0.0, 0.5), (1.0, 3.0))))
        graph = _graph(4, [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]])
        draws = make_instance(ising, graph, 5).potentials
        values = []
        for model in (ising, cells, ising, cells):
            inst = Instance(graph, draws, model)
            values.append(log_z_exact(inst).value)
            fresh = PotentialDraws(draws.node_tables, draws.edge_tables)
            assert values[-1].hex() == log_z_exact(Instance(graph, fresh, model)).value.hex()
            nodes, _, edges = partition._factors(inst, partition._LOG)
            want = partition._safe_log(draws.node_tables * model.domain.lengths)
            assert np.array(nodes).tobytes() == want.tobytes()
            assert np.array(edges).tobytes() == partition._safe_log(draws.edge_tables).tobytes()
        assert values[0] == values[2] != values[1] == values[3]


class TestContinuousModel:
    def test_gaussian_with_partition_kernel(self):
        """A genuinely continuous instance: Gaussian node potential and a
        sampled zero-one partition-form kernel over the cells."""
        from gibbslab import gaussian_kernel_potential
        from gibbslab.models import (EdgePotentialSpec, ModelSpec,
                                     NodePotentialSpec, SoftStateParams)
        domain, h_table = gaussian_kernel_potential(half_width=2.0, n_cells=24)
        mids = domain.midpoints()
        # zero classes [-2, -1) and [0.5, 1.5); -1 marks a cell outside both
        cls = np.select([(mids >= -2.0) & (mids < -1.0),
                         (mids >= 0.5) & (mids < 1.5)], [0, 1], -1)
        j_table = ((cls[:, None] != cls[None, :]) | (cls[:, None] < 0)).astype(float)
        # soft region: cells inside [0, 0.5) interact with everything (J = 1
        # there since [0, 0.5) meets no zero class together with any class)
        soft = SoftStateParams(kappa=0.5, rho_min=1e-3, rho_max=4.0, j_max=1.0,
                               alpha=1.0)
        model = ModelSpec("talagrand_toy", domain,
                          NodePotentialSpec(table=h_table),
                          EdgePotentialSpec(2, j_table[None], [1.0]),
                          soft, {})
        inst = make_instance(model, _graph(2, [[0, 1]]), 0)
        got = log_z_exact(inst).value
        assert got == pytest.approx(naive_log_z(inst), rel=1e-10)
        lo, hi = logz_bounds(inst)
        assert lo - 1e-9 <= got <= hi + 1e-9

    def test_chunked_continuous_enumeration(self):
        """512-cell Gaussian domain on two nodes: one 512 x 512 factor."""
        from gibbslab import gaussian_kernel_potential
        from gibbslab.models import (EdgePotentialSpec, ModelSpec,
                                     NodePotentialSpec, SoftStateParams)
        domain, h_table = gaussian_kernel_potential()
        soft = SoftStateParams(kappa=1.0, rho_min=1e-6, rho_max=4.0, j_max=1.0,
                               alpha=1.0)
        model = ModelSpec("gauss_pair", domain, NodePotentialSpec(table=h_table),
                          EdgePotentialSpec(2, np.ones((1, 512, 512)), [1.0]),
                          soft, {})
        inst = make_instance(model, _graph(2, [[0, 1]]), 0)
        # J = 1: Z factorizes into the squared Gaussian quadrature
        assert log_z_exact(inst).value == pytest.approx(
            2 * math.log(float(h_table @ domain.lengths)), rel=1e-10)


class TestSerialization:
    def test_logz_row_shapes(self):
        row = logz_row(LogZ(1.25), 3)
        assert row == {"logz": 1.25, "method": "exact", "seed": 3}
        row = logz_row(LogZ(-math.inf), 0)
        assert row["logz"] == "-inf"
        m = build_model("potts", q=2, beta=0.0)
        inst = make_instance(m, _graph(2, [[0, 1]]), 0)
        est = log_z_mc(inst, samples=4, seed=1)
        assert logz_row(est, 1) == {"logz": est.value, "method": "mc", "seed": 1,
                                    "se": est.std_error, "zero_fraction": 0.0,
                                    "ess": est.ess}
        bound = McLogZ(-math.inf, None, 10, 2, 1.0, log_upper_bound=3.5)
        assert logz_row(bound, 2) == {"logz": "-inf", "method": "mc", "seed": 2,
                                      "zero_fraction": 1.0, "log_upper_bound": 3.5}

    def test_instance_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            inst = random_instance(rng)
            back = instance_from_json(instance_to_json(inst))
            np.testing.assert_array_equal(back.graph.edges, inst.graph.edges)
            np.testing.assert_array_equal(back.potentials.node_tables,
                                          inst.potentials.node_tables)
            np.testing.assert_array_equal(back.potentials.edge_tables,
                                          inst.potentials.edge_tables)
            assert log_z_exact(back).value == log_z_exact(inst).value

    def test_embedded_round_trip(self):
        m = embed_discrete(build_model("ising", beta=0.3))
        inst = make_instance(m, _graph(2, [[0, 1]]), 4)
        back = instance_from_json(instance_to_json(inst))
        assert back.model.name == m.name
        assert log_z_exact(back).value == log_z_exact(inst).value

    def test_shape_validation(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        good = make_instance(m, _graph(2, [[0, 1]]), 0)
        with pytest.raises(ValueError):
            Instance(_graph(3, [[0, 1]]), good.potentials, m)
        with pytest.raises(ValueError, match="edge tables do not match"):
            Instance(_graph(2, [[0, 1], [1, 0]]), good.potentials, m)
