"""Model zoo: potentials, soft-state constants, embedding, and draws."""

import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from gibbslab import (
    Discrete,
    Hypergraph,
    ModelConfigError,
    PiecewiseContinuous,
    SoftStateParams,
    ZOO_MODELS,
    build_model,
    draw_potentials,
    embed_discrete,
    gaussian_kernel_potential,
    log_z_exact,
    make_instance,
    verify_soft_state,
)
from gibbslab.convexity import certify_model
from gibbslab.models import (
    EdgePotentialSpec,
    NodePotentialSpec,
    _check_law_size,
    model_from_config,
    model_to_config,
)
from gibbslab.seeds import EDGE_POTENTIALS, substream

from conftest import random_zoo_model


class TestBuildModel:
    def test_independent_set_soft_constants(self):
        """lambda = 1: kappa=1, rho_min=1, rho_max=2, J_max=1."""
        m = build_model("independent_set", **{"lambda": 1.0})
        assert (m.soft.kappa, m.soft.rho_min, m.soft.rho_max, m.soft.j_max) \
            == (1.0, 1.0, 2.0, 1.0)
        j = m.edge_pot.tables[0]
        assert j[1, 1] == 0.0 and j[0, 0] == j[0, 1] == j[1, 0] == 1.0

    def test_potts_beta_zero_is_trivial(self):
        """beta = 0 makes every edge weight 1 and J_max = 1."""
        m = build_model("potts", q=3, beta=0.0)
        j = m.edge_pot.tables[0]
        np.testing.assert_array_equal(j, np.ones((3, 3)))
        assert m.soft.j_max == 1.0

    def test_ksat_soft_constants(self):
        """K=3, beta=0.5: J_max=1, kappa=rho_max=2, rho_min=e^-0.5."""
        m = build_model("ksat", k=3, beta=0.5)
        assert m.soft.j_max == 1.0
        assert m.soft.kappa == 2.0 and m.soft.rho_max == 2.0
        assert m.soft.rho_min == math.exp(-0.5)

    def test_ising_antiferromagnetic_kernel(self):
        """beta > 0 favors disagreement: J(equal) = e^-beta < J(unequal)."""
        m = build_model("ising", beta=0.8, h=1.5)
        j = m.edge_pot.tables[0]
        assert j[0, 0] == j[1, 1] == pytest.approx(math.exp(-0.8))
        assert j[0, 1] == j[1, 0] == pytest.approx(math.exp(0.8))
        assert m.soft.j_max == pytest.approx(math.exp(0.8))
        assert m.soft.alpha == m.soft.j_max

    def test_viana_bray_soft_constants(self):
        m = build_model("viana_bray", k=3, beta=0.6, h=2.0)
        c_i = 1.0
        assert m.soft.j_max == max(2.0, math.exp(0.6 * c_i))
        assert m.soft.rho_max >= 1.0 + 2.0  # integral of h must fit under rho_max
        assert m.soft.kappa == 2.0

    def test_param_validation(self):
        with pytest.raises(ModelConfigError):
            build_model("no_such_model", beta=1.0)
        with pytest.raises(ModelConfigError):
            build_model("independent_set", **{"lambda": -1.0})
        with pytest.raises(ModelConfigError):
            build_model("potts", q=1, beta=0.5)
        with pytest.raises(ModelConfigError):
            build_model("potts", q=3, beta=-0.5)
        with pytest.raises(ModelConfigError):
            build_model("ksat", k=1, beta=0.5)
        with pytest.raises(ModelConfigError):
            build_model("viana_bray", k=2, beta=0.5,
                        i_values=[1.0, -2.0], i_probs=[0.5, 0.5])
        with pytest.raises(ModelConfigError):
            build_model("independent_set", **{"lambda": 1.0, "bogus": 3})

    @pytest.mark.parametrize("name, params, match", [
        ("ising", {"beta": -0.5}, "ferromagnetic ising"),
        ("ising", {"beta": 0.5, "h": 0.0}, "external field h must be positive"),
        ("viana_bray", {"k": 1, "beta": 0.5}, "arity k must be >= 2"),
        ("viana_bray", {"k": 2, "beta": 0.0}, "viana-bray needs beta > 0"),
        ("viana_bray", {"k": 2, "beta": 0.5, "h": -1.0}, "h must be positive"),
        ("viana_bray", {"k": 2, "beta": 0.5, "i_values": [1.0, -1.0],
                        "i_probs": [0.5, 0.4]}, "i_probs must be positive and sum to 1"),
        ("ksat", {"k": 3, "beta": -0.1}, "ksat needs beta >= 0"),
    ])
    def test_param_refusals_name_their_message(self, name, params, match):
        with pytest.raises(ModelConfigError, match=match):
            build_model(name, **params)

    @pytest.mark.parametrize("name, params", [
        ("potts", {"q": 2.5, "beta": 1.0}),
        ("potts", {"q": math.inf, "beta": 1.0}),
        ("ksat", {"k": 3.5, "beta": 0.5}),
        ("viana_bray", {"k": 2.000001, "beta": 0.5}),
        ("xor", {"k": math.nan, "beta": 0.5}),
    ])
    def test_non_integral_q_or_k_rejected(self, name, params):
        """q and k are not truncated: 2.5 is refused, not read as 2."""
        with pytest.raises(ModelConfigError, match="bad parameter"):
            build_model(name, **params)

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), "3"])
    def test_integral_q_and_k_accepted(self, value):
        assert build_model("potts", q=value, beta=1.0).params["q"] == 3
        assert build_model("ksat", k=value, beta=0.5).arity == 3

    @pytest.mark.parametrize("name, params", [
        ("ising", {"beta": 1.0, "h": 1e308}),
        ("viana_bray", {"k": 2, "beta": 1.0, "h": 1e308}),
        ("independent_set", {"lambda": math.inf}),
    ])
    def test_non_finite_soft_constant_rejected(self, name, params):
        """A parameter whose rho_max overflows to inf is refused."""
        with pytest.raises(ModelConfigError, match="rho_max = inf is not finite"):
            build_model(name, **params)

    @pytest.mark.parametrize("name, params", [
        ("ksat", {"k": 13, "beta": 1.0}),
        ("xor", {"k": 24, "beta": 1.0}),
        ("potts", {"q": 4097, "beta": 1.0}),
    ])
    def test_law_above_cap_rejected(self, name, params):
        """The first law past 2^24 table entries in all (4^13, 2 * 2^24,
        4097^2) is refused before a table is built; 2^24 itself passes."""
        with pytest.raises(ModelConfigError, match="exceed cap 16777216"):
            build_model(name, **params)
        for n_tables, q, k in ((1, 4, 12), (2, 2, 23), (1, 4096, 2)):
            _check_law_size(n_tables, q, k)

    def test_tables_match_entrywise_construction(self):
        """The vectorised tables equal their entrywise constructions bit for
        bit: XOR's exp(beta * I * prod x) over the meshgrid sign product
        (k = 2..8), each K-SAT table ones with exp(-beta) at its sign tuple."""
        for k in range(2, 9):
            grids = np.meshgrid(*([np.array([-1.0, 1.0])] * k), indexing="ij")
            signs = np.ones((2,) * k)
            for g in grids:
                signs = signs * g
            want = np.stack([np.exp(0.7 * signs), np.exp(-0.7 * signs)])
            got = build_model("xor", k=k, beta=0.7).edge_pot.tables
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for k in (2, 3, 5):
            law = build_model("ksat", k=k, beta=0.7).edge_pot
            assert law.tables.shape == (2 ** k,) + (2,) * k
            for i, (table, prob) in enumerate(zip(law.tables, law.probs, strict=True)):
                want = np.ones((2,) * k)
                want[tuple((i >> (k - 1 - j)) & 1 for j in range(k))] = math.exp(-0.7)
                assert table.tobytes() == want.tobytes() and prob == 0.5 ** k

    def test_xor_build_memory(self):
        """Building XOR k=14 peaks within 4x its law's bytes (tracemalloc)."""
        tracemalloc.start()
        try:
            model = build_model("xor", k=14, beta=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * model.edge_pot.tables.nbytes

    @pytest.mark.parametrize("name, params, bound", [
        ("ksat", {"k": 10, "beta": 1.0}, 1.25),
        ("viana_bray", {"k": 16, "beta": 0.5}, 1.6),
        ("potts", {"q": 1024, "beta": 1.0}, 2.25),
    ])
    def test_build_memory_near_law_size(self, name, params, bound):
        """Each builder makes its law once, as the array the spec adopts:
        the tracemalloc peak of build_model, the Potts witness's q x q phi
        included, stays within ``bound`` times the law's bytes."""
        tracemalloc.start()
        try:
            model = build_model(name, **params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * model.edge_pot.tables.nbytes

    def test_law_array_adopted(self):
        """A float array passed as the law is the law, made read-only; the
        probabilities are read-only too."""
        tables = np.ones((2, 3, 3))
        law = EdgePotentialSpec(2, tables, [0.25, 0.75])
        assert np.shares_memory(law.tables, tables) and not tables.flags.writeable
        assert not law.probs.flags.writeable
        assert law.probs.tolist() == [0.25, 0.75]

    def test_law_view_copied(self):
        """A view is copied, so a write through its base after construction
        does not reach the checked law."""
        j = np.ones((2, 2))
        law = EdgePotentialSpec(2, j[None], [1.0])
        j[0, 0] = -5.0
        assert law.tables[0, 0, 0] == 1.0 and not np.shares_memory(law.tables, j)

    def test_node_table_private_read_only_copy(self):
        """A caller's array is copied, and the table of every zoo model is
        read-only, in a pickled copy too; each builder hands over its law
        array, which the spec adopts without a copy."""
        h = np.array([1.0, 2.0])
        node = NodePotentialSpec(h)
        h[0] = -3.0
        assert node.table.tolist() == [1.0, 2.0]
        rng = np.random.default_rng(3)
        for name in ZOO_MODELS:
            model = random_zoo_model(rng, names=(name,))
            assert model.edge_pot.tables.flags.owndata, name
            for table in (model.node_pot.table,
                          pickle.loads(pickle.dumps(model)).node_pot.table):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = -3.0

    @pytest.mark.parametrize("tables, probs, match", [
        (np.ones((2, 2, 2)), [0.5, 0.25], "sum to 0.75"),
        (np.ones((2, 2, 2)), [1.5, -0.5], "positive"),
        (np.ones((1, 2, 2, 2)), [1.0], "order 3, expected 2"),
        (np.ones((2, 2, 2)), [1.0], "2 tables but probabilities of shape"),
        (np.full((1, 2, 2), np.nan), [1.0], "finite and >= 0"),
        (-np.ones((1, 2, 2)), [1.0], "finite and >= 0"),
    ])
    def test_law_checks(self, tables, probs, match):
        with pytest.raises(ModelConfigError, match=match):
            EdgePotentialSpec(2, tables, probs)

    def test_law_arity_below_two_rejected(self):
        with pytest.raises(ModelConfigError, match="edge arity must be >= 2, got 1"):
            EdgePotentialSpec(1, np.ones((1, 2)), [1.0])

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_node_table_checks(self, value):
        with pytest.raises(ModelConfigError, match="finite and >= 0"):
            NodePotentialSpec([1.0, value])

    @pytest.mark.parametrize("key", ["kappa", "rho_min", "rho_max", "j_max", "alpha"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_soft_state_params_finite(self, key, value):
        constants = dict(kappa=1.0, rho_min=0.5, rho_max=2.0, j_max=1.0, alpha=1.0)
        with pytest.raises(ModelConfigError, match=f"{key} = {value} is not finite"):
            SoftStateParams(**{**constants, key: value})

    def test_soft_state_params_invariants(self):
        with pytest.raises(ModelConfigError):
            SoftStateParams(kappa=1, rho_min=2.0, rho_max=1.0, j_max=0.5, alpha=0.5)
        with pytest.raises(ModelConfigError):
            SoftStateParams(kappa=1, rho_min=0.5, rho_max=1.0, j_max=2.0, alpha=2.0)
        with pytest.raises(ModelConfigError):
            SoftStateParams(kappa=1, rho_min=0.5, rho_max=1.0, j_max=1.0, alpha=0.5)
        with pytest.raises(ModelConfigError, match="kappa must be positive"):
            SoftStateParams(kappa=0, rho_min=0.5, rho_max=1.0, j_max=1.0, alpha=1.0)


class TestEmbedding:
    def test_unit_cells(self):
        m = embed_discrete(build_model("potts", q=3, beta=0.2))
        assert isinstance(m.domain, PiecewiseContinuous)
        assert m.domain.cells == ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))
        np.testing.assert_array_equal(m.domain.lengths, np.ones(3))

    def test_z_preserved_single_edge(self):
        """IS lambda=1 on one edge: Z = 3 in both pictures."""
        m = build_model("independent_set", **{"lambda": 1.0})
        graph = Hypergraph(2, 2, np.array([[0, 1]]))
        z_disc = math.exp(log_z_exact(make_instance(m, graph, 3)).value)
        z_cont = math.exp(log_z_exact(make_instance(embed_discrete(m), graph, 3)).value)
        assert z_disc == pytest.approx(3.0, rel=1e-12)
        assert z_cont == pytest.approx(3.0, rel=1e-12)

    def test_empty_graph_two_cells(self):
        m = embed_discrete(build_model("potts", q=2, beta=0.3))
        graph = Hypergraph(1, 2, np.zeros((0, 2), dtype=int))
        assert math.exp(log_z_exact(make_instance(m, graph, 0)).value) \
            == pytest.approx(2.0, rel=1e-12)

    def test_potts_q3_beta0_single_edge(self):
        m = embed_discrete(build_model("potts", q=3, beta=0.0))
        graph = Hypergraph(2, 2, np.array([[0, 1]]))
        assert math.exp(log_z_exact(make_instance(m, graph, 0)).value) \
            == pytest.approx(9.0, rel=1e-12)

    def test_z_preserved_random_graphs(self):
        """Embedding preserves Z on random graphs with N <= 4 (1e-12 relative)."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = random_zoo_model(rng)
            n = int(rng.integers(1, 5))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 5)), m.arity))
            graph = Hypergraph(n, m.arity, edges)
            seed = int(rng.integers(2 ** 31))
            a = log_z_exact(make_instance(m, graph, seed)).value
            b = log_z_exact(make_instance(embed_discrete(m), graph, seed)).value
            assert b == pytest.approx(a, rel=1e-12)

    def test_requires_discrete(self):
        m = embed_discrete(build_model("ising", beta=0.1))
        with pytest.raises(ModelConfigError):
            embed_discrete(m)


class TestDraws:
    def test_deterministic_model_draws_identical(self):
        m = build_model("independent_set", **{"lambda": 0.7})
        graph = Hypergraph(3, 2, np.array([[0, 1], [1, 2]]))
        draws = draw_potentials(m, graph, 9)
        for u in range(3):
            np.testing.assert_array_equal(draws.node_tables[u], m.node_pot.table)
        for e in range(2):
            np.testing.assert_array_equal(draws.edge_tables[e],
                                          m.edge_pot.tables[0])

    def test_ksat_sign_tuple_frequencies(self):
        """K=2 sign tuples are uniform over 4 outcomes (3 SE over 1e5 draws)."""
        m = build_model("ksat", k=2, beta=1.0)
        n_draws = 100_000
        graph = Hypergraph(1, 2, np.zeros((n_draws, 2), dtype=int))
        draws = draw_potentials(m, graph, 123)
        flat = draws.edge_tables.reshape(n_draws, 4)
        which = np.argmin(flat, axis=1)
        counts = np.bincount(which, minlength=4)
        se = math.sqrt(n_draws * 0.25 * 0.75)
        for c in counts:
            assert abs(c - n_draws / 4) <= 3 * se

    def test_same_seed_same_draws(self):
        m = build_model("viana_bray", k=2, beta=0.5, h=1.3)
        graph = Hypergraph(4, 2, np.array([[0, 1], [2, 3], [1, 2]]))
        a = draw_potentials(m, graph, 77)
        b = draw_potentials(m, graph, 77)
        np.testing.assert_array_equal(a.node_tables, b.node_tables)
        np.testing.assert_array_equal(a.edge_tables, b.edge_tables)

    def test_law_held_once(self):
        """The law is one read-only stacked array with read-only
        probabilities, also in a pickled copy."""
        model = build_model("viana_bray", k=3, beta=0.5,
                            i_values=[1.0, 0.0, -1.0], i_probs=[0.25, 0.5, 0.25])
        copy = pickle.loads(pickle.dumps(model)).edge_pot
        for law in (model.edge_pot, copy):
            assert law.tables.shape == (3, 2, 2, 2) and not law.tables.flags.writeable
            assert law.probs.tolist() == [0.25, 0.5, 0.25] and not law.probs.flags.writeable
        assert copy.tables.tobytes() == model.edge_pot.tables.tobytes()
        for law in (model.edge_pot, copy):
            with pytest.raises(ValueError, match="read-only"):
                law.tables[0, 0, 0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                law.probs[0] = 0.5

    def test_arity_mismatch(self):
        m = build_model("ksat", k=3, beta=0.5)
        graph = Hypergraph(2, 2, np.array([[0, 1]]))
        with pytest.raises(ModelConfigError):
            draw_potentials(m, graph, 0)

    @pytest.mark.parametrize("model", [
        build_model("independent_set", **{"lambda": 0.7}),
        build_model("potts", q=3, beta=0.4),
        build_model("ising", beta=0.5, h=1.3),
        build_model("viana_bray", k=3, beta=0.6, h=0.9,
                    i_values=[1.0, 0.5, -0.5, -1.0], i_probs=[0.2, 0.3, 0.3, 0.2]),
        build_model("xor", k=2, beta=0.6),
        build_model("ksat", k=3, beta=0.5),
        embed_discrete(build_model("ksat", k=2, beta=0.8)),
    ], ids=lambda m: m.name)
    @pytest.mark.parametrize("m_edges", [0, 1, 37])
    def test_draw_order_pinned(self, model, m_edges):
        """Replay depends on this order: edge e gets the e-th single draw
        rng.choice(len(probs), p=probs) from the EDGE_POTENTIALS substream
        (none for a one-table law), and every node gets the node table."""
        seed = 2 ** 70 + 11
        edges = np.random.default_rng(m_edges).integers(0, 5, size=(m_edges, model.arity))
        draws = draw_potentials(model, Hypergraph(5, model.arity, edges), seed)
        tables, probs = model.edge_pot.tables, model.edge_pot.probs.tolist()
        rng = substream(seed, EDGE_POTENTIALS)
        expected = [tables[rng.choice(len(probs), p=probs) if len(probs) > 1 else 0]
                    for _ in range(m_edges)]
        assert draws.edge_tables.shape == (m_edges,) + (model.n_states,) * model.arity
        for got, want in zip(draws.edge_tables, expected):
            np.testing.assert_array_equal(got, want)
        assert draws.node_tables.shape == (5, model.n_states)
        for row in draws.node_tables:
            np.testing.assert_array_equal(row, model.node_pot.table)


class TestSoftStateAssumption:
    def test_zoo_models_verify(self):
        """Exhaustive soft-state check passes for the stored constants."""
        rng = np.random.default_rng(7)
        for _ in range(40):
            m = random_zoo_model(rng)
            assert verify_soft_state(m) == [], m.name

    def test_large_beta_still_valid(self):
        """rho_max absorbs sup J even deep in the large-beta regime."""
        for m in (build_model("ising", beta=3.0, h=0.7),
                  build_model("viana_bray", k=2, beta=2.5, h=1.0),
                  build_model("potts", q=2, beta=4.0)):
            assert verify_soft_state(m) == []

    def test_embedded_models_verify(self):
        for m in (build_model("independent_set", **{"lambda": 0.6}),
                  build_model("ksat", k=3, beta=0.9)):
            assert verify_soft_state(embed_discrete(m)) == []

    def test_violation_detected(self):
        m = build_model("independent_set", **{"lambda": 1.0})
        bad_soft = SoftStateParams(kappa=1.0, rho_min=1.5, rho_max=2.0,
                                   j_max=1.0, alpha=1.0)
        from dataclasses import replace
        assert verify_soft_state(replace(m, soft=bad_soft)) != []


class TestVianaBrayStructure:
    def test_decomposition_identity(self):
        """alpha - J = (alpha - cosh(beta I)) - sinh(beta I) prod x over all I
        values and sign tuples: the witness's residual and a loop over the
        tables agree within 1e-12 * J_max."""
        for k in (2, 3):
            m = build_model("viana_bray", k=k, beta=0.9, h=1.4)
            assert certify_model(m).detail["residual"] <= 1e-12 * m.soft.j_max
            for i_val, table in zip((1.0, -1.0), m.edge_pot.tables, strict=True):
                for idx in np.ndindex(table.shape):
                    spin_product = math.prod(2 * c - 1 for c in idx)
                    rhs = (m.soft.alpha - math.cosh(0.9 * i_val)
                           - math.sinh(0.9 * i_val) * spin_product)
                    assert abs(m.soft.alpha - table[idx] - rhs) <= 1e-12 * m.soft.j_max

    def test_xor_parity_tables(self):
        """I=+1: even number of -1 spins gets e^beta; reversed for I=-1."""
        beta = 0.6
        m = build_model("xor", k=3, beta=beta)
        i_values = [1.0, -1.0]
        for i_val, table, prob in zip(i_values, m.edge_pot.tables, m.edge_pot.probs,
                                      strict=True):
            assert prob == 0.5
            for idx in np.ndindex(table.shape):
                minus_count = sum(1 for c in idx if c == 0)
                parity = 1.0 if minus_count % 2 == 0 else -1.0
                assert table[idx] == pytest.approx(math.exp(beta * i_val * parity))


class TestContinuousPieces:
    def test_gaussian_kernel_grid(self):
        domain, table = gaussian_kernel_potential(half_width=4.0, n_cells=64)
        assert domain.n_states == 64
        np.testing.assert_allclose(domain.lengths, 0.125)
        mids = domain.midpoints()
        np.testing.assert_allclose(table, np.exp(-mids ** 2))
        # composite midpoint approximates the Gaussian integral sqrt(pi)
        assert float(table @ domain.lengths) == pytest.approx(math.sqrt(math.pi),
                                                              rel=1e-3)

    def test_cell_validation(self):
        with pytest.raises(ModelConfigError):
            PiecewiseContinuous(((0.0, 1.0), (0.5, 2.0)))
        with pytest.raises(ModelConfigError):
            PiecewiseContinuous(((0.0, 0.0),))
        with pytest.raises(ModelConfigError):
            Discrete(1)
        with pytest.raises(ModelConfigError, match="at least one cell"):
            PiecewiseContinuous(())
        with pytest.raises(ModelConfigError, match="half_width > 0"):
            gaussian_kernel_potential(0)


class TestConfig:
    def test_round_trip_fixed_field_names(self):
        m = build_model("ksat", k=3, beta=0.5)
        cfg = model_to_config(m, 11)
        assert set(cfg) == {"model", "params", "seed"}
        text = json.dumps(cfg)
        m2, seed = model_from_config(json.loads(text))
        assert seed == 11
        assert m2.name == m.name and m2.params == m.params

    def test_missing_field(self):
        with pytest.raises(ModelConfigError):
            model_from_config({"model": "potts", "params": {"q": 2, "beta": 0.1}})

    def test_all_zoo_names_build(self):
        params = {"independent_set": {"lambda": 1.0},
                  "potts": {"q": 2, "beta": 0.5},
                  "ising": {"beta": 0.5},
                  "viana_bray": {"k": 2, "beta": 0.5},
                  "xor": {"k": 2, "beta": 0.5},
                  "ksat": {"k": 2, "beta": 0.5}}
        for name in ZOO_MODELS:
            m = build_model(name, **params[name])
            assert m.soft.alpha >= m.soft.j_max
