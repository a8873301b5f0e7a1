"""Property tests over random instances: the exact evaluators (log space and
rational) against the rational oracle, component factorization at the
disjoint-union endpoint, invariance under the discrete-to-continuous
embedding, the bucket-elimination pass against the 0.7.0 reference bit for
bit, refusal past the state cap while the order is planned, the
sample-major chain task against the per-point pipeline and plain draws,
the Monte Carlo shard against the per-node ``rng.choice`` reference, the
closed-form minimal PSD shift against a direct scan and
against the scipy formulation it replaced, and the vectorised soft-state
check against the per-tuple loop."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.linalg import eigh, null_space

from gibbslab import (
    Discrete,
    EdgePotentialSpec,
    Hypergraph,
    Instance,
    InterpolationPoint,
    ModelSpec,
    NodePotentialSpec,
    PiecewiseContinuous,
    PotentialDraws,
    SoftStateParams,
    StateSpaceCapError,
    add_edge,
    build_model,
    certify_model,
    edge_count,
    embed_discrete,
    log_z_exact,
    log_z_mc,
    make_instance,
    min_alpha_psd,
    replace_node_table,
    sample_er,
    sample_interpolated,
    verify_soft_state,
    z_exact_rational,
    z_exact_rational_edge_added,
)

from gibbslab import harness, partition
from gibbslab.graphs import _chain_graphs
from gibbslab.partition import MC_SHARD_SIZE, _mc_shard, _safe_log
from gibbslab.seeds import MC_SHARD, SAMPLE, derive_seed, substream

from naive import (
    NAIVE_LOG,
    NAIVE_RATIONAL,
    naive_eliminate,
    naive_elimination_order,
    naive_expected_tensor,
    naive_log_z,
    naive_mc_shard,
    naive_power_sum_tensor,
    naive_safe_log,
    naive_verify_soft_state,
    naive_z,
)

# Derandomized so every run checks the same examples.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def discrete_models(draw, names=("independent_set", "potts", "ising", "viana_bray",
                                 "xor", "ksat")):
    """A zoo model with K and q up to 3."""
    name = draw(st.sampled_from(names))
    k = draw(st.integers(2, 3))
    beta = draw(st.floats(0.3, 1.0))
    h = draw(st.floats(0.5, 2.0))
    if name == "independent_set":
        model = build_model(name, **{"lambda": draw(st.floats(0.3, 2.5))})
    elif name == "potts":
        model = build_model(name, q=draw(st.integers(2, 3)), beta=beta)
    elif name == "ising":
        model = build_model(name, beta=beta, h=h)
    elif name == "viana_bray":
        model = build_model(name, k=k, beta=beta, h=h)
    else:
        model = build_model(name, k=k, beta=beta)
    return model


def zoo_models(names=None):
    """Zoo models, embedded in the continuous domain in half of the draws."""
    models = discrete_models(names) if names else discrete_models()
    return st.tuples(models, st.booleans()).map(
        lambda pair: embed_discrete(pair[0]) if pair[1] else pair[0])


def _edges(draw, n, k, max_edges):
    """Ordered K-tuples over [0, n); a node may repeat within a tuple."""
    tuples = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                           max_size=max_edges))
    return np.array(tuples, dtype=np.int64).reshape(-1, k)


@st.composite
def oracle_instances(draw, max_assignments=256):
    """Instances small enough for the rational oracle.  In half of them the
    edge tables are replaced by asymmetric random tables with zeros, and some
    node-table entries are zeroed, so that Z = 0 occurs."""
    model = draw(zoo_models())
    n_max = int(math.log(max_assignments, model.n_states) + 1e-9)
    n = draw(st.integers(1, n_max))
    graph = Hypergraph(n, model.arity, _edges(draw, n, model.arity, 2 * n))
    inst = make_instance(model, graph, draw(SEEDS))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(SEEDS))
        shape = inst.potentials.edge_tables.shape
        tables = np.where(rng.random(shape) < 0.2, 0.0, rng.uniform(0.1, 2.0, shape))
        inst = Instance(graph, PotentialDraws(inst.potentials.node_tables, tables), model)
    zeroed = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, model.n_states - 1)), max_size=n))
    for u, x in zeroed:
        table = inst.potentials.node_tables[u].copy()
        table[x] = 0.0
        inst = replace_node_table(inst, u, table)
    return inst


@PROPERTY
@given(oracle_instances())
def test_exact_matches_rational_oracle(inst):
    assert z_exact_rational(inst) == naive_z(inst)
    got = log_z_exact(inst).value
    want = naive_log_z(inst)
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


@PROPERTY
@given(oracle_instances(), st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3))
def test_rational_z_is_exact_on_uneven_cells(inst, widths):
    """Cell lengths such as 0.1 round when multiplied by a potential in
    floats; the rational evaluator multiplies them as rationals."""
    cuts = np.cumsum([0.0] + widths[:inst.model.n_states]).tolist()
    domain = PiecewiseContinuous(tuple(zip(cuts[:-1], cuts[1:])))
    inst = Instance(inst.graph, inst.potentials,
                    dataclasses.replace(inst.model, domain=domain))
    assert z_exact_rational(inst) == naive_z(inst)


@PROPERTY
@given(oracle_instances(max_assignments=32), SEEDS)
def test_edge_added_matches_rational_oracle(inst, seed):
    """Z(G + e) for the extra edge at every K-tuple, repeated nodes included,
    under random tables with zeros."""
    rng = np.random.default_rng(seed)
    shape = (inst.model.n_states,) * inst.model.arity
    tables = [np.where(rng.random(shape) < 0.2, 0.0, rng.uniform(0.1, 2.0, shape))
              for _ in range(2)]
    got = z_exact_rational_edge_added(inst, tables)
    assert got.shape == (2,) + (inst.graph.n_nodes,) * inst.model.arity
    for (t, *placement), z in np.ndenumerate(got):
        assert z == naive_z(add_edge(inst, placement, tables[t]))


@PROPERTY
@given(zoo_models(names=("independent_set",)), st.integers(1, 12), st.data())
def test_forced_hard_core_conflict_is_zero(model, n, data):
    """Forcing both ends of an edge occupied (or the node of a loop) gives
    Z = 0, so log Z is -inf exactly."""
    edges = _edges(data.draw, n, 2, 2 * n)
    edges = np.vstack([edges, data.draw(st.lists(st.integers(0, n - 1),
                                                 min_size=2, max_size=2))])
    inst = make_instance(model, Hypergraph(n, 2, edges), data.draw(SEEDS))
    for u in set(edges[-1].tolist()):
        inst = replace_node_table(inst, u, [0.0, 1.0])
    assert log_z_exact(inst).value == -math.inf


@st.composite
def elimination_cases(draw):
    """(instance, keep) for the bit-identity check against the 0.7.0 pass.
    Oracle-style instances up to 2^12 assignments (zeros, Z = 0, embedded
    models); in half of them an extra edge repeats a node (a loop at K = 2,
    a diagonal at K = 3); a hard-core instance gets both ends of an extra
    edge forced occupied in half of the draws; and up to three kept nodes."""
    inst = draw(oracle_instances(max_assignments=4096))
    n, k, q = inst.graph.n_nodes, inst.model.arity, inst.model.n_states
    if draw(st.booleans()):
        placement = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        i, j = draw(st.permutations(range(k)))[:2]
        placement[j] = placement[i]
        rng = np.random.default_rng(draw(SEEDS))
        table = np.where(rng.random((q,) * k) < 0.2, 0.0, rng.uniform(0.1, 2.0, (q,) * k))
        inst = add_edge(inst, placement, table)
    if inst.model.name.startswith("independent_set") and draw(st.booleans()):
        edge = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2))
        inst = add_edge(inst, edge, np.array([[1.0, 1.0], [1.0, 0.0]]))
        for u in set(edge):
            inst = replace_node_table(inst, u, [0.0, 1.0])
    keep = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    return inst, tuple(sorted(keep))


def _bits(value):
    """A float by its hex, an array by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    return float(value).hex()


@PROPERTY
@given(elimination_cases())
def test_log_elimination_matches_070_pass_bit_for_bit(case):
    """log Z, and the log marginal table over ``keep`` (-inf entries and a
    -inf Z included), are the 0.7.0 pass's to the last bit."""
    inst, keep = case
    assert _bits(log_z_exact(inst).value) == _bits(naive_eliminate(inst, NAIVE_LOG))
    ring = partition._LOG
    got = partition._eliminate(*partition._factors(inst, ring), ring, keep=keep)
    assert _bits(got) == _bits(naive_eliminate(inst, NAIVE_LOG, keep))


@PROPERTY
@given(elimination_cases())
def test_rational_elimination_matches_070_pass(case):
    """Z and the marginal table over ``keep`` as exact rationals, Z = 0
    included, equal the 0.7.0 pass's."""
    inst, keep = case
    z = z_exact_rational(inst)
    assert type(z) is Fraction and z == naive_eliminate(inst, NAIVE_RATIONAL)
    ring = partition._RATIONAL
    got = partition._eliminate(*partition._factors(inst, ring), ring, keep=keep)
    want = naive_eliminate(inst, NAIVE_RATIONAL, keep)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tolist() == np.asarray(want).tolist()


@PROPERTY
@given(st.integers(1, 60), st.integers(2, 4), st.data(), SEEDS)
def test_elimination_order_matches_set_reference(n, k, data, seed):
    """The library's min-degree pass gives the order and width of the 0.7.0
    set-based pass on random hypergraphs: N up to 60, K from 2 to 4, from no
    edges to 3N, tuples that repeat a node, and random kept nodes."""
    rng = np.random.default_rng(seed)
    scopes = rng.integers(0, n, size=(data.draw(st.integers(0, 3 * n)), k)).tolist()
    if scopes and data.draw(st.booleans()):
        scopes[0][-1] = scopes[0][0]  # a tuple that repeats a node
    keep = tuple(sorted(data.draw(st.lists(st.integers(0, n - 1), max_size=6,
                                           unique=True))))
    order, joined_to, width = partition._elimination_order(n, scopes, keep)
    want_order, want_joined, want_width = naive_elimination_order(n, scopes, keep)
    assert (order, width) == (want_order, want_width)
    assert [sorted(joined) for joined in joined_to] == [sorted(j) for j in want_joined]


@pytest.mark.parametrize("n", [250, 1000, 2000])
@pytest.mark.parametrize("k, c", [(2, "0.25"), (2, "0.5"), (3, "0.1"), (3, "1/6")])
def test_elimination_order_matches_set_reference_on_sparse_graphs(n, k, c):
    """On G(N, c) at N up to 2000 in the sparse regime, K = 2 at c <= 1/2
    and K = 3 at c <= 1/6, the pass gives the 0.7.0 order, bucket scopes and
    width: three graphs per case, the first with no kept nodes and the
    others with up to four."""
    rng = np.random.default_rng([n, k])
    for seed in range(3):
        scopes = sample_er(n, c, k, seed).edges.tolist()
        keep = tuple(sorted(set(rng.integers(0, n, size=seed * 2).tolist())))
        order, joined_to, width = partition._elimination_order(n, scopes, keep)
        want_order, want_joined, want_width = naive_elimination_order(n, scopes, keep)
        assert (order, width) == (want_order, want_width)
        assert [sorted(joined) for joined in joined_to] == [sorted(j) for j in want_joined]


@st.composite
def bucket_scope_cases(draw):
    """(instance, keep) over binary spins with positive tables, so that no
    bucket ends the pass early: N up to 12, K 2 or 3, up to N edges on each
    of two node blocks (so the graph is disconnected when both blocks have
    nodes), a tuple that repeats a node in half the draws, and up to three
    kept nodes."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 12))
    n1 = draw(st.integers(1, n))
    edges = []
    for lo, hi in ((0, n1), (n1, n)):
        for _ in range(draw(st.integers(0, hi - lo))):
            edges.append([draw(st.integers(lo, hi - 1)) for _ in range(k)])
    if edges and draw(st.booleans()):
        edges[0][-1] = edges[0][0]  # a tuple that repeats a node
    graph = Hypergraph(n, k, np.array(edges, dtype=np.int64).reshape(-1, k))
    model = build_model("viana_bray", k=k, beta=0.5, h=1.0)
    keep = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    return make_instance(model, graph, draw(SEEDS)), tuple(sorted(keep))


@PROPERTY
@given(bucket_scope_cases())
def test_bucket_scopes_are_the_order_pass_neighbours(case):
    """Every bucket the 0.7.0 pass sums out covers exactly its own position
    and the positions of the nodes the min-degree pass joins it to when it
    goes; the width is the largest such scope, or the kept set."""
    inst, keep = case
    order, joined_to, width = partition._elimination_order(
        inst.graph.n_nodes, inst.graph.edges.tolist(), keep)
    position = {u: i for i, u in enumerate(order)}
    scopes: list = []
    naive_eliminate(inst, NAIVE_LOG, keep, scopes)
    assert len(scopes) == len(joined_to) == inst.graph.n_nodes - len(keep)
    for i, (scope, joined) in enumerate(zip(scopes, joined_to)):
        assert scope == sorted({i} | {position[v] for v in joined})
    assert width == max([len(scope) for scope in scopes] + [len(keep)])


@PROPERTY
@given(elimination_cases())
def test_cap_refuses_exactly_past_the_naive_width(case):
    """Under a 2^4-entry cap, log Z is refused exactly when the 0.7.0
    order's width W has n_states^W past the cap, and the refusal names the
    first bucket past it; otherwise every bit is the 0.7.0 pass's.  A pass
    with one state never stops."""
    inst, _ = case
    n, q, edges = inst.graph.n_nodes, inst.model.n_states, inst.graph.edges.tolist()
    _, joined, width = naive_elimination_order(n, edges)
    cap = 2 ** 4
    with mock.patch.object(partition, "DEFAULT_STATE_CAP", cap):
        assert partition._elimination_order(n, edges, (), 1) == \
            partition._elimination_order(n, edges)
        if q ** width > cap:
            first = next(len(j) + 1 for j in joined if q ** (len(j) + 1) > cap)
            with pytest.raises(StateSpaceCapError, match=f" {q}\\^{first} entries"):
                log_z_exact(inst)
        else:
            assert _bits(log_z_exact(inst).value) == \
                _bits(naive_eliminate(inst, NAIVE_LOG))


@PROPERTY
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=4, max_side=4),
              elements=st.one_of(st.just(0.0), st.floats(0.0, 1e300),
                                 st.floats(0.0, 1e-300))))
def test_safe_log_matches_masked_reference(table):
    """The ``where=`` lift gives the masked-assignment lift byte for byte,
    zeros, subnormals and huge entries included."""
    got, want = _safe_log(table), naive_safe_log(table)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _block(inst, nodes, keep, offset):
    graph = Hypergraph(nodes.stop - nodes.start, inst.graph.arity,
                       inst.graph.edges[keep] - offset)
    pots = PotentialDraws(inst.potentials.node_tables[nodes],
                          inst.potentials.edge_tables[keep])
    return Instance(graph, pots, inst.model)


@PROPERTY
@given(zoo_models(), st.integers(1, 10), st.integers(1, 10),
       st.sampled_from(["0.5", "1", "1.5"]), SEEDS)
def test_disjoint_union_endpoint_factorizes(model, n1, n2, c, seed):
    """At t = floor(c*N) the graph is a disjoint union of the two blocks, so
    log Z is the sum of the blocks' log Z."""
    n = n1 + n2
    point = InterpolationPoint(edge_count(n, c), n1, n2)
    inst = make_instance(model, sample_interpolated(n, c, model.arity, point, seed),
                         seed)
    in1 = np.all(inst.graph.edges < n1, axis=1)
    assert np.all(in1 | np.all(inst.graph.edges >= n1, axis=1))
    z1 = log_z_exact(_block(inst, slice(0, n1), in1, 0)).value
    z2 = log_z_exact(_block(inst, slice(n1, n), ~in1, n1)).value
    assert log_z_exact(inst).value == pytest.approx(z1 + z2, rel=1e-12, abs=1e-12)


@PROPERTY
@given(discrete_models(), st.integers(1, 12), st.data())
def test_embedding_preserves_log_z(model, n, data):
    """Unit cells make the continuous embedding an identity on Z."""
    graph = Hypergraph(n, model.arity, _edges(data.draw, n, model.arity, 2 * n))
    seed = data.draw(SEEDS)
    discrete = log_z_exact(make_instance(model, graph, seed)).value
    embedded = log_z_exact(make_instance(embed_discrete(model), graph, seed)).value
    assert embedded == pytest.approx(discrete, rel=1e-12, abs=1e-12)


@PROPERTY
@given(zoo_models(), st.integers(1, 8), st.data(),
       st.sampled_from(["0.05", "0.1", "0.5", "1", "1.5"]), SEEDS)
def test_chain_values_match_per_point_pipeline(model, n, data, c, seed):
    """Each value of a sample-major chain block is, bit for bit, log Z of the
    instance drawn on its own at that point from the sample's derived seed,
    for every step, every split N1 = 1..N and K = 2 and 3; c = 0.05 gives a
    chain of one graph (m = 0).  Every graph ``_chain_graphs`` returns, for
    all steps and for a drawn subset, is its ``sample_interpolated`` twin."""
    n1 = data.draw(st.integers(1, n))
    lo = data.draw(st.integers(0, 5))
    steps = tuple(range(edge_count(n, c) + 1))
    some = tuple(data.draw(st.lists(st.sampled_from(steps), min_size=1, max_size=4)))
    rows = harness._chain_task((model, n, c, n1, steps, seed), lo, lo + 2)
    assert rows.shape == (2, len(steps))
    for i, row in enumerate(rows, start=lo):
        s = derive_seed(seed, SAMPLE, i)
        twins = [sample_interpolated(n, c, model.arity, InterpolationPoint(t, n1, n - n1), s)
                 for t in steps]
        for chosen in (steps, some):
            graphs = _chain_graphs(n, c, model.arity, n1, chosen, s)
            assert [g.edges.tobytes() for g in graphs] == \
                [twins[t].edges.tobytes() for t in chosen]
        want = [log_z_exact(make_instance(model, twin, s)).value for twin in twins]
        assert [v.hex() for v in row.tolist()] == [v.hex() for v in want]


@PROPERTY
@given(zoo_models(), st.integers(1, 8), st.data(), st.sampled_from(["0.5", "1", "1.5"]),
       SEEDS)
def test_chain_task_steps_are_plain_and_point_draws(model, n, data, c, seed):
    """Step 0 of the split N1 = N is the plain draw ``sample_er``, and one
    step t of any split is ``sample_interpolated`` at t, bit for bit."""
    lo = data.draw(st.integers(0, 5))
    n1 = data.draw(st.integers(1, n))
    t = data.draw(st.integers(0, edge_count(n, c)))
    plain = harness._chain_task((model, n, c, n, (0,), seed), lo, lo + 2)
    point = harness._chain_task((model, n, c, n1, (t,), seed), lo, lo + 2)
    assert plain.shape == point.shape == (2, 1)
    for i, (got_plain, got_point) in enumerate(zip(plain[:, 0], point[:, 0]), start=lo):
        s = derive_seed(seed, SAMPLE, i)
        want_plain = log_z_exact(make_instance(
            model, sample_er(n, c, model.arity, s), s)).value
        want_point = log_z_exact(make_instance(model, sample_interpolated(
            n, c, model.arity, InterpolationPoint(t, n1, n - n1), s), s)).value
        assert float(got_plain).hex() == want_plain.hex()
        assert float(got_point).hex() == want_point.hex()


@pytest.mark.parametrize("entry", [substream, derive_seed])
def test_negative_seed_refused(entry):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        entry(-1, SAMPLE, 0)


# A potential entry: zero in about a third of the draws, so node tables have
# zero-probability states and edge tables have -inf log weights.
TABLE_ENTRIES = st.one_of(st.just(0.0), st.floats(0.01, 10.0))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_mc_shard_matches_choice_reference(q, k, data):
    """The comparison draw and flat-index gather give the per-node
    ``rng.choice`` shard byte for byte, for shard sizes 1, 1000 and
    MC_SHARD_SIZE, with zero-probability states, -inf weights and edge
    tuples that repeat a node."""
    n = data.draw(st.integers(1, 8))
    tables = np.array(data.draw(st.lists(
        st.lists(TABLE_ENTRIES, min_size=q, max_size=q), min_size=n, max_size=n)))
    for u in np.flatnonzero(tables.sum(axis=1) == 0):
        tables[u, data.draw(st.integers(0, q - 1))] = 1.0
    node_probs = tables / tables.sum(axis=1)[:, None]
    edges = _edges(data.draw, n, k, 12)
    log_edges = _safe_log(np.array(data.draw(st.lists(
        TABLE_ENTRIES, min_size=len(edges) * q ** k, max_size=len(edges) * q ** k)))
    ).reshape((len(edges),) + (q,) * k)
    seed, shard = data.draw(SEEDS), data.draw(st.integers(0, 3))
    size = data.draw(st.sampled_from([1, 1000, MC_SHARD_SIZE]))
    got = _mc_shard(node_probs, log_edges, edges, seed, shard, size)
    want = naive_mc_shard(node_probs, log_edges, edges, seed, shard, size)
    assert got.dtype == want.dtype and got.shape == (size,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("q", [256, 257])
def test_mc_shard_matches_choice_reference_at_code_width(q, k):
    """q = 256 is the last q whose state codes fit one byte and q = 257 the
    first that needs two: the shard equals the per-node ``rng.choice``
    shard byte for byte at both, with node 0 drawing the top state q - 1
    most of the time, zero-probability states and -inf weights."""
    rng = np.random.default_rng(q * 10 + k)
    n = 4
    tables = rng.random((n, q)) * (rng.random((n, q)) < 0.7)
    tables[0, -1] = 10.0 * q
    node_probs = tables / tables.sum(axis=1)[:, None]
    edges = np.array([[0, 1], [2, 2], [3, 0], [1, 3]])[:, :k]
    log_edges = _safe_log(rng.random((len(edges),) + (q,) * k)
                          * (rng.random((len(edges),) + (q,) * k) < 0.9))
    got = _mc_shard(node_probs, log_edges, edges, 5, 1, 1000)
    want = naive_mc_shard(node_probs, log_edges, edges, 5, 1, 1000)
    assert got.dtype == want.dtype and got.shape == (1000,)
    assert got.tobytes() == want.tobytes()


def test_mc_shard_tie_goes_to_the_upper_state():
    """A uniform equal to a cdf entry picks the next state, as searchsorted
    'right' does in ``rng.choice``: p = (u, 1 - u) for the shard's first
    uniform u >= 1/2 makes cdf[0] == u exactly."""
    seed = next(s for s in range(100)
                if substream(s, MC_SHARD, 0).random() >= 0.5)
    u = substream(seed, MC_SHARD, 0).random()
    node_probs = np.array([[u, 1.0 - u]])
    assert node_probs.cumsum()[0] == u and node_probs.sum() == 1.0
    log_edges = np.log([[1.0, 2.0]])
    edges = np.zeros((1, 1), dtype=np.int64)
    got = _mc_shard(node_probs, log_edges, edges, seed, 0, 3)
    want = naive_mc_shard(node_probs, log_edges, edges, seed, 0, 3)
    assert got[0] == math.log(2.0)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(zoo_models(), st.integers(1, 30), st.sampled_from([0.5, 1.0, 1.5]), SEEDS)
def test_log_z_mc_matches_reference_shards(model, n, c, seed):
    """An estimate over two full shards and a partial one equals, field by
    field, the estimate built from the reference shards."""
    inst = make_instance(model, sample_er(n, c, model.arity, seed), seed)
    samples = 2 * MC_SHARD_SIZE + 17
    got = log_z_mc(inst, samples, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "_mc_shard", naive_mc_shard)
        want = log_z_mc(inst, samples, seed)
    assert [repr(f) for f in dataclasses.astuple(got)] == \
        [repr(f) for f in dataclasses.astuple(want)]


@PROPERTY
@given(st.integers(1, 6), st.floats(0.5, 3.0), SEEDS)
def test_min_alpha_psd_is_the_minimal_shift(n, scale, seed):
    """On random symmetric J the verdict matches the doubling scan of
    criterion 05; a returned shift passes its PSD check and a shift 1e-6
    relative lower has a negative eigenvalue, unless the shift is J_max
    itself; a no_alpha witness is zero-sum."""
    j = np.random.default_rng(seed).normal(size=(n, n)) * scale
    j = 0.5 * (j + j.T)
    j_max = float(j.max())
    cert = min_alpha_psd(j, j_max)
    tol = 1e-9 * (1.0 + float(np.abs(j).max()))
    alpha, scan_found = j_max, False
    while alpha <= 1e6 * max(1.0, float(np.abs(j).max())):
        if np.linalg.eigvalsh(alpha - j).min() >= -tol:
            scan_found = True
            break
        alpha = alpha * 2.0 if alpha > 0 else 1.0
    assert (cert.verdict == "psd_for_alpha") == scan_found
    if cert.verdict == "psd_for_alpha":
        assert np.linalg.eigvalsh(cert.alpha - j).min() >= -1e-9 * (1.0 + abs(cert.alpha))
        lower = cert.alpha - 1e-6 * (1.0 + abs(cert.alpha))
        assert cert.alpha == j_max or np.linalg.eigvalsh(lower - j).min() < 0.0
    else:
        assert abs(float(np.sum(cert.witness))) < 1e-9


def _scipy_min_shift(j):
    """Reference verdict and shift in scipy's null_space/eigh basis, and the
    condition number of the R0 block on its non-flat part."""
    n = j.shape[0]
    u = np.full(n, 1.0 / math.sqrt(n))
    basis = null_space(np.ones((1, n)))
    eigs, vecs = eigh(basis.T @ (-j) @ basis)
    b = vecs.T @ (basis.T @ (-j @ u))
    c = -float(u @ j @ u)
    tol = 1e-9 * (1.0 + float(np.abs(j).max()))
    flat = eigs <= tol
    if (eigs.size and eigs[0] < -tol) or np.any(flat & (np.abs(b) > tol * math.sqrt(n))):
        return "no_alpha", None, 1.0
    alpha = (float(np.sum(b[~flat] ** 2 / eigs[~flat])) - c) / n
    cond = float(np.abs(eigs).max() / eigs[~flat].min()) if np.any(~flat) else 1.0
    return "psd_for_alpha", alpha, cond


@PROPERTY
@given(st.integers(1, 6), st.floats(0.5, 3.0), st.sampled_from(["normal", "neg_gram"]),
       st.floats(-2.0, 2.0), SEEDS)
def test_r0_split_matches_scipy_reference(n, scale, family, coupling, seed):
    """min_alpha_psd gives the verdict of the scipy null_space/eigh
    formulation, and the same shift within 1e-12 relative, on random
    symmetric J: Gaussian ones, and -AA' plus a coupling of a random vector
    to the ones vector (flat on R0 when A has low rank, so both no_alpha
    witnesses and boundary shifts occur).  The shift is b'B^+b over the R0
    block B, so two backward-stable eigensolvers may differ by about
    eps * cond(B) relative; the bound carries that term."""
    rng = np.random.default_rng(seed)
    if family == "normal":
        j = rng.normal(size=(n, n)) * scale
        j = 0.5 * (j + j.T)
    else:
        a = rng.normal(size=(n, int(rng.integers(1, n + 1)))) * scale
        w, e = rng.normal(size=n), np.ones(n)
        j = -a @ a.T + coupling * (np.outer(e, w) + np.outer(w, e))
    j_max = float(j.max()) + float(rng.choice([0.0, 1.0])) * scale
    verdict, alpha, cond = _scipy_min_shift(j)
    cert = min_alpha_psd(j, j_max)
    assert cert.verdict == verdict
    if verdict == "psd_for_alpha":
        tol = 1e-9 * (1.0 + float(np.abs(j).max()))
        want = j_max if alpha <= j_max + tol else alpha
        assert abs(cert.alpha - want) <= (1e-12 + 1e-14 * cond) * (1.0 + abs(want))


@st.composite
def witness_models(draw):
    """A zoo model at random parameters, embedded in half of the draws:
    K-SAT or Viana-Bray with a random symmetric law of I and K from 2 to 4,
    or hard-core with lambda from 1e-3 to 1e3, Potts with q up to 9 or Ising,
    at beta up to 700."""
    name = draw(st.sampled_from(["ksat", "viana_bray", "independent_set", "potts", "ising"]))
    k, beta = draw(st.integers(2, 4)), draw(st.floats(0.0, 1.5))
    extreme_beta = draw(st.sampled_from([0.0, 1.0, 10.0, 400.0, 700.0])) * draw(st.floats(0.5, 1.0))
    if name == "ksat":
        model = build_model("ksat", k=k, beta=beta)
    elif name == "independent_set":
        model = build_model(name, **{"lambda": 10.0 ** draw(st.floats(-3.0, 3.0))})
    elif name == "potts":
        model = build_model(name, q=draw(st.integers(2, 9)), beta=extreme_beta)
    elif name == "ising":
        model = build_model(name, beta=extreme_beta, h=draw(st.floats(0.5, 2.0)))
    else:
        mags = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3))
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(mags),
                                max_size=len(mags)))
        zero = draw(st.sampled_from([0.0, 0.5]))
        total = 2.0 * sum(weights) + zero
        i_values = [v for m in mags for v in (m, -m)] + [0.0] * (zero > 0)
        i_probs = [w / total for w in weights for _ in "+-"] + [zero / total] * (zero > 0)
        model = build_model("viana_bray", k=k, beta=max(beta, 0.1),
                            h=draw(st.floats(0.5, 2.0)), i_values=i_values, i_probs=i_probs)
    return embed_discrete(model) if draw(st.booleans()) else model


@settings(max_examples=100, deadline=None, derandomize=True)
@given(witness_models(), st.data())
def test_expected_tensor_is_the_witness_power_sum(model, data):
    """E tensor_{l<=r} (alpha - J), summed by loops over the edge law's
    (table, prob) pairs, equals the power sum its witness states, summed by
    loops over the witness's own atoms, for r <= 3
    replicas of up to 3 positions (at most 4096 entries; fewer replicas where
    J_max^r would overflow).  The exact witness check rebuilds the law and
    certifies every model but Viana-Bray at odd K."""
    k, j_max = model.arity, model.soft.j_max
    cert = certify_model(model)
    assert cert.detail["residual"] <= 1e-12 * (1.0 + j_max)
    assert cert.certified == (k % 2 == 0 or not model.name.startswith("viana_bray"))
    r = data.draw(st.integers(1, min(3, max(1, int(300 // math.log10(1.0 + j_max))))))
    n = data.draw(st.integers(1, max(m for m in (1, 2, 3) if m ** (r * k) <= 4096)))
    x = np.array(data.draw(st.lists(st.lists(st.integers(0, model.n_states - 1),
                                             min_size=n, max_size=n),
                                    min_size=r, max_size=r)))
    got = naive_expected_tensor(model.edge_pot, model.soft.alpha, x, k)
    want = naive_power_sum_tensor(model.witness, x, k)
    assert np.abs(got - want).max() <= 1e-12 * (1.0 + j_max) ** r


@st.composite
def soft_state_cases(draw):
    """A model over a random law (q 2-4, K 2-3, one to three tables) whose
    entries are a constant but for up to three of 0, 0.1 or 0.25, which
    fall on soft or hard tuples; a random node table; and random kappa,
    rho_min, rho_max and j_max, some at the thresholds.  Embedded into unit
    cells half of the time."""
    q, k, n = draw(st.integers(2, 4)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    tables = np.full((n,) + (q,) * k, draw(st.sampled_from([0.5, 1.0])))
    for _ in range(draw(st.integers(0, 3))):
        spot = tuple(draw(st.integers(0, size - 1)) for size in tables.shape)
        tables[spot] = draw(st.sampled_from([0.0, 0.1, 0.25]))
    h = draw(arrays(float, q, elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    j_max = draw(st.sampled_from([0.5, 1.0, 1.5]))
    soft = SoftStateParams(kappa=draw(st.sampled_from([2.0, 1.0, 1.5, 3.5, 5.0, 0.5])),
                           rho_min=draw(st.sampled_from([0.1, 0.25, 0.5])),
                           rho_max=draw(st.sampled_from([1.5, 3.0])),
                           j_max=j_max, alpha=j_max)
    model = ModelSpec("random_law", Discrete(q), NodePotentialSpec(table=h),
                      EdgePotentialSpec(k, tables, [1.0 / n] * n), soft)
    return embed_discrete(model) if draw(st.booleans()) else model


@PROPERTY
@given(soft_state_cases())
def test_soft_state_check_matches_tuple_loop(model):
    """verify_soft_state flags a violation exactly when the per-tuple loop
    does."""
    assert bool(verify_soft_state(model)) == bool(naive_verify_soft_state(model))
