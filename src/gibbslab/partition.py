"""Log-partition functions and deterministic bounds.

All products live in log space; a zero potential factor propagates as the
-inf sentinel (Z = 0 is a legal outcome for hard-core models, and log Z is
defined to be -inf there).  Exact log Z is variable elimination over
log-domain factor tables in a deterministic min-degree order, so results are
bit-identical in every process; the same pass over exact rationals gives Z
as a Fraction.  The parallel layer is the harness pool over samples;
nothing here starts a process.

Continuous (piecewise-constant) domains contribute cell value * cell length
per node factor, which makes the discrete embedding exact.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .graphs import Hypergraph, degree_stats, graph_from_json, graph_to_json
from .models import (
    DEFAULT_STATE_CAP,
    EMBEDDED_SUFFIX,
    ModelSpec,
    PotentialDraws,
    decode_model,
    draw_potentials,
)
from .seeds import MC_SHARD, substream

__all__ = [
    "LogZ",
    "Instance",
    "McLogZ",
    "StateSpaceCapError",
    "make_instance",
    "log_z_exact",
    "z_exact_rational",
    "z_exact_rational_edge_added",
    "log_z_mc",
    "logz_bounds",
    "node_change_bound",
    "edge_change_bound",
    "add_edge",
    "replace_node_table",
    "logz_row",
    "instance_to_json",
    "instance_from_json",
]

MC_SHARD_SIZE = 2 ** 14


class StateSpaceCapError(RuntimeError):
    """An elimination factor would exceed the exact-evaluation cap; use Monte Carlo."""


@dataclass(frozen=True, order=True)
class LogZ:
    """Extended-real log-partition value; -inf if and only if Z = 0."""

    value: float

    @property
    def is_zero(self) -> bool:
        return self.value == -math.inf


@dataclass(frozen=True)
class McLogZ:
    """Importance-sampling estimate of log Z with a delta-method standard error.

    ``ess`` is Kong's effective sample size (sum w)^2 / sum w^2 of the
    importance weights.  When every sampled weight is zero the point estimate
    degenerates to -inf (a trivial lower bound), ``ess`` is None and
    ``log_upper_bound`` carries a rule-of-three 95% upper confidence bound
    instead.
    """

    value: float
    std_error: Optional[float]
    n_samples: int
    seed: int
    zero_fraction: float
    log_upper_bound: Optional[float] = None
    ess: Optional[float] = None


@dataclass(frozen=True)
class Instance:
    """A graph with attached potential draws under a model."""

    graph: Hypergraph
    potentials: PotentialDraws
    model: ModelSpec

    def __post_init__(self):
        n_states = self.model.n_states
        if self.potentials.node_tables.shape != (self.graph.n_nodes, n_states):
            raise ValueError("node tables do not match graph/model shape")
        expect = (self.graph.n_edges,) + (n_states,) * self.model.arity
        if self.potentials.edge_tables.shape != expect:
            raise ValueError("edge tables do not match graph/model shape")


def make_instance(model: ModelSpec, graph: Hypergraph, seed: int) -> Instance:
    """Attach freshly drawn potentials to ``graph``."""
    return Instance(graph, draw_potentials(model, graph, seed), model)


# ---------------------------------------------------------------------------
# Log-domain helpers
# ---------------------------------------------------------------------------

def _safe_log(table: np.ndarray) -> np.ndarray:
    """log of ``table`` with the -inf sentinel where an entry is not positive."""
    return np.log(table, out=np.full(table.shape, -np.inf), where=table > 0)


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------

def _elimination_order(n_nodes: int, scopes: Sequence[Sequence[int]],
                       keep: Sequence[int] = (), n_states: int = 0
                       ) -> tuple[list[int], list[set[int]], int]:
    """Greedy min-degree elimination order of the primal graph, each
    eliminated node's neighbours when it goes, and the width.

    Ties go to the lowest node index, so the order, and with it every bit of
    log_z_exact, is the same in every process.  The nodes in ``keep`` come
    last, in ascending order, and have no entry in the neighbour sets:
    entry i holds the nodes that order[i] is joined to when it is
    eliminated, which with order[i] itself is the scope of its bucket.  The
    width is the number of nodes in the largest such scope, or in ``keep``.

    Each node's neighbours are a ``set``, so at bounded degree the pass is
    linear in N in time and memory.  A heap of (degree, node) entries is
    popped until an entry is current; eliminating u joins its neighbours
    pairwise, and a neighbour is pushed again only when its degree changed,
    since otherwise its current entry is still in the heap.  The heap's
    least current entry does not depend on the order of the pushes, so this
    is the order of the set-based pass in ``tests/naive.py`` on every input.

    Given ``n_states`` (the default 0 runs the whole pass), the pass raises
    StateSpaceCapError at the first bucket whose n_states^width exceeds
    DEFAULT_STATE_CAP, so an instance past the cap is refused while its
    order is planned, before any table is allocated.  The check runs only
    when the width grows, and never stops a pass with one state.  The kept
    nodes span at most K nodes, whose n_states^K tables the model already
    holds under the same cap.
    """
    adj: list[Optional[set[int]]] = [set() for _ in range(n_nodes)]
    for scope in scopes:
        for u in scope:
            adj[u].update(scope)
    kept = set(keep)
    heap = []
    for u, nbrs in enumerate(adj):
        nbrs.discard(u)
        if u not in kept:
            heap.append((len(nbrs), u))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order: list[int] = []
    joined_to: list[set[int]] = []
    width = len(keep)
    while heap:
        degree, u = pop(heap)
        nbrs = adj[u]
        if nbrs is None or degree != len(nbrs):
            continue  # stale entry: u is gone, or its degree changed after the push
        order.append(u)
        joined_to.append(nbrs)
        adj[u] = None
        if degree >= width:
            width = degree + 1
            if n_states ** width > DEFAULT_STATE_CAP:
                raise StateSpaceCapError(
                    f"elimination needs a factor over {width} nodes: "
                    f"{n_states}^{width} entries exceed cap {DEFAULT_STATE_CAP}")
        # Each neighbour v of u gains u's other neighbours and loses u.
        for v in nbrs:
            near = adj[v]
            before = len(near)
            near |= nbrs
            near.discard(v)
            near.discard(u)
            if len(near) != before and v not in kept:
                push(heap, (len(near), v))
    return order + sorted(keep), joined_to, width


@dataclass(frozen=True, eq=False)
class _Semiring:
    """The operations one elimination pass needs: ``nodes`` builds the node
    factors from potentials and cell lengths, ``lift`` maps an edge table
    into the ring, ``mul`` multiplies two broadcast tables, ``sum_out(t,
    axis)`` sums out an axis, ``div`` divides a message by a scalar,
    ``zero`` is the ring's zero and ``combine`` turns the per-bucket scales
    into Z."""

    nodes: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lift: Callable[[np.ndarray], np.ndarray]
    mul: Callable
    sum_out: Callable
    div: Callable
    zero: object
    combine: Callable


# Log space: a zero factor is the -inf sentinel and scales add exactly (fsum).
_LOG = _Semiring(lambda h, lengths: _safe_log(h * lengths), _safe_log, np.add,
                 np.logaddexp.reduce, np.subtract, -math.inf, math.fsum)
# Exact rationals: floats are dyadic, so Fraction(float) loses nothing, and
# node potential and cell length are multiplied as rationals.  An
# object-array sum over a 1-D table returns a bare Fraction.
_fraction = np.frompyfunc(Fraction, 1, 1)
_RATIONAL = _Semiring(lambda h, lengths: _fraction(h) * _fraction(lengths), _fraction,
                      np.multiply, np.add.reduce, np.divide, Fraction(0),
                      lambda scales: math.prod(scales, start=Fraction(1)))


def _factors(instance: Instance, ring: _Semiring) -> tuple:
    """Node factors, edge list and edge factors of ``instance`` in ``ring``.

    The factors are lifted once per (ring, spin domain) and kept, read-only,
    on the instance's PotentialDraws, whose tables are read-only too.  Every
    graph of an interpolation chain shares its sample's draws, so a chain
    sample lifts its tables once, not once per t; a second model with another
    domain over the same draws gets its own node lift.
    """
    draws = instance.potentials
    domain = instance.model.domain
    lifted = draws._lifts.get((ring, domain))
    if lifted is None:
        nodes = ring.nodes(draws.node_tables, domain.lengths)
        edges = ring.lift(draws.edge_tables)
        nodes.setflags(write=False)
        edges.setflags(write=False)
        # One read-only view per node and per edge, made once.
        lifted = draws._lifts[ring, domain] = (tuple(nodes), tuple(edges))
    return lifted[0], instance.graph.edges.tolist(), lifted[1]


def _eliminate(node_factors: Sequence[np.ndarray], edges: list,
               edge_factors: Sequence[np.ndarray], ring: _Semiring,
               keep: Sequence[int] = ()):
    """Z in ``ring`` by bucket elimination in the min-degree order.

    The factors are already in ``ring``: one row of ``node_factors`` per
    node and one table in ``edge_factors`` per tuple in ``edges``.  The
    min-degree pass gives the order and each bucket's scope: the bucket's
    node and the nodes it is joined to when it goes.  That pass raises
    StateSpaceCapError at the first bucket whose n_states^W exceeds
    DEFAULT_STATE_CAP, naming that bucket's W, before any table is
    allocated.  Each bucket multiplies the broadcast tables of its
    factors and sums the eliminated node out.  Each message is divided by
    its maximum and Z combines those scales, so equal buckets give equal
    results whatever the graph's shape.  Disconnected components factorize
    with no special code.

    Every table keeps its axes in descending elimination position, so a
    bucket sums out its last axis and a factor over a tail of the bucket's
    scope broadcasts as it is.  A factor (node factor, edge or message) is
    shaped once, where it enters the bucket of its last position, and only
    if it skips a position of that bucket's scope.  An edge whose tuple has
    distinct nodes enters as a transposed view of its table; only a tuple
    that repeats a node goes through ``einsum``, which takes the diagonal.
    A bucket's product is a running ``ring.mul`` in the order its factors
    arrived.  A bucket over one node sends no message and is its own scale.
    Every float operation and its order are those of the 0.7.0 pass
    (``tests/naive.py``), entry by entry, so every bit of the result is too.

    The nodes in ``keep`` are not summed out.  Every kept bucket spans all
    kept positions, and the result is G's marginal table over them, axes in
    ascending node order, whose sum is Z (the ring's zero when Z = 0).
    """
    n_nodes, n_states = len(node_factors), len(node_factors[0])
    order, joined_to, _ = _elimination_order(n_nodes, edges, keep, n_states)
    position = [0] * n_nodes
    for i, u in enumerate(order):
        position[u] = i
    n_out = n_nodes - len(keep)
    # A scope lists elimination positions in descending order, so a factor
    # sits in the bucket of its last scope entry and a table has one axis
    # per scope entry.
    scopes = [sorted([position[v] for v in joined], reverse=True) + [i]
              for i, joined in enumerate(joined_to)]
    scopes += [list(range(n_nodes - 1, n_out - 1, -1))] * len(keep)
    buckets = [[node_factors[u]] for u in order]
    for i in range(n_out + 1, n_nodes):  # a kept node after the first skips positions
        buckets[i][0] = buckets[i][0].reshape([n_states if a == i else 1 for a in scopes[i]])
    for edge, table in zip(edges, edge_factors):
        axes = [position[u] for u in edge]
        scope = sorted(set(axes), reverse=True)
        if len(scope) == len(axes):
            if scope == axes[::-1]:
                table = table.T
            elif scope != axes:
                table = table.transpose(
                    sorted(range(len(axes)), key=axes.__getitem__, reverse=True))
        else:
            # einsum labels must be small: label each axis by its rank in
            # scope.  The repeated node collapses the table to its diagonal.
            table = np.einsum(table, [scope.index(a) for a in axes], range(len(scope)))
        bucket = scopes[scope[-1]]
        if scope[0] != bucket[len(bucket) - len(scope)]:  # it skips a position
            table = table.reshape([n_states if a in scope else 1 for a in bucket])
        buckets[scope[-1]].append(table)

    mul, sum_out, div, zero = ring.mul, ring.sum_out, ring.div, ring.zero
    scales = []
    for i in range(n_out):
        message = sum_out(reduce(mul, buckets[i]), -1)
        rest = scopes[i][:-1]
        # A bucket over node i alone sums to a scalar (a bare Fraction in the
        # rational ring), its own maximum, and sends no message.  Otherwise
        # the scale is the largest entry, by Python's max: a message holds no
        # NaN, so this is the value np.maximum.reduce gives.
        scale = max(message.ravel().tolist()) if rest else message
        if scale == zero:
            return zero  # every assignment of the scope has weight 0
        scales.append(scale)
        if rest:
            message, bucket = div(message, scale), scopes[rest[-1]]
            if rest[0] != bucket[len(bucket) - len(rest)]:
                message = message.reshape([n_states if a in rest else 1 for a in bucket])
            buckets[rest[-1]].append(message)
    if not keep:
        return ring.combine(scales)
    # Every factor left sits in a kept bucket, shaped over all kept
    # positions; reversing the axes of their product puts them in ascending
    # node order.
    marginal = reduce(mul, [table for bucket in buckets[n_out:] for table in bucket])
    return mul(marginal.transpose(), ring.combine(scales))


def log_z_exact(instance: Instance) -> LogZ:
    """Exact log Z by variable elimination in log space.

    Nodes are summed out one at a time in a greedy min-degree order (bucket
    elimination), and the pass that finds the order gives each bucket's
    scope; StateSpaceCapError is raised, while that pass runs, as soon as
    an intermediate factor would exceed DEFAULT_STATE_CAP entries.  Buckets
    add log tables and sum out with ``np.logaddexp.reduce``, so a zero
    factor stays the -inf sentinel.  Each message is shifted to peak at 0
    and log Z is the exact sum (``math.fsum``) of the shifts, so rounding
    does not grow with log Z.

    The log tables are lifted once per PotentialDraws and spin domain and
    reused by every later call on the same draws (the m + 1 graphs of an
    interpolation chain sample, say).  An edge over distinct nodes enters its
    bucket as a transposed view of its log table, a factor is reshaped only
    where it enters a bucket and skips a position of its scope, a bucket's
    product is a running ``np.add`` of its factors in arrival order, and a
    bucket over one node is only summed, so each call costs a few numpy calls
    per bucket.
    The float operations and their order are those of 0.7.0, so every result
    is the same to the last bit.
    """
    return LogZ(_eliminate(*_factors(instance, _LOG), _LOG))


def z_exact_rational(instance: Instance) -> Fraction:
    """Exact Z as a rational, by the same elimination plan as log_z_exact.

    Every float potential and cell length is read as the exact rational it
    denotes, and sums and products are exact.
    """
    return _eliminate(*_factors(instance, _RATIONAL), _RATIONAL)


def z_exact_rational_edge_added(instance: Instance,
                                tables: Sequence[np.ndarray]) -> np.ndarray:
    """Exact Z(G + e) for an extra edge e at every K-tuple of nodes.

    Returns an object array of Fractions indexed [t, u_1, ..., u_K]: the
    extra edge sits at (u_1, ..., u_K) with potential table ``tables[t]``.
    Z(G + e) is the sum of the edge table times the marginal table of G over
    the edge's nodes, and one elimination pass gives that table for each set
    of nodes.
    """
    nodes, edges, edge_factors = _factors(instance, _RATIONAL)
    extra = [_RATIONAL.lift(np.asarray(table, dtype=float)) for table in tables]
    marginals: dict = {}
    out = np.empty((len(extra),) + (instance.graph.n_nodes,) * instance.model.arity,
                   dtype=object)
    for placement in np.ndindex(out.shape[1:]):
        scope = tuple(sorted(set(placement)))
        if scope not in marginals:
            marginals[scope] = _eliminate(nodes, edges, edge_factors, _RATIONAL,
                                          keep=scope)
        # A node repeated in the placement collapses the table to its diagonal.
        labels = [scope.index(u) for u in placement]
        for t, table in enumerate(extra):
            out[(t,) + placement] = (np.einsum(table, labels, range(len(scope)))
                                     * marginals[scope]).sum()
    return out


# ---------------------------------------------------------------------------
# Monte Carlo estimate
# ---------------------------------------------------------------------------

def _mc_shard(node_probs: np.ndarray, log_edges: np.ndarray, edges: np.ndarray,
              seed: int, shard_idx: int, size: int) -> np.ndarray:
    """Log edge weights of ``size`` product-measure samples from shard ``shard_idx``.

    ``rng.choice(q, size, p=p)`` draws ``rng.random(size)`` and returns
    ``searchsorted(cdf, u, 'right')`` with ``cdf = p.cumsum(); cdf /= cdf[-1]``.
    That cdf is nondecreasing and ends at exactly 1 > u, so the state is the
    count of ``cdf[:-1] <= u``.  Node v takes one ``rng.random(size)`` in node
    order, the stream ``choice`` consumed, and q - 1 comparisons, so every
    state (q = 1 included) and every weight equals the per-node ``choice``
    draw bit for bit.  Each edge reads its raveled log table at the flat
    index of its nodes' states, a repeated node reading the diagonal, and
    the weights add up edge by edge in order, as before.
    """
    rng = substream(seed, MC_SHARD, shard_idx)
    n_nodes, n_states = node_probs.shape
    cdf = node_probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    states = np.empty((n_nodes, size), dtype=np.intp)
    u = np.empty(size)
    below = np.empty(size, dtype=bool)
    for v in range(n_nodes):
        rng.random(out=u)
        # The first comparison starts the count; for q = 1 it is 1 <= u,
        # false for every u, so every state is 0.
        np.less_equal(cdf[v, 0], u, out=states[v])
        for c in cdf[v, 1:-1]:
            np.less_equal(c, u, out=below)
            states[v] += below
    flat = log_edges.reshape(len(edges), n_states ** edges.shape[1])
    lw = np.zeros(size)
    idx = np.empty(size, dtype=np.intp)
    vals = np.empty(size)
    for e_idx, edge in enumerate(edges.tolist()):
        np.copyto(idx, states[edge[0]])
        for v in edge[1:]:
            idx *= n_states
            idx += states[v]
        # Every index is in range, so 'clip' changes none and skips the
        # buffered bounds check of the default mode.
        flat[e_idx].take(idx, out=vals, mode="clip")
        lw += vals
    return lw


def log_z_mc(instance: Instance, samples: int, seed: int) -> McLogZ:
    """Importance sampling from the product node measure.

    Each spin is drawn independently proportional to h_u * cell length; the
    estimator averages the edge-factor product, so
    Z_hat = (prod_u integral h_u) * mean(prod_e J_e).  The standard error is
    delta-method on the log scale, and ``ess`` is Kong's (sum w)^2 / sum w^2.
    Samples are drawn in shards of MC_SHARD_SIZE, shard i from its own
    substream, so the estimate depends only on (instance, samples, seed).
    A shard maps each node's uniforms to states by comparing them with the
    node's cdf, as ``rng.choice`` with probabilities does (see
    ``_mc_shard``), so the estimate is that of per-node ``choice`` draws
    bit for bit.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    lengths = instance.model.domain.lengths
    node_mass = (instance.potentials.node_tables * lengths).sum(axis=1)
    if not np.all(np.isfinite(node_mass)) or np.any(node_mass <= 0):
        raise ValueError("every node must have finite positive total mass")
    base = float(np.log(node_mass).sum())
    node_probs = instance.potentials.node_tables * lengths / node_mass[:, None]
    log_edges = _safe_log(instance.potentials.edge_tables)
    edges = instance.graph.edges

    sizes = [min(MC_SHARD_SIZE, samples - lo) for lo in range(0, samples, MC_SHARD_SIZE)]
    lw = np.concatenate([_mc_shard(node_probs, log_edges, edges, seed, i, size)
                         for i, size in enumerate(sizes)])

    mu = float(lw.max())
    zero_fraction = float(np.mean(lw == -math.inf))
    if mu == -math.inf:
        # Every sampled weight vanished: report the rule-of-three upper bound.
        upper = base + instance.graph.n_edges * math.log(instance.model.soft.j_max) \
            + math.log(3.0 / samples)
        return McLogZ(-math.inf, None, samples, seed, 1.0, upper)
    w = np.exp(lw - mu)
    mean_w = float(w.mean())
    value = base + mu + math.log(mean_w)
    if samples < 2:
        se = None
    else:
        se = float(w.std(ddof=1) / (mean_w * math.sqrt(samples)))
    ess = float(w.sum()) ** 2 / float(np.dot(w, w))
    return McLogZ(value, se, samples, seed, zero_fraction, ess=ess)


# ---------------------------------------------------------------------------
# Deterministic bounds
# ---------------------------------------------------------------------------

def logz_bounds(instance: Instance) -> tuple[float, float]:
    """(M+N) log rho_min <= log Z <= (M+N) log rho_max."""
    soft = instance.model.soft
    mn = instance.graph.n_edges + instance.graph.n_nodes
    return mn * math.log(soft.rho_min), mn * math.log(soft.rho_max)


def node_change_bound(instance: Instance, node: int) -> float:
    """Bound on |delta log Z| when node's potential is swapped admissibly."""
    if not 0 <= node < instance.graph.n_nodes:
        raise ValueError(f"node {node} out of range")
    inc = int(degree_stats(instance.graph).node_incidences[node])
    return 2.0 * (1 + inc) * instance.model.soft.log_ratio


def edge_change_bound(instance: Instance, edge) -> float:
    """Bound on |delta log Z| when an edge is added or removed.

    ``edge`` is either an index of an existing edge, or a K-tuple treated as
    an addition, in which case the neighborhood count refers to the
    post-addition graph.  Neighborhoods include the edge itself.
    """
    k = instance.model.arity
    graph = instance.graph
    if isinstance(edge, (int, np.integer)):
        if not 0 <= edge < graph.n_edges:
            raise ValueError(f"edge index {edge} out of range")
    else:
        if len(edge) != k:
            raise ValueError(f"edge tuple must have arity {k}")
        graph = _with_edge(graph, edge)
        edge = graph.n_edges - 1
    nb = int(degree_stats(graph).edge_neighborhoods[edge])
    return (2 * k + 2 * nb + 1) * instance.model.soft.log_ratio


# ---------------------------------------------------------------------------
# Instance modification (perturbation experiments)
# ---------------------------------------------------------------------------

def _with_edge(graph: Hypergraph, edge: Sequence[int]) -> Hypergraph:
    """``graph`` with the K-tuple ``edge`` appended as its last edge."""
    edges = np.vstack([graph.edges, np.asarray(edge, dtype=np.int64)[None, :]])
    return Hypergraph(graph.n_nodes, graph.arity, edges)


def add_edge(instance: Instance, edge: Sequence[int], table: np.ndarray) -> Instance:
    """New instance with ``edge`` (and its potential table) appended."""
    tables = np.concatenate([instance.potentials.edge_tables,
                             np.asarray(table, dtype=float)[None, ...]])
    pots = PotentialDraws(instance.potentials.node_tables, tables)
    return Instance(_with_edge(instance.graph, edge), pots, instance.model)


def replace_node_table(instance: Instance, node: int, table: np.ndarray) -> Instance:
    """New instance with the potential table of ``node`` replaced by ``table``."""
    n_nodes, n_states = instance.potentials.node_tables.shape
    if not 0 <= node < n_nodes:
        raise ValueError(f"node {node} out of range [0, {n_nodes})")
    table = np.asarray(table, dtype=float)
    if table.shape != (n_states,):
        raise ValueError(f"node table must have shape ({n_states},), got {table.shape}")
    new_nodes = instance.potentials.node_tables.copy()
    new_nodes[node] = table
    pots = PotentialDraws(new_nodes, instance.potentials.edge_tables)
    return Instance(instance.graph, pots, instance.model)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def logz_row(value: Union[LogZ, McLogZ], seed: int) -> dict:
    """Result row {"logz": float | "-inf", "method", "seed", ...}.

    ``method`` is "exact" for a LogZ and "mc" for an McLogZ.  An MC row also
    carries "zero_fraction", and "se", "ess" and "log_upper_bound" when the
    estimate has them, so an estimate whose every weight vanished (logz
    "-inf", zero_fraction 1 and an upper bound) does not read as Z = 0.
    """
    logz = "-inf" if value.value == -math.inf else value.value
    if isinstance(value, LogZ):
        return {"logz": logz, "method": "exact", "seed": int(seed)}
    row = {"logz": logz, "method": "mc", "seed": int(seed), "se": value.std_error,
           "zero_fraction": value.zero_fraction, "ess": value.ess,
           "log_upper_bound": value.log_upper_bound}
    return {key: v for key, v in row.items() if v is not None}


def instance_to_json(instance: Instance) -> str:
    """Bundle graph + potential tables; zoo-backed models only."""
    model = instance.model
    name = model.name.removesuffix(EMBEDDED_SUFFIX)
    payload = {
        "model": {"name": name, "params": dict(model.params),
                  "embedded": name != model.name},
        "graph": json.loads(graph_to_json(instance.graph)),
        "node_tables": instance.potentials.node_tables.tolist(),
        "edge_tables": instance.potentials.edge_tables.tolist(),
    }
    return json.dumps(payload, separators=(",", ":"))


def instance_from_json(text: str) -> Instance:
    obj = json.loads(text)
    spec = obj["model"]
    suffix = EMBEDDED_SUFFIX if spec["embedded"] else ""
    model = decode_model(spec["name"] + suffix, spec["params"])
    graph = graph_from_json(json.dumps(obj["graph"]))
    shape = (model.n_states,) * model.arity
    node_tables = np.array(obj["node_tables"], dtype=float).reshape(
        graph.n_nodes, model.n_states)
    edge_tables = np.array(obj["edge_tables"], dtype=float).reshape(
        (graph.n_edges,) + shape)
    return Instance(graph, PotentialDraws(node_tables, edge_tables), model)
