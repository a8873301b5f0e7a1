"""Independent brute-force oracles.

These deliberately avoid the library's evaluation paths: partition functions
are accumulated as exact rationals (floats are dyadic) with no log-sum-exp,
and multilinear forms, expected replica tensors of an edge law and power
sums of a convexity witness are nested loops.  They stay independent of
the code they check.  The Monte Carlo shard reference draws each node's
states with ``rng.choice`` and gathers each edge's weight by a
tuple index, on the shard's own substream.
The bucket-elimination reference is the 0.7.0 pass: a masked log lift,
``einsum`` placement of every edge, a scope built with ``scope.index`` and a
``functools.reduce`` product, in the 0.7.0 min-degree order, computed on
Python sets.  It shares no code with the library, so the library's order and
pass must give the same order, bucket scopes, width and bits.  The
soft-state reference is the 0.11.0 check: a per-table max and an
``np.ndindex`` loop over every tuple of every table of the law.
"""

import functools
import heapq
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from gibbslab.partition import DEFAULT_STATE_CAP
from gibbslab.seeds import MC_SHARD, substream


def naive_z(instance) -> Fraction:
    """Exact rational Z over all assignments."""
    n_states = instance.model.n_states
    n = instance.graph.n_nodes
    lengths = [Fraction(float(x)) for x in instance.model.domain.lengths]
    node_tables = instance.potentials.node_tables
    edge_tables = instance.potentials.edge_tables
    edges = instance.graph.edges
    total = Fraction(0)
    for sigma in itertools.product(range(n_states), repeat=n):
        w = Fraction(1)
        for u in range(n):
            w *= Fraction(float(node_tables[u][sigma[u]])) * lengths[sigma[u]]
            if w == 0:
                break
        if w == 0:
            continue
        for e_idx in range(edges.shape[0]):
            w *= Fraction(float(edge_tables[e_idx][tuple(sigma[v] for v in edges[e_idx])]))
            if w == 0:
                break
        total += w
    return total


def naive_log_z(instance) -> float:
    """Exact log Z (math.log of big ints is accurate to ~1 ulp)."""
    total = naive_z(instance)
    if total == 0:
        return -math.inf
    return math.log(total.numerator) - math.log(total.denominator)


def naive_multilinear(data: np.ndarray, y) -> float:
    """The form as an explicit sum over all index tuples."""
    y = np.asarray(y, dtype=float)
    k = data.ndim
    n = data.shape[0]
    total = 0.0
    for idx in itertools.product(range(n), repeat=k):
        term = float(data[idx])
        for i in idx:
            term *= y[i]
        total += term
    return total


def naive_mean_shifted_product(x_rows, alpha, law, k) -> float:
    """N^-K sum over placements of E prod_l (alpha - J(x^l at placement))."""
    x = np.asarray(x_rows)
    r, n = x.shape
    total = 0.0
    for placement in itertools.product(range(n), repeat=k):
        for table, prob in zip(law.tables, law.probs):
            term = float(prob)
            for l in range(r):
                term *= alpha - float(table[tuple(x[l][v] for v in placement)])
            total += term
    return total / n ** k


def naive_verify_soft_state(model) -> list:
    """Violations of the soft-state assumption, table by table and tuple by
    tuple, with a slack of 1e-12 * (1 + rho_max)."""
    soft = model.soft
    lengths = model.domain.lengths
    soft_idx = model.soft_states()
    slack = 1e-12 * (1.0 + soft.rho_max)
    if soft_idx.size == 0:
        return ["no state lies inside the soft region [0, kappa)"]
    problems = []
    h = model.node_pot.table
    mass = float(np.dot(h, lengths))
    soft_mass = float(np.dot(h[soft_idx], lengths[soft_idx]))
    if soft_mass < soft.rho_min - slack:
        problems.append(f"soft node mass {soft_mass} < rho_min {soft.rho_min}")
    if mass > soft.rho_max + slack:
        problems.append(f"node mass {mass} > rho_max {soft.rho_max}")
    soft_set = set(int(i) for i in soft_idx)
    for table in model.edge_pot.tables:
        if float(table.max()) > soft.j_max + slack:
            problems.append(f"sup J {table.max()} > j_max {soft.j_max}")
        # Soft interaction: tuples with any soft coordinate stay >= rho_min.
        for idx in np.ndindex(table.shape):
            if any(i in soft_set for i in idx):
                if table[idx] < soft.rho_min - slack:
                    problems.append(f"J{idx} = {table[idx]} < rho_min {soft.rho_min}")
                    break
    return problems


def naive_witness_entry(witness, atom, spins) -> float:
    """sum_s coef[a, s] prod_k phi[b_k, s, x_k] at the atom (a, b_1, ..., b_K)."""
    a, bs = atom[0], atom[1:]
    total = 0.0
    for s in range(len(witness.coef[a])):
        term = float(witness.coef[a][s])
        for b, x in zip(bs, spins):
            term *= float(witness.phi[b][s][x])
        total += term
    return total


def _composite(idx, n, r):
    """Per-replica positions of a composite index, replica 1 most significant."""
    return [(idx // n ** (r - 1 - l)) % n for l in range(r)]


def naive_power_sum_tensor(witness, x_rows, k) -> np.ndarray:
    """E tensor_{l<=r} (alpha - J) from the witness alone: a loop over every
    composite index tuple and every atom (a, b_1, ..., b_K) of the law."""
    x = np.asarray(x_rows)
    r, n = x.shape
    out = np.zeros((n ** r,) * k)
    for flat in itertools.product(range(n ** r), repeat=k):
        composite = [_composite(idx, n, r) for idx in flat]
        total = 0.0
        for a in range(len(witness.coef_probs)):
            for bs in itertools.product(range(len(witness.phi_probs)), repeat=k):
                term = float(witness.coef_probs[a])
                for b in bs:
                    term *= float(witness.phi_probs[b])
                for l in range(r):
                    spins = [x[l][composite[pos][l]] for pos in range(k)]
                    term *= naive_witness_entry(witness, (a, *bs), spins)
                total += term
        out[flat] = total
    return out


def naive_expected_tensor(law, alpha, x_rows, k) -> np.ndarray:
    """E tensor_{l<=r} (alpha - J) over the law's tables and probs: a loop
    over every composite index tuple, one shared table in every replica."""
    x = np.asarray(x_rows)
    r, n = x.shape
    out = np.zeros((n ** r,) * k)
    for flat in itertools.product(range(n ** r), repeat=k):
        composite = [_composite(idx, n, r) for idx in flat]
        total = 0.0
        for table, prob in zip(law.tables, law.probs):
            term = float(prob)
            for l in range(r):
                term *= alpha - float(table[tuple(x[l][composite[pos][l]]
                                                  for pos in range(k))])
            total += term
        out[flat] = total
    return out


def naive_agreement_indicator(x_rows) -> np.ndarray:
    """1 at the composite index (j_1, ..., j_r) when x^1_{j_1} = ... = x^r_{j_r}."""
    x = np.asarray(x_rows)
    r, n = x.shape
    out = np.zeros(n ** r)
    for idx in range(n ** r):
        spins = {int(x[l][j]) for l, j in enumerate(_composite(idx, n, r))}
        out[idx] = 1.0 if len(spins) == 1 else 0.0
    return out


def naive_mc_shard(node_probs, log_edges, edges, seed, shard_idx, size) -> np.ndarray:
    """Log edge weights of one Monte Carlo shard: one ``rng.choice`` per node
    over a (size, N) state array, then one tuple gather per edge."""
    rng = substream(seed, MC_SHARD, shard_idx)
    n_nodes, n_states = node_probs.shape
    states = np.empty((size, n_nodes), dtype=np.int64)
    for u in range(n_nodes):
        states[:, u] = rng.choice(n_states, size=size, p=node_probs[u])
    lw = np.zeros(size)
    for e_idx in range(edges.shape[0]):
        cols = tuple(states[:, v] for v in edges[e_idx])
        lw = lw + log_edges[e_idx][cols]
    return lw


def naive_safe_log(table: np.ndarray) -> np.ndarray:
    """log of ``table`` with -inf where an entry is not positive."""
    out = np.full(table.shape, -np.inf)
    mask = table > 0
    out[mask] = np.log(table[mask])
    return out


_fraction = np.frompyfunc(Fraction, 1, 1)
NAIVE_LOG = SimpleNamespace(
    nodes=lambda h, lengths: naive_safe_log(h * lengths), lift=naive_safe_log,
    mul=np.add, sum0=lambda t: np.logaddexp.reduce(t, axis=0), div=np.subtract,
    zero=-math.inf, combine=math.fsum)
NAIVE_RATIONAL = SimpleNamespace(
    nodes=lambda h, lengths: _fraction(h) * _fraction(lengths), lift=_fraction,
    mul=np.multiply, sum0=lambda t: np.asarray(t.sum(axis=0)), div=np.divide,
    zero=Fraction(0), combine=lambda scales: math.prod(scales, start=Fraction(1)))


def naive_elimination_order(n_nodes, scopes, keep=()):
    """The 0.7.0 greedy min-degree order, each eliminated node's set of
    neighbours when it goes, and the width, on sets of neighbours: ties to
    the lowest index, ``keep`` last in ascending order."""
    adj = [set() for _ in range(n_nodes)]
    for scope in scopes:
        for u in scope:
            adj[u].update(scope)
    for u in range(n_nodes):
        adj[u].discard(u)
    heap = [(len(nbrs), u) for u, nbrs in enumerate(adj) if u not in keep]
    heapq.heapify(heap)
    order = []
    joined = []
    eliminated = [False] * n_nodes
    width = 0
    while heap:
        degree, u = heapq.heappop(heap)
        if eliminated[u] or degree != len(adj[u]):
            continue
        eliminated[u] = True
        order.append(u)
        joined.append(set(adj[u]))
        width = max(width, degree + 1)
        for v in adj[u]:
            adj[v] |= adj[u]
            adj[v] -= {u, v}
            if v not in keep:
                heapq.heappush(heap, (len(adj[v]), v))
    return order + sorted(keep), joined, max(width, len(keep))


def naive_product(factors, scope, ring, n_states):
    """The product of (scope, table) ``factors``, broadcast over ``scope``."""
    tables = []
    for s, table in factors:
        shape = [1] * len(scope)
        for a in s:
            shape[scope.index(a)] = n_states
        tables.append(table.reshape(shape))
    return functools.reduce(ring.mul, tables)


def naive_eliminate(instance, ring, keep=(), scopes=None):
    """Z of ``instance`` in ``ring`` (NAIVE_LOG or NAIVE_RATIONAL), or its
    marginal table over the nodes in ``keep``, by the 0.7.0 bucket pass.
    Each summed-out bucket's scope, the union of its factors' scopes in
    ascending position, is appended to ``scopes`` when a list is given."""
    node_factors = ring.nodes(instance.potentials.node_tables,
                              instance.model.domain.lengths)
    edges = instance.graph.edges.tolist()
    edge_factors = ring.lift(instance.potentials.edge_tables)
    n_nodes, n_states = node_factors.shape
    order, _, width = naive_elimination_order(n_nodes, edges, keep)
    assert n_states ** width <= DEFAULT_STATE_CAP
    position = [0] * n_nodes
    for i, u in enumerate(order):
        position[u] = i
    buckets = [[((position[u],), node_factors[u])] for u in order]
    for edge, table in zip(edges, edge_factors):
        axes = [position[u] for u in edge]
        scope = sorted(set(axes))
        table = np.einsum(table, [scope.index(a) for a in axes], range(len(scope)))
        buckets[scope[0]].append((tuple(scope), table))
    n_out = n_nodes - len(keep)
    scales = []
    for i in range(n_out):
        scope = sorted(set().union(*(s for s, _ in buckets[i])))
        if scopes is not None:
            scopes.append(scope)
        message = ring.sum0(naive_product(buckets[i], scope, ring, n_states))
        scale = message.max()
        if scale == ring.zero:
            return ring.zero
        scales.append(scale)
        if len(scope) > 1:
            buckets[scope[1]].append((tuple(scope[1:]), ring.div(message, scale)))
    if not keep:
        return ring.combine(scales)
    rest = [factor for bucket in buckets[n_out:] for factor in bucket]
    return ring.mul(naive_product(rest, range(n_out, n_nodes), ring, n_states),
                    ring.combine(scales))
