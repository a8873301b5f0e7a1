"""Independent brute-force oracles.

These deliberately avoid the library's evaluation paths: partition functions
are accumulated as exact rationals (floats are dyadic) with no log-sum-exp,
multilinear forms are nested loops, and second derivatives come from central
finite differences.  They stay independent of the code they check.  The
Monte Carlo shard reference draws each node's states with ``rng.choice`` and
gathers each edge's weight by a tuple index, on the shard's own substream.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

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


def naive_tensor_entry(tables, composite_indices) -> float:
    """Tensor-product entry by direct multiplication.

    ``composite_indices`` is a length-K sequence of r-tuples; factor l reads
    the l-th component of every composite index.
    """
    r = len(composite_indices[0])
    value = 1.0
    for l in range(r):
        idx = tuple(ci[l] for ci in composite_indices)
        value *= float(tables[l][idx])
    return value


def naive_mean_shifted_product(x_rows, alpha, support, k) -> float:
    """N^-K sum over placements of E prod_l (alpha - J(x^l at placement))."""
    x = np.asarray(x_rows)
    r, n = x.shape
    total = 0.0
    for placement in itertools.product(range(n), repeat=k):
        for table, prob in support:
            term = prob
            for l in range(r):
                term *= alpha - float(table[tuple(x[l][v] for v in placement)])
            total += term
    return total / n ** k


def fd_second_derivative(data: np.ndarray, y, d, step=1e-4) -> float:
    """Central finite difference of t -> form(y + t d) at t = 0."""
    y = np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
    f = lambda v: naive_multilinear(data, v)  # noqa: E731
    return (f(y + step * d) - 2.0 * f(y) + f(y - step * d)) / step ** 2


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
