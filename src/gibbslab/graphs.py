"""Sparse random K-uniform directed hypergraphs and the interpolated ensemble.

Edges are ordered K-tuples of node indices with repetition allowed.  The
plain ensemble draws floor(c*N) i.i.d. uniform tuples.  The interpolated
ensemble at step t keeps floor(c*N) - t global edges and restricts the last
t edges to one of two node blocks (block 1 with probability N1/N, block 2
otherwise), so t = 0 is the plain ensemble and t = floor(c*N) is a disjoint
union of two independent block graphs.  Expected log-partition functions are
non-increasing along t for certified models.

All draws are functions of (arguments, seed) only.  Edge placements are built
from one (M, K) block of uniforms plus one length-M block for the block
choice, consumed identically at every t, so graphs at different interpolation
steps under the same seed are coupled sample-by-sample (common random
numbers).  ``_chain_graphs`` makes that draw once and returns the graphs of
the steps asked for: ``sample_er`` is step 0 of the split N1 = N,
``sample_interpolated`` is one step, and the harness reads every step a
sample needs from one call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .seeds import GRAPH, substream

__all__ = [
    "Hypergraph",
    "InterpolationPoint",
    "DegreeStats",
    "edge_count",
    "sample_er",
    "sample_interpolated",
    "degree_stats",
    "degree_tail_probability",
    "graph_to_json",
    "graph_from_json",
]

EdgeDensity = Union[str, int, float, Fraction, Decimal]


@dataclass(frozen=True)
class Hypergraph:
    """N nodes and an ordered list of M directed K-tuples over [0, N)."""

    n_nodes: int
    arity: int
    edges: np.ndarray  # (M, K) int64, list order = draw order

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError(f"arity must be >= 2, got {self.arity}")
        if self.n_nodes < 1:
            raise ValueError(f"need at least one node, got {self.n_nodes}")
        e = np.asarray(self.edges)
        # An integer array (every sampler's) is integral as it stands; any
        # other is refused unless each entry is a whole number.
        if e.dtype.kind not in "iu" and e.size and not (
                e.dtype.kind == "f" and np.all(np.isfinite(e) & (e == np.trunc(e)))):
            raise ValueError("edge entries must be integers")
        if e.size and (e.ndim != 2 or e.shape[1] != self.arity):
            raise ValueError(f"edges must have shape (M, {self.arity}), got {e.shape}")
        e = e.astype(np.int64, copy=False).reshape(-1, self.arity)
        if e.size and (e.min() < 0 or e.max() >= self.n_nodes):
            raise ValueError("edge entries must lie in [0, n_nodes)")
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class InterpolationPoint:
    """Chain coordinate t plus the block split N1 + N2 = N.

    t counts block-restricted edges: t = 0 reproduces the plain ensemble and
    t = floor(c*N) the disjoint union.  n2 = 0 is allowed as the degenerate
    split where block 1 is the whole node set.
    """

    t: int
    n1: int
    n2: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.n1 < 1 or self.n2 < 0:
            raise ValueError(f"need n1 >= 1 and n2 >= 0, got ({self.n1}, {self.n2})")

    @property
    def n(self) -> int:
        return self.n1 + self.n2


@dataclass(frozen=True)
class DegreeStats:
    """Degree and neighborhood counts of a hypergraph.

    node_degrees counts multiplicity (a node appearing j times in one tuple
    contributes j), so the degrees sum to K*M.  node_incidences counts
    distinct containing edges, which is the quantity the binomial degree-tail
    model and the perturbation bounds refer to.  edge_neighborhoods counts
    edges sharing at least one node, including the edge itself.
    """

    node_degrees: np.ndarray
    node_incidences: np.ndarray
    edge_neighborhoods: np.ndarray
    max_degree: int


def edge_count(n_nodes: int, c: EdgeDensity) -> int:
    """Exact floor(c * N) with c parsed as an exact decimal or ratio.

    Strings and floats go through Decimal so that e.g. c = 0.3, N = 10 gives
    3 rather than a float-floor off-by-one; a "p/q" string (how a Fraction
    density is stored in a record) is parsed as that exact Fraction.
    """
    if isinstance(c, (int, Fraction, Decimal)):
        value = c
    elif isinstance(c, str):
        try:
            value = Fraction(c) if "/" in c else Decimal(c)
        except (InvalidOperation, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse edge density {c!r}") from exc
    elif isinstance(c, float):
        value = Decimal(str(c))
    else:
        raise TypeError(f"unsupported edge density type {type(c)!r}")
    if isinstance(value, Decimal) and not value.is_finite():
        raise ValueError(f"edge density must be finite, got {c!r}")
    frac = Fraction(value)
    if frac <= 0:
        raise ValueError(f"edge density must be positive, got {c}")
    return math.floor(frac * n_nodes)


def _nodes_from_uniforms(u: np.ndarray, size: int) -> np.ndarray:
    # floor(u * size) maps Uniform[0,1) to Uniform{0..size-1}; the coupling
    # across block sizes reuses the same uniforms.
    return np.minimum((u * size).astype(np.int64), size - 1)


def _chain_graphs(n_nodes: int, c: EdgeDensity, arity: int, n1: int,
                  steps: Sequence[int], seed: int) -> list[Hypergraph]:
    """The graph at each chain step in ``steps`` (each in [0, m]) of one slot draw.

    Slot j holds a global tuple over all N nodes and, when it is block
    restricted, a tuple inside block 1 (nodes [0, n1)) if v[j] < n1/N, else
    inside block 2 (nodes [n1, N)); with n2 = 0, v < 1 always picks block 1.
    Step t takes the first m - t global tuples, then the last t block tuples.
    Both tuples are elementwise in one draw of (u, v), so a slot's tuple does
    not depend on how many slots are restricted, and block tuples are built
    only for the slots the largest step restricts.
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    n2 = InterpolationPoint(0, n1, n_nodes - n1).n2  # validates the split
    m = edge_count(n_nodes, c)
    rng = substream(seed, GRAPH)
    u = rng.random((m, arity))
    glob = _nodes_from_uniforms(u, n_nodes)
    g = m - max(steps)  # slots g..m-1 are restricted at some step
    tail, in_block1 = u[g:], rng.random(m)[g:] < n1 / n_nodes
    block = np.where(in_block1[:, None], _nodes_from_uniforms(tail, n1),
                     n1 + _nodes_from_uniforms(tail, max(n2, 1)))
    return [Hypergraph(n_nodes, arity, np.concatenate([glob[:m - t], block[m - t - g:]]))
            for t in steps]


def sample_er(n_nodes: int, c: EdgeDensity, arity: int, seed: int) -> Hypergraph:
    """Plain ensemble: floor(c*N) i.i.d. edges uniform over the N^K tuples.

    This is chain step 0 of the split N1 = N.
    """
    return _chain_graphs(n_nodes, c, arity, n_nodes, (0,), seed)[0]


def _check_point(point: InterpolationPoint, n_nodes: int, c: EdgeDensity) -> None:
    """Raise ValueError unless ``point`` is a chain step for N nodes at density c."""
    if point.n != n_nodes:
        raise ValueError(f"block sizes {point.n1}+{point.n2} != n_nodes {n_nodes}")
    m = edge_count(n_nodes, c)
    if point.t > m:
        raise ValueError(f"t = {point.t} exceeds edge count {m}")


def sample_interpolated(n_nodes: int, c: EdgeDensity, arity: int,
                        point: InterpolationPoint, seed: int) -> Hypergraph:
    """Interpolated ensemble at chain step ``point.t``.

    The first floor(c*N) - t edge slots are uniform over all N^K tuples; each
    of the last t slots independently picks block 1 (nodes [0, n1)) with
    probability n1/N and is uniform over that block's tuples, otherwise
    block 2 (nodes [n1, N)).
    """
    _check_point(point, n_nodes, c)
    return _chain_graphs(n_nodes, c, arity, point.n1, (point.t,), seed)[0]


def degree_stats(graph: Hypergraph) -> DegreeStats:
    """Exact degree, incidence and edge-neighborhood counts."""
    n, m = graph.n_nodes, graph.n_edges
    if m == 0:
        return DegreeStats(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
                           np.zeros(0, dtype=np.int64), 0)
    degrees = np.bincount(graph.edges.ravel(), minlength=n)
    incidences = np.zeros(n, dtype=np.int64)
    incident_edges: list[set[int]] = [set() for _ in range(n)]
    edge_node_sets = []
    for idx, edge in enumerate(graph.edges):
        nodes = set(int(x) for x in edge)
        edge_node_sets.append(nodes)
        for node in nodes:
            incidences[node] += 1
            incident_edges[node].add(idx)
    neighborhoods = np.zeros(m, dtype=np.int64)
    for idx, nodes in enumerate(edge_node_sets):
        nb: set[int] = set()
        for node in nodes:
            nb |= incident_edges[node]
        neighborhoods[idx] = len(nb)  # includes idx itself
    return DegreeStats(degrees.astype(np.int64), incidences, neighborhoods,
                       int(degrees.max()))


def degree_tail_probability(n_nodes: int, c: EdgeDensity, arity: int, m: int) -> float:
    """P(node incidence = m): Binomial(floor(c*N), 1 - (1 - 1/N)^K) point mass.

    Each of the floor(c*N) edges contains a fixed node independently with
    probability 1 - (1 - 1/N)^K.
    """
    trials = edge_count(n_nodes, c)
    if m < 0 or m > trials:
        return 0.0
    p = -math.expm1(arity * math.log1p(-1.0 / n_nodes))
    return float(math.comb(trials, m) * p ** m * (1.0 - p) ** (trials - m))


def graph_to_json(graph: Hypergraph) -> str:
    """Byte-stable serialization {"n": N, "k": K, "edges": [[...], ...]}."""
    payload = {"n": graph.n_nodes, "k": graph.arity,
               "edges": [[int(x) for x in edge] for edge in graph.edges]}
    return json.dumps(payload, separators=(",", ":"))


def graph_from_json(text: str) -> Hypergraph:
    """The graph of ``graph_to_json``'s payload; ``Hypergraph`` validates it.

    The edges are read without an integer cast, so a fractional node index
    is refused rather than truncated, and the arity is checked before the
    edges are shaped by it.
    """
    obj = json.loads(text)
    return Hypergraph(obj["n"], obj["k"], np.array(obj["edges"]))
