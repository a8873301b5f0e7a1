"""Shared test helpers: random zoo models and random small instances, and
the worker count for a block."""

import os
from unittest import mock

import numpy as np

from gibbslab import Hypergraph, build_model, make_instance
from gibbslab.harness import WORKERS_ENV
from gibbslab.seeds import derive_seed


def workers(n):
    """Context manager: GIBBSLAB_WORKERS = n inside the block, restored after."""
    return mock.patch.dict(os.environ, {WORKERS_ENV: str(n)})


def random_zoo_model(rng: np.random.Generator, names=None):
    """A zoo model with parameters drawn from sensible in-range windows."""
    names = names or ("independent_set", "potts", "ising", "viana_bray", "xor", "ksat")
    name = names[rng.integers(len(names))]
    if name == "independent_set":
        return build_model(name, **{"lambda": float(rng.uniform(0.3, 2.5))})
    if name == "potts":
        return build_model(name, q=int(rng.integers(2, 4)),
                           beta=float(rng.uniform(0.0, 1.5)))
    if name == "ising":
        return build_model(name, beta=float(rng.uniform(0.0, 1.2)),
                           h=float(rng.uniform(0.5, 2.0)))
    if name == "viana_bray":
        if rng.random() < 0.5:
            law = {}
        else:
            a = float(rng.uniform(0.5, 1.5))
            law = {"i_values": [a, 0.0, -a], "i_probs": [0.25, 0.5, 0.25]}
        return build_model(name, k=int(rng.integers(2, 4)),
                           beta=float(rng.uniform(0.3, 1.0)),
                           h=float(rng.uniform(0.5, 2.0)), **law)
    if name == "xor":
        return build_model(name, k=int(rng.integers(2, 4)),
                           beta=float(rng.uniform(0.3, 1.0)))
    if name == "ksat":
        return build_model(name, k=int(rng.integers(2, 4)),
                           beta=float(rng.uniform(0.2, 1.5)))
    raise ValueError(name)


def merge_low_bins(counts, expected, min_expected=5.0):
    """Merge bins with small expectation into one tail bin for a chi-square."""
    counts = np.asarray(counts)
    expected = np.asarray(expected, dtype=float)
    keep = expected >= min_expected
    if keep.all():
        return counts, expected
    obs = np.append(counts[keep], counts[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    return obs, exp


def random_instance(rng: np.random.Generator, n_max=4, names=None,
                    model=None, n_nodes=None):
    """A random small instance: random zoo model, graph, and potentials."""
    model = model or random_zoo_model(rng, names)
    n = int(n_nodes if n_nodes is not None else rng.integers(1, n_max + 1))
    m = int(rng.integers(0, 2 * n + 1))
    edges = rng.integers(0, n, size=(m, model.arity))
    graph = Hypergraph(n, model.arity, edges)
    seed = derive_seed(int(rng.integers(2 ** 32)), 0)
    return make_instance(model, graph, seed)
