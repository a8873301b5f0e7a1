"""Splittable seed streams.

Every random quantity in the package is drawn from a substream identified by
a master seed plus an integer path, so independent components (graph edges,
edge potentials, per-sample replicas, Monte Carlo shards) never share
generator state.  Substreams are stable across process and worker
boundaries, which is what makes experiment replay bit-identical.
"""

from __future__ import annotations

import numpy as np

# Fixed purpose tags for the first path component.  New tags must never reuse
# an existing value, retired ones included.
GRAPH = 0
# 1 is reserved: it tagged node-potential draws, and node tables now draw nothing.
EDGE_POTENTIALS = 2
SAMPLE = 3
MC_SHARD = 4
# 5 is reserved: it tagged the randomized convexity falsifier, now deleted.
EXPERIMENT = 6


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream at ``path`` under ``seed``.

    Identical (seed, path) pairs always yield identical streams; distinct
    paths yield statistically independent streams.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """A 128-bit integer seed for the substream at ``path`` under ``seed``.

    Used to hand per-sample seeds to components that take a seed argument
    themselves (graph samplers, potential draws), keeping the whole replica
    tree deterministic and worker-order independent.
    """
    state = _seed_sequence(seed, path).generate_state(4)
    return int.from_bytes(state.tobytes(), "little")
