"""Spin domains, potential specifications, and the example model zoo.

A model bundles a spin domain (discrete colors or a finite partition of the
real line), a fixed node table, a finite edge-potential law of arity K, and
the soft-state constants (kappa, rho_min, rho_max, J_max, alpha) under which
the log-partition bounds and perturbation lemmas hold.

Discrete colors are 0..q-1 internally; the +/-1 spin encodings used by the
Ising, Viana-Bray and XOR models are presentation-level maps c -> 2c-1.
Continuous spins are restricted to piecewise-constant potentials over a
declared cell partition (which makes the discrete embedding exact), plus the
Gaussian kernel node potential evaluated by composite midpoint quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Optional, Sequence, Union

import numpy as np

from .seeds import EDGE_POTENTIALS, substream

__all__ = [
    "Discrete",
    "PiecewiseContinuous",
    "SpinDomain",
    "NodePotentialSpec",
    "EdgePotentialSpec",
    "SoftStateParams",
    "PowerSumWitness",
    "ModelSpec",
    "PotentialDraws",
    "ModelConfigError",
    "ZOO_MODELS",
    "build_model",
    "embed_discrete",
    "draw_potentials",
    "verify_soft_state",
    "gaussian_kernel_potential",
    "MODEL_PARAMS",
    "EMBEDDED_SUFFIX",
    "decode_model",
    "model_from_config",
    "model_to_config",
]


class ModelConfigError(ValueError):
    """Unknown model name or out-of-range parameter."""


# ---------------------------------------------------------------------------
# Spin domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Discrete:
    """Color set {0, ..., q-1}."""

    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ModelConfigError(f"discrete domain needs q >= 2, got {self.q}")

    @property
    def n_states(self) -> int:
        return self.q

    @property
    def lengths(self) -> np.ndarray:
        return np.ones(self.q)


@dataclass(frozen=True)
class PiecewiseContinuous:
    """Finite list of disjoint real cells [lo, hi); quadrature weight = length."""

    cells: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.cells:
            raise ModelConfigError("continuous domain needs at least one cell")
        for lo, hi in self.cells:
            if not hi > lo:
                raise ModelConfigError(f"cell [{lo}, {hi}) has non-positive length")
        spans = sorted(self.cells)
        for (al, ah), (bl, bh) in zip(spans, spans[1:]):
            if bl < ah:
                raise ModelConfigError(f"cells [{al},{ah}) and [{bl},{bh}) overlap")

    @property
    def n_states(self) -> int:
        return len(self.cells)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.cells])

    def midpoints(self) -> np.ndarray:
        return np.array([0.5 * (lo + hi) for lo, hi in self.cells])


SpinDomain = Union[Discrete, PiecewiseContinuous]


# ---------------------------------------------------------------------------
# Potential specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodePotentialSpec:
    """The node potential h: one fixed, non-negative table over domain states,
    held as a read-only private copy."""

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise ModelConfigError("node potential table must be finite and >= 0")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def __reduce__(self):
        # A copy goes through __post_init__, so it is read-only too.
        return NodePotentialSpec, (self.table,)


@dataclass(frozen=True)
class EdgePotentialSpec:
    """Law of the edge potential J over K-tuples of domain states.

    ``tables`` stacks the law's tables as one (n, q, ..., q) float array and
    ``probs`` holds their n probabilities, which the exact expectation
    operators sum over.  Deterministic kernels are one table, K-SAT has 2^K
    equally likely sign tuples, Viana-Bray one table per value of I.  A
    float array that owns its data is adopted without a copy, so a builder's
    array is the law; a view, whose base would stay writable, is copied.
    Both arrays are made read-only.
    """

    arity: int
    tables: np.ndarray = field(repr=False)
    probs: np.ndarray

    def __post_init__(self):
        if self.arity < 2:
            raise ModelConfigError(f"edge arity must be >= 2, got {self.arity}")
        probs = np.array(self.probs, dtype=float)
        if np.any(probs <= 0):
            raise ModelConfigError("law probabilities must be positive")
        if not abs(probs.sum() - 1.0) <= 1e-12:
            raise ModelConfigError(f"law probabilities sum to {probs.sum()}, not 1")
        tables = np.asarray(self.tables, dtype=float)
        if not tables.flags.owndata:
            tables = tables.copy()
        if tables.ndim != self.arity + 1:
            raise ModelConfigError(
                f"law table has order {tables.ndim - 1}, expected {self.arity}")
        if probs.shape != tables.shape[:1]:
            raise ModelConfigError(f"law has {len(tables)} tables but "
                                   f"probabilities of shape {probs.shape}")
        if np.any(tables < 0) or not np.all(np.isfinite(tables)):
            raise ModelConfigError("edge potential tables must be finite and >= 0")
        for key, value in (("tables", tables), ("probs", probs)):
            value.setflags(write=False)
            object.__setattr__(self, key, value)

    def __reduce__(self):
        # A copy goes through __post_init__, so it is read-only too.
        return EdgePotentialSpec, (self.arity, self.tables, self.probs)

    def draw_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Table indices of ``size`` i.i.d. draws; a one-table law draws nothing."""
        if len(self.probs) == 1:
            return np.zeros(size, dtype=np.intp)
        return rng.choice(len(self.probs), size=size, p=self.probs)


@dataclass(frozen=True)
class SoftStateParams:
    """Constants of the soft-state assumption plus the convexity shift alpha.

    The soft region is the state set embedded in [0, kappa); every edge
    potential is at least rho_min there, node masses sit between rho_min and
    rho_max, and sup J <= j_max <= rho_max.  alpha >= j_max is the shift that
    makes the expected tensor products convex on the positive orthant.
    """

    kappa: float
    rho_min: float
    rho_max: float
    j_max: float
    alpha: float

    def __post_init__(self):
        for key in ("kappa", "rho_min", "rho_max", "j_max", "alpha"):
            if not math.isfinite(getattr(self, key)):
                raise ModelConfigError(f"soft-state constant {key} = "
                                       f"{getattr(self, key)} is not finite")
        if not (0 < self.rho_min <= self.rho_max):
            raise ModelConfigError(
                f"need 0 < rho_min <= rho_max, got ({self.rho_min}, {self.rho_max})")
        if not (0 < self.j_max <= self.rho_max):
            raise ModelConfigError(
                f"need 0 < j_max <= rho_max, got ({self.j_max}, {self.rho_max})")
        if self.alpha < self.j_max:
            raise ModelConfigError(f"alpha {self.alpha} < j_max {self.j_max}")
        if self.kappa <= 0:
            raise ModelConfigError("kappa must be positive")

    @property
    def log_ratio(self) -> float:
        """log(rho_max) - log(rho_min), the unit of the perturbation bounds."""
        return math.log(self.rho_max) - math.log(self.rho_min)


@dataclass(frozen=True)
class PowerSumWitness:
    """alpha - J as a sum of K-th powers over an independent edge law.

    With xi = (a, b_1, ..., b_K), a ~ ``coef_probs`` and the b_k i.i.d. ~
    ``phi_probs``, it states alpha - J_xi(x) = sum_s coef[a, s] prod_k
    phi[b_k, s, x_k]; the edge law lists the xi in row-major order.  Shapes
    are coef (n_a, S), coef_probs (n_a,), phi (n_b, S, q), phi_probs (n_b,).
    """

    coef: np.ndarray
    coef_probs: np.ndarray
    phi: np.ndarray
    phi_probs: np.ndarray

    def __post_init__(self):
        keys = ("coef", "coef_probs", "phi", "phi_probs")
        for key in keys:
            object.__setattr__(self, key, np.asarray(getattr(self, key), dtype=float))
        coef, phi = self.coef, self.phi
        if (coef.ndim != 2 or phi.ndim != 3 or phi.shape[1] != coef.shape[1]
                or self.coef_probs.shape != coef.shape[:1]
                or self.phi_probs.shape != phi.shape[:1]):
            raise ModelConfigError("witness shapes must be coef (n_a, S), coef_probs "
                                   "(n_a,), phi (n_b, S, q) and phi_probs (n_b,)")
        if not all(np.isfinite(getattr(self, key)).all() for key in keys):
            raise ModelConfigError("witness entries must be finite")


@dataclass(frozen=True)
class ModelSpec:
    """A named model: domain + potential laws + soft-state constants, and
    optionally a power-sum witness of alpha - J for the convexity check."""

    name: str
    domain: SpinDomain
    node_pot: NodePotentialSpec
    edge_pot: EdgePotentialSpec
    soft: SoftStateParams
    params: dict = field(default_factory=dict)
    witness: Optional[PowerSumWitness] = None

    @property
    def arity(self) -> int:
        return self.edge_pot.arity

    @property
    def n_states(self) -> int:
        return self.domain.n_states

    def soft_states(self) -> np.ndarray:
        """Indices of the states whose cells lie inside [0, kappa)."""
        if isinstance(self.domain, Discrete):
            # color i occupies [i, i+1) in the embedded picture
            return np.arange(min(self.domain.q, int(math.floor(self.soft.kappa))))
        idx = [i for i, (lo, hi) in enumerate(self.domain.cells)
               if lo >= 0.0 and hi <= self.soft.kappa]
        return np.array(idx, dtype=int)


@dataclass(frozen=True)
class PotentialDraws:
    """Dense potential tables attached to a graph: one h per node, one J per edge.

    Both tables are read-only float copies of the arrays passed in, so
    ``_lifts`` can keep the exact evaluator's lifted tables, keyed by
    semiring and spin domain: instances that share one PotentialDraws (the
    graphs of an interpolation chain sample) lift them once.
    """

    node_tables: np.ndarray   # (N, n_states)
    edge_tables: np.ndarray   # (M, n_states, ..., n_states), order = arity
    _lifts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in ("node_tables", "edge_tables"):
            tables = np.array(getattr(self, key), dtype=float)
            if not (np.isfinite(tables).all() and (tables >= 0).all()):
                raise ValueError("potential tables must be finite and >= 0")
            tables.setflags(write=False)
            object.__setattr__(self, key, tables)

    def __reduce__(self):
        # Pickles and copies carry the tables only; a copy lifts afresh.
        return PotentialDraws, (self.node_tables, self.edge_tables)


# ---------------------------------------------------------------------------
# The model zoo
# ---------------------------------------------------------------------------

# Name suffix of a model that embed_discrete made.
EMBEDDED_SUFFIX = "_embedded"
# Most entries a dense table may hold: an edge law's tables in all, or one
# factor of exact log Z.
DEFAULT_STATE_CAP = 2 ** 24


def _check_law_size(n_tables: int, q: int, k: int) -> None:
    """Refuse n_tables dense q^k tables above DEFAULT_STATE_CAP entries in
    all, before any is built; q >= 2, so past k = 24 no power is formed."""
    if k >= DEFAULT_STATE_CAP.bit_length() or n_tables * q ** k > DEFAULT_STATE_CAP:
        raise ModelConfigError(f"the edge law's {n_tables} * {q}^{k} table entries "
                               f"exceed cap {DEFAULT_STATE_CAP}; lower k or q")


def _exp(x: float) -> float:
    """exp(x) for a J_max, refusing an argument whose exponential overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ModelConfigError(f"J_max = exp({x:g}) overflows a float; "
                               "beta * max|I| must stay below 709.78") from None


def _integer(value) -> int:
    """An integer parameter: an int, a string of one, or an integral number."""
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _float_tuple(values) -> tuple[float, ...]:
    if isinstance(values, str):
        raise TypeError(f"expected a sequence of numbers, got {values!r}")
    return tuple(float(v) for v in values)


# Every parameter build_model accepts, across the zoo, and the converter it
# applies to the value.
MODEL_PARAMS = {"lambda": float, "beta": float, "q": _integer, "k": _integer,
                "h": float, "i_values": _float_tuple, "i_probs": _float_tuple}


def _check_symmetric_law(values: Sequence[float], probs: Sequence[float]) -> None:
    if len(values) != len(probs):
        raise ModelConfigError("i_values and i_probs must have equal length")
    if abs(sum(probs) - 1.0) > 1e-12 or any(p <= 0 for p in probs):
        raise ModelConfigError("i_probs must be positive and sum to 1")
    law = {}
    for v, p in zip(values, probs):
        law[float(v)] = law.get(float(v), 0.0) + p
    for v, p in law.items():
        if abs(law.get(-v, 0.0) - p) > 1e-12:
            raise ModelConfigError("distribution of I must be symmetric around zero")


# Each builder reads its parameters by build_model's ``take`` and returns the
# node table, the edge law as one (n, q, ..., q) array and its n probabilities,
# the soft-state constants, the params to record and the witness of alpha - J.

def _hard_core(take):
    lam = take("lambda")
    if lam <= 0:
        raise ModelConfigError(f"lambda must be positive, got {lam}")
    soft = SoftStateParams(kappa=1.0, rho_min=min(lam, 1.0), rho_max=1.0 + lam,
                           j_max=1.0, alpha=1.0)
    witness = PowerSumWitness(coef=[[1.0]], coef_probs=[1.0],
                              phi=[[[0.0, 1.0]]], phi_probs=[1.0])
    tables = np.array([[[1.0, 1.0], [1.0, 0.0]]])
    return np.array([1.0, lam]), tables, [1.0], soft, {"lambda": lam}, witness


def _potts(take):
    q, beta = take("q"), take("beta")
    if q < 2:
        raise ModelConfigError(f"potts needs q >= 2, got {q}")
    if beta < 0:
        raise ModelConfigError("ferromagnetic potts (beta < 0) is out of scope")
    _check_law_size(1, q, 2)
    gap = 1.0 - math.exp(-beta)
    # sup J = 1 for beta >= 0; rho_max = max(q*max h, j_max) keeps the
    # soft-state witness valid for every beta.
    soft = SoftStateParams(kappa=float(q - 1), rho_min=min(1.0, math.exp(-beta)),
                           rho_max=float(q), j_max=1.0, alpha=1.0)
    witness = PowerSumWitness(coef=[[gap] * q], coef_probs=[1.0],
                              phi=np.eye(q)[None], phi_probs=[1.0])
    tables = np.ones((1, q, q))
    np.fill_diagonal(tables[0], 1.0 - gap)  # 1 - gap, the bits of ones - gap * eye
    return np.ones(q), tables, [1.0], soft, {"q": q, "beta": beta}, witness


def _ising(take):
    beta, hval = take("beta"), take("h", 1.0)
    if beta < 0:
        raise ModelConfigError("ferromagnetic ising (beta < 0) is out of scope")
    if hval <= 0:
        raise ModelConfigError(f"external field h must be positive, got {hval}")
    eb = _exp(beta)
    soft = SoftStateParams(kappa=1.0, rho_min=min(1.0, hval, 1.0 / eb),
                           rho_max=max(2.0 * max(1.0, hval), eb), j_max=eb, alpha=eb)
    witness = PowerSumWitness(coef=[[math.sinh(beta)] * 2], coef_probs=[1.0],
                              phi=[[[1.0, 1.0], [-1.0, 1.0]]], phi_probs=[1.0])
    tables = np.array([[[1.0 / eb, eb], [eb, 1.0 / eb]]])
    return np.array([1.0, hval]), tables, [1.0], soft, {"beta": beta, "h": hval}, witness


def _viana_bray(take, xor=False):
    k, beta = take("k"), take("beta")
    if k < 2:
        raise ModelConfigError(f"arity k must be >= 2, got {k}")
    if beta <= 0:
        raise ModelConfigError(f"viana-bray needs beta > 0, got {beta}")
    if xor:
        hval, i_values, i_probs, extra = 1.0, (1.0, -1.0), (0.5, 0.5), {}
    else:
        hval = take("h", 1.0)
        if hval <= 0:
            raise ModelConfigError(f"h must be positive, got {hval}")
        i_values, i_probs = take("i_values", (1.0, -1.0)), take("i_probs", (0.5, 0.5))
        _check_symmetric_law(i_values, i_probs)
        extra = {"h": hval, "i_values": list(i_values), "i_probs": list(i_probs)}
    _check_law_size(len(i_values), 2, k)
    c_i = max(abs(v) for v in i_values)
    jmax = max(hval, _exp(beta * c_i))
    # All colors are soft (J >= exp(-beta*c_I) > 0 everywhere): kappa = q.
    soft = SoftStateParams(kappa=2.0, rho_min=min(1.0, hval, math.exp(-beta * c_i)),
                           rho_max=max(2.0 * max(1.0, hval), jmax), j_max=jmax, alpha=jmax)
    witness = PowerSumWitness(
        coef=[[jmax - math.cosh(beta * v), -math.sinh(beta * v)] for v in i_values],
        coef_probs=i_probs, phi=[[[1.0, 1.0], [-1.0, 1.0]]], phi_probs=[1.0])
    # Table t is exp(beta * I_t * prod_l x_l), x_l = 2 c_l - 1 over colors c.
    tables = np.multiply.outer([beta * v for v in i_values],
                               reduce(np.multiply.outer, [np.array([-1.0, 1.0])] * k))
    np.exp(tables, out=tables)
    return (np.array([1.0, hval]), tables, i_probs, soft,
            {"k": k, "beta": beta, **extra}, witness)


def _ksat(take):
    k, beta = take("k"), take("beta")
    if k < 2:
        raise ModelConfigError(f"arity k must be >= 2, got {k}")
    if beta < 0:
        raise ModelConfigError(f"ksat needs beta >= 0, got {beta}")
    _check_law_size(1, 4, k)  # 2^k tables of 2^k entries
    soft = SoftStateParams(kappa=2.0, rho_min=math.exp(-beta), rho_max=2.0,
                           j_max=1.0, alpha=1.0)
    witness = PowerSumWitness(coef=[[1.0 - math.exp(-beta)]], coef_probs=[1.0],
                              phi=np.eye(2)[:, None, :], phi_probs=[0.5, 0.5])
    # The table of the sign tuple with row-major index i is exp(-beta) at
    # entry i and 1 elsewhere: row i of the law seen as a (2^k, 2^k) array.
    tables = np.ones((2 ** k,) + (2,) * k)
    np.fill_diagonal(tables.reshape(2 ** k, 2 ** k), math.exp(-beta))
    return (np.ones(2), tables, np.full(2 ** k, 0.5 ** k),
            soft, {"k": k, "beta": beta}, witness)


_BUILDERS = {"independent_set": _hard_core, "potts": _potts, "ising": _ising,
             "viana_bray": _viana_bray, "xor": partial(_viana_bray, xor=True),
             "ksat": _ksat}
ZOO_MODELS = tuple(_BUILDERS)


def build_model(name: str, **params) -> ModelSpec:
    """Construct one of the six zoo models with validated parameters.

    Accepted parameters by model:

    - ``independent_set``: lambda > 0.  Hard-core pair kernel, J(1,1) = 0.
    - ``potts``: q >= 2, beta >= 0.  J = exp(-beta) on equal colors, else 1.
    - ``ising``: beta >= 0, h > 0.  Anti-ferromagnetic pair kernel
      J = exp(-beta * x1 * x2) in the +/-1 spin encoding, so equal spins get
      exp(-beta) and unequal spins exp(+beta); h is the external field on
      spin +1.
    - ``viana_bray``: k >= 2, beta > 0, h > 0, i_values/i_probs a finite
      symmetric law for I with finitely many values.  J = exp(beta*I*prod x_l).
    - ``xor``: k >= 2, beta > 0.  Viana-Bray with h = 1 and I = +/-1 uniform.
    - ``ksat``: k >= 2, beta >= 0.  A uniformly random sign tuple z* gets
      J(z*) = exp(-beta), all other tuples 1.

    Each name has one builder, which makes the edge law's tables once, as
    the stacked array that ``EdgePotentialSpec`` adopts.  The stored
    soft-state constants are valid witnesses of the soft-state
    assumption for all admitted parameters (checkable via
    ``verify_soft_state``), and alpha equals j_max for every zoo model.
    Every zoo model carries a ``PowerSumWitness`` of alpha - J: hard-core is
    1[x_1 = 1] 1[x_2 = 1], Potts (1 - e^-beta) sum_c 1[x_1 = c] 1[x_2 = c],
    Ising sinh(beta) (1 + x_1 x_2), K-SAT (1 - e^-beta) prod_k 1[x_k = z_k]
    and Viana-Bray (alpha - cosh(beta I)) - sinh(beta I) prod_k x_k, in the
    +/-1 encoding where it applies.  Each value goes through its key's
    converter in ``MODEL_PARAMS``, which the CLI's model flags read too.  A
    parameter of the wrong type (a string for i_values or i_probs
    included), a q or k that is not an integer, a beta whose J_max =
    exp(beta * max|I|) overflows, or a parameter that makes a soft-state
    constant non-finite (an h or lambda near the float maximum, say) is a
    ModelConfigError, which the CLI reports with exit status 2.  So
    is a law whose dense tables would hold more than DEFAULT_STATE_CAP =
    2^24 entries in all, n * q^K for n tables: 4^k for K-SAT (k <= 12),
    |I| * 2^k for Viana-Bray and XOR (k <= 23 at |I| = 2) and q^2 for Potts
    (q <= 4096); it is refused before any table or witness is built.
    """
    if name not in _BUILDERS:
        raise ModelConfigError(f"unknown model {name!r}; known: {ZOO_MODELS}")
    known = dict(params)

    def take(key, *default):
        if key not in known:
            if not default:
                raise ModelConfigError(f"model {name!r} requires parameter {key!r}")
            return default[0]
        try:
            return MODEL_PARAMS[key](known.pop(key))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelConfigError(f"bad parameter {key!r} for {name!r}: {exc}") from None

    h, tables, probs, soft, recorded, witness = _BUILDERS[name](take)
    if known:
        raise ModelConfigError(f"unexpected parameters for {name!r}: {sorted(known)}")
    return ModelSpec(name, Discrete(len(h)), NodePotentialSpec(table=h),
                     EdgePotentialSpec(tables.ndim - 1, tables, probs),
                     soft, recorded, witness)


# ---------------------------------------------------------------------------
# Discrete -> continuous embedding
# ---------------------------------------------------------------------------

def embed_discrete(model: ModelSpec) -> ModelSpec:
    """Embed a discrete model into unit cells [i, i+1), i = 0..q-1.

    Potentials are constant per cell, so the continuous partition function of
    the image equals the discrete partition function of the preimage on every
    graph, and the power-sum witness carries over unchanged.
    """
    if not isinstance(model.domain, Discrete):
        raise ModelConfigError("embed_discrete takes a model with a Discrete domain")
    q = model.domain.q
    domain = PiecewiseContinuous(tuple((float(i), float(i + 1)) for i in range(q)))
    return ModelSpec(model.name + EMBEDDED_SUFFIX, domain, model.node_pot,
                     model.edge_pot, model.soft, dict(model.params), model.witness)


def gaussian_kernel_potential(half_width: float = 6.0,
                              n_cells: int = 512) -> tuple[PiecewiseContinuous, np.ndarray]:
    """Gaussian node potential h(x) = exp(-x^2) on a truncated uniform grid.

    Returns the cell partition of [-half_width, half_width] and the per-cell
    midpoint values; the quadrature is composite midpoint on that grid.
    """
    if half_width <= 0 or n_cells < 1:
        raise ModelConfigError("need half_width > 0 and n_cells >= 1")
    edges = np.linspace(-half_width, half_width, n_cells + 1)
    domain = PiecewiseContinuous(tuple((float(a), float(b))
                                       for a, b in zip(edges[:-1], edges[1:])))
    table = np.exp(-domain.midpoints() ** 2)
    return domain, table


# ---------------------------------------------------------------------------
# Potential draws
# ---------------------------------------------------------------------------

def draw_potentials(model: ModelSpec, graph, seed: int) -> PotentialDraws:
    """Attach potentials to every node and edge of ``graph``.

    Every node gets the fixed node table.  Edge tables are i.i.d. draws from
    the finite edge law on the EDGE_POTENTIALS substream of ``seed``, so they
    are fixed by (model, number of edges, seed).
    """
    if graph.arity != model.arity:
        raise ModelConfigError(
            f"graph arity {graph.arity} != model arity {model.arity}")
    edge_pot = model.edge_pot
    idx = edge_pot.draw_indices(substream(seed, EDGE_POTENTIALS), graph.n_edges)
    return PotentialDraws(node_tables=np.tile(model.node_pot.table, (graph.n_nodes, 1)),
                          edge_tables=edge_pot.tables[idx])


# ---------------------------------------------------------------------------
# Soft-state verification
# ---------------------------------------------------------------------------

def verify_soft_state(model: ModelSpec) -> list[str]:
    """Exhaustively check the soft-state assumption against the stored constants.

    Returns a list of human-readable violations (empty means the assumption
    holds).  The node table and the stacked edge law are checked, with a
    slack of 1e-12 * (1 + rho_max): the law by one max over all its tables
    and one mask of the tuples with a soft coordinate, whose first entry
    below rho_min is reported.
    """
    soft = model.soft
    lengths = model.domain.lengths
    soft_idx = model.soft_states()
    slack = 1e-12 * (1.0 + soft.rho_max)
    problems = []

    if soft_idx.size == 0:
        problems.append("no state lies inside the soft region [0, kappa)")
        return problems

    h = model.node_pot.table
    mass = float(np.dot(h, lengths))
    soft_mass = float(np.dot(h[soft_idx], lengths[soft_idx]))
    if soft_mass < soft.rho_min - slack:
        problems.append(f"soft node mass {soft_mass} < rho_min {soft.rho_min}")
    if mass > soft.rho_max + slack:
        problems.append(f"node mass {mass} > rho_max {soft.rho_max}")

    tables = model.edge_pot.tables
    if tables.max() > soft.j_max + slack:
        problems.append(f"sup J {tables.max()} > j_max {soft.j_max}")
    # Soft interaction: tuples with any soft coordinate stay >= rho_min.
    is_soft = np.isin(np.arange(model.n_states), soft_idx)
    low = tables < soft.rho_min - slack
    low &= reduce(np.logical_or.outer, [is_soft] * model.arity)
    if low.any():
        t, *idx = (int(i) for i in np.unravel_index(low.argmax(), low.shape))
        problems.append(f"J{tuple(idx)} of table {t} = {tables[t][tuple(idx)]} "
                        f"< rho_min {soft.rho_min}")
    return problems


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def decode_model(name: str, params: dict) -> ModelSpec:
    """Rebuild a model from its ``name`` and its ``params``.

    A name with the EMBEDDED_SUFFIX that embed_discrete appends is built from
    the base name and then embedded, so every model the package makes decodes
    from what it stores.
    """
    base = name.removesuffix(EMBEDDED_SUFFIX)
    model = build_model(base, **params)
    return embed_discrete(model) if base != name else model


def model_from_config(obj: dict) -> tuple[ModelSpec, int]:
    """Build (model, seed) from a config object {"model", "params", "seed"}:
    a string, an object and an integer."""
    if not isinstance(obj, dict):
        raise ModelConfigError("config must be an object")
    try:
        name, params, seed = obj["model"], obj["params"], obj["seed"]
    except KeyError as exc:
        raise ModelConfigError(f"config is missing field {exc}") from exc
    if not isinstance(name, str):
        raise ModelConfigError(f"config field 'model' must be a string, got {name!r}")
    if not isinstance(params, dict):
        raise ModelConfigError(f"config field 'params' must be an object, got {params!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ModelConfigError(f"config field 'seed' must be an integer, got {seed!r}")
    return decode_model(name, params), seed


def model_to_config(model: ModelSpec, seed: int) -> dict:
    return {"model": model.name, "params": dict(model.params), "seed": int(seed)}
