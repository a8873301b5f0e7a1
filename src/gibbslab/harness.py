"""Seeded experiment drivers for the probabilistic claims, plus persistence.

Every experiment is a deterministic function of (params, seed): per-sample
seeds are derived from the master seed by index, so results are bit-identical
for any worker count and any record can be replayed from its stored
parameters.  Statistical pass thresholds are module constants
(``SE_FACTOR`` = 3 standard errors for monotonicity, ``SLOPE_THRESHOLD`` =
-0.3 for the concentration proxy); verdicts always carry the raw numbers.

Every estimate evaluates steps of one interpolation chain, sample-major:
one task derives a sample's seed, takes the graphs of the requested steps
from one ``graphs._chain_graphs`` call, draws its potentials once, and
evaluates log Z at each step t.  A plain draw is step 0 of the split
N1 = N, which is what ``sample_er`` returns; a point is its one step; the
monotonicity experiment takes every step.  The instances of a
sample share one PotentialDraws, which keeps the log tables the first
evaluation lifted, so the tables are lifted once per sample.  Each
experiment call opens at most one process pool, into which the sample
blocks of its whole chain or of all its sizes go.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .convexity import certify_model
from .graphs import Hypergraph, InterpolationPoint, _chain_graphs, _check_point, \
    edge_count
# Unused here; the benchmark's trace wraps these names on this module.
from .graphs import sample_er, sample_interpolated  # noqa: F401
from .models import MODEL_PARAMS, ModelSpec, decode_model
from .partition import Instance, instance_from_json, instance_to_json, log_z_exact, \
    make_instance, z_exact_rational, z_exact_rational_edge_added
from .seeds import EXPERIMENT, GRAPH, SAMPLE, derive_seed, substream

__all__ = [
    "MeanEstimate",
    "ExperimentRecord",
    "resolve_workers",
    "estimate_mean_logz",
    "interpolation_monotonicity",
    "moment_inequality_check",
    "random_base_instance",
    "concentration_experiment",
    "convergence_experiment",
    "record_to_json",
    "record_from_json",
    "append_record",
    "read_records",
    "records_to_csv",
    "replay_record",
    "verify_replay",
]

WORKERS_ENV = "GIBBSLAB_WORKERS"
SE_FACTOR = 3.0
SLOPE_THRESHOLD = -0.3


def resolve_workers() -> int:
    """Worker count: GIBBSLAB_WORKERS, or 1 when it is unset or empty.

    Raises ValueError unless the value is a positive integer.
    """
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
    return int(env)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sample_std(values: np.ndarray) -> float:
    # Constant samples have zero spread; np.std would report ~1e-16 noise
    # from the pairwise-sum mean.
    if values.size < 2 or np.all(values == values[0]):
        return 0.0
    return float(values.std(ddof=1))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    return float(values.mean()), _sample_std(values) / math.sqrt(len(values))


@dataclass(frozen=True)
class MeanEstimate:
    """Sample mean of log Z over i.i.d. (graph, potentials) draws."""

    mean: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class ExperimentRecord:
    """A seeded, replayable result row."""

    experiment: str
    params: dict
    results: dict
    verdict: str  # "pass" | "fail" | "report"
    timestamp: str = field(default_factory=_utc_now)


# ---------------------------------------------------------------------------
# Sampling E[log Z]
# ---------------------------------------------------------------------------

def _chain_task(args: tuple, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, len(steps)) log Z values of samples lo..hi-1 at chain steps.

    Sample i's seed, slot draw and potential draws are the same at every t
    (the potentials depend on the model, M = m and the seed only), so each
    is made once per sample: one ``_chain_graphs`` call gives the graph of
    every step in ``steps``, and only the eliminations run per step.  Each
    step is still one call of ``log_z_exact`` on its own Instance; those
    Instances share the sample's PotentialDraws, so the node and edge tables
    are lifted into log space at the first step only.
    """
    model, n_nodes, c, n1, steps, seed = args
    rows = []
    for i in range(lo, hi):
        s = derive_seed(seed, SAMPLE, i)
        graphs = _chain_graphs(n_nodes, c, model.arity, n1, steps, s)
        draws = make_instance(model, graphs[0], s).potentials
        rows.append([log_z_exact(Instance(graph, draws, model)).value
                     for graph in graphs])
    return np.array(rows)


def _map_blocks(jobs: Sequence[tuple]) -> list:
    """``_chain_task(args, lo, hi)`` over samples 0..n-1 of every (args, n) job.

    A mean or a chain is one job; a size-list experiment has one per size.
    Each job's samples are cut into about 4 blocks per worker; the blocks
    of all jobs go through one ``map`` of one ProcessPoolExecutor, opened
    only when there is more than one worker.  Each job's blocks are
    concatenated in order.  Sample i's seed derives from i alone, so the
    block boundaries and the worker count never change a result.
    """
    workers = resolve_workers()
    if workers <= 1 or sum(n for _, n in jobs) < 4:
        return [_chain_task(args, 0, n) for args, n in jobs]
    blocks = []
    for j, (args, n) in enumerate(jobs):
        step = max(1, math.ceil(n / (4 * workers)))
        blocks += [(j, args, lo, min(lo + step, n)) for lo in range(0, n, step)]
    _, block_args, los, his = zip(*blocks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_chain_task, block_args, los, his))
    out = [[] for _ in jobs]
    for (j, *_), part in zip(blocks, parts):
        out[j].append(part)
    return [np.concatenate(p) for p in out]


def _check_samples(samples: int, name: str = "samples") -> None:
    if samples < 2:
        raise ValueError(f"{name} must be at least 2 for a standard error, "
                         f"got {samples}")


def _check_sizes(n_list: Sequence[int]) -> list[int]:
    sizes = [int(n) for n in n_list]
    if any(n < 1 for n in sizes):
        raise ValueError(f"n_list sizes must be at least 1, got {list(n_list)}")
    return sizes


def _sample_sizes(model: ModelSpec, sizes: Sequence[int], c, samples: int,
                  seed: int) -> list[np.ndarray]:
    """log Z of plain draws per size; size idx draws under (seed, EXPERIMENT, idx)."""
    jobs = [((model, n_nodes, c, n_nodes, (0,), derive_seed(seed, EXPERIMENT, idx)),
             samples) for idx, n_nodes in enumerate(sizes)]
    return [values[:, 0] for values in _map_blocks(jobs)]


def estimate_mean_logz(model: ModelSpec, n_nodes: int, c, samples: int, seed: int,
                       point: Optional[InterpolationPoint] = None) -> MeanEstimate:
    """Mean and standard error of log Z over fresh (graph, potentials) draws.

    A plain draw is chain step 0 of the split N1 = N.  A ``point`` whose
    split is not N nodes, or whose t exceeds floor(c*N), is refused before
    any pool opens.
    """
    _check_samples(samples)
    n1, steps = n_nodes, (0,)
    if point is not None:
        _check_point(point, n_nodes, c)
        n1, steps = point.n1, (point.t,)
    values, = _map_blocks([((model, n_nodes, c, n1, steps, seed), samples)])
    return MeanEstimate(*_mean_se(values[:, 0]), samples, seed)


# ---------------------------------------------------------------------------
# Interpolation monotonicity
# ---------------------------------------------------------------------------

def _model_record_params(model: ModelSpec) -> dict:
    return {"model": model.name, **{k: v for k, v in model.params.items()}}


def interpolation_monotonicity(model: ModelSpec, n_nodes: int, n1: int, c,
                               samples_per_t: int, seed: int,
                               allow_uncertified: bool = False) -> ExperimentRecord:
    """Estimate E log Z along the interpolation chain t = 0..floor(c*N).

    t = 0 is the plain ensemble, t = floor(c*N) the disjoint union.  Sample
    i has the seed derived from (seed, i) at every t, so its whole chain is
    one task (common random numbers) and each difference is estimated from
    per-sample paired differences.  The verdict passes when every
    consecutive difference and the endpoint difference is >= -SE_FACTOR
    times its standard error.  Uncertified models require
    ``allow_uncertified`` and get a report-only verdict.
    """
    _check_samples(samples_per_t, "samples_per_t")
    InterpolationPoint(0, n1, n_nodes - n1)  # validates the split
    certified = certify_model(model).certified
    if not certified and not allow_uncertified:
        raise ValueError(f"model {model.name!r} is not certified; "
                         "pass allow_uncertified=True (--allow-uncertified on "
                         "the command line) for a report-only run")
    steps = tuple(range(edge_count(n_nodes, c) + 1))
    chain, = _map_blocks([((model, n_nodes, c, n1, steps, seed), samples_per_t)])
    values = np.ascontiguousarray(chain.T)  # one row per t

    results: dict = {}
    for t, v in enumerate(values):
        results[f"mean_{t}"], results[f"se_{t}"] = _mean_se(v)

    ok = True
    for t in range(len(values) - 1):
        diff, se = _mean_se(values[t] - values[t + 1])
        results[f"diff_{t}"] = diff
        results[f"diff_se_{t}"] = se
        if se > 0:
            ratio = diff / se
        else:
            ratio = 0.0 if diff == 0 else math.copysign(math.inf, diff)
        results[f"gap_over_se_{t}"] = ratio
        if diff < -SE_FACTOR * se:
            ok = False

    diff, se = _mean_se(values[0] - values[-1])
    results["endpoint_diff"] = diff
    results["endpoint_se"] = se
    if diff < -SE_FACTOR * se:
        ok = False

    verdict = ("pass" if ok else "fail") if certified else "report"
    params = {**_model_record_params(model), "n": n_nodes, "n1": n1, "c": str(c),
              "samples_per_t": samples_per_t, "seed": seed, "couple": True,
              "se_factor": SE_FACTOR}
    return ExperimentRecord("interpolation_monotonicity", params, results, verdict)


# ---------------------------------------------------------------------------
# Exact moment inequality
# ---------------------------------------------------------------------------

def random_base_instance(model: ModelSpec, n_nodes: int, n_edges: int,
                         seed: int) -> Instance:
    """A small random instance to serve as the base graph G0."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be at least 1, got {n_nodes}")
    if n_edges < 0:
        raise ValueError(f"n_edges must be non-negative, got {n_edges}")
    rng = substream(seed, GRAPH, 1)
    edges = rng.integers(0, n_nodes, size=(n_edges, model.arity))
    graph = Hypergraph(n_nodes, model.arity, edges)
    return make_instance(model, graph, derive_seed(seed, GRAPH, 2))


def moment_inequality_check(g0: Instance, n1: int, r: int,
                            alpha: Optional[float] = None) -> ExperimentRecord:
    """Exact check of E[(alpha Z0 - Z(G0+e))^r] under global vs block placement.

    The model and N are those of the base instance ``g0``.  Z0 and the array
    of Z(G0 + e) over [t, u_1, ..., u_K] are exact rationals (variable
    elimination over dyadic floats), so E_t term^r, term = alpha Z0 -
    Z(G0 + e), is one exact array over placements.  The left side is its
    mean over all N^K tuples; the right side picks block j with probability
    N_j/N and takes the mean over its N_j^K tuples.  So the verdict compares
    exactly.  Also checks alpha*Z0 >= Z(G0+e) for every placement and draw.
    """
    model, n_nodes = g0.model, g0.graph.n_nodes
    if n_nodes > 8 or r > 3 or r < 1:
        raise ValueError("exact moment check is limited to N <= 8, 1 <= r <= 3")
    if not 1 <= n1 <= n_nodes:
        raise ValueError("need 1 <= n1 <= n_nodes")
    alpha = float(model.soft.alpha if alpha is None else alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    alpha_f = Fraction(alpha)
    k = model.arity

    term = alpha_f * z_exact_rational(g0) - \
        z_exact_rational_edge_added(g0, model.edge_pot.tables)
    min_headroom = term.min()
    moment = sum(Fraction(p) * term[t] ** r for t, p in enumerate(model.edge_pot.probs))
    left = moment.sum() / n_nodes ** k
    right = sum(Fraction(hi - lo, n_nodes) * moment[(slice(lo, hi),) * k].sum()
                / (hi - lo) ** k for lo, hi in ((0, n1), (n1, n_nodes)) if hi > lo)

    passed = left <= right and min_headroom >= 0
    results = {"left": float(left), "right": float(right),
               "margin": float(right - left), "min_headroom": float(min_headroom),
               "exact_equal": 1.0 if left == right else 0.0}
    params = {**_model_record_params(model), "n": n_nodes, "n1": n1, "r": r,
              "alpha": float(alpha_f), "g0": instance_to_json(g0)}
    return ExperimentRecord("moment_inequality", params, results,
                            "pass" if passed else "fail")


# ---------------------------------------------------------------------------
# Concentration proxy
# ---------------------------------------------------------------------------

def concentration_experiment(model: ModelSpec, n_list: Sequence[int], c,
                             samples: int, seed: int) -> ExperimentRecord:
    """Fit the decay rate of std(log Z / N) against N.

    Passes when the fitted log-log slope is at or below ``SLOPE_THRESHOLD``
    (a loose desk-scale proxy for the -1/2 rate).  Degenerate models with
    zero variance yield a report-only verdict.  Also reports the empirical
    tail fraction P(|logZ/N - mean| > log(N)^3 / sqrt(N)) per size.
    """
    _check_samples(samples)
    sizes = _check_sizes(n_list)
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"n_list has duplicate sizes: {sizes}")
    results: dict = {}
    stds = []
    for n_nodes, logz in zip(sizes, _sample_sizes(model, sizes, c, samples, seed)):
        values = logz / float(n_nodes)
        std = _sample_std(values)
        stds.append(std)
        radius = math.log(n_nodes) ** 3 / math.sqrt(n_nodes)
        tail = float(np.mean(np.abs(values - values.mean()) > radius))
        results[f"std_{n_nodes}"] = std
        results[f"tail_{n_nodes}"] = tail
    usable = [(n, s) for n, s in zip(sizes, stds) if s > 0.0]
    if len(usable) >= 2:
        xs = np.log([n for n, _ in usable])
        ys = np.log([s for _, s in usable])
        slope = float(np.polyfit(xs, ys, 1)[0])
        results["slope"] = slope
        verdict = "pass" if slope <= SLOPE_THRESHOLD else "fail"
    else:
        verdict = "report"
    params = {**_model_record_params(model), "n_list": sizes,
              "c": str(c), "samples": samples, "seed": seed,
              "slope_threshold": SLOPE_THRESHOLD}
    return ExperimentRecord("concentration", params, results, verdict)


# ---------------------------------------------------------------------------
# Convergence / near-superadditivity
# ---------------------------------------------------------------------------

def convergence_experiment(model: ModelSpec, n_list: Sequence[int], c,
                           samples: int, seed: int) -> ExperimentRecord:
    """Tabulate a_N = E log Z(G(N,c)) and its near-superadditivity residuals.

    Reports a_N / N, residuals a_N - a_{N1} - a_{N2} over splits available in
    the size list, the fitted constant C in the -C sqrt(N) correction, and
    the running-sup Fekete extrapolate.  Report-only: the true limit is
    unknown.
    """
    _check_samples(samples)
    sizes = sorted(set(_check_sizes(n_list)))
    a: dict[int, float] = {}
    results: dict = {}
    for n_nodes, values in zip(sizes, _sample_sizes(model, sizes, c, samples, seed)):
        a[n_nodes], se = _mean_se(values)
        results[f"a_{n_nodes}"] = a[n_nodes]
        results[f"a_se_{n_nodes}"] = se
        results[f"a_over_n_{n_nodes}"] = a[n_nodes] / n_nodes
    c_fit = 0.0
    for n_nodes in sizes:
        for n1 in sizes:
            n2 = n_nodes - n1
            if n2 < n1 or n2 not in a:
                continue
            resid = a[n_nodes] - a[n1] - a[n2]
            results[f"resid_{n_nodes}_{n1}"] = resid
            c_fit = max(c_fit, -resid / math.sqrt(n_nodes))
    results["superadd_c"] = c_fit
    running = -math.inf
    for n_nodes in sizes:
        running = max(running, a[n_nodes] / n_nodes)
        results[f"fekete_sup_{n_nodes}"] = running
    params = {**_model_record_params(model), "n_list": sizes, "c": str(c),
              "samples": samples, "seed": seed}
    return ExperimentRecord("convergence", params, results, "report")


# ---------------------------------------------------------------------------
# Record persistence and replay
# ---------------------------------------------------------------------------

def record_to_json(record: ExperimentRecord) -> str:
    return json.dumps({"experiment": record.experiment, "params": record.params,
                       "results": record.results, "verdict": record.verdict,
                       "timestamp": record.timestamp}, separators=(",", ":"))


def record_from_json(text: str) -> ExperimentRecord:
    obj = json.loads(text)
    return ExperimentRecord(obj["experiment"], obj["params"], obj["results"],
                            obj["verdict"], obj["timestamp"])


def append_record(path: str, record: ExperimentRecord) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record_to_json(record) + "\n")


def read_records(path: str) -> list[ExperimentRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(record_from_json(line))
    return out


def records_to_csv(records: Sequence[ExperimentRecord], path: str) -> None:
    """CSV export; the header names every params/results key seen."""
    param_keys: list[str] = []
    result_keys: list[str] = []
    for rec in records:
        for key in rec.params:
            if key not in param_keys:
                param_keys.append(key)
        for key in rec.results:
            if key not in result_keys:
                result_keys.append(key)
    header = ["experiment", "verdict", "timestamp"] + \
        [f"param.{k}" for k in param_keys] + [f"result.{k}" for k in result_keys]

    def cell(value):
        if isinstance(value, (list, dict)):
            return json.dumps(value, separators=(",", ":"))
        return value

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in records:
            row = [rec.experiment, rec.verdict, rec.timestamp]
            row += [cell(rec.params.get(k, "")) for k in param_keys]
            row += [cell(rec.results.get(k, "")) for k in result_keys]
            writer.writerow(row)


def _model_from_params(params: dict) -> ModelSpec:
    return decode_model(params["model"],
                        {k: params[k] for k in MODEL_PARAMS if k in params})


def replay_record(record: ExperimentRecord) -> ExperimentRecord:
    """Re-run an experiment from its stored params; results must reproduce.

    Records of settings removed in 0.7.0, and moment records whose model,
    model params or N are not those of their stored g0, raise ValueError."""
    p = record.params
    if not p.get("couple", True):
        raise ValueError("the uncoupled interpolation chain was removed in 0.7.0; "
                         "this record cannot be replayed")
    for key, value in (("se_factor", SE_FACTOR), ("slope_threshold", SLOPE_THRESHOLD)):
        if p.get(key, value) != value:
            raise ValueError(f"{key} = {p[key]!r} is not {value}, the only value "
                             "since 0.7.0; this record cannot be replayed")
    name = record.experiment
    if name == "moment_inequality":  # g0 carries the model and N
        g0 = instance_from_json(p["g0"])
        stored = {key: value for key, value in p.items()
                  if key not in ("n1", "r", "alpha", "g0")}
        if stored != {**_model_record_params(g0.model), "n": g0.graph.n_nodes}:
            raise ValueError("the record's model, model params or n are not its "
                             "g0's; this record cannot be replayed")
        return moment_inequality_check(g0, p["n1"], p["r"], alpha=p["alpha"])
    model = _model_from_params(p)
    if name == "interpolation_monotonicity":
        return interpolation_monotonicity(
            model, p["n"], p["n1"], p["c"], p["samples_per_t"], p["seed"],
            allow_uncertified=True)
    if name == "concentration":
        return concentration_experiment(model, p["n_list"], p["c"], p["samples"], p["seed"])
    if name == "convergence":
        return convergence_experiment(model, p["n_list"], p["c"], p["samples"], p["seed"])
    raise ValueError(f"unknown experiment {name!r}")


def verify_replay(record: ExperimentRecord) -> bool:
    """True when a re-run reproduces every result real bit-identically."""
    fresh = replay_record(record)
    return fresh.results == record.results and fresh.verdict == record.verdict
