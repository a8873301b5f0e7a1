"""The benchmark workloads: set-up, one timed round, and the output checks.

A round is a fixed amount of work on inputs made from the workload seed.
Every round of a run repeats the same inputs, so rounds must agree bit for
bit.  Set-up imports the package, so this module imports no numpy and no
gibbslab at load time.  Checks run after the timed rounds and are not timed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os

WORKERS_ENV = "GIBBSLAB_WORKERS"
ORACLE_REL_TOL = 1e-10  # log_z_exact against the rational oracle (criterion 01)
BOUND_SLACK = 1e-9      # slack on logz_bounds (criterion 02)
MC_SE_LIMIT = 5.0       # Monte Carlo twin against its exact value, in reported SE


class Checks:
    """Counts output checks attempted and keeps a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, workload: str, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{workload}: {name} {detail}".rstrip())


@contextlib.contextmanager
def workers_env(n_workers: int):
    """Set GIBBSLAB_WORKERS, the documented worker switch, for one block."""
    saved = os.environ.get(WORKERS_ENV)
    os.environ[WORKERS_ENV] = str(n_workers)
    try:
        yield
    finally:
        if saved is None:
            del os.environ[WORKERS_ENV]
        else:
            os.environ[WORKERS_ENV] = saved


def _relative_error(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(1e-30, abs(want))


class InterpChain:
    """Criterion 08 with fewer samples per t: hard-core lambda=1, N=10, N1=5,
    c=1, coupled, in one process."""

    name = "interp_chain"
    workers = 1
    N, N1, C, SAMPLES_PER_T = 10, 5, 1, 200
    ORACLE_SAMPLES = 3  # per checked t

    def setup(self, seed: int) -> None:
        self.gl = importlib.import_module("gibbslab")
        self.harness = importlib.import_module("gibbslab.harness")
        self.model = self.gl.build_model("independent_set", **{"lambda": 1.0})
        self.seed = seed
        self.m = self.gl.edge_count(self.N, self.C)
        self.values_per_round = (self.m + 1) * self.SAMPLES_PER_T

    def _chain(self, samples_per_t: int, n_workers: int):
        with workers_env(n_workers):
            return self.harness.interpolation_monotonicity(
                self.model, self.N, self.N1, self.C, samples_per_t, self.seed)

    def warm_up(self) -> None:
        self._chain(4, self.workers)

    def run_round(self):
        return self._chain(self.SAMPLES_PER_T, self.workers)

    def check(self, outputs, checks: Checks, oracle) -> None:
        import numpy as np
        from gibbslab.seeds import SAMPLE, derive_seed

        gl, first = self.gl, outputs[0]
        checks.add(self.name, "rounds agree bit for bit",
                   all(r.results == first.results and r.verdict == first.verdict
                       for r in outputs))
        other = 2 if self.workers == 1 else 1
        replay = self._chain(self.SAMPLES_PER_T, other)
        checks.add(self.name, f"same results and verdict with {other} worker(s)",
                   replay.results == first.results and replay.verdict == first.verdict)

        # Recompute the end points of the chain sample by sample through the
        # public pipeline: it must reproduce the harness means bit for bit.
        for t in (0, self.m):
            point = gl.InterpolationPoint(t, self.N1, self.N - self.N1)
            values = np.empty(self.SAMPLES_PER_T)
            outside, worst = 0, 0.0
            for i in range(self.SAMPLES_PER_T):
                s = derive_seed(self.seed, SAMPLE, i)
                graph = gl.sample_interpolated(self.N, self.C, self.model.arity, point, s)
                inst = gl.make_instance(self.model, graph, s)
                values[i] = gl.log_z_exact(inst).value
                lo, hi = gl.logz_bounds(inst)
                outside += not lo - BOUND_SLACK <= values[i] <= hi + BOUND_SLACK
                if i < self.ORACLE_SAMPLES:
                    worst = max(worst, _relative_error(values[i], oracle(inst)))
            checks.add(self.name, f"t={t}: samples reproduce mean_{t}",
                       float(values.mean()) == first.results[f"mean_{t}"])
            checks.add(self.name, f"t={t}: every sample inside logz_bounds",
                       outside == 0, f"({outside} outside)")
            checks.add(self.name, f"t={t}: samples match the rational oracle",
                       worst <= ORACLE_REL_TOL, f"(relative error {worst:.2e})")
        # Every sample has N nodes and m edges, so every mean shares one bound.
        lo, hi = gl.logz_bounds(inst)
        means = [first.results[f"mean_{t}"] for t in range(self.m + 1)]
        checks.add(self.name, "every mean inside logz_bounds",
                   all(lo - BOUND_SLACK <= v <= hi + BOUND_SLACK for v in means))


class InterpChainW2(InterpChain):
    """The same chain and seed through the harness pool with 2 workers."""

    name = "interp_chain_w2"
    workers = 2


class ExactWide:
    """log_z_exact at the top of the brute-force range, one process."""

    name = "exact_wide"
    C = 1
    # (case tag, model, parameters, sizes, size of the small oracle twin)
    FAMILIES = (
        ("is_k2", "independent_set", {"lambda": 1.0}, (18, 20, 22), 8),
        ("ksat_k3", "ksat", {"k": 3, "beta": 0.5}, (16, 18, 20), 8),
        ("potts_q3", "potts", {"q": 3, "beta": 1.0}, (12, 13, 14), 6),
    )
    CASES = tuple((f"{tag}_n{n}", family, n)
                  for family, (tag, _, _, sizes, _) in enumerate(FAMILIES)
                  for n in sizes)

    def _instance(self, family: int, n: int, s: int):
        _, model_name, params, _, _ = self.FAMILIES[family]
        model = self.gl.build_model(model_name, **params)
        return self.gl.make_instance(
            model, self.gl.sample_er(n, self.C, model.arity, s), s)

    def setup(self, seed: int) -> None:
        self.gl = importlib.import_module("gibbslab")
        self.partition = importlib.import_module("gibbslab.partition")
        self.seeds = importlib.import_module("gibbslab.seeds")
        self.seed = seed
        self.instances = [self._instance(family, n, self.seeds.derive_seed(seed, idx))
                          for idx, (_, family, n) in enumerate(self.CASES)]
        self.values_per_round = len(self.instances)

    def warm_up(self) -> None:
        smallest = min(self.instances,
                       key=lambda inst: inst.model.n_states ** inst.graph.n_nodes)
        self.partition.log_z_exact(smallest)

    def run_round(self):
        return [self.partition.log_z_exact(inst).value for inst in self.instances]

    def check(self, outputs, checks: Checks, oracle) -> None:
        checks.add(self.name, "rounds agree bit for bit",
                   all(out == outputs[0] for out in outputs))
        for (case, _, _), inst, value in zip(self.CASES, self.instances, outputs[0]):
            lo, hi = self.gl.logz_bounds(inst)
            checks.add(self.name, f"{case} inside logz_bounds",
                       lo - BOUND_SLACK <= value <= hi + BOUND_SLACK,
                       f"({value} not in [{lo}, {hi}])")
        for family, (tag, _, _, _, n_small) in enumerate(self.FAMILIES):
            s = self.seeds.derive_seed(self.seed, len(self.CASES) + family)
            inst = self._instance(family, n_small, s)
            err = _relative_error(self.gl.log_z_exact(inst).value, oracle(inst))
            checks.add(self.name, f"{tag}_n{n_small} matches the rational oracle",
                       err <= ORACLE_REL_TOL, f"(relative error {err:.2e})")


class McEstimate:
    """``gibbslab logz --mc --samples 200000`` called in-process through cli_run."""

    name = "mc_estimate"
    SAMPLES = 200_000
    WARM_UP_SAMPLES = 1000
    ORACLE_N = 8
    # family: (model, parameters, c)
    FAMILIES = (
        ("independent_set", {"lambda": 1.0}, "1"),
        ("ising", {"beta": 0.5, "h": 1.0}, "1.5"),
    )
    # (instance, family, N); the N=20 twins get an exact reference in check.
    INSTANCES = (("is_n30", 0, 30), ("ising_n60", 1, 60),
                 ("is_n20", 0, 20), ("ising_n20", 1, 20))
    TWIN_N = 20

    def _argv(self, family: int, n: int, samples: int) -> list[str]:
        model, params, c = self.FAMILIES[family]
        flags = [f for key, value in params.items() for f in (f"--{key}", str(value))]
        return ["logz", "--model", model, *flags, "--n", str(n), "--c", c,
                "--mc", "--samples", str(samples), "--seed", str(self.family_seeds[family])]

    def _instance(self, family: int, n: int):
        model_name, params, c = self.FAMILIES[family]
        model = self.gl.build_model(model_name, **params)
        s = self.family_seeds[family]
        return self.gl.make_instance(model, self.gl.sample_er(n, c, model.arity, s), s)

    def setup(self, seed: int) -> None:
        self.gl = importlib.import_module("gibbslab")
        self.cli = importlib.import_module("gibbslab.cli")
        seeds = importlib.import_module("gibbslab.seeds")
        self.family_seeds = [seeds.derive_seed(seed, f) for f in range(len(self.FAMILIES))]
        self.argvs = [self._argv(family, n, self.SAMPLES) for _, family, n in self.INSTANCES]
        self.values_per_round = len(self.argvs)

    def _call(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.cli_run(argv)
        return code, buf.getvalue()

    def warm_up(self) -> None:
        _, family, n = self.INSTANCES[0]
        self._call(self._argv(family, n, self.WARM_UP_SAMPLES))

    def run_round(self):
        return [self._call(argv) for argv in self.argvs]

    def check(self, outputs, checks: Checks, oracle) -> None:
        checks.add(self.name, "rounds agree bit for bit",
                   all(out == outputs[0] for out in outputs))
        for (name, family, n), (code, text) in zip(self.INSTANCES, outputs[0]):
            checks.add(self.name, f"{name} exits 0", code == 0, f"(exit {code})")
            try:
                row = json.loads(text)
                value = float(row["logz"])
            except (ValueError, KeyError, TypeError):
                row = None
            checks.add(self.name, f"{name} prints a log Z row", row is not None, repr(text))
            if row is None:
                continue
            inst = self._instance(family, n)
            lo, hi = self.gl.logz_bounds(inst)
            checks.add(self.name, f"{name} inside logz_bounds",
                       lo - BOUND_SLACK <= value <= hi + BOUND_SLACK,
                       f"({value} not in [{lo}, {hi}])")
            if n == self.TWIN_N:
                exact = self.gl.log_z_exact(inst).value
                se = row.get("se")
                ok = se is not None and abs(value - exact) <= MC_SE_LIMIT * se
                checks.add(self.name, f"{name} within {MC_SE_LIMIT:g} SE of exact", ok,
                           f"(estimate {value}, exact {exact}, se {se})")
        for family, (model_name, _, _) in enumerate(self.FAMILIES):
            inst = self._instance(family, self.ORACLE_N)
            err = _relative_error(self.gl.log_z_exact(inst).value, oracle(inst))
            checks.add(self.name, f"{model_name} N={self.ORACLE_N} matches the rational oracle",
                       err <= ORACLE_REL_TOL, f"(relative error {err:.2e})")


WORKLOADS = {cls.name: cls for cls in (InterpChain, InterpChainW2, ExactWide, McEstimate)}

