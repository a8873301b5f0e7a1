"""gibbslab benchmark: end-to-end and per-layer metrics for four workloads.

    python3 bench/run.py --workload interp_chain --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

Workloads (see BENCHMARK.json for why each was chosen): interp_chain,
interp_chain_w2, exact_wide and mc_estimate.  The package is imported from
``src/`` of the checkout this file sits in; nothing under ``src/`` is edited.

Untraced run (``--trace 0``): set-up, then rounds of the workload for
``--seconds`` (at least three), then the output checks.  It reports
``wall_s`` (median round time), ``logz_per_s`` (log Z values per round over
``wall_s``), ``setup_s`` (median over this process and six fresh processes
of importing gibbslab, building the inputs and one warm-up call) and
``peak_rss_mib`` (peak RSS of this process plus that of its largest worker
child, read right after the timed rounds).

Traced run (``--trace 1``): every per-layer metric of layers.json, each
measured on its own workload, so this run times traced rounds of all four
workloads.  The ``--workload`` alternates untraced and traced rounds for
half of ``--seconds``, and the gap between the two medians is
``trace.overhead_fraction``; every other workload runs one traced round.
interp_chain and interp_chain_w2 also run one untraced round each, for
``harness.parallel_efficiency``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (output checks) and ``metrics``; the lines
before it give provenance, each metric with its unit, and failed_fraction.
Exit status is 0 when the run completes, also when a check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata, util
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "naive.py"

from layers import layer_metrics  # noqa: E402
from tracing import Tracer, installed, per_round  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

MIN_ROUNDS = 3
SETUP_PROBES = 6  # fresh processes timing set-up, besides this one
CHILD_TIMEOUT_S = 600
INTERP_PAIR = ("interp_chain", "interp_chain_w2")


def load_spec() -> tuple[dict, dict]:
    """BENCHMARK.json, and the layer catalogue checked against it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((BENCH_DIR / "layers.json").read_text())
    names = [m["name"] for m in catalogue["metrics"]]
    if names != [m["name"] for m in spec["per_layer"]]:
        raise SystemExit("error: bench/layers.json and BENCHMARK.json per_layer disagree")
    return spec, {m["name"]: m for m in catalogue["metrics"]}


def load_oracle():
    """naive_log_z from tests/naive.py, the independent rational enumerator."""
    module_spec = util.spec_from_file_location("naive_oracle", ORACLE)
    module = util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.naive_log_z


def one_round(workload):
    """(seconds, output) of one round, after a collection so rounds start alike."""
    gc.collect()
    t0 = perf_counter()
    output = workload.run_round()
    return perf_counter() - t0, output


def timed_rounds(workload, budget_s: float, min_rounds: int):
    """Rounds until the next one would overrun ``budget_s``; at least ``min_rounds``."""
    times, outputs = [], []
    start = perf_counter()
    while len(times) < min_rounds or \
            perf_counter() - start + statistics.median(times) <= budget_s:
        seconds, output = one_round(workload)
        times.append(seconds)
        outputs.append(output)
    return times, outputs


def set_up(name: str, seed: int):
    """The workload ready to time, and the seconds its set-up took."""
    t0 = perf_counter()
    workload = WORKLOADS[name]()
    workload.setup(seed)
    workload.warm_up()
    return workload, perf_counter() - t0


def setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_untraced(name: str, seed: int, seconds: int, checks: Checks) -> dict:
    workload, setup_s = set_up(name, seed)
    times, outputs = timed_rounds(workload, seconds, MIN_ROUNDS)
    rss = peak_rss_mib()
    workload.check(outputs, checks, load_oracle())
    setups = [setup_s] + [setup_in_fresh_process(name, seed) for _ in range(SETUP_PROBES)]
    wall_s = statistics.median(times)
    print(f"{name}: {len(times)} rounds of {workload.values_per_round} log Z values")
    return {"wall_s": wall_s,
            "logz_per_s": workload.values_per_round / wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": rss}


def run_traced(primary: str, seed: int, seconds: int, checks: Checks) -> dict:
    oracle = load_oracle()
    rounds, untraced = {}, {}
    for name in WORKLOADS:
        workload, _ = set_up(name, seed)
        budget = seconds / 2 if name == primary else 0.0
        with_untraced = name == primary or name in INTERP_PAIR
        tracer = Tracer()
        plain, traced, outputs = [], [], []
        start = perf_counter()
        # Untraced and traced rounds alternate, so drift in machine speed
        # during the run does not show up as tracing overhead.
        while not traced or perf_counter() - start + statistics.median(traced) \
                + (statistics.median(plain) if with_untraced else 0.0) <= budget:
            if with_untraced:
                plain.append(one_round(workload)[0])
            tracer.run_id = f"{name}/{len(traced)}"
            with installed(tracer):
                elapsed, output = one_round(workload)
            traced.append(elapsed)
            outputs.append(output)
        rounds[name], untraced[name] = per_round(tracer.spans), plain
        if name == primary:
            overhead = statistics.median(traced) / statistics.median(plain) - 1
        print(f"{name}: {len(traced)} traced rounds, {len(tracer.spans)} spans")
        workload.check(outputs, checks, oracle)
    return layer_metrics(rounds, untraced, overhead)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gibbslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    gibbslab = sys.modules.get("gibbslab")
    return {"git_commit": git_commit(),
            "src_sha256": digest.hexdigest(),
            "gibbslab_version": getattr(gibbslab, "__version__", None),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "workload": workload, "seed": seed, "seconds": seconds, "traced": traced}


def report(metrics: dict, units: dict, checks: Checks, label: str, notes=None) -> dict:
    """Print metrics and checks for people; return the result object."""
    for metric, value in metrics.items():
        note = f"  [{notes[metric]}]" if notes else ""
        print(f"{label} {metric} = {value!r} {units[metric]}{note}")
    fraction = len(checks.failures) / checks.attempted
    print(f"{label} failed_fraction = {fraction!r} fraction "
          f"({len(checks.failures)} of {checks.attempted} checks)")
    for failure in checks.failures:
        print(f"FAILED CHECK {failure}")
    return {"correct": not checks.failures, "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another, so that
    peak memory and set-up are per workload; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    for needed in (SRC / "gibbslab" / "__init__.py", ORACLE):
        if not needed.is_file():
            raise SystemExit(f"error: {needed.relative_to(ROOT)} not found; "
                             "run from a checkout of the gibbslab repository")
    spec, catalogue = load_spec()
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        _, setup_s = set_up(args.workload, args.seed)
        print(setup_s)
        return 0
    if args.workload == "all":
        return run_all(args)

    checks = Checks()
    if args.trace:
        metrics = run_traced(args.workload, args.seed, args.seconds, checks)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        notes = {name: f"{m['workload']}; {m['kind']}" for name, m in catalogue.items()}
    else:
        metrics = run_untraced(args.workload, args.seed, args.seconds, checks)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        notes = None
    if set(metrics) != set(units):
        raise SystemExit("error: measured metrics do not match BENCHMARK.json")
    metrics = {name: metrics[name] for name in units}
    print("provenance " + json.dumps(provenance(args.workload, args.seed,
                                                args.seconds, bool(args.trace))))
    result = report(metrics, units, checks, "layer" if args.trace else args.workload, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
