"""Per-layer metrics derived from the spans of the traced rounds.

Each metric is measured on the one workload named for it in layers.json,
which also records the end-to-end metric it is predicted to move.  Counts
are per round and repeat exactly for a given seed; times are medians over
the traced rounds.
"""

from __future__ import annotations

import statistics

from tracing import NameStats
from workloads import ExactWide, McEstimate

EXACT = "partition.log_z_exact"
MC = "partition.log_z_mc"


def med(rounds: dict, name: str, value):
    """Median over rounds of ``value(NameStats)``; a round without the span
    counts as empty."""
    return statistics.median(value(r.get(name, NameStats())) for r in rounds.values())


def _calls(s: NameStats) -> int:
    return s.calls


def _self(s: NameStats) -> float:
    return sum(s.selfs)


def _attr_sum(s: NameStats) -> int:
    return sum(s.attrs)


def layer_metrics(rounds: dict, untraced: dict, overhead: float) -> dict:
    """``rounds``: workload -> per_round() of its traced rounds; ``untraced``:
    workload -> untraced round times from the same run."""
    chain, pool, wide, mc = (rounds[w] for w in
                             ("interp_chain", "interp_chain_w2", "exact_wide", "mc_estimate"))
    out: dict = {}
    for span in ("seeds.derive_seed", "seeds.substream", "graphs.sample_interpolated",
                 "models.draw_potentials", EXACT, "convexity.certify_model"):
        out[f"{span}.calls"] = int(med(chain, span, _calls))
        out[f"{span}.self_s"] = med(chain, span, _self)
    out["models.draw_potentials.table_bytes"] = int(
        med(chain, "models.draw_potentials", _attr_sum))
    out["partition.make_instance.self_s"] = med(chain, "partition.make_instance", _self)
    latencies = [d for r in chain.values() for d in r[EXACT].durations]
    out[f"{EXACT}.p50_us"] = statistics.median(latencies) * 1e6
    out[f"{EXACT}.p99_us"] = statistics.quantiles(latencies, n=100)[98] * 1e6

    for i, (case, _, _) in enumerate(ExactWide.CASES):
        out[f"{EXACT}.{case}_s"] = med(wide, EXACT, lambda s: s.durations[i])
    out[f"{EXACT}.states"] = int(med(wide, EXACT, _attr_sum))
    out[f"{EXACT}.states_per_s"] = out[f"{EXACT}.states"] / med(wide, EXACT, _self)

    for i, (inst, _, _) in enumerate(McEstimate.INSTANCES):
        out[f"{MC}.{inst}.self_s"] = med(mc, MC, lambda s: s.selfs[i])
        out[f"{MC}.{inst}.samples_per_s"] = med(
            mc, MC, lambda s: s.attrs[i][0] / s.durations[i])
        out[f"{MC}.{inst}.nonzero_fraction"] = med(mc, MC, lambda s: s.attrs[i][1])

    out["harness.interpolation_monotonicity.self_s"] = med(
        chain, "harness.interpolation_monotonicity", _self)
    out["harness.pools_created"] = int(med(pool, "harness.pool", _calls))
    out["harness.pool_tasks"] = int(med(pool, "harness.pool", _attr_sum))
    out["harness.pool_s"] = med(pool, "harness.pool", lambda s: sum(s.durations))
    out["harness.parallel_efficiency"] = statistics.median(untraced["interp_chain"]) / (
        2 * statistics.median(untraced["interp_chain_w2"]))
    out["cli.cli_run.self_s"] = med(mc, "cli.cli_run", _self)
    out["trace.overhead_fraction"] = overhead
    return out
