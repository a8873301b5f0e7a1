"""Experiment drivers: estimates, verdicts, persistence, and replay."""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import (
    ZOO_MODELS,
    add_edge,
    build_model,
    certify_model,
    concentration_experiment,
    convergence_experiment,
    embed_discrete,
    estimate_mean_logz,
    interpolation_monotonicity,
    log_z_exact,
    moment_inequality_check,
    random_base_instance,
    replay_record,
    verify_replay,
)
from gibbslab import harness, partition
from gibbslab.graphs import InterpolationPoint, edge_count
from gibbslab.harness import (
    ExperimentRecord,
    append_record,
    read_records,
    record_from_json,
    record_to_json,
    records_to_csv,
    resolve_workers,
)
from gibbslab.models import model_from_config, model_to_config

from conftest import random_zoo_model, workers
from naive import naive_z

IS1 = build_model("independent_set", **{"lambda": 1.0})
ZOO_PARAMS = {"independent_set": {"lambda": 1.0}, "potts": {"q": 3, "beta": 0.7},
              "ising": {"beta": 0.5, "h": 1.2},
              "viana_bray": {"k": 2, "beta": 0.6, "h": 1.1},
              "xor": {"k": 2, "beta": 0.8}, "ksat": {"k": 3, "beta": 0.9}}


class TestEstimateMeanLogz:
    def test_no_edges_zero_variance(self):
        """c < 1/N gives zero edges: the mean is exact and the SE is zero."""
        m = build_model("ising", beta=0.4, h=1.5)
        est = estimate_mean_logz(m, 4, "0.1", samples=6, seed=0)
        assert est.mean == pytest.approx(4 * math.log(2.5), rel=1e-12)
        assert est.std_error == 0.0

    def test_potts_beta_zero_deterministic(self):
        m = build_model("potts", q=3, beta=0.0)
        est = estimate_mean_logz(m, 5, 1, samples=5, seed=1)
        assert est.mean == pytest.approx(5 * math.log(3), rel=1e-12)
        assert est.std_error == 0.0

    def test_two_seeds_agree_within_se(self):
        a = estimate_mean_logz(IS1, 6, 1, samples=1000, seed=10)
        b = estimate_mean_logz(IS1, 6, 1, samples=1000, seed=20)
        pooled = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 4 * pooled

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(model_seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 10),
           c=st.sampled_from(["0.5", "1", "1.5"]), samples=st.integers(4, 40),
           seed=st.integers(0, 2 ** 64 - 1), interpolated=st.booleans())
    def test_worker_count_bit_identical(self, model_seed, n, c, samples, seed,
                                        interpolated):
        """One worker and two give the same mean and SE, bit for bit."""
        model = random_zoo_model(np.random.default_rng(model_seed))
        point = InterpolationPoint(1, n // 2, n - n // 2) if interpolated else None
        with workers(1):
            a = estimate_mean_logz(model, n, c, samples, seed, point)
        with workers(2):
            b = estimate_mean_logz(model, n, c, samples, seed, point)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_interpolation_point_accepted(self):
        est = estimate_mean_logz(IS1, 6, 1, samples=20, seed=3,
                                 point=InterpolationPoint(3, 3, 3))
        assert math.isfinite(est.mean)

    def test_needs_two_samples(self):
        """One sample has no standard error; every experiment refuses it
        rather than report SE 0."""
        with pytest.raises(ValueError):
            estimate_mean_logz(IS1, 4, 1, samples=1, seed=0)
        with pytest.raises(ValueError, match="samples_per_t"):
            interpolation_monotonicity(IS1, 4, 2, 1, samples_per_t=1, seed=0)
        with pytest.raises(ValueError, match="samples"):
            concentration_experiment(IS1, [4, 6], 1, samples=1, seed=0)
        with pytest.raises(ValueError, match="samples"):
            convergence_experiment(IS1, [4, 8], 1, samples=0, seed=0)


class TestInterpolationMonotonicity:
    def test_small_chain_passes(self):
        rec = interpolation_monotonicity(IS1, 6, 3, 1, samples_per_t=400, seed=2)
        assert rec.verdict == "pass"
        means = [rec.results[f"mean_{t}"] for t in range(7)]
        assert rec.results["endpoint_diff"] == pytest.approx(means[0] - means[-1])

    def test_zero_edges_trivially_monotone(self):
        rec = interpolation_monotonicity(IS1, 5, 2, "0.1", samples_per_t=4, seed=0)
        assert rec.verdict == "pass"
        assert rec.results["endpoint_diff"] == 0.0

    @pytest.mark.parametrize("n1", [0, 7])
    def test_bad_split_rejected_before_certify(self, monkeypatch, n1):
        """n1 outside [1, N] is refused before certification and any pool."""
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the split check")

        monkeypatch.setattr(harness, "certify_model", unreachable)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", unreachable)
        with workers(2), pytest.raises(ValueError, match="n1"):
            interpolation_monotonicity(IS1, 6, n1, 1, samples_per_t=4, seed=0)

    @pytest.mark.parametrize("chain, fails", [
        # The second step rises by 1 in every sample; the endpoint falls by 1.
        ([[2.0, 0.0, 1.0]] * 4, "step"),
        # The second step rises by 0.1 on average, well within its noise, but
        # the endpoint rises by 0.1 in every sample, so its SE is 0.
        ([[0.0, s, 0.1] for s in (1.0, -1.0, 1.0, -1.0)], "endpoint"),
    ], ids=["step", "endpoint"])
    def test_rise_fails(self, monkeypatch, chain, fails):
        """A rise beyond SE_FACTOR standard errors, at one step or only at
        the endpoint, fails a certified model's verdict."""
        monkeypatch.setattr(harness, "_chain_task",
                            lambda args, lo, hi: np.array(chain[lo:hi]))
        with workers(1):
            rec = interpolation_monotonicity(IS1, 4, 2, "0.5", samples_per_t=4, seed=0)
        assert rec.verdict == "fail"
        steps_ok = all(rec.results[f"diff_{t}"] >= -3.0 * rec.results[f"diff_se_{t}"]
                       for t in range(2))
        assert steps_ok == (fails == "endpoint")
        assert (rec.results["endpoint_diff"] < 0) == (fails == "endpoint")

    def test_other_certified_models_monotone(self):
        """The monotone decrease holds beyond IS: Potts and K-SAT probes."""
        for model in (build_model("potts", q=3, beta=0.8),
                      build_model("ksat", k=3, beta=1.0)):
            rec = interpolation_monotonicity(model, 6, 3, 1, samples_per_t=1500,
                                             seed=42)
            assert rec.verdict == "pass", model.name

    def test_uncertified_model_needs_override(self):
        xor3 = build_model("xor", k=3, beta=0.5)
        with pytest.raises(ValueError):
            interpolation_monotonicity(xor3, 4, 2, 1, samples_per_t=4, seed=0)
        rec = interpolation_monotonicity(xor3, 4, 2, 1, samples_per_t=40, seed=0,
                                         allow_uncertified=True)
        assert rec.verdict == "report"


class TestMomentInequality:
    def test_is_exhaustive_placements(self):
        g0 = random_base_instance(IS1, 3, 2, seed=5)
        rec = moment_inequality_check(g0, 1, 2)
        assert rec.verdict == "pass"
        assert rec.results["left"] <= rec.results["right"]
        assert rec.results["min_headroom"] >= 0.0

    def test_r1_reports_both_sides(self):
        g0 = random_base_instance(IS1, 3, 2, seed=8)
        rec = moment_inequality_check(g0, 2, 1)
        assert {"left", "right", "margin"} <= set(rec.results)
        assert rec.verdict == "pass"

    def test_constant_kernel_both_sides_zero(self):
        """potts beta=0 has J = 1 = alpha, so alpha Z0 - Z(+e) = 0."""
        m = build_model("potts", q=2, beta=0.0)
        g0 = random_base_instance(m, 3, 2, seed=2)
        rec = moment_inequality_check(g0, 1, 2)
        assert rec.results["left"] == 0.0 and rec.results["right"] == 0.0
        assert rec.results["exact_equal"] == 1.0

    def test_r3_arity3_within_limits(self):
        """r = 3 with a K = 3 model stays exact and fast at N = 4."""
        m = build_model("ksat", k=3, beta=0.6)
        g0 = random_base_instance(m, 4, 2, seed=11)
        rec = moment_inequality_check(g0, 2, 3)
        assert rec.verdict == "pass"
        assert rec.results["min_headroom"] >= 0.0

    @pytest.mark.parametrize("model,n,n1,r,n_edges", [
        (IS1, 6, 2, 3, 4),
        (build_model("potts", q=3, beta=0.7), 5, 3, 2, 3),
        (build_model("viana_bray", k=2, beta=0.6, h=1.2), 6, 3, 1, 5),
        (build_model("ksat", k=3, beta=0.9), 5, 2, 3, 3),
    ], ids=["is_n6", "potts_q3_n5", "vb_n6", "ksat_k3_n5"])
    def test_matches_naive_oracle(self, model, n, n1, r, n_edges):
        """Both sides and the headroom recomputed from the brute-force oracle
        on every G0 + e, at N beyond the old limit of 4."""
        g0 = random_base_instance(model, n, n_edges, seed=n + r)
        rec = moment_inequality_check(g0, n1, r)
        alpha = Fraction(model.soft.alpha)
        z0 = naive_z(g0)
        head = {}
        for placement in itertools.product(range(n), repeat=model.arity):
            for idx, table in enumerate(model.edge_pot.tables):
                head[placement, idx] = alpha * z0 - naive_z(add_edge(g0, placement, table))

        def side(blocks):
            total = Fraction(0)
            for lo, hi in blocks:
                weight = Fraction(hi - lo, n) / (hi - lo) ** model.arity
                for placement in itertools.product(range(lo, hi), repeat=model.arity):
                    for idx, prob in enumerate(model.edge_pot.probs):
                        total += weight * Fraction(prob) * head[placement, idx] ** r
            return total

        left = side([(0, n)])
        right = side([(0, n1), (n1, n)])
        assert rec.results["left"] == float(left)
        assert rec.results["right"] == float(right)
        assert rec.results["min_headroom"] == float(min(head.values()))
        assert rec.verdict == ("pass" if left <= right and min(head.values()) >= 0
                               else "fail")

    def test_ksat_k3_r3_at_n8(self):
        """K = 3 3-SAT with r = 3 at the limit N = 8: 512 placements x 8 tables."""
        m = build_model("ksat", k=3, beta=0.9)
        g0 = random_base_instance(m, 8, 6, seed=1)
        rec = moment_inequality_check(g0, 4, 3)
        assert rec.verdict == "pass"
        assert rec.results["min_headroom"] >= 0.0

    def test_preconditions(self):
        g0 = random_base_instance(IS1, 3, 2, seed=5)
        with pytest.raises(ValueError):
            moment_inequality_check(random_base_instance(IS1, 9, 2, seed=5), 1, 2)
        with pytest.raises(ValueError):
            moment_inequality_check(g0, 1, 4)
        for n1 in (0, 4):
            with pytest.raises(ValueError, match="1 <= n1 <= n_nodes"):
                moment_inequality_check(g0, n1, 2)

    def test_model_and_size_read_from_base(self):
        """The record's model params and N are those of g0."""
        model = build_model("ksat", k=2, beta=0.5)
        rec = moment_inequality_check(random_base_instance(model, 4, 2, seed=4), 2, 2)
        assert rec.params["model"] == "ksat" and rec.params["n"] == 4
        assert (rec.params["k"], rec.params["beta"]) == (2, 0.5)

    @pytest.mark.parametrize("edit", [
        {"model": "ising", "q": 99, "n": 7}, {"model": "ising"},
        {"model": "potts_embedded"}, {"q": 99}, {"beta": 0.1}, {"n": 7}, {"h": 1.0}])
    def test_replay_refuses_params_that_are_not_g0s(self, edit):
        """Model, model params and N are stored beside g0; a record whose
        stored values differ from g0's is refused, not replayed from g0."""
        model = build_model("potts", q=3, beta=0.7)
        rec = moment_inequality_check(random_base_instance(model, 4, 2, 0), 2, 2)
        with pytest.raises(ValueError, match="not its g0's"):
            verify_replay(replace(rec, params={**rec.params, **edit}))

    @pytest.mark.parametrize("field,value", [("edge_tables", math.nan),
                                             ("node_tables", -1.0)])
    def test_replay_rejects_invalid_g0_tables(self, field, value):
        """A stored g0 whose tables are non-finite or negative does not load."""
        g0 = random_base_instance(IS1, 3, 2, seed=5)
        rec = moment_inequality_check(g0, 1, 2)
        payload = json.loads(rec.params["g0"])
        table = np.array(payload[field])
        table.flat[0] = value
        payload[field] = table.tolist()
        bad = replace(rec, params={**rec.params, "g0": json.dumps(payload)})
        with pytest.raises(ValueError, match="finite and >= 0"):
            replay_record(bad)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        g0 = random_base_instance(IS1, 3, 2, seed=5)
        with pytest.raises(ValueError, match="alpha"):
            moment_inequality_check(g0, 1, 2, alpha=alpha)

    def test_base_instance_sizes_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            random_base_instance(IS1, 0, 2, seed=0)
        with pytest.raises(ValueError, match="n_edges"):
            random_base_instance(IS1, 3, -1, seed=0)


class TestConcentration:
    def test_deterministic_model_reports_only(self):
        m = build_model("potts", q=2, beta=0.0)
        rec = concentration_experiment(m, [4, 6], 1, samples=30, seed=0)
        assert rec.verdict == "report"
        assert rec.results["std_4"] == 0.0

    def test_is_slope_negative(self):
        rec = concentration_experiment(IS1, [6, 8, 10], 1, samples=300, seed=1)
        assert rec.verdict == "pass"
        assert rec.results["slope"] <= -0.3

    def test_two_seeds_similar_slope(self):
        a = concentration_experiment(IS1, [6, 8, 10], 1, samples=600, seed=100)
        b = concentration_experiment(IS1, [6, 8, 10], 1, samples=600, seed=200)
        assert abs(a.results["slope"] - b.results["slope"]) <= 0.15


class TestSizeLists:
    @pytest.mark.parametrize("n_list", [[8, 8], [6, 4, 6]])
    def test_concentration_rejects_duplicate_sizes(self, n_list):
        """A repeated size would overwrite its own std and fit a slope from
        one size."""
        with pytest.raises(ValueError, match="n_list"):
            concentration_experiment(IS1, n_list, 1, samples=4, seed=0)

    @pytest.mark.parametrize("experiment", [concentration_experiment,
                                            convergence_experiment])
    @pytest.mark.parametrize("n_list", [[6, -2], [0, 4]])
    def test_sizes_below_one_rejected(self, experiment, n_list):
        with pytest.raises(ValueError, match="n_list"):
            experiment(IS1, n_list, 1, samples=4, seed=0)


class TestConvergence:
    def test_no_edges_constant_rate(self):
        m = build_model("ising", beta=0.2, h=1.0)
        rec = convergence_experiment(m, [4, 8], "0.05", samples=10, seed=0)
        assert rec.results["a_over_n_4"] == pytest.approx(math.log(2), rel=1e-12)
        assert rec.results["a_over_n_8"] == pytest.approx(math.log(2), rel=1e-12)

    def test_potts_beta_zero_rate_logq(self):
        m = build_model("potts", q=3, beta=0.0)
        rec = convergence_experiment(m, [4, 8], 1, samples=10, seed=0)
        for n in (4, 8):
            assert rec.results[f"a_over_n_{n}"] == pytest.approx(math.log(3))
        assert rec.results["resid_8_4"] == pytest.approx(0.0, abs=1e-9)

    def test_superadditivity_residuals_reported(self):
        rec = convergence_experiment(IS1, [4, 8], 1, samples=200, seed=3)
        assert rec.verdict == "report"
        assert "resid_8_4" in rec.results
        assert "superadd_c" in rec.results and "fekete_sup_8" in rec.results


class TestRecordsAndReplay:
    def test_json_round_trip_exact(self):
        rec = interpolation_monotonicity(IS1, 4, 2, 1, samples_per_t=20, seed=9)
        back = record_from_json(record_to_json(rec))
        assert back == rec

    def test_jsonl_store(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        a = concentration_experiment(IS1, [4, 6], 1, samples=20, seed=4)
        b = convergence_experiment(IS1, [4, 6], 1, samples=20, seed=4)
        append_record(path, a)
        append_record(path, b)
        records = read_records(path)
        assert records == [a, b]

    def test_csv_header_names_every_key(self, tmp_path):
        path = str(tmp_path / "records.csv")
        rec = concentration_experiment(IS1, [4, 6], 1, samples=20, seed=4)
        records_to_csv([rec], path)
        header = open(path).readline().strip().split(",")
        for key in rec.params:
            assert f"param.{key}" in header
        for key in rec.results:
            assert f"result.{key}" in header

    def test_replay_bit_identical(self):
        rec = interpolation_monotonicity(IS1, 5, 2, 1, samples_per_t=30, seed=6)
        assert verify_replay(rec)
        m = build_model("ksat", k=2, beta=0.5)
        g0 = random_base_instance(m, 3, 1, seed=3)
        rec2 = moment_inequality_check(g0, 1, 2)
        assert verify_replay(rec2)
        rec3 = concentration_experiment(IS1, [4, 6], 1, samples=25, seed=8)
        assert verify_replay(rec3)
        rec4 = convergence_experiment(IS1, [4, 6], 1, samples=25, seed=8)
        assert verify_replay(rec4)
        rec5 = concentration_experiment(IS1, [4, 6], Fraction(1, 2), samples=4, seed=1)
        assert rec5.params["c"] == "1/2"
        assert verify_replay(rec5)

    def test_replay_with_two_workers(self):
        rec = concentration_experiment(IS1, [4, 6], 1, samples=24, seed=12)
        with workers(2):
            again = replay_record(rec)
        assert again.results == rec.results

    def test_replay_survives_serialization(self):
        m = build_model("viana_bray", k=2, beta=0.5, h=1.2)
        g0 = random_base_instance(m, 3, 2, seed=7)
        rec = moment_inequality_check(g0, 1, 1)
        back = record_from_json(record_to_json(rec))
        assert verify_replay(back)

    @pytest.mark.parametrize("name", ZOO_MODELS)
    def test_zoo_model_and_embedding_replay(self, name):
        """Interpolation and moment records and configs of every zoo model
        and of its embedding decode back to the same model; the records
        replay, a moment record's stored params matching its g0's."""
        base = build_model(name, **ZOO_PARAMS[name])
        for model in (base, embed_discrete(base)):
            rec = interpolation_monotonicity(model, 4, 2, 1, samples_per_t=4, seed=0,
                                             allow_uncertified=True)
            assert verify_replay(record_from_json(record_to_json(rec)))
            rec = moment_inequality_check(random_base_instance(model, 3, 2, seed=0), 1, 2)
            assert verify_replay(record_from_json(record_to_json(rec)))
            back, seed = model_from_config(model_to_config(model, 5))
            assert (back.name, back.params, seed) == (model.name, model.params, 5)
            assert back.domain == model.domain

    @pytest.mark.parametrize("name", ZOO_MODELS)
    def test_embedding_keeps_the_certificate(self, name):
        """Certification reads the edge law and its witness, not the name, so
        an embedded model gets its preimage's verdict, method, residual and
        alpha."""
        base = build_model(name, **ZOO_PARAMS[name])
        pair = (base, embed_discrete(base))
        assert len({(c.certified, c.method, repr(c.detail), m.soft.alpha)
                    for c, m in zip(map(certify_model, pair), pair)}) == 1

    def test_embedded_ksat_runs_certified(self):
        model = embed_discrete(build_model("ksat", k=3, beta=0.9))
        rec = interpolation_monotonicity(model, 4, 2, 1, samples_per_t=4, seed=0)
        assert rec.verdict in ("pass", "fail")

    @pytest.mark.parametrize("make,key,value", [
        (lambda: interpolation_monotonicity(IS1, 4, 2, 1, samples_per_t=4, seed=0),
         "se_factor", 2.0),
        (lambda: concentration_experiment(IS1, [4, 6], 1, samples=4, seed=0),
         "slope_threshold", -0.5),
    ], ids=["se_factor", "slope_threshold"])
    def test_replay_rejects_other_threshold(self, make, key, value):
        """Thresholds are constants since 0.7.0: a record stored with another
        value cannot be reproduced and is refused, not re-judged."""
        rec = make()
        bad = replace(rec, params={**rec.params, key: value})
        with pytest.raises(ValueError, match="0.7.0"):
            replay_record(bad)

    def test_unknown_experiment_rejected(self):
        rec = ExperimentRecord("bogus", {"model": "potts", "q": 3, "beta": 0.5}, {},
                               "report")
        with pytest.raises(ValueError, match="unknown experiment 'bogus'"):
            replay_record(rec)


GOLDEN = Path(__file__).parent / "golden" / "records_v0_4_0.jsonl"


class TestGoldenRecords:
    """Records written by 0.4.0 must replay bit for bit: results may only
    move with a version that says so.  The file holds coupled and uncoupled
    hard-core chains at N = 6, a 3-SAT chain with N1 = N, a concentration
    and a convergence record.  The uncoupled chain (index 1) was removed in
    0.7.0, so its record is refused."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("index", range(5))
    def test_v0_4_0_record_replays(self, index, n_workers):
        record = read_records(str(GOLDEN))[index]
        with workers(n_workers):
            if index == 1:
                with pytest.raises(ValueError, match="uncoupled"):
                    verify_replay(record)
            else:
                assert verify_replay(record)


class CountingPool(harness.ProcessPoolExecutor):
    created = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)


class TestOnePoolPerExperiment:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(CountingPool, "created", 0)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        return CountingPool

    @pytest.mark.parametrize("run", [
        lambda: interpolation_monotonicity(IS1, 5, 2, 1, samples_per_t=12, seed=1),
        lambda: concentration_experiment(IS1, [4, 5, 6], 1, samples=12, seed=2),
        lambda: convergence_experiment(IS1, [3, 4, 7], 1, samples=12, seed=3),
    ], ids=["coupled", "concentration", "convergence"])
    def test_two_workers_open_one_pool(self, pool, run):
        with workers(2):
            run()
        assert pool.created == 1

    @pytest.mark.parametrize("point, message", [
        (InterpolationPoint(2, 3, 2), "n_nodes"),
        (InterpolationPoint(9, 3, 3), "exceeds edge count 6"),
    ], ids=["split", "t"])
    def test_bad_point_opens_no_pool(self, pool, point, message):
        with workers(2), pytest.raises(ValueError, match=message):
            estimate_mean_logz(IS1, 6, 1, 40, 0, point)
        assert pool.created == 0

    def test_coupled_chain_one_elimination_per_value(self, monkeypatch):
        """A coupled chain evaluates log Z once per (sample, t), through the
        name harness.log_z_exact, in this process when there is one worker."""
        calls = []

        def counting(instance, **kwargs):
            calls.append(instance.graph.n_edges)
            return log_z_exact(instance, **kwargs)

        monkeypatch.setattr(harness, "log_z_exact", counting)
        samples, n, c = 7, 6, "1.5"
        with workers(1):
            interpolation_monotonicity(IS1, n, 2, c, samples_per_t=samples, seed=4)
        m = edge_count(n, c)
        assert calls == [m] * (samples * (m + 1))

    def test_coupled_chain_lifts_once_per_sample(self, monkeypatch):
        """The m + 1 graphs of a chain sample share its PotentialDraws, so
        its node and edge tables are lifted into log space once per sample,
        not once per (sample, t)."""
        lifts = []

        def nodes(h, lengths):
            lifts.append("nodes")
            return partition._safe_log(h * lengths)

        def edges(tables):
            lifts.append("edges")
            return partition._safe_log(tables)

        monkeypatch.setattr(partition, "_LOG", replace(partition._LOG, nodes=nodes,
                                                       lift=edges))
        samples = 7
        with workers(1):
            interpolation_monotonicity(IS1, 6, 2, "1.5", samples_per_t=samples, seed=4)
        assert lifts == ["nodes", "edges"] * samples


class TestWorkersEnv:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("GIBBSLAB_WORKERS", raising=False)
        assert resolve_workers() == 1
        monkeypatch.setenv("GIBBSLAB_WORKERS", "")
        assert resolve_workers() == 1
        monkeypatch.setenv("GIBBSLAB_WORKERS", "2")
        assert resolve_workers() == 2
        with workers(3):
            assert resolve_workers() == 3
        assert resolve_workers() == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", " 2", "+2"])
    def test_rejects_non_positive_integers(self, monkeypatch, value):
        monkeypatch.setenv("GIBBSLAB_WORKERS", value)
        with pytest.raises(ValueError, match="GIBBSLAB_WORKERS"):
            resolve_workers()
