"""CLI subcommands, flags, config files, and exit codes."""

import json
import math
import re

import numpy as np
import pytest

from gibbslab import cli, harness
from gibbslab.cli import cli_run
from gibbslab.models import MODEL_PARAMS, model_to_config

from conftest import random_zoo_model, workers


def run(capsys, *argv):
    code = cli_run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_independent_set_psd(self, capsys):
        code, out, _ = run(capsys, "certify", "--model", "independent_set",
                           "--lambda", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "certified via power_sum"
        payload = json.loads(lines[1])
        assert payload["certified"] and payload["alpha"] == 1.0

    @pytest.mark.parametrize("argv", [
        ("--model", "independent_set", "--lambda", "1"),
        ("--model", "potts", "--q", "3", "--beta", "1"),
        ("--model", "ising", "--beta", "400"),
        ("--model", "viana_bray", "--k", "2", "--beta", "0.5"),
        ("--model", "xor", "--k", "2", "--beta", "0.5"),
        ("--model", "ksat", "--k", "3", "--beta", "0.5"),
    ])
    def test_one_format_for_every_model(self, capsys, argv):
        """One verdict line and one strict-JSON row with the model's alpha."""
        code, out, _ = run(capsys, "certify", *argv)
        assert code == 0
        line, row = out.strip().splitlines()
        assert line == "certified via power_sum"
        payload = json.loads(row, parse_constant=lambda token: pytest.fail(token))
        assert set(payload) == {"model", "certified", "method", "alpha", "detail"}
        assert payload["model"] == argv[1] and math.isfinite(payload["alpha"])

    def test_uncertified_model_fails(self, capsys):
        code, out, _ = run(capsys, "certify", "--model", "xor", "--k", "3",
                           "--beta", "0.5")
        assert code == 1
        assert "not certified" in out

    def test_ksat_certified(self, capsys):
        code, out, _ = run(capsys, "certify", "--model", "ksat", "--k", "3",
                           "--beta", "0.5")
        assert code == 0 and "certified" in out


class TestLogz:
    def test_potts_exact_value(self, capsys):
        code, out, _ = run(capsys, "logz", "--model", "potts", "--q", "3",
                           "--beta", "0", "--n", "4", "--c", "1", "--seed", "7")
        assert code == 0
        row = json.loads(out)
        assert row["method"] == "exact" and row["seed"] == 7
        assert row["logz"] == pytest.approx(4 * math.log(3), rel=1e-12)

    def test_mc_row(self, capsys):
        code, out, _ = run(capsys, "logz", "--model", "independent_set",
                           "--lambda", "1", "--n", "3", "--c", "1", "--seed", "2",
                           "--mc", "--samples", "2000")
        assert code == 0
        row = json.loads(out)
        assert row["method"] == "mc" and "se" in row
        assert 0.0 <= row["zero_fraction"] <= 1.0 and 1.0 <= row["ess"] <= 2000

    def test_mc_row_without_nonzero_weight_keeps_bound(self, capsys):
        """Every weight vanishes at N=200: the row says so and carries the
        rule-of-three bound instead of reading like Z = 0."""
        code, out, _ = run(capsys, "logz", "--model", "independent_set",
                           "--lambda", "1", "--n", "200", "--c", "1", "--seed", "3",
                           "--mc", "--samples", "2000")
        assert code == 0
        row = json.loads(out)
        assert row["logz"] == "-inf" and row["zero_fraction"] == 1.0
        assert row["log_upper_bound"] == pytest.approx(132.127, abs=1e-3)
        assert "se" not in row and "ess" not in row


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "logz", "--badflag")
        assert code == 2

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "certify", "--model", "nope")
        assert code == 2 and "error" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("logz", "--n", "4", "--c", "1"), "either --model or --config is required"),
        (("gen", "--n", "0", "--c", "1"), "need at least one node, got 0"),
        (("gen", "--n", "-3", "--c", "1"), "need at least one node, got -3"),
    ])
    def test_refusal_names_its_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"error: {message}" in err

    def test_exact_beyond_cap_suggests_mc(self, capsys):
        """Dense 3-SAT at N = 60: the first factor past the cap is over 28
        nodes, where the order pass stops."""
        code, _, err = run(capsys, "logz", "--model", "ksat", "--k", "3",
                           "--beta", "0.5", "--n", "60", "--c", "10")
        assert code == 2 and "--mc" in err and "2^28 entries" in err

    @pytest.mark.parametrize("command", [
        ("interpolate", "--n", "60", "--n1", "30", "--c", "10", "--samples", "2"),
        ("concentrate", "--n-list", "60", "--c", "10", "--samples", "2"),
        ("converge", "--n-list", "60", "--c", "10", "--samples", "2"),
    ])
    def test_experiment_beyond_cap_suggests_smaller_size(self, capsys, command):
        """Only logz has --mc; the experiments point at N and c instead."""
        code, out, err = run(capsys, *command, "--model", "ksat", "--k", "3",
                             "--beta", "0.5")
        assert code == 2 and out == ""
        assert "--mc" not in err and "smaller N or c" in err
        assert re.search(r"2\^\d+ entries exceed", err)

    @pytest.mark.parametrize("argv", [
        ("gen", "--n", "5", "--c", "1e9"),
        ("logz", "--model", "independent_set", "--lambda", "1", "--n", "5",
         "--c", "1e9"),
    ])
    def test_unallocatable_size_exits_2(self, capsys, monkeypatch, argv):
        """An edge count numpy cannot allocate is a usage error.  The sampler
        is stubbed to raise as numpy does, so the test allocates nothing."""
        def unallocatable(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")
        monkeypatch.setattr(cli, "sample_er", unallocatable)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "74.5 GiB" in err and "smaller N or c" in err

    def test_uncertified_interpolate_names_the_flag(self, capsys):
        """XOR K = 3 is not certified; the refusal names the CLI flag."""
        code, out, err = run(capsys, "interpolate", "--model", "xor", "--k", "3",
                             "--beta", "0.5", "--n", "4", "--n1", "2", "--c", "1",
                             "--samples", "4")
        assert code == 2 and out == "" and "--allow-uncertified" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_workers_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GIBBSLAB_WORKERS", value)
        code, _, err = run(capsys, "concentrate", "--model", "independent_set",
                           "--lambda", "1", "--n-list", "4,6", "--c", "1",
                           "--samples", "10")
        assert code == 2 and "GIBBSLAB_WORKERS" in err

    @pytest.mark.parametrize("argv", [
        ("logz", "--model", "independent_set", "--lambda", "1", "--n", "4",
         "--c", "inf"),
        ("logz", "--model", "independent_set", "--lambda", "1", "--n", "4",
         "--c", "1", "--exact"),
        ("interpolate", "--model", "independent_set", "--lambda", "1", "--n", "4",
         "--n1", "2", "--c", "1", "--samples", "1"),
        ("concentrate", "--model", "independent_set", "--lambda", "1",
         "--n-list", "4,6", "--c", "1", "--samples", "1"),
        ("converge", "--model", "independent_set", "--lambda", "1",
         "--n-list", "4,8", "--c", "1", "--samples", "1"),
        ("concentrate", "--model", "independent_set", "--lambda", "1",
         "--n-list", "8,8", "--c", "1", "--samples", "4"),
        ("concentrate", "--model", "independent_set", "--lambda", "1",
         "--n-list", "0,6", "--c", "1", "--samples", "4"),
        ("converge", "--model", "independent_set", "--lambda", "1",
         "--n-list", "6,-2", "--c", "1", "--samples", "4"),
        ("moments", "--model", "independent_set", "--lambda", "1", "--n", "0",
         "--n1", "1", "--r", "1"),
        ("moments", "--model", "independent_set", "--lambda", "1", "--n", "3",
         "--n1", "1", "--r", "1", "--g0-edges", "-1"),
        ("moments", "--model", "ksat", "--k", "2", "--beta", "0.5", "--n", "3",
         "--n1", "1", "--r", "2", "--alpha", "inf"),
        ("moments", "--model", "ksat", "--k", "2", "--beta", "0.5", "--n", "3",
         "--n1", "1", "--r", "2", "--alpha", "nan"),
        ("interpolate", "--model", "independent_set", "--lambda", "1", "--n", "4",
         "--n1", "0", "--c", "1", "--samples", "4"),
        ("interpolate", "--model", "independent_set", "--lambda", "1", "--n", "4",
         "--n1", "5", "--c", "1", "--samples", "4"),
        ("interpolate", "--model", "independent_set", "--lambda", "1", "--n", "4",
         "--n1", "2", "--c", "1", "--samples", "4", "--uncoupled"),
        # Laws of 2^80, 2^41, 2^41 and 10^10 table entries, refused unbuilt.
        ("model", "show", "--model", "ksat", "--k", "40", "--beta", "1"),
        ("model", "show", "--model", "xor", "--k", "40", "--beta", "1"),
        ("model", "show", "--model", "viana_bray", "--k", "40", "--beta", "1"),
        ("model", "show", "--model", "potts", "--q", "100000", "--beta", "1"),
        # Malformed flag values, refused by the keys' converters.
        ("certify", "--model", "potts", "--q", "3.5", "--beta", "1"),
        ("model", "show", "--model", "independent_set", "--lambda", "abc"),
        ("model", "show", "--model", "viana_bray", "--k", "2", "--beta", "1",
         "--i-values", "1,x", "--i-probs", "0.5,0.5"),
    ])
    def test_bad_input_exits_2(self, capsys, argv):
        """Bad input is a usage error, never a traceback or a verdict."""
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--model", "ising", "--beta", "710"),
        ("--model", "viana_bray", "--k", "2", "--beta", "710"),
        ("--model", "viana_bray", "--k", "2", "--beta", "400", "--i-values", "2,-2",
         "--i-probs", "0.5,0.5"),
    ])
    def test_overflowing_beta_exits_2(self, capsys, argv):
        """exp(beta * max|I|) beyond the float range is a usage error."""
        code, out, err = run(capsys, "model", "show", *argv)
        assert code == 2 and out == "" and "overflows" in err

    @pytest.mark.parametrize("config", [
        [1],
        {"model": 5, "params": {}, "seed": 1},
        {"model": "independent_set", "params": [1], "seed": 1},
        {"model": "independent_set", "params": {"lambda": 1}, "seed": None},
        {"model": "independent_set", "params": {"lambda": 1}, "seed": 1.7},
        {"model": "independent_set", "params": {"lambda": [1]}, "seed": 1},
        {"model": "viana_bray", "params": {"k": 2, "beta": 1, "i_values": 5}, "seed": 1},
        {"model": "viana_bray", "params": {"k": 2, "beta": 1, "i_values": "00"}, "seed": 1},
        {"model": "independent_set", "params": {"lambda": 1}},
    ], ids=["not_object", "model_not_string", "params_not_object", "seed_null",
            "seed_float", "lambda_list", "i_values_int", "i_values_string", "no_seed"])
    def test_malformed_config_exits_2(self, capsys, tmp_path, config):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "model", "show", "--config", str(cfg))
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("config", [
        {"model": "potts", "params": {"q": 2.5, "beta": 1}, "seed": 1},
        {"model": "ksat", "params": {"k": 3.5, "beta": 0.5}, "seed": 1},
    ], ids=["q", "k"])
    def test_non_integral_q_or_k_exits_2(self, capsys, tmp_path, config):
        """A non-integral q or k in a config is refused, not truncated."""
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "model", "show", "--config", str(cfg))
        assert code == 2 and out == "" and "is not an integer" in err
        config["params"] = {**config["params"], **{key: 3.0 for key in ("q", "k")
                                                   if key in config["params"]}}
        cfg.write_text(json.dumps(config))
        code, out, _ = run(capsys, "model", "show", "--config", str(cfg))
        assert code == 0 and json.loads(out)["arity" if "k" in config["params"]
                                              else "n_states"] == 3

    @pytest.mark.parametrize("argv", [
        ("--model", "ising", "--beta", "1", "--h", "1e308"),
        ("--model", "viana_bray", "--k", "2", "--beta", "1", "--h", "1e308"),
    ], ids=["ising", "viana_bray"])
    def test_overflowing_h_exits_2(self, capsys, argv):
        """An h whose rho_max overflows is a usage error, not an Infinity in
        the printed JSON."""
        code, out, err = run(capsys, "model", "show", *argv)
        assert code == 2 and out == "" and "rho_max = inf is not finite" in err

    def test_out_of_range_parameter(self, capsys):
        code, _, err = run(capsys, "certify", "--model", "independent_set",
                           "--lambda", "-1")
        assert code == 2


MODEL_COMMANDS = [("model", "show"), ("logz",), ("certify",), ("interpolate",),
                  ("moments",), ("concentrate",), ("converge",)]


def _flag(key):
    return "--" + key.replace("_", "-")


class TestModelFlags:
    @pytest.mark.parametrize("command", MODEL_COMMANDS, ids=" ".join)
    def test_every_param_is_a_flag(self, capsys, command):
        """Each MODEL_PARAMS key is a flag of every model-taking command; the
        sequence flags say they are comma-separated."""
        code, out, _ = run(capsys, *command, "--help")
        assert code == 0
        for key in MODEL_PARAMS:
            assert re.search(rf"^  {_flag(key)} [A-Z_]+", out, re.M), key
        for key in ("i_values", "i_probs"):
            assert re.search(rf"^  {_flag(key)} [A-Z_]+ +comma-separated", out, re.M)

    def test_flags_and_config_show_one_model(self, capsys, tmp_path):
        """model show prints the same line for a random zoo model whether its
        params come as flags or in a config file, which adds only the seed."""
        rng = np.random.default_rng(22)
        cfg = tmp_path / "model.json"
        for seed in range(40):
            model = random_zoo_model(rng)
            flags = ["--model", model.name]
            for key, value in model.params.items():
                text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
                flags += [_flag(key), text]
            code, by_flags, _ = run(capsys, "model", "show", *flags)
            assert code == 0
            cfg.write_text(json.dumps(model_to_config(model, seed)))
            code, by_config, _ = run(capsys, "model", "show", "--config", str(cfg))
            assert code == 0
            assert by_config == by_flags[:-2] + f', "seed": {seed}}}\n', flags


class TestModelShowAndGen:
    def test_show_prints_soft_constants(self, capsys):
        code, out, _ = run(capsys, "model", "show", "--model", "ksat",
                           "--k", "3", "--beta", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["soft"]["rho_min"] == pytest.approx(math.exp(-0.5))
        assert payload["soft"]["kappa"] == 2.0

    def test_gen_deterministic(self, capsys):
        code, out1, _ = run(capsys, "gen", "--n", "6", "--c", "1.5", "--k", "2",
                            "--seed", "4")
        assert code == 0
        _, out2, _ = run(capsys, "gen", "--n", "6", "--c", "1.5", "--k", "2",
                         "--seed", "4")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["n"] == 6 and len(payload["edges"]) == 9

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": "potts",
                                   "params": {"q": 3, "beta": 0.0},
                                   "seed": 7}))
        code, out, _ = run(capsys, "logz", "--config", str(cfg), "--n", "4",
                           "--c", "1")
        assert code == 0
        row = json.loads(out)
        assert row["seed"] == 7
        assert row["logz"] == pytest.approx(4 * math.log(3), rel=1e-12)


class TestExperimentCommands:
    def test_moments_pass(self, capsys):
        code, out, _ = run(capsys, "moments", "--model", "independent_set",
                           "--lambda", "1", "--n", "3", "--n1", "1", "--r", "2")
        assert code == 0
        record = json.loads(out)
        assert record["verdict"] == "pass"

    def test_moments_embedded_config(self, capsys, tmp_path):
        """An embedded K-SAT config runs the exact check; the results and the
        verdict are those of its discrete preimage."""
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": "ksat_embedded",
                                   "params": {"k": 3, "beta": 0.9}, "seed": 0}))
        argv = ("--n", "4", "--n1", "2", "--r", "3")
        code, out, _ = run(capsys, "moments", "--config", str(cfg), *argv)
        assert code == 0
        embedded = json.loads(out)
        _, out, _ = run(capsys, "moments", "--model", "ksat", "--k", "3",
                        "--beta", "0.9", *argv)
        preimage = json.loads(out)
        assert embedded["params"]["model"] == "ksat_embedded"
        assert (embedded["results"], embedded["verdict"]) == \
            (preimage["results"], preimage["verdict"]) and preimage["verdict"] == "pass"

    @pytest.mark.parametrize("command, seed_flag", [
        (("interpolate", "--n", "4", "--n1", "2", "--c", "1", "--samples", "6"),
         "--seed"),
        (("moments", "--n", "3", "--n1", "1", "--r", "2"), "--g0-seed"),
        (("concentrate", "--n-list", "4,5", "--c", "1", "--samples", "6"), "--seed"),
        (("converge", "--n-list", "4,5", "--c", "1", "--samples", "6"), "--seed"),
        (("logz", "--n", "5", "--c", "1.5"), "--seed"),
    ], ids=lambda value: value if isinstance(value, str) else value[0])
    def test_config_seed_is_the_command_seed(self, capsys, tmp_path, command,
                                             seed_flag):
        """A --config run gives the output of the flag run with the config's
        seed as --seed (--g0-seed for moments), timestamps aside."""
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": "ksat", "params": {"k": 2, "beta": 0.9},
                                   "seed": 7}))
        outputs = []
        for model_args in (("--config", str(cfg)),
                           ("--model", "ksat", "--k", "2", "--beta", "0.9",
                            seed_flag, "7")):
            code, out, _ = run(capsys, *command, *model_args)
            assert code in (0, 1)
            row = json.loads(out)
            row.pop("timestamp", None)
            outputs.append(row)
        assert outputs[0] == outputs[1]

    def test_failing_chain_exits_1(self, capsys, monkeypatch):
        """A rising chain fails the verdict, and interpolate exits 1."""
        monkeypatch.setattr(harness, "_chain_task",
                            lambda args, lo, hi: np.array([[0.0, 1.0]] * (hi - lo)))
        with workers(1):
            code, out, _ = run(capsys, "interpolate", "--model", "independent_set",
                               "--lambda", "1", "--n", "4", "--n1", "2", "--c", "0.25",
                               "--samples", "4")
        assert code == 1 and json.loads(out)["verdict"] == "fail"

    def test_interpolate_writes_records(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        csv_path = tmp_path / "records.csv"
        code, out, _ = run(capsys, "interpolate", "--model", "independent_set",
                           "--lambda", "1", "--n", "4", "--n1", "2", "--c", "1",
                           "--samples", "60", "--seed", "3",
                           "--out", str(out_path), "--csv", str(csv_path))
        assert code == 0
        record = json.loads(out)
        assert record["experiment"] == "interpolation_monotonicity"
        assert out_path.read_text().strip() == json.dumps(
            record, separators=(",", ":"))
        assert csv_path.read_text().startswith("experiment,verdict,timestamp")

    def test_concentrate_and_converge(self, capsys):
        code, out, _ = run(capsys, "concentrate", "--model", "independent_set",
                           "--lambda", "1", "--n-list", "4,6", "--c", "1",
                           "--samples", "50", "--seed", "1")
        assert code in (0, 1)  # verdict depends on the tiny sample slope
        code, out, _ = run(capsys, "converge", "--model", "potts", "--q", "2",
                           "--beta", "0", "--n-list", "4,8", "--c", "1",
                           "--samples", "10", "--seed", "1")
        assert code == 0
        assert json.loads(out)["verdict"] == "report"
