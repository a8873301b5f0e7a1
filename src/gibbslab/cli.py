"""Command-line driver.

Subcommands: ``model show``, ``gen``, ``logz``, ``certify``, ``interpolate``,
``moments``, ``concentrate``, ``converge``.  Model parameters come from flags
or a JSON config file {"model": ..., "params": {...}, "seed": ...}.  Records
are appended as JSON lines with optional CSV export.  Exit status: 0 for
pass/report verdicts, 1 for a fail verdict, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import convexity, harness, models, partition
from .graphs import graph_to_json, sample_er
from .partition import StateSpaceCapError


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="zoo model name")
    parser.add_argument("--config", help="JSON config file with model/params/seed")
    parser.add_argument("--lambda", type=float,
                        help="activity of the independent set model")
    parser.add_argument("--beta", type=float)
    parser.add_argument("--q", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--h", type=float)
    parser.add_argument("--i-values", type=_float_list,
                        help="comma-separated support of I (viana_bray)")
    parser.add_argument("--i-probs", type=_float_list,
                        help="comma-separated probabilities of I (viana_bray)")


def _model_from_args(args) -> tuple[models.ModelSpec, Optional[int]]:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            model, seed = models.model_from_config(json.load(fh))
        return model, seed
    if not args.model:
        raise models.ModelConfigError("either --model or --config is required")
    flags = vars(args)
    params = {key: flags[key] for key in models.MODEL_PARAM_KEYS
              if flags[key] is not None}
    return models.build_model(args.model, **params), None


def _emit_record(record: harness.ExperimentRecord, args) -> int:
    print(harness.record_to_json(record))
    if getattr(args, "out", None):
        harness.append_record(args.out, record)
    if getattr(args, "csv", None):
        harness.records_to_csv([record], args.csv)
    return 0 if record.verdict in ("pass", "report") else 1


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gibbslab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="model inspection")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p_show = model_sub.add_parser("show", help="print the model and soft constants")
    _add_model_args(p_show)

    p_gen = sub.add_parser("gen", help="sample a hypergraph")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--c", type=str, required=True)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)

    p_logz = sub.add_parser("logz", help="log-partition of one sampled instance")
    _add_model_args(p_logz)
    p_logz.add_argument("--n", type=int, required=True)
    p_logz.add_argument("--c", type=str, required=True)
    p_logz.add_argument("--seed", type=int, default=0)
    p_logz.add_argument("--mc", action="store_true")
    p_logz.add_argument("--samples", type=int, default=100000)

    p_cert = sub.add_parser("certify", help="certify the convexity hypothesis")
    _add_model_args(p_cert)

    p_interp = sub.add_parser("interpolate", help="interpolation monotonicity")
    _add_model_args(p_interp)
    p_interp.add_argument("--n", type=int, required=True)
    p_interp.add_argument("--n1", type=int, required=True)
    p_interp.add_argument("--c", type=str, required=True)
    p_interp.add_argument("--samples", type=int, default=2000)
    p_interp.add_argument("--seed", type=int, default=0)
    p_interp.add_argument("--allow-uncertified", action="store_true")
    p_interp.add_argument("--out")
    p_interp.add_argument("--csv")

    p_mom = sub.add_parser("moments", help="exact moment inequality")
    _add_model_args(p_mom)
    p_mom.add_argument("--n", type=int, required=True)
    p_mom.add_argument("--n1", type=int, required=True)
    p_mom.add_argument("--r", type=int, required=True)
    p_mom.add_argument("--alpha", type=float)
    p_mom.add_argument("--g0-edges", type=int, default=2)
    p_mom.add_argument("--g0-seed", type=int, default=0)
    p_mom.add_argument("--out")
    p_mom.add_argument("--csv")

    p_conc = sub.add_parser("concentrate", help="concentration proxy")
    _add_model_args(p_conc)
    p_conc.add_argument("--n-list", type=_int_list, required=True)
    p_conc.add_argument("--c", type=str, required=True)
    p_conc.add_argument("--samples", type=int, default=1000)
    p_conc.add_argument("--seed", type=int, default=0)
    p_conc.add_argument("--out")
    p_conc.add_argument("--csv")

    p_conv = sub.add_parser("converge", help="near-superadditivity table")
    _add_model_args(p_conv)
    p_conv.add_argument("--n-list", type=_int_list, required=True)
    p_conv.add_argument("--c", type=str, required=True)
    p_conv.add_argument("--samples", type=int, default=1000)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--out")
    p_conv.add_argument("--csv")

    return parser


def _cmd_model_show(args) -> int:
    model, seed = _model_from_args(args)
    soft = model.soft
    out = {"model": model.name, "params": model.params,
           "soft": {"kappa": soft.kappa, "rho_min": soft.rho_min,
                    "rho_max": soft.rho_max, "j_max": soft.j_max,
                    "alpha": soft.alpha},
           "arity": model.arity, "n_states": model.n_states}
    if seed is not None:
        out["seed"] = seed
    print(json.dumps(out))
    return 0


def _cmd_gen(args) -> int:
    graph = sample_er(args.n, args.c, args.k, args.seed)
    print(graph_to_json(graph))
    return 0


def _cmd_logz(args) -> int:
    model, config_seed = _model_from_args(args)
    seed = args.seed if config_seed is None else config_seed
    graph = sample_er(args.n, args.c, model.arity, seed)
    instance = partition.make_instance(model, graph, seed)
    if args.mc:
        est = partition.log_z_mc(instance, args.samples, seed)
    else:
        est = partition.log_z_exact(instance)
    print(json.dumps(partition.logz_row(est, seed)))
    return 0


def _cmd_certify(args) -> int:
    model, _ = _model_from_args(args)
    cert = convexity.certify_model(model)
    print(f"{'certified' if cert.certified else 'not certified'} via {cert.method}")
    print(json.dumps({"model": cert.model, "certified": cert.certified,
                      "method": cert.method, "alpha": model.soft.alpha,
                      "detail": cert.detail}))
    return 0 if cert.certified else 1


def _cmd_interpolate(args) -> int:
    model, _ = _model_from_args(args)
    record = harness.interpolation_monotonicity(
        model, args.n, args.n1, args.c, args.samples, args.seed,
        allow_uncertified=args.allow_uncertified)
    return _emit_record(record, args)


def _cmd_moments(args) -> int:
    model, _ = _model_from_args(args)
    g0 = harness.random_base_instance(model, args.n, args.g0_edges, args.g0_seed)
    record = harness.moment_inequality_check(model, args.n, args.n1, args.r,
                                             g0, alpha=args.alpha)
    return _emit_record(record, args)


def _cmd_concentrate(args) -> int:
    model, _ = _model_from_args(args)
    record = harness.concentration_experiment(model, args.n_list, args.c,
                                              args.samples, args.seed)
    return _emit_record(record, args)


def _cmd_converge(args) -> int:
    model, _ = _model_from_args(args)
    record = harness.convergence_experiment(model, args.n_list, args.c,
                                            args.samples, args.seed)
    return _emit_record(record, args)


def cli_run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        if args.command == "model":
            return _cmd_model_show(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "logz":
            return _cmd_logz(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "interpolate":
            return _cmd_interpolate(args)
        if args.command == "moments":
            return _cmd_moments(args)
        if args.command == "concentrate":
            return _cmd_concentrate(args)
        if args.command == "converge":
            return _cmd_converge(args)
    except StateSpaceCapError as exc:
        hint = ("rerun with --mc" if args.command == "logz"
                else "use a smaller N or c")
        print(f"error: {exc}; {hint}", file=sys.stderr)
        return 2
    except (models.ModelConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
