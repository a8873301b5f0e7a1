"""Command-line driver.

Subcommands: ``model show``, ``gen``, ``logz``, ``certify``, ``interpolate``,
``moments``, ``concentrate``, ``converge``; each sets the handler it runs.
A model comes from ``--model`` plus one flag per key of
``models.MODEL_PARAMS`` (``_`` written ``-``, a sequence comma-separated),
typed by that key's converter, or from a JSON config file {"model": ...,
"params": {...}, "seed": ...}, whose seed is the command's seed.  Records
are appended as JSON lines with optional CSV export.  Exit status: 0 for
pass/report verdicts, 1 for a fail verdict, 2 for usage errors, a value
``build_model`` refuses and a size that cannot be allocated included."""

from __future__ import annotations

import argparse
import json
import sys

from . import convexity, harness, models, partition
from .graphs import graph_to_json, sample_er
from .partition import StateSpaceCapError


def _flag_type(convert):
    """argparse type of a model flag: the key's converter, applied to the
    comma-split text for a sequence key."""
    def comma_separated(text):
        return convert(text.split(","))
    return comma_separated if convert is models._float_tuple else convert


def _model_from_args(args) -> models.ModelSpec:
    """The model of ``--config`` or of ``--model`` and its flags.  A config's
    seed is the command's seed: ``--g0-seed`` for ``moments``, else ``--seed``."""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            model, seed = models.model_from_config(json.load(fh))
        setattr(args, "g0_seed" if args.command == "moments" else "seed", seed)
        return model
    if not args.model:
        raise models.ModelConfigError("either --model or --config is required")
    flags = vars(args)
    params = {key: flags[key] for key in models.MODEL_PARAMS if flags[key] is not None}
    return models.build_model(args.model, **params)


def _emit_record(record: harness.ExperimentRecord, args) -> int:
    print(harness.record_to_json(record))
    if args.out:
        harness.append_record(args.out, record)
    if args.csv:
        harness.records_to_csv([record], args.csv)
    return 0 if record.verdict in ("pass", "report") else 1


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    model_args = argparse.ArgumentParser(add_help=False)
    model_args.add_argument("--model", help="zoo model name")
    model_args.add_argument("--config", help="JSON config file with model/params/seed")
    for key, convert in models.MODEL_PARAMS.items():
        model_args.add_argument(
            "--" + key.replace("_", "-"), type=_flag_type(convert),
            help="comma-separated numbers" if convert is models._float_tuple else None)
    record_args = argparse.ArgumentParser(add_help=False)
    record_args.add_argument("--out", help="append the record to this JSON-lines file")
    record_args.add_argument("--csv", help="write the record to this CSV file")

    parser = argparse.ArgumentParser(prog="gibbslab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="model inspection")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    model_sub.add_parser("show", parents=[model_args],
                         help="print the model and soft constants"
                         ).set_defaults(run=_cmd_model_show)

    p_gen = sub.add_parser("gen", help="sample a hypergraph")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--c", type=str, required=True)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(run=_cmd_gen)

    p_logz = sub.add_parser("logz", parents=[model_args],
                            help="log-partition of one sampled instance")
    p_logz.add_argument("--n", type=int, required=True)
    p_logz.add_argument("--c", type=str, required=True)
    p_logz.add_argument("--seed", type=int, default=0)
    p_logz.add_argument("--mc", action="store_true")
    p_logz.add_argument("--samples", type=int, default=100000)
    p_logz.set_defaults(run=_cmd_logz)

    sub.add_parser("certify", parents=[model_args],
                   help="certify the convexity hypothesis").set_defaults(run=_cmd_certify)

    p_interp = sub.add_parser("interpolate", parents=[model_args, record_args],
                              help="interpolation monotonicity")
    p_interp.add_argument("--n", type=int, required=True)
    p_interp.add_argument("--n1", type=int, required=True)
    p_interp.add_argument("--c", type=str, required=True)
    p_interp.add_argument("--samples", type=int, default=2000)
    p_interp.add_argument("--seed", type=int, default=0)
    p_interp.add_argument("--allow-uncertified", action="store_true")
    p_interp.set_defaults(run=_cmd_interpolate)

    p_mom = sub.add_parser("moments", parents=[model_args, record_args],
                           help="exact moment inequality")
    p_mom.add_argument("--n", type=int, required=True)
    p_mom.add_argument("--n1", type=int, required=True)
    p_mom.add_argument("--r", type=int, required=True)
    p_mom.add_argument("--alpha", type=float)
    p_mom.add_argument("--g0-edges", type=int, default=2)
    p_mom.add_argument("--g0-seed", type=int, default=0)
    p_mom.set_defaults(run=_cmd_moments)

    for name, help_text, experiment in (
            ("concentrate", "concentration proxy", harness.concentration_experiment),
            ("converge", "near-superadditivity table", harness.convergence_experiment)):
        p_sizes = sub.add_parser(name, parents=[model_args, record_args], help=help_text)
        p_sizes.add_argument("--n-list", type=_int_list, required=True)
        p_sizes.add_argument("--c", type=str, required=True)
        p_sizes.add_argument("--samples", type=int, default=1000)
        p_sizes.add_argument("--seed", type=int, default=0)
        p_sizes.set_defaults(run=_cmd_sizes, experiment=experiment)

    return parser


def _cmd_model_show(args) -> int:
    model = _model_from_args(args)
    soft = model.soft
    out = {"model": model.name, "params": model.params,
           "soft": {"kappa": soft.kappa, "rho_min": soft.rho_min,
                    "rho_max": soft.rho_max, "j_max": soft.j_max,
                    "alpha": soft.alpha},
           "arity": model.arity, "n_states": model.n_states}
    if args.config:
        out["seed"] = args.seed
    print(json.dumps(out))
    return 0


def _cmd_gen(args) -> int:
    graph = sample_er(args.n, args.c, args.k, args.seed)
    print(graph_to_json(graph))
    return 0


def _cmd_logz(args) -> int:
    model = _model_from_args(args)
    graph = sample_er(args.n, args.c, model.arity, args.seed)
    instance = partition.make_instance(model, graph, args.seed)
    if args.mc:
        est = partition.log_z_mc(instance, args.samples, args.seed)
    else:
        est = partition.log_z_exact(instance)
    print(json.dumps(partition.logz_row(est, args.seed)))
    return 0


def _cmd_certify(args) -> int:
    model = _model_from_args(args)
    cert = convexity.certify_model(model)
    print(f"{'certified' if cert.certified else 'not certified'} via {cert.method}")
    print(json.dumps({"model": cert.model, "certified": cert.certified,
                      "method": cert.method, "alpha": model.soft.alpha,
                      "detail": cert.detail}))
    return 0 if cert.certified else 1


def _cmd_interpolate(args) -> int:
    model = _model_from_args(args)
    record = harness.interpolation_monotonicity(
        model, args.n, args.n1, args.c, args.samples, args.seed,
        allow_uncertified=args.allow_uncertified)
    return _emit_record(record, args)


def _cmd_moments(args) -> int:
    model = _model_from_args(args)
    g0 = harness.random_base_instance(model, args.n, args.g0_edges, args.g0_seed)
    record = harness.moment_inequality_check(g0, args.n1, args.r, alpha=args.alpha)
    return _emit_record(record, args)


def _cmd_sizes(args) -> int:
    model = _model_from_args(args)
    record = args.experiment(model, args.n_list, args.c, args.samples, args.seed)
    return _emit_record(record, args)


def cli_run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.run(args)
    except StateSpaceCapError as exc:
        hint = ("rerun with --mc" if args.command == "logz"
                else "use a smaller N or c")
        print(f"error: {exc}; {hint}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an edge count numpy cannot allocate, say
        print(f"error: {exc or 'out of memory'}; use a smaller N or c", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
