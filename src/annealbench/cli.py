"""Command line interface: gen | run | alpha | experiment | report.

Exit code 0 means every acceptance verdict passed (or none were asked for).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import graph_core as gc
from . import harness as hz
from . import instance_gen as ig
from .errors import AnnealBenchError, ConfigError


def _key_value(pair: str) -> tuple[str, str]:
    key, _, value = pair.partition("=")
    if not value:
        raise argparse.ArgumentTypeError(f"expected key=value, got {pair!r}")
    return key, value


def _cmd_gen(args) -> int:
    params: dict[str, str] = {}
    for key, value in args.param or []:
        if key in params:
            raise ConfigError(f"--param {key} is given twice")
        params[key] = value
    family = ig.family(args.family)
    inst = family.make(params, args.seed)
    for note in inst.notes:
        print(f"note: {note}", file=sys.stderr)
    # A graph file holds the explicit graph, also of an implicit clique blowup.
    g = inst.graph if inst.blowup is None else ig.gen_clique_blowup(inst.blowup, base=inst.graph)
    alpha = inst.alpha() if family.alpha_method == ig.CLOSED_FORM else None
    with hz.landing(args.out) as graph_file, hz.landing(args.out + ".meta") as meta_file:
        graph_file.write(gc.graph_to_text(g))
        meta_file.write(ig.sidecar_text(args.family, params, args.seed, alpha))
    print(f"wrote {args.out} ({g.n} vertices, {g.num_edges} edges)")
    return 0


# Exact alpha oracles by --method name; "auto" tries them in this order.
ORACLES = {"tree": gc.alpha_tree, "bipartite": gc.alpha_bipartite, "brute": gc.alpha_bruteforce}


def _cmd_alpha(args) -> int:
    g = gc.read_graph_file(args.graph)
    names = list(ORACLES) if args.method == "auto" else [args.method]
    for name in names:
        try:
            cert = ORACLES[name](g)
            break
        except AnnealBenchError:
            if name == names[-1]:
                raise
    print(f"alpha = {cert.alpha} ({cert.method})")
    if args.witness:
        print("witness =", " ".join(str(v) for v in sorted(cert.witness)))
    return 0


def _cmd_run(args) -> int:
    if args.algorithm == "ump":  # the defaults of the two flags only ump reads
        args.schedule = args.schedule or "fixed:1"
        args.steps = 1000 if args.steps is None else args.steps
    cfg = hz.ExperimentConfig(
        "run", None, {}, (args.schedule,) if args.schedule else (), algorithm=args.algorithm,
        steps=args.steps, trials=args.trials, seed=args.seed, thresholds=args.thresholds,
        early_stop_size=args.early_stop, watch_root=bool(args.watch), alpha=args.alpha,
    )
    inst = ig.Instance(gc.read_graph_file(args.graph), None, watch=args.watch)
    bundle = hz.bundle_for(cfg, inst, None)
    rows = hz.run_trials(cfg, bundle, {Path(args.out): hz.RUN_CSV_COLUMNS})
    print(f"wrote {args.out} ({len(rows)} trials)")
    return 0


def _cmd_experiment(args) -> int:
    cfg = hz.load_config(args.config, out_dir=args.out_dir)
    manifest = hz.run_experiment(cfg, workers=args.workers)
    print(f"ran {len(manifest.rows)} trials in {manifest.wall_clock:.1f}s")
    print(f"config hash {manifest.config_hash}")
    return _judge(cfg, manifest.rows, Path(cfg.out_dir))


def _judge(cfg: hz.ExperimentConfig, rows: list[dict], out: Path | None = None) -> int:
    """Print the verdicts of the config's [acceptance] checks (also into
    ``out`` if given); 0 iff all pass or none are configured."""
    if not cfg.acceptance:
        return 0
    report = hz.verdict(cfg, rows)
    if out is not None:
        with (hz.landing(out / "verdict.csv") as csv_file,
              hz.landing(out / "verdict.txt") as txt_file):
            csv_file.write(report.to_csv_text())
            txt_file.write(report.to_text())
    print(report.to_text(), end="")
    return 0 if report.all_passed else 1


def _cmd_report(args) -> int:
    if args.alpha is not None and args.alpha < 1:
        raise ConfigError(f"--alpha must be >= 1, got {args.alpha}")
    rows = hz.read_trials(args.run, args.stats)
    try:
        thresholds = [float(x) for x in (args.thresholds or "").split(",") if x]
        finite = all(map(math.isfinite, thresholds))
    except ValueError:
        finite = False
    if not finite:
        raise ConfigError(f"--thresholds must be finite numbers, got {args.thresholds!r}")
    text = hz.report_text(rows, args.alpha, thresholds)
    print(text, end="")
    if args.out:
        with hz.landing(args.out) as fh:
            fh.write(text)
    return _judge(hz.load_config(args.config), rows) if args.config else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="annealbench",
        description="Stochastic local-search laboratory for maximum independent set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--family", required=True, choices=sorted(ig.FAMILIES))
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--param", action="append", type=_key_value, metavar="KEY=VALUE")
    p_gen.set_defaults(func=_cmd_gen)

    p_alpha = sub.add_parser("alpha", help="exact independence number")
    p_alpha.add_argument("--graph", required=True)
    p_alpha.add_argument("--method", choices=("auto", *ORACLES), default="auto")
    p_alpha.add_argument("--witness", action="store_true")
    p_alpha.set_defaults(func=_cmd_alpha)

    p_run = sub.add_parser("run", help="run trials on a graph file")
    p_run.add_argument("--graph", required=True)
    p_run.add_argument("--schedule", help="ump only (default fixed:1)")
    p_run.add_argument(
        "--algorithm", choices=("ump", "greedy", "degree-greedy"), default="ump"
    )
    p_run.add_argument("--steps", type=int, help="ump only (default 1000)")
    p_run.add_argument("--trials", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--alpha", type=int)
    p_run.add_argument("--thresholds", type=ig.int_list, default=())
    p_run.add_argument("--early-stop", type=int, dest="early_stop")
    p_run.add_argument("--watch", type=ig.int_list, default=())
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiment", help="run a configured experiment")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--workers", type=int)
    p_exp.add_argument("--out-dir")
    p_exp.set_defaults(func=_cmd_experiment)

    p_rep = sub.add_parser("report", help="summarize run CSVs")
    p_rep.add_argument("--run", required=True)
    p_rep.add_argument("--stats")
    p_rep.add_argument("--config")
    p_rep.add_argument("--alpha", type=int)
    p_rep.add_argument("--thresholds")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AnnealBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
