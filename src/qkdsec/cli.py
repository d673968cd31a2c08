"""Command-line entry point: ``sim <subcommand> [flags]``.

Subcommands: ``metrics`` (property suite), ``qkd`` (single protocol run),
``auth`` (hash-family sweep), ``compose`` (composition scenarios),
``lockdemo`` (information locking).  Exit status is 0 when every checked
bound holds, 2 when any bound is violated, and 1 on usage or config errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import tolerances as tol
from .harness import (
    SCENARIOS,
    ReportRow,
    RunConfig,
    parse_attack,
    parse_config,
    qkd_params,
    reader_values,
    run_scenario,
    write_csv,
)
from .metrics import property_suite
from .protocols import bb84, scenarios
from .protocols.auth import exhaustive_substitution_advantage
from .protocols.hashing import affine_family, verify_asu2


def _load_config(args) -> RunConfig:
    """The config file's values (if any), with ``--seed`` and ``--out`` winning."""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read(), require_seed=args.seed is None)
    else:
        cfg = parse_config("", require_seed=False)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def cmd_metrics(args) -> int:
    cfg = _load_config(args)
    trials = reader_values(cfg, "metrics check")["trials"]
    trials = args.trials if args.trials is not None else trials
    results = property_suite(cfg.seed, trials)
    write_csv(cfg.out, ("property_name", "trials", "max_violation", "pass"),
              [(r.name, r.trials, r.max_violation, r.passed) for r in results])
    return 0 if all(r.passed for r in results) else 2


def cmd_qkd(args) -> int:
    cfg = _load_config(args)
    values = reader_values(cfg, "qkd run")
    params = qkd_params("qkd run", values, cfg.seed)
    spec = values["attack"] if args.attack is None else args.attack
    attack = parse_attack(spec, params.n_qubits)
    run = bb84.qkd_run(params, attack)
    holds = run.advantage <= run.decomposition_bound + tol.METRIC_TOL
    write_csv(cfg.out, ("n", "attack", "p_abort", "eps_cor", "eps_sec", "advantage",
                        "thm1_holds"),
              [(params.n_qubits, attack.name, run.p_abort, run.eps_cor, run.eps_sec,
                run.advantage, holds)])
    # the converse bounds: eps_cor <= D and eps_sec <= 2 D
    converse = (run.eps_cor <= run.advantage + tol.METRIC_TOL
                and run.eps_sec <= 2.0 * run.advantage + tol.METRIC_TOL)
    return 0 if holds and converse else 2


def cmd_auth(args) -> int:
    cfg = _load_config(args)
    reader_values(cfg, "auth sweep")
    fam = affine_family(args.b)
    worst_pair, bound, uniform = verify_asu2(fam)
    advantage = exhaustive_substitution_advantage(fam)
    rows = [
        (args.b, "asu2-pair-probability", worst_pair, bound,
         worst_pair <= bound + tol.EXACT_TOL),
        (args.b, "asu2-tag-uniformity", 0.0 if uniform else 1.0, 0.0, uniform),
        (args.b, "substitution-advantage", advantage, fam.epsilon,
         advantage <= fam.epsilon + tol.EXACT_TOL),
    ]
    write_csv(cfg.out, ("b", "case", "measured", "bound", "holds"), rows)
    return 0 if all(h for *_, h in rows) else 2


def cmd_compose(args) -> int:
    cfg = _load_config(args)
    rows = run_scenario(args.name, cfg)
    write_csv(cfg.out, ReportRow._fields, rows)
    return 0 if all(r.holds for r in rows) else 2


def cmd_lockdemo(args) -> int:
    cfg = _load_config(args)
    reader_values(cfg, "lockdemo")
    report = scenarios.locking_demo(args.m)
    rows = [
        ReportRow("lockdemo", "post-reveal-bits", report.post_reveal_info,
                  float(args.m), abs(report.post_reveal_info - args.m) <= tol.METRIC_TOL),
        ReportRow("lockdemo", "pre-reveal-k2-bits", report.pre_reveal_k2_info,
                  float(args.m), report.pre_reveal_k2_info < args.m),
        ReportRow("lockdemo", "pre-reveal-key-bits", report.pre_reveal_key_info,
                  float(args.m), True),
        ReportRow("lockdemo", "locking-gap", report.gap, float(args.m), True),
    ]
    write_csv(cfg.out, ReportRow._fields, rows)
    return 0 if all(r.holds for r in rows) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="exact desk-scale verification of composable QKD security")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="64-bit run seed")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--config", default=None, help="key = value config file")

    p_metrics = sub.add_parser("metrics", help="metric/coupling/entropy property suite")
    p_metrics.add_argument("action", choices=["check"])
    p_metrics.add_argument("--trials", type=int, default=None)
    common(p_metrics)
    p_metrics.set_defaults(func=cmd_metrics)

    p_qkd = sub.add_parser("qkd", help="evaluate one protocol run exactly")
    p_qkd.add_argument("action", choices=["run"])
    p_qkd.add_argument("--attack", default=None,
                       help="identity | intercept-resend:p | depolarize:q | "
                            "steal-replace | custom:FILE")
    common(p_qkd)
    p_qkd.set_defaults(func=cmd_qkd)

    p_auth = sub.add_parser("auth", help="authentication family checks")
    p_auth.add_argument("action", choices=["sweep"])
    p_auth.add_argument("--b", type=int, required=True, help="tag bits")
    common(p_auth)
    p_auth.set_defaults(func=cmd_auth)

    p_comp = sub.add_parser("compose", help="composition scenarios")
    p_comp.add_argument("action", choices=["scenario"])
    p_comp.add_argument("--name", required=True, choices=SCENARIOS)
    common(p_comp)
    p_comp.set_defaults(func=cmd_compose)

    p_lock = sub.add_parser("lockdemo", help="information locking demo")
    p_lock.add_argument("--m", type=int, required=True, help="locked data bits (<= 3)")
    common(p_lock)
    p_lock.set_defaults(func=cmd_lockdemo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
