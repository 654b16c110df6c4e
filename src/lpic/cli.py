"""Command-line front end: BER runs, SINR sweeps, filter dumps, SIR analysis."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, load_config
from .filters import FILTER_KINDS, STAGED_KINDS, build_filter
from .model import equicorrelated_matrix
from .simulate import render_ber_csv, render_sinr_csv, run_ber_experiment, run_sinr_experiment
from .sinr import compute_weight_schedule, equicorr_sir_report


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_ber(args) -> int:
    cfg = load_config(args.config)
    records = run_ber_experiment(cfg, threads=args.threads)
    if args.verbose:
        for r in records:
            print(
                f"{r.detector} stage {r.stage}: ber={r.ber:.6g} "
                f"[{r.ci_low:.6g}, {r.ci_high:.6g}] errors={r.bit_errors}",
                file=sys.stderr,
            )
    _write(render_ber_csv(records), args.output or cfg.output)
    return 0


def _cmd_sinr_sweep(args) -> int:
    cfg = load_config(args.config)
    points = run_sinr_experiment(cfg)
    _write(render_sinr_csv(points), args.output or cfg.output)
    return 0


def _cmd_filter_dump(args) -> int:
    correlation = equicorrelated_matrix(args.K, args.rho)
    schedule = None
    if args.kind == "weighted_proposed" and args.stage > 1:
        if args.sigma2 is None:
            raise ConfigError("weighted_proposed needs --sigma2 (for the optimal schedule)")
        schedule, _degenerate = compute_weight_schedule(
            correlation, np.ones(args.K), args.sigma2, max(args.stage, 2)
        )
    filt = build_filter(
        args.kind, correlation, args.stage, sigma2=args.sigma2, schedule=schedule
    )
    lines = [",".join(f"{v:.17g}" for v in row) for row in filt]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_analyze_equicorr(args) -> int:
    report = equicorr_sir_report(args.K, args.rho)
    text = (
        "users,rho,sir_conventional,sir_proposed,sir_gain,converges\n"
        f"{report.users},{report.rho:.17g},{report.sir_conventional:.17g},"
        f"{report.sir_proposed:.17g},{report.sir_gain:.17g},{report.converges}\n"
    )
    _write(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpic",
        description="Linear parallel interference cancellation: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ber", help="Monte Carlo BER experiment from a config file")
    p.add_argument("config")
    p.add_argument("--output", help="CSV path (default: config 'output' key or stdout)")
    p.add_argument("--threads", type=int, help="worker threads (default: LPIC_THREADS or 1)")
    p.add_argument("--verbose", action="store_true", help="per-detector summary on stderr")
    p.set_defaults(handler=_cmd_ber)

    p = sub.add_parser("sinr-sweep", help="closed-form SINR vs stage weight from a config file")
    p.add_argument("config")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_sinr_sweep)

    p = sub.add_parser("filter-dump", help="dump a filter matrix for an equicorrelated channel")
    p.add_argument("--kind", required=True, choices=FILTER_KINDS)
    p.add_argument("--K", type=int, required=True, help="number of users")
    p.add_argument("--rho", type=float, required=True, help="common cross-correlation")
    p.add_argument("--stage", type=int, default=1)
    p.add_argument("--sigma2", type=float, help="noise variance (mmse family, weighted schedule)")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_filter_dump)

    p = sub.add_parser("analyze-equicorr", help="third-stage SIR comparison, equicorrelated channel")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_analyze_equicorr)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
