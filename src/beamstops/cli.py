"""Command-line front end.

Three subcommands share a flat config file (see :mod:`beamstops.config`):

* ``run <config>`` — integrate once, write the trajectory CSV.
* ``sweep <config> --key K --values v1,v2,...`` — one run per value in
  parallel, individual CSVs plus ``summary.csv``/``summary.txt``.
* ``stability <config>`` — print the time-step limits without running.

Exit codes: 0 success, 2 stability veto (override with ``--force``),
1 solver or configuration failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import (
    ConfigError,
    build_model,
    build_params,
    override,
    parse_config,
    run_kwargs,
)
from .diagnostics import RunComparison, summary_row
from .linalg import NotPositiveDefiniteError, PgsConvergenceError, PowerIterationError
from .stability import UnstableTimeStepError, check
from .steppers import NonFiniteRecordError, PenaltyConsistencyError, run

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VETO = 2

SWEEP_KEYS = ("dt", "beta", "inv_eps", "J")

SOLVER_ERRORS = (
    NotPositiveDefiniteError,
    PgsConvergenceError,
    PowerIterationError,
    PenaltyConsistencyError,
    NonFiniteRecordError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamstops",
        description="Vibrating beam between two stops: simulate, sweep, check stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("run", "integrate one configuration and write the trajectory CSV"),
        ("sweep", "run one configuration per value of a swept key"),
        ("stability", "print time-step limits for a configuration without running"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="path to a flat key = value config file")
        p.add_argument(
            "--force",
            action="store_true",
            help="run even when dt violates the exact stability limit",
        )
        p.add_argument(
            "--output-dir",
            default=".",
            help="directory for output files (default: current directory)",
        )
        if name == "sweep":
            p.add_argument("--key", required=True, choices=SWEEP_KEYS)
            p.add_argument(
                "--values",
                required=True,
                help="comma-separated values for the swept key",
            )
    return parser


def _load_config(path: str):
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temp file in the same directory, so ``path`` is never partial."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_run(cfg, output_dir: str, force: bool) -> int:
    model, mesh = build_model(cfg)
    params = build_params(cfg)
    try:
        traj = run(model, mesh, params, force=force, **run_kwargs(cfg))
        print(traj.stability.format())
        traj.require_finite()
    except UnstableTimeStepError as exc:
        print(exc.report.format())
        print("stability veto: re-run with --force to override", file=sys.stderr)
        return EXIT_VETO
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    out_path = Path(output_dir) / cfg.output
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_path, traj.to_csv())
    n_rows = traj.t.size
    print(f"wrote {out_path} ({n_rows} records, {traj.wall_time:.2f} s)")
    return EXIT_OK


def _sweep_child(payload):
    """Run one sweep member; returns (label, exit code, message, summary row)."""
    cfg, key, token, output_dir, force = payload
    label = f"{key}={token}"
    try:
        child = override(cfg, key, token)
    except (ConfigError, ValueError) as exc:
        return label, EXIT_FAILURE, str(exc), None
    model, mesh = build_model(child)
    params = build_params(child)
    try:
        traj = run(model, mesh, params, force=force, **run_kwargs(child))
        traj.require_finite()
    except UnstableTimeStepError as exc:
        return label, EXIT_VETO, str(exc), None
    except SOLVER_ERRORS as exc:
        return label, EXIT_FAILURE, f"solver error: {exc}", None
    out_path = Path(output_dir) / f"{key}_{token}.csv"
    _write_atomic(out_path, traj.to_csv())
    return label, EXIT_OK, str(out_path), summary_row(label, traj)


def cmd_sweep(cfg, key: str, tokens: list[str], output_dir: str, force: bool) -> int:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    workers = int(os.environ.get("BEAM_THREADS", 0) or 0) or os.cpu_count() or 1
    workers = min(workers, len(tokens))
    payloads = [(cfg, key, token, str(out), force) for token in tokens]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_child, payloads))
    else:
        results = [_sweep_child(p) for p in payloads]

    rows = []
    worst = EXIT_OK
    for label, code, message, row in results:
        if code == EXIT_OK:
            print(f"{label}: {message}")
            rows.append(row)
        else:
            print(f"{label}: {message}", file=sys.stderr)
            worst = EXIT_FAILURE if EXIT_FAILURE in (worst, code) else EXIT_VETO
    if rows:
        summary = RunComparison(rows=tuple(rows))
        _write_atomic(out / "summary.csv", summary.to_csv())
        _write_atomic(out / "summary.txt", summary.to_text())
        print(f"wrote {out / 'summary.csv'} and {out / 'summary.txt'}")
    return worst


def cmd_stability(cfg) -> int:
    model, mesh = build_model(cfg)
    params = build_params(cfg)
    report = check(mesh, model, params, alpha=cfg.alpha, seed=cfg.seed)
    print(report.format())
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ConfigError as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    if args.command == "run":
        return cmd_run(cfg, args.output_dir, args.force)
    if args.command == "sweep":
        tokens = [t.strip() for t in args.values.split(",") if t.strip()]
        if not tokens:
            parser.error("--values needs at least one value")
        return cmd_sweep(cfg, args.key, tokens, args.output_dir, args.force)
    return cmd_stability(cfg)


if __name__ == "__main__":
    sys.exit(main())
