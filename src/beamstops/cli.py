"""Command-line front end.

Three subcommands share a flat config file (see :mod:`beamstops.config`):

* ``run <config>`` — integrate once, write the trajectory CSV.
* ``sweep <config> --key K --values v1,v2,...`` — one run per value in
  parallel, individual CSVs plus ``summary.csv``/``summary.txt``.  Values
  that differ only in ``inv_eps`` step together as one block per worker.
* ``stability <config>`` — print the time-step limits without running.

Exit codes: 0 success, 2 stability veto (override with ``--force``),
1 solver or configuration failure or an output that cannot be written.
A trajectory is written only if its records are finite and, for a run
with an audited contact, its complementarity certificate holds.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .config import (
    ConfigError,
    build_model,
    build_params,
    override,
    parse_config,
    run_kwargs,
)
from .diagnostics import ComplementarityError, RunComparison, summary_row
from .linalg import (
    NotPositiveDefiniteError,
    PgsConvergenceError,
    PowerIterationError,
)
from .stability import UnstableTimeStepError, check
from .steppers import NonFiniteRecordError, Trajectory, run

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VETO = 2

SWEEP_KEYS = ("dt", "beta", "inv_eps", "J")

SOLVER_ERRORS = (
    NotPositiveDefiniteError,
    PgsConvergenceError,
    PowerIterationError,
    NonFiniteRecordError,
    ComplementarityError,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call of the process
    and reused: building it costs about a tenth of a short run's set-up."""
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
        if name == "stability":
            continue
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


def _certify(traj: Trajectory) -> None:
    """Raise the error that forbids writing ``traj``: a non-finite record,
    or a failed complementarity certificate where the run audited its contact."""
    traj.require_finite()
    if traj.audit is not None:
        traj.audit.check()


def cmd_run(cfg, output_dir: str, force: bool) -> int:
    model, mesh = build_model(cfg)
    params = build_params(cfg)
    try:
        traj = run(model, mesh, params, force=force, **run_kwargs(cfg))
        print(traj.stability.format())
        _certify(traj)
    except UnstableTimeStepError as exc:
        print(exc.report.format())
        print("stability veto: re-run with --force to override", file=sys.stderr)
        return EXIT_VETO
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    out_path = Path(output_dir) / cfg.output
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(out_path, traj.to_csv())
    except OSError as exc:
        print(f"cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_FAILURE
    n_rows = traj.t.size
    print(f"wrote {out_path} ({n_rows} records, {traj.wall_time:.2f} s)")
    return EXIT_OK


def _sweep_child(payload):
    """Run one chunk of sweep members, which step together (they differ in
    ``inv_eps`` alone); returns (index, label, exit code, message, summary
    row) per member."""
    key, chunk, output_dir, force = payload
    cfg = chunk[0][2]
    model, mesh = build_model(cfg)
    try:
        results = run(model, mesh, [build_params(child) for _, _, child in chunk],
                      force=force, **run_kwargs(cfg))
    except (UnstableTimeStepError, *SOLVER_ERRORS) as exc:
        results = [exc] * len(chunk)
    out = []
    for (i, token, _), traj in zip(chunk, results):
        label = f"{key}={token}"
        if isinstance(traj, Trajectory):
            try:
                _certify(traj)
            except SOLVER_ERRORS as exc:
                traj = exc
        if isinstance(traj, UnstableTimeStepError):
            out.append((i, label, EXIT_VETO, str(traj), None))
        elif isinstance(traj, Exception):
            out.append((i, label, EXIT_FAILURE, f"solver error: {traj}", None))
        else:
            out_path = Path(output_dir) / f"{key}_{token}.csv"
            try:
                _write_atomic(out_path, traj.to_csv())
            except OSError as exc:
                message = f"cannot write {out_path}: {exc.strerror or exc}"
                out.append((i, label, EXIT_FAILURE, message, None))
            else:
                out.append((i, label, EXIT_OK, str(out_path), summary_row(label, traj)))
    return out


def _chunks(key, members, workers, output_dir, force):
    """The members of a sweep differ in ``key`` alone.  An ``inv_eps`` sweep
    is cut into at most ``workers`` contiguous chunks, which each step as
    one block; any other key runs one member per chunk."""
    if key != "inv_eps":
        return [(key, [member], output_dir, force) for member in members]
    n, parts = len(members), min(workers, len(members))
    return [(key, members[j * n // parts : (j + 1) * n // parts], output_dir, force)
            for j in range(parts)]


def cmd_sweep(cfg, key: str, tokens: list[str], output_dir: str, force: bool) -> int:
    threads = os.environ.get("BEAM_THREADS", "").strip()
    try:
        workers = int(threads) if threads else os.cpu_count() or 1
    except ValueError:
        workers = 0
    if workers < 1:
        print(f"BEAM_THREADS must be a positive integer, not {threads!r}", file=sys.stderr)
        return EXIT_FAILURE
    results, members, seen = [], [], {}
    for i, token in enumerate(tokens):
        label = f"{key}={token}"
        try:
            child = override(cfg, key, token)
        except ConfigError as exc:
            results.append((i, label, EXIT_FAILURE, str(exc), None))
            continue
        value = getattr(child, key)
        if value in seen:
            print(f"sweep values {seen[value]!r} and {token!r} are the same {key} ({value!r})",
                  file=sys.stderr)
            return EXIT_FAILURE
        seen[value] = token
        members.append((i, token, child))
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_FAILURE
    payloads = _chunks(key, members, workers, str(out), force)
    workers = min(workers, len(payloads))
    if workers > 1:
        # imported here: the pool machinery costs 0.5 MB that a run or a serial sweep never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_child, payloads))
    else:
        done = [_sweep_child(p) for p in payloads]
    results = sorted(results + [r for chunk in done for r in chunk], key=lambda r: r[0])

    rows = []
    worst = EXIT_OK
    for _, label, code, message, row in results:
        if code == EXIT_OK:
            print(f"{label}: {message}")
            rows.append(row)
        else:
            print(f"{label}: {message}", file=sys.stderr)
            worst = EXIT_FAILURE if EXIT_FAILURE in (worst, code) else EXIT_VETO
    if rows:
        summary = RunComparison(rows=tuple(rows))
        for path, text in ((out / "summary.csv", summary.to_csv()),
                           (out / "summary.txt", summary.to_text())):
            try:
                _write_atomic(path, text)
            except OSError as exc:
                print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
                worst = EXIT_FAILURE
            else:
                print(f"wrote {path}")
    return worst


def cmd_stability(cfg) -> int:
    model, mesh = build_model(cfg)
    params = build_params(cfg)
    report = check(mesh, model, params, alpha=cfg.alpha)
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
