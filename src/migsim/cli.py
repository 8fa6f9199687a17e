"""Command line front end.

    migsim run <scenario.json> [--seed N] [--trials N] [--out DIR]
    migsim compare <a.csv> <b.csv>
    migsim validate <scenario.json>

Exit codes: 0 success, 1 scenario validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_scenario, parse_scenario, read_scenario
from .harness import compare, export_csv, load_csv, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="migsim",
        description="Deterministic simulator for live migration of stateful "
                    "message-driven services.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write a CSV report")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--trials", type=int, default=None,
                       help="override the trial count")
    run_p.add_argument("--out", default="out",
                       help="directory for the CSV report (default: out)")

    cmp_p = sub.add_parser("compare", help="compare two CSV reports")
    cmp_p.add_argument("report_a")
    cmp_p.add_argument("report_b")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("scenario")
    return parser


def _cmd_run(args) -> int:
    doc = read_scenario(args.scenario)
    # a flag takes the place of the file's field, and so obeys its rule; a
    # document that is not an object fails parse_scenario as it stands
    if isinstance(doc, dict):
        for key in ("seed", "trials"):
            if getattr(args, key) is not None:
                doc[key] = getattr(args, key)
    config = parse_scenario(doc)
    rows = run_experiment(config)
    out_path = Path(args.out) / (Path(args.scenario).stem + ".csv")
    export_csv(rows, out_path)
    print(f"wrote {out_path} ({len(rows)} rows)")
    print(compare(rows).format_text())
    return 0


def _cmd_compare(args) -> int:
    rows = load_csv(args.report_a) + load_csv(args.report_b)
    print(compare(rows).format_text())
    return 0


def _cmd_validate(args) -> int:
    config = load_scenario(args.scenario)
    print(f"{args.scenario}: ok "
          f"({config.trials} trials, "
          f"{', '.join(t.value for t in config.techniques)})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare,
                "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        for line in exc.errors:
            print(line, file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
