"""Command-line scenario runner.

Subcommands route a config file to the matching pipeline:

  exact   family construction + residual certification
  ode     angular-profile integration / periodic shooting
  solve   semilinear elliptic rigidity demo
  verify  certification checks on a supplied field CSV
  slide   translation-comparison positivity check
  batch   run a list of scenario configs into isolated directories

Exit codes: 0 all checks passed, 1 at least one check failed,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError
from .scenarios import TAGS, parse_config, run_batch, run_scenario

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorflow",
        description="Construct, solve, and certify homogeneous Euler flows "
        "on sector domains.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in [*dict.fromkeys(spec.subcommand for spec in TAGS.values()), "batch"]:
        sub = subs.add_parser(name)
        sub.add_argument("--config", required=True, help="scenario or batch config (INI)")
        sub.add_argument("--out", default="out", help="output directory")
        if name == "solve":
            sub.add_argument("--seed", type=int, help="perturbation seed override")
            sub.add_argument("--tol", type=float, help="solver tolerance override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "batch":
            code, summary = run_batch(args.config, args.out)
            for item in summary["scenarios"]:
                status = "pass" if item["exit_code"] == 0 else f"exit {item['exit_code']}"
                print(f"{item['name']}: {status}")
            return code
        scn = parse_config(args.config)
        if TAGS[scn.tag].subcommand != args.command:
            allowed = sorted(t for t, spec in TAGS.items() if spec.subcommand == args.command)
            raise ConfigError(
                f"tag {scn.tag!r} is not runnable by '{args.command}' "
                f"(expected one of {allowed})"
            )
        if getattr(args, "seed", None) is not None:
            scn.solver["seed"] = str(args.seed)
        if getattr(args, "tol", None) is not None:
            scn.solver["tol"] = repr(args.tol)
        code, report = run_scenario(scn, Path(args.out))
        if "error" in report:
            print(f"{scn.name}: numerical failure: {report['error']}")
            return EXIT_NUMERICAL
        for check in report["checks"]:
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"[{mark}] {check['name']}: {check['value']!r}")
        print(f"{scn.name}: {'pass' if code == 0 else 'FAIL'}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
