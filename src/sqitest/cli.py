"""Command-line driver: error-curve sweeps and verification batteries."""

from __future__ import annotations

import argparse
import shlex
import sys
from dataclasses import replace

from .experiments import CONFIG_KEYS, SUITES, ExperimentConfig, run_curve, run_verify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqitest",
        description=(
            "Compare the squeezing-invariant and heterodyne-Hotelling "
            "displacement tests: error-curve CSV sweeps and oracle "
            "verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="write an error-curve CSV over a theta grid")
    curve.add_argument("--config", help="config file (key = value); explicit flags win")
    for key, (_, cast, text) in CONFIG_KEYS.items():
        kind = {"action": "append"} if cast is shlex.split else {"type": cast}
        curve.add_argument("--" + key.replace("_", "-"), help=text, **kind)

    verify = sub.add_parser("verify", help="run a named cross-check battery")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--out", help="optional path for the text report")
    return parser


def _curve_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            config = ExperimentConfig.from_text(fh.read())
    else:
        config = ExperimentConfig()
    updates = {name: getattr(args, key) for key, (name, _, _) in CONFIG_KEYS.items()
               if getattr(args, key) is not None}
    return replace(config, **updates)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "curve":
            path = run_curve(_curve_config(args))
            print(f"wrote {path}")
            return 0
        report = run_verify(args.suite)
        text = report.format()
        print(text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        return 1 if report.failures else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
