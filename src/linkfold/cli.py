"""Command line interface.

Subcommands:

    linkfold verify-a1    --n 2 --out out        full A1 verification pipeline
    linkfold singular-set --f ... --g ... --n 2  trace S(h), write CSV and SVG
    linkfold morse        --theta 0 --eta-angle 0  slice / composed Morse data

Exit codes: 0 success, 2 configuration error, 3 numerical failure (the first
failed check is named on stderr), 4 degenerate geometry detected.

Exit 2 covers every input a run cannot start from:

- polynomial text that does not parse, nesting too deep included;
- an f that is zero or does not vanish at the origin, or a constant g;
- n < 1, or an n the command does not support;
- a negative seed;
- an epsilon that is not positive or whose square is not finite;
- a non-finite Morse angle;
- a config file that cannot be read, or has an unknown key or a bad value;
- an output directory that cannot be created, or an artifact in it that
  cannot be written;
- an f other than A1, or a g that is not linear, for verify-a1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import (
    BifurcationSuspected,
    DegenerateHessian,
    DimensionCollapse,
    LinkFoldError,
    PolyParseError,
    RankZero,
    WrongDimension,
)
from .polynomial import weighted_homogeneous
from .report import (
    ConfigError,
    RunConfig,
    load_config_file,
    make_config,
    run_morse,
    run_singular_set,
    run_verify_a1,
)

_DEGENERATE_ERRORS = (
    BifurcationSuspected,
    DimensionCollapse,
    DegenerateHessian,
    RankZero,
)


def _add_common(parser):
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--f", dest="f_text", help="polynomial f (default: sum of squares)")
    parser.add_argument("--g", dest="g_text", help="polynomial g (default: z1 + 0.5i*z2)")
    parser.add_argument("--n", type=int, help="link dimension parameter (ambient n + 1)")
    parser.add_argument("--epsilon", type=float, help="sphere radius (default 1)")
    parser.add_argument("--seed", dest="rng_seed", type=int, help="random seed (default 42)")
    parser.add_argument("--out", dest="out_dir", help="output directory (default ./out)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="linkfold",
        description="singular sets, folds and Morse data of g restricted to a "
        "hypersurface singularity link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-a1", help="verify the A1 round fold map end to end")
    _add_common(p)

    p = sub.add_parser("singular-set", help="trace the singular set, write CSV and SVG")
    _add_common(p)

    p = sub.add_parser("morse", help="slice and composed Morse data, write JSON")
    _add_common(p)
    p.add_argument("--theta", type=float, default=0.0, help="ray slice angle")
    p.add_argument(
        "--eta-angle", type=float, default=0.0,
        help="angle of the composing height covector",
    )
    return parser


def _config_from_args(args):
    # every RunConfig field is a flag of every command, under its own name
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {field.name: getattr(args, field.name) for field in fields(RunConfig)}
    return make_config(file_values, overrides)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        spec, _ = config.build()
    except (ConfigError, PolyParseError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if not weighted_homogeneous(spec.f) and config.epsilon >= 0.5:
        print(
            "warning: f is not homogeneous for any positive weights and "
            f"epsilon = {config.epsilon}; "
            "the link is only guaranteed for small epsilon",
            file=sys.stderr,
        )

    try:
        if args.command == "verify-a1":
            report, code = run_verify_a1(config)
            for entry in report["checks"]:
                mark = "PASS" if entry["passed"] else "FAIL"
                print(f"[{mark}] {entry['name']}")
            if code == 0:
                print(f"all checks passed; artifacts in {config.out_dir}")
            else:
                print(
                    f"FAILED: {report['first_failed_check']}", file=sys.stderr
                )
            return code
        if args.command == "singular-set":
            path, traces = run_singular_set(config)
            print(f"wrote {path} ({len(traces)} components)")
            return 0
        if args.command == "morse":
            path, payload = run_morse(config, args.theta, args.eta_angle)
            slice_count = len(payload["slice"]["records"])
            composed_count = len(payload["composed"]["records"])
            print(
                f"wrote {path} ({slice_count} slice critical points, "
                f"{composed_count} composed critical points)"
            )
            return 0
    except (ConfigError, WrongDimension, OSError) as exc:  # OSError: an artifact write
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _DEGENERATE_ERRORS as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return 4
    except LinkFoldError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
