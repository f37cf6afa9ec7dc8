"""Command-line interface.

Verbs:
  run             advance a scenario and write snapshots/diagnostics
  reference       produce a fine-step self-reference for a scenario
  sweep           time a dt or h sweep and report the log-log cost slope
  bounds          print iteration spectral-radius bounds for a step/spacing
  list-scenarios  show the builtin benchmark problems

Exit codes: 0 success, 2 configuration error, 3 numerical instability,
4 inner iteration failed to converge.  The output root defaults to
./pitcorr-runs and can be overridden with PITCORR_OUTPUT_ROOT or --output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .analysis import (
    BoundQuery,
    bound_spectral_radius,
    sufficient_step_conditions,
)
from .holes import ConvergenceError
from .model import CorrosionParameters, DEFAULT_FIXED_W
from .rect import InstabilityError
from .scenarios import (
    ConfigError,
    OUTPUT_ROOT_ENV,
    builtin_scenarios,
    generate_reference,
    load_config,
    run_scenario,
    scaling_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_NO_CONVERGENCE = 4


def _output_root(args) -> str:
    if args.output:
        return args.output
    return os.environ.get(OUTPUT_ROOT_ENV, os.path.join(os.getcwd(), "pitcorr-runs"))


def _add_common(parser):
    parser.add_argument("scenario", help="builtin scenario name or YAML config path")
    parser.add_argument("--output", help="output root directory")
    parser.add_argument(
        "--horizon-scale",
        type=float,
        default=1.0,
        help="scale the time horizon and snapshot times (grid unchanged)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitcorr", description="phase-field pitting corrosion solver"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    _add_common(p_run)

    p_ref = sub.add_parser("reference", help="generate a fine-step reference run")
    _add_common(p_ref)

    p_sweep = sub.add_parser("sweep", help="cost scaling sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--vary", choices=("dt", "h"), required=True)
    p_sweep.add_argument(
        "--factors",
        type=float,
        nargs="+",
        default=[0.5, 1.0, 2.0],
        help="dt multipliers (or h divisors for --vary h)",
    )

    p_bounds = sub.add_parser("bounds", help="iteration convergence bounds")
    p_bounds.add_argument("--variant", choices=("imex-i", "imex-e"), required=True)
    p_bounds.add_argument("--order", choices=("euler", "2sbdf"), default="euler")
    p_bounds.add_argument("--bc", choices=("dirichlet", "neumann"), default="neumann")
    p_bounds.add_argument("--h", type=float, required=True, help="grid spacing [m]")
    p_bounds.add_argument("--dt", type=float, required=True, help="time step [s]")
    p_bounds.add_argument("--w", type=float, default=DEFAULT_FIXED_W)
    p_bounds.add_argument(
        "--geometry", choices=("generic", "circle"), default="generic"
    )

    sub.add_parser("list-scenarios", help="list builtin scenarios")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.scenario)
    artifacts = run_scenario(cfg, _output_root(args), horizon_scale=args.horizon_scale)
    print(f"run complete: {cfg.name}")
    print(f"  steps:   {artifacts.timing['n_steps']}")
    print(f"  horizon: {artifacts.timing['horizon_s']:.6g} s")
    print(f"  wall:    {artifacts.timing['wall_s']:.3f} s")
    print(f"  output:  {artifacts.output_dir}")
    return EXIT_OK


def _cmd_reference(args) -> int:
    cfg = load_config(args.scenario)
    artifacts = generate_reference(cfg, _output_root(args), horizon_scale=args.horizon_scale)
    print(f"reference complete: {cfg.name} (dt = {artifacts.timing['dt']:.6g} s)")
    print(f"  output: {artifacts.output_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.scenario)
    report = scaling_report(cfg, args.vary, args.factors, horizon_scale=args.horizon_scale)
    print(f"sweep over {args.vary} for {cfg.name}")
    for x, wall in report["points"]:
        print(f"  {args.vary} = {x:.6g} -> {wall:.3f} s")
    print(f"  slope = {report['slope']:.3f} (r^2 = {report['r2']:.4f})")
    root = _output_root(args)
    os.makedirs(os.path.join(root, cfg.name), exist_ok=True)
    path = os.path.join(root, cfg.name, f"sweep_{args.vary}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"  report: {path}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    params = CorrosionParameters()
    if not all(0.0 < v < math.inf for v in (args.h, args.dt, args.w)):
        raise ConfigError("--h, --dt and --w must be positive and finite")
    queries = [
        BoundQuery(
            variant=args.variant,
            order=args.order,
            bc_outer=args.bc,
            equation=eq,
            dx=args.h,
            dy=args.h,
            dt=args.dt,
            w=args.w,
            params=params,
            geometry=args.geometry,
        )
        for eq in ("phi", "c")
    ]
    try:  # an extreme h, dt or w takes the bounds outside the float range
        bounds = [bound_spectral_radius(q) for q in queries]
        cond = sufficient_step_conditions(args.variant, args.order, args.bc, params,
                                          args.w, args.h)
    except ArithmeticError as exc:
        raise ConfigError(f"--h, --dt or --w out of range: {exc}") from exc
    print(
        f"{args.variant} {args.order}, {args.bc} outer boundary, "
        f"h = {args.h:.6g} m, dt = {args.dt:.6g} s, w = {args.w:.6g}"
    )
    for q, bound in zip(queries, bounds):
        shown = "inadmissible" if bound is None else f"{bound:.6g}"
        print(f"  rho bound ({q.equation}): {shown}")
    print(f"  phi contraction unconditional: {cond['unconditional_phi']}")
    print(f"  dt_max (phi): {cond['dt_max_phi']:.6g}")
    print(f"  dt_max (c):   {cond['dt_max_c']:.6g}")
    return EXIT_OK


def _cmd_list(_args) -> int:
    for name, raw in sorted(builtin_scenarios().items()):
        print(f"{name:16s} {raw.get('description', '')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "reference": _cmd_reference,
        "sweep": _cmd_sweep,
        "bounds": _cmd_bounds,
        "list-scenarios": _cmd_list,
    }
    try:
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except ConvergenceError as exc:
        print(f"iteration did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
