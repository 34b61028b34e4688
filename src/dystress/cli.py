"""Command-line interface.

Subcommands: simulate, sweep, metrics, temp-profile, ode-verify, gradcheck.
Exit codes: 0 success, 1 validation error, 2 numeric failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness, metrics as metrics_mod, temperature
from .errors import NumericError, ValidationError, check_int
from .geometry import l2_normalize
from .loss import LossMode, grad_wrt_embeddings, loss_on_embeddings
from .numeric import Rng, finite_difference_grad, fmt, max_relative_error
from .temperature import TemperatureProfile

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

GRADCHECK_THRESHOLD = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dystress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one experiment from a JSON config")
    p.add_argument("--config", required=True, help="path to the experiment config")
    p.add_argument("--out-dir", default=None, help="output directory (overrides the config)")
    p.add_argument("--data", default=None, help="JSON-lines dataset to train on instead of generating")

    p = sub.add_parser("sweep", help="run a config sweep and write a combined CSV")
    p.add_argument("--config", required=True, help="path to the sweep config")
    p.add_argument("--out-dir", default=None, help="sweep output directory")
    p.add_argument("--workers", type=int, default=1, help="runs at once, one process each (default 1)")

    p = sub.add_parser("metrics", help="recompute metrics from an embedding dump")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=int, default=metrics_mod.DEFAULT_KNN_K)

    p = sub.add_parser("temp-profile", help="dump a temperature profile as CSV")
    p.add_argument("--variant", required=True, choices=temperature.PROFILE_NAMES)
    p.add_argument("--tmin", dest="tau_min", type=float, required=True)
    p.add_argument("--tmax", dest="tau_max", type=float, required=True)
    p.add_argument("--shift", type=float, default=TemperatureProfile.shift)
    p.add_argument("--scale", type=float, default=TemperatureProfile.scale)
    p.add_argument("--sharpness", type=float, default=TemperatureProfile.sharpness)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ode-verify", help="slope-sign verification of the closed-form curves")
    p.add_argument("--delta", type=float, nargs="+", required=True)
    p.add_argument("--bigk", type=float, nargs="+", required=True)
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--c-count", type=int, default=8)
    p.add_argument("--s-count", type=int, default=2001)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--profile", default="cosine:0.1:0.2", help="e.g. constant:0.1, cosine:0.1:0.2, shifted:0.1:0.2:-0.4:0.7")
    p.add_argument("--mode", choices=["detached", "coupled"], default="detached")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_simulate(args) -> int:
    out_dir = None if args.out_dir is None else Path(args.out_dir)
    config = harness.load_config(args.config, out_dir=out_dir)
    if config.out_dir is None:
        raise ValidationError("no output directory: set 'out_dir' in the config or pass --out-dir")
    result = harness.run_experiment(config, data_path=args.data)
    final = result.final_report
    print(f"run complete: {result.out_dir}")
    print(
        f"final epoch {final.epoch}: loss={final.loss:.6f} "
        f"uniformity={final.uniformity:.4f} alignment={final.alignment:.4f} "
        f"interclass_uniformity={final.interclass_uniformity:.4f} knn_top1={final.knn_top1:.4f}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sweep = harness.load_sweep(args.config)
    out_dir = Path(args.out_dir) if args.out_dir is not None else Path("sweep_out")
    csv_path = harness.run_sweep(sweep, sweep_dir=out_dir, workers=args.workers)
    print(f"sweep CSV: {csv_path}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    values = harness.metrics_from_dump(args.embeddings, k=args.k)
    for key in ("uniformity", "alignment", "tolerance", "interclass_uniformity", "knn_top1"):
        print(f"{key}={fmt(values[key])}")
    return EXIT_OK


def _cmd_temp_profile(args) -> int:
    profile = TemperatureProfile(
        temperature.variant_named(args.variant), args.tau_min, args.tau_max,
        shift=args.shift, scale=args.scale, sharpness=args.sharpness,
    )
    temperature.write_profile_csv(args.out, profile, args.samples)
    print(f"wrote {args.samples} samples to {args.out}")
    return EXIT_OK


def _cmd_ode_verify(args) -> int:
    report = temperature.verify_proposition1(
        delta_grid=args.delta,
        bigK_grid=args.bigk,
        tau_max=args.tau_max,
        c_count=args.c_count,
        s_count=args.s_count,
    )
    temperature.write_ode_report_csv(args.out, report)
    print(temperature.summarize_ode_report(report))
    return EXIT_OK if report.all_pass else EXIT_NUMERIC


def _cmd_gradcheck(args) -> int:
    for flag, value, low in (("--n", args.n, 2), ("--d", args.d, 2), ("--trials", args.trials, 1)):
        check_int(flag, value, low)
    profile = TemperatureProfile.from_spec_string(args.profile)
    mode = LossMode(args.mode)
    rng = Rng(args.seed).substream("gradcheck")
    worst = 0.0
    for _ in range(args.trials):
        z = l2_normalize(rng.normal((2 * args.n, args.d)))
        bundle = grad_wrt_embeddings(z, profile, mode)
        frozen_at = z if mode is LossMode.DETACHED else None
        fd = finite_difference_grad(
            lambda flat: loss_on_embeddings(flat.reshape(z.shape), profile, frozen_at), z.ravel()
        ).reshape(z.shape)
        worst = max(worst, max_relative_error(bundle.dL_dz, fd))
    passed = worst < GRADCHECK_THRESHOLD
    print(
        f"gradcheck mode={args.mode} profile={profile.spec_string()} trials={args.trials}: "
        f"max relative error {worst:.3e} -> {'PASS' if passed else 'FAIL'} "
        f"(threshold {GRADCHECK_THRESHOLD:g})"
    )
    return EXIT_OK if passed else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "simulate": _cmd_simulate,
            "sweep": _cmd_sweep,
            "metrics": _cmd_metrics,
            "temp-profile": _cmd_temp_profile,
            "ode-verify": _cmd_ode_verify,
            "gradcheck": _cmd_gradcheck,
        }[args.command]
        return handler(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
