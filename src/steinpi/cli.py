"""Command-line entry points.

Subcommands: sample, weights, thin, ksd, wasserstein, experiment,
check-assumptions.  All randomness is seeded from configs or flags; there
is no wall-clock seeding.  Only sample, experiment and check-assumptions
draw random numbers, so only they take --seed, an integer >= 0 like a
config's seed.  Exit codes: 0 success, 1 configuration error (malformed
points CSVs, counts below 1 and a --radius or --b1 out of range
included), 2 numerical failure (non-finite points included).  Only
sample, weights, thin and experiment write files, into --out-dir;
wasserstein reads no config and takes no flags.  Each verb builds only
from values checked by steinpi.experiment's parse functions, one per
config block: experiment parses it all; sample sets its flags in a copy
of the raw config, parses target, mode_init, kernel, sampler and seed,
and draws through MethodRuntime.draw, the experiment runner's one draw
path taken by a group of one method (a warm-up flag on an exact sampler
is an error, like a warmup block there); the other verbs parse only
target, mode_init and kernel, and check-assumptions its seed (--seed,
else the config's, else 0).  weights solves by certified_weights.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import ConfigError, InvalidSimplex, SteinpiError
from .experiment import (
    MethodRuntime,
    MethodSpec,
    build_target,
    certified_weights,
    config_object,
    parse_experiment_spec,
    parse_kernel,
    parse_mode_init,
    parse_sampler,
    parse_seed,
    run_experiment,
    write_csv,
    write_experiment_outputs,
)
from .kernels import check_theorem_assumptions, make_kernel
from .mala import AdaptSchedule
from .metrics import wasserstein1
from .quantise import WeightedSample, greedy_thin, ksd, uniform_sample
from .targets import find_mode

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are configuration errors
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _read_points(path, dim=None):
    """Points CSV with header x0..x{d-1} and an optional weight column.

    An empty file, a header without rows, a ragged row, a non-numeric
    cell, or (given dim: the target's, or the first sample's) other than
    dim point columns is a ConfigError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().split("\n") if line]
    except FileNotFoundError:
        raise ConfigError(f"points file not found: {path}")
    if len(lines) < 2:
        raise ConfigError(f"{path}: no rows of points" if lines else f"{path}: empty points file")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ConfigError(f"{path}: line {number} has {len(row)} fields, the header {len(header)}")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    weights = None
    if "weight" in header:
        widx = header.index("weight")
        data, weights = np.delete(data, widx, axis=1), data[:, widx]
    if dim is not None and data.shape[1] != dim:
        raise ConfigError(f"{path}: {data.shape[1]} point column(s), expected {dim}")
    return data, weights


def _weighted(path, points, weights):
    """The sample of points with weights read from path (None: uniform); finite weights
    that are not a simplex of one weight per point are a ConfigError naming path."""
    if weights is None:
        return uniform_sample(points)
    try:
        return WeightedSample(points=points, weights=weights)
    except InvalidSimplex as exc:
        if np.isfinite(points).all() and np.isfinite(weights).all():
            raise ConfigError(f"{path}: {exc}") from None
        raise


def _read_sample(path, dim=None):
    """The sample of a points CSV: its weight column, else uniform weights."""
    return _weighted(path, *_read_points(path, dim))


def _finite(text, positive=False):
    """A finite number (> 0 if positive); anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value) or (positive and value <= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number{' > 0' * positive}, got {text!r}")
    return value


def _count(text, low=1):
    """An integer >= low (a count, or a seed at low = 0); anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


def _override(block, path, **flags):
    """A copy of a raw config object with each flag that was given set in it."""
    return {**config_object(block, path), **{k: v for k, v in flags.items() if v is not None}}


def _pipeline(cfg):
    """Target, checked mode start and checked kernel block of a single-pipeline config."""
    target = build_target(config_object(cfg, "config").get("target", {}))
    init = parse_mode_init(cfg, target.dim)
    return target, init, parse_kernel(cfg.get("kernel", {}), "config.kernel")


def _kernel(cfg):
    """The config's Stein kernel; no sampler is parsed or built."""
    target, init, kernel = _pipeline(cfg)
    return make_kernel(target, find_mode(target, init), **kernel)


def _write(out_dir, name, header, rows):
    """Write one CSV into out_dir (the working directory by default) and print its path."""
    os.makedirs(out_dir or ".", exist_ok=True)
    path = os.path.join(out_dir or ".", name)
    write_csv(path, header, rows)
    print(path)
    return 0


def _cmd_sample(args):
    cfg = _override(_load_config(args.config), "config", seed=args.seed)
    sampler = _override(cfg.get("sampler", {}), "config.sampler", distribution=args.target_dist)
    lengths = None
    if args.epochs or args.epoch_length or args.final_length:  # counts, so None when not given
        default = AdaptSchedule().epoch_lengths
        tuning = [args.epoch_length or default[0]] * ((args.epochs or len(default)) - 1)
        lengths = tuning + [args.final_length or default[-1]]
    if args.epsilon0 is not None or lengths:
        sampler["warmup"] = _override(
            sampler.get("warmup", {}), "config.sampler.warmup", epsilon0=args.epsilon0, epoch_lengths=lengths
        )
    target, init, kernel = _pipeline(cfg)
    method = MethodSpec("sample", kernel, parse_sampler(sampler, target.dim, args.n, "config.sampler"), None)
    seed = parse_seed(cfg)
    runtime = MethodRuntime(method, target, find_mode(target, init))
    points = runtime.draw(seed, 0, [0], args.n)[0][: args.n]
    header = [f"x{i}" for i in range(points.shape[1])]
    return _write(args.out_dir, "sample.csv", header, [tuple(row) for row in points])


def _cmd_weights(args):
    kernel = _kernel(_load_config(args.config))
    points, _ = _read_points(args.points, kernel.dim)
    uniform_sample(points)  # refuses non-finite points before the target is evaluated
    qp = certified_weights(kernel.gram(kernel.context(points)))  # raises if uncertified
    return _write(args.out_dir, "weights.csv", ["index", "weight"], list(enumerate(qp.weights)))


def _cmd_thin(args):
    kernel = _kernel(_load_config(args.config))
    points, _ = _read_points(args.points, kernel.dim)
    uniform_sample(points)  # refuses non-finite points before the target is evaluated
    idx = greedy_thin(kernel.context(points), kernel, args.m)
    return _write(args.out_dir, "indices.csv", ["index"], [(int(i),) for i in idx])


def _cmd_ksd(args):
    kernel = _kernel(_load_config(args.config))
    sample = _read_sample(args.points, kernel.dim)
    if args.weights:
        weights = _read_points(args.weights)[1]
        if weights is None:
            raise ConfigError(f"{args.weights}: no 'weight' column found")
        sample = _weighted(args.weights, sample.points, weights)
    print(repr(ksd(sample, kernel.gram(kernel.context(sample.points)))))
    return 0


def _cmd_wasserstein(args):
    a = _read_sample(args.sample_a)
    print(repr(wasserstein1(a, _read_sample(args.sample_b, a.dim))))
    return 0


def _cmd_experiment(args):
    spec = parse_experiment_spec(_override(_load_config(args.config), "config", seed=args.seed))
    out_dir = args.out_dir or spec.out_dir or "experiment-out"
    result = run_experiment(spec)
    summary = write_experiment_outputs(result, out_dir)
    for row in summary:
        print(f"{row.method} n={row.n} mean={row.mean:.6g} se={row.se:.6g}")
    if result.failures:
        print(f"{len(result.failures)} cell(s) failed; see failures.csv", file=sys.stderr)
    return 0


def _cmd_check_assumptions(args):
    cfg = _override(_load_config(args.config), "config", seed=args.seed)
    seed = parse_seed(cfg) if "seed" in cfg else 0
    print(check_theorem_assumptions(_kernel(cfg), args.radius, args.probes, b1=args.b1, seed=seed))
    return 0


def _build_parser():
    parser = _Parser(prog="steinpi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, writes_files=True, seeded=False):
        p.add_argument("--config", required=True, help="JSON config path")
        if seeded:
            p.add_argument("--seed", type=lambda text: _count(text, 0), default=None, help="seed override")
        if writes_files:
            p.add_argument("--out-dir", default=None, help="output directory")

    p = sub.add_parser("sample", help="draw samples from p, pi or a power tilt")
    common(p, seeded=True)
    p.add_argument("--n", type=_count, required=True, help="number of samples")
    p.add_argument("--target", dest="target_dist", choices=["p", "pi", "power_tilt"], default=None)
    p.add_argument("--epsilon0", type=float, default=None, help="initial MALA step size")
    p.add_argument("--epochs", type=_count, default=None, help="number of warm-up epochs")
    p.add_argument("--epoch-length", type=_count, default=None, help="tuning epoch length")
    p.add_argument("--final-length", type=_count, default=None, help="production epoch length")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("weights", help="optimal simplex weights for a chain CSV")
    common(p)
    p.add_argument("--points", required=True, help="points CSV")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("thin", help="greedy thinning indices for a chain CSV")
    common(p)
    p.add_argument("--points", required=True, help="points CSV")
    p.add_argument("--m", type=_count, required=True, help="number of points to retain")
    p.set_defaults(func=_cmd_thin)

    p = sub.add_parser("ksd", help="kernel discrepancy of a (weighted) sample")
    common(p, writes_files=False)
    p.add_argument("--points", required=True, help="points CSV")
    p.add_argument("--weights", default=None, help="optional weights CSV")
    p.set_defaults(func=_cmd_ksd)

    p = sub.add_parser("wasserstein", help="exact 1-Wasserstein between two sample CSVs")
    p.add_argument("sample_a")
    p.add_argument("sample_b")
    p.set_defaults(func=_cmd_wasserstein)

    p = sub.add_parser("experiment", help="run a declarative experiment config")
    common(p, seeded=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("check-assumptions", help="probe convergence assumptions numerically")
    common(p, writes_files=False, seeded=True)
    p.add_argument("--radius", type=lambda text: _finite(text, True), default=10.0, help="probe shell radius")
    p.add_argument("--probes", type=_count, default=64, help="number of shell probes")
    p.add_argument("--b1", type=_finite, default=None, help="user curvature bound to locate")
    p.set_defaults(func=_cmd_check_assumptions)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SteinpiError, np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
