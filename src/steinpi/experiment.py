"""Declarative experiment pipelines: sample, post-process, evaluate, emit.

An experiment is described by a JSON-friendly dict: one target, a list of
methods (kernel + sampling distribution + mechanism + post-processor), a
grid of sample sizes, a replicate count and a seed.  Execution is
deterministic given the seed: replicates run on independent RNG streams,
and cells run one after another in key order.  Every
replicate is drawn before its cells, through one path (_draw_group): the
MALA methods that share a warm-up schedule run all their chains as one
ensemble over their stacked laws, which no chain depends on.
Wall times are recorded but written to a separate file, outside the
determinism contract.
"""

from __future__ import annotations

import numbers
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EmptySummary,
    InsufficientReplicates,
    InvalidSimplex,
    NonConvergence,
    SteinpiError,
)
from .grid import NODE_GUARD, GridSampler
from .kernels import GRAM_GUARD, make_kernel
from .mala import AdaptSchedule, adaptive_warmup, random_window
from .metrics import wasserstein1
from .pi_targets import StackedLaws, make_pi, make_power_tilt
from .quantise import (
    WeightedSample,
    greedy_thin,
    ksd,
    optimal_weights,
    uniform_sample,
)
from .targets import (
    default_mixture,
    find_mode,
    make_gaussian,
    make_gaussian_mixture,
    make_garch_posterior,
    make_regression_posterior,
    make_skew_normal_2d,
    simulate_garch_series,
)

__all__ = [
    "ExperimentSpec",
    "MethodSpec",
    "ResultRow",
    "SummaryRow",
    "ExperimentResult",
    "parse_experiment_spec",
    "build_target",
    "certified_weights",
    "run_experiment",
    "summarise",
    "significant_improvement",
    "emit_plot",
    "write_csv",
    "read_csv",
    "write_experiment_outputs",
]


# ----------------------------------------------------------------------
# configuration parsing: per block, one checked value with its defaults
# ----------------------------------------------------------------------


def _require(cfg, key, path):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return cfg[key]


def config_object(value, path, keys=None):
    """value, or a ConfigError at path unless it is a JSON object; with
    keys, at its first key that is not one of them."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key")
    return value


def _is_number(value):
    """A finite real number; a bool is not."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def _is_count(value, low=1):
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _count(value, path, low=1):
    """value, or a ConfigError at path unless it is an integer >= low (a bool is not)."""
    if not _is_count(value, low):
        raise ConfigError(f"{path}: must be an integer >= {low}, got {value!r}")
    return value


def _numbers(cfg, key, path, ndims=(1,)):
    """cfg[key] as a float array, nonempty and finite, with one of ``ndims`` axes."""
    value = np.asarray(_require(cfg, key, path), dtype=object)
    if value.ndim in ndims and value.size and all(map(_is_number, value.flat)):
        return value.astype(np.float64)
    axes = "/".join(map(str, ndims))
    raise ConfigError(f"{path}.{key}: must be a nonempty {axes}-D array of finite numbers, got {cfg[key]!r}")


def _choice(cfg, key, choices, path):
    """cfg[key], one of choices; the first is the default."""
    value = cfg.get(key, choices[0])
    if value not in choices:
        raise ConfigError(f"{path}.{key}: must be one of {', '.join(choices)}, got {value!r}")
    return value


@contextmanager
def _blame(path, errors=(ValueError, np.linalg.LinAlgError)):
    """Report a constructor's own check of a parameter as a ConfigError at path."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_target(cfg, path="config.target"):
    """Construct a built-in target from a name plus parameter block; a bad
    parameter, checked here or by its constructor, is a ConfigError at its key."""
    name = _require(config_object(cfg, path), "name", path)
    if name == "gaussian":
        config_object(cfg, path, ("name", "mean", "dim", "cov"))
        if "mean" in cfg:
            mean = _numbers(cfg, "mean", path)
        else:
            mean = np.zeros(_count(_require(cfg, "dim", path), f"{path}.dim"))
        cov = _numbers(cfg, "cov", path, (2,)) if "cov" in cfg else None
        if cov is not None and (cov.shape != (len(mean),) * 2 or (cov != cov.T).any()):
            raise ConfigError(f"{path}.cov: must be a symmetric {len(mean)} x {len(mean)} matrix")
        with _blame(f"{path}.cov"):  # Cholesky: positive definite
            return make_gaussian(mean, cov)
    if name == "mixture":
        config_object(cfg, path, ("name", "weights", "means", "scales"))
        if not any(k in cfg for k in ("weights", "means", "scales")):
            return default_mixture()
        weights, scales = _numbers(cfg, "weights", path), _numbers(cfg, "scales", path)
        means = _numbers(cfg, "means", path, (1, 2))
        # equal lengths and the simplex, then positive scales
        with _blame(f"{path}.weights", InvalidSimplex), _blame(f"{path}.scales"):
            return make_gaussian_mixture(weights, means, scales)
    if name == "regression":
        config_object(cfg, path, ("name", "t", "y"))
        if "t" not in cfg and "y" not in cfg:
            return make_regression_posterior()
        with _blame(f"{path}.y"):  # as long as t
            return make_regression_posterior(_numbers(cfg, "t", path), _numbers(cfg, "y", path))
    if name == "skew_normal":
        config_object(cfg, path, ("name",))
        return make_skew_normal_2d()
    if name == "garch":
        config_object(cfg, path, ("name", "y", "length", "sim_seed", "phi"))
        if "y" in cfg:
            y = _numbers(cfg, "y", path)
        else:
            length = _count(cfg.get("length", 50), f"{path}.length", 2)
            seed = _count(cfg.get("sim_seed", 0), f"{path}.sim_seed", 0)
            phi = _numbers(cfg, "phi", path) if "phi" in cfg else (0.2, 0.5, 0.3, 0.4)
            if len(phi) != 4:
                raise ConfigError(f"{path}.phi: must be 4 numbers, got {cfg['phi']!r}")
            with _blame(f"{path}.phi"):  # the stationarity region
                y = simulate_garch_series(phi, length, seed=seed)
        with _blame(f"{path}.y"):  # at least two observations
            return make_garch_posterior(y)
    raise ConfigError(f"{path}.name: unknown target {name!r}")


def parse_kernel(cfg, path):
    """Checked kernel block: the family, s and beta keywords of make_kernel."""
    family = _choice(config_object(cfg, path, ("family", "s", "beta")), "family", ("langevin", "kgm"), path)
    beta = cfg.get("beta", 0.5)
    if not _is_number(beta) or not 0.0 < beta < 1.0:
        raise ConfigError(f"{path}.beta: must be a number in (0, 1), got {beta!r}")
    return {"family": family, "s": _count(cfg.get("s", 3), f"{path}.s"), "beta": float(beta)}


def parse_mode_init(cfg, dim):
    """Start of the mode search: dim floats, the origin when absent."""
    init = tuple(_numbers(cfg, "mode_init", "config")) if "mode_init" in cfg else (0.0,) * dim
    if len(init) != dim:
        raise ConfigError(f"config.mode_init: must be {dim} numbers, got {cfg['mode_init']!r}")
    return init


def parse_seed(cfg):
    """The config's seed, an integer >= 0; wall-clock seeding is not allowed."""
    return _count(_require(cfg, "seed", "config"), "config.seed", 0)


def _parse_grid(grid, dim, path, owner):
    """Checked grid block: bounds, dim pairs [lo, hi] with lo < hi (None:
    12 sd around the mode), and num, the node count per axis.  A target of
    more than two dimensions has no grid (a ConfigError at owner), and a
    grid of more than NODE_GUARD nodes is a ConfigError at num."""
    if dim > 2:
        raise ConfigError(f"{owner}: grid sampling supports one or two dimensions, the target has {dim}")
    config_object(grid, path, ("bounds", "num"))
    num = _count(grid.get("num", 2001 if dim > 1 else 20001), f"{path}.num", 2)
    if num**dim > NODE_GUARD:
        raise ConfigError(f"{path}.num: {num}**{dim} grid nodes exceed the guard of {NODE_GUARD}")
    bounds = _numbers(grid, "bounds", path, (2,)) if grid.get("bounds") else None
    if bounds is not None and (bounds.shape != (dim, 2) or (bounds[:, 0] >= bounds[:, 1]).any()):
        raise ConfigError(f"{path}.bounds: must be {dim} pairs [lo, hi] with lo < hi, got {grid['bounds']!r}")
    return {"bounds": None if bounds is None else bounds.tolist(), "num": num}


_WARMUP_KEYS = {"epsilon0": float, "epoch_lengths": tuple, "learning_rates": tuple, "target_accept": float}


def _schedule(warm, path):
    """The MALA warm-up schedule of a warmup block."""
    for key, value in config_object(warm, path, _WARMUP_KEYS).items():
        if not all(map(_is_number, value if isinstance(value, (list, tuple)) else [value])):
            raise ConfigError(f"{path}.{key}: must be made of finite numbers, got {value!r}")
    try:
        return AdaptSchedule(**{key: _WARMUP_KEYS[key](value) for key, value in warm.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_sampler(cfg, dim, n, path):
    """Checked sampler block that draws n points of a dim-dimensional target: distribution,
    r (a power tilt's, else None), mechanism, and the exact grid or the MALA warmup schedule."""
    config_object(cfg, path, ("distribution", "r", "mechanism", "grid", "warmup"))
    dist = _choice(cfg, "distribution", ("p", "pi", "power_tilt"), path)
    r = None
    if dist == "power_tilt":
        r = cfg.get("r", 1.0)
        if not _is_number(r) or not r > 0:
            raise ConfigError(f"{path}.r: must be a number > 0, got {r!r}")
        r = float(r)
    mechanism = _choice(cfg, "mechanism", ("exact", "mala"), path)
    if (unread := "warmup" if mechanism == "exact" else "grid") in cfg:
        raise ConfigError(f"{path}.{unread}: the {mechanism} mechanism does not read this key")
    grid = warmup = None
    if mechanism == "exact":
        grid = _parse_grid(cfg.get("grid", {}), dim, f"{path}.grid", f"{path}.mechanism")
    elif (warmup := _schedule(cfg.get("warmup", {}), f"{path}.warmup")).epoch_lengths[-1] < n:
        raise ConfigError(
            f"{path}.warmup.epoch_lengths: the production (last) epoch has "
            f"{warmup.epoch_lengths[-1]} steps, fewer than the {n} points asked for"
        )
    return {"distribution": dist, "r": r, "mechanism": mechanism, "grid": grid, "warmup": warmup}


def parse_post(cfg, path):
    """Checked post-processor block: kind, and m, a thinning's size (else None)."""
    kind = _choice(config_object(cfg, path, ("kind", "m")), "kind", ("none", "optimal", "thin"), path)
    if kind != "thin" and "m" in cfg:
        raise ConfigError(f"{path}.m: the {kind} post does not read this key")
    m = _require(cfg, "m", path) if kind == "thin" else None
    if m is not None and not (_is_count(m) or (isinstance(m, float) and 0.0 < m < 1.0)):
        raise ConfigError(f"{path}.m: must be an integer >= 1 or a float in (0, 1), got {m!r}")
    return {"kind": kind, "m": m}


def _parse_wasserstein(cfg, dim, path="config.wasserstein"):
    """Checked wasserstein block: reference_n and its sample's grid; None when W1 is off."""
    if cfg is None:
        return None
    config_object(cfg, path, ("reference_n", "grid"))
    n_ref = _count(_require(cfg, "reference_n", path), f"{path}.reference_n", 0)
    grid = _parse_grid(cfg.get("grid", {}), dim, f"{path}.grid", path)
    return {"reference_n": n_ref, "grid": grid} if n_ref else None


@dataclass(frozen=True)
class MethodSpec:
    """One pipeline: checked kernel, sampler and post blocks (post None: it only draws)."""

    name: str
    kernel: dict
    sampler: dict
    post: dict | None


@dataclass(frozen=True)
class ExperimentSpec:
    """Checked experiment description; ``target`` stays the raw block that build_target reads."""

    target: dict
    methods: tuple
    ns: tuple
    replicates: int
    seed: int
    mode_init: tuple
    wasserstein: dict | None
    out_dir: str | None


def parse_experiment_spec(cfg):
    """Validate a raw config dict; errors carry the offending key path."""
    keys = ("target", "methods", "ns", "replicates", "seed", "mode_init", "wasserstein", "out_dir")
    target = _require(config_object(cfg, "config", keys), "target", "config")
    dim = build_target(target).dim  # fail fast with a precise path
    seed = parse_seed(cfg)
    # the summary's standard error needs two replicates per cell
    replicates = _count(_require(cfg, "replicates", "config"), "config.replicates", 2)
    ns = _require(cfg, "ns", "config")
    # a repeated n would pool its replicates twice into one summary cell
    if not isinstance(ns, (list, tuple)) or not ns or not all(map(_is_count, ns)) or len(set(ns)) < len(ns):
        raise ConfigError(f"config.ns: must be a nonempty list of distinct positive integers, got {ns!r}")
    raw_methods = _require(cfg, "methods", "config")
    if not isinstance(raw_methods, (list, tuple)) or not raw_methods:
        raise ConfigError("config.methods: must be a nonempty list")
    methods = []
    for i, m in enumerate(raw_methods):
        path = f"config.methods[{i}]"
        name = _require(config_object(m, path, ("name", "kernel", "sampler", "post")), "name", path)
        if not isinstance(name, str) or name in (x.name for x in methods):
            raise ConfigError(f"{path}.name: must be a string naming no other method, got {name!r}")
        methods.append(MethodSpec(
            name=name,
            kernel=parse_kernel(m.get("kernel", {}), f"{path}.kernel"),
            sampler=parse_sampler(_require(m, "sampler", path), dim, max(ns), f"{path}.sampler"),
            post=parse_post(m.get("post", {}), f"{path}.post"),
        ))
    out_dir = cfg.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"config.out_dir: must be a string, got {out_dir!r}")
    return ExperimentSpec(
        target=target,
        methods=tuple(methods),
        ns=tuple(ns),
        replicates=replicates,
        seed=seed,
        mode_init=parse_mode_init(cfg, dim),
        wasserstein=_parse_wasserstein(cfg.get("wasserstein"), dim),
        out_dir=out_dir,
    )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    replicate: int
    n: int
    method: str
    ksd: float
    wasserstein: float | None
    wall_time: float


@dataclass(frozen=True)
class FailureRecord:
    method: str
    replicate: int
    n: int
    message: str


@dataclass
class ExperimentResult:
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def _rng(seed, *key):
    """Generator of the stream of seed spawned at key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _grid_sampler(law, grid, mode):
    """Exact grid sampler of a law on a checked grid; no bounds: 12 sd around the mode."""
    bounds = grid["bounds"]
    if bounds is None:
        sig = np.sqrt(np.diag(mode.sigma))
        bounds = [(float(x - 12.0 * s), float(x + 12.0 * s)) for x, s in zip(mode.x_star, sig)]
    return GridSampler(law, bounds, num=grid["num"])


class MethodRuntime:
    """Shared per-method state of a checked MethodSpec: kernel, sampling law, exact sampler."""

    def __init__(self, method, target, mode):
        self.method = method
        self.kernel = make_kernel(target, mode, **method.kernel)
        if method.sampler["distribution"] == "p":
            self.law = target
        elif method.sampler["distribution"] == "pi":
            self.law = make_pi(target, self.kernel)
        else:
            self.law = make_power_tilt(target, method.sampler["r"])
        self.mode = mode
        exact = method.sampler["mechanism"] == "exact"
        self.sampler = _grid_sampler(self.law, method.sampler["grid"], mode) if exact else None

    def draw(self, seed, method_index, replicates, n):
        """Each replicate's states, drawn as a group of one."""
        states = _draw_group(seed, [(method_index, self)], replicates, n)
        return [states[method_index, r] for r in replicates]


def _draw_group(seed, members, replicates, n):
    """States of each (method index, replicate) of (method index, runtime)
    members: n exact draws from the replicate's own stream (an exact method
    is a group of one), or the production epoch of its MALA chain.  A MALA
    group shares one warm-up schedule and runs as one ensemble on stream
    keys (method index, replicate), over its laws stacked if it has several.
    """
    first = members[0][1]
    if first.sampler is not None:
        ((mi, runtime),) = members
        return {(mi, r): runtime.sampler.sample(n, _rng(seed, mi, r)) for r in replicates}
    laws = [runtime.law for _, runtime in members]
    law = laws[0] if len(laws) == 1 else StackedLaws(laws, len(replicates))
    init = np.concatenate([np.tile(runtime.mode.x_star, (len(replicates), 1)) for _, runtime in members])
    stream = [(mi, r) for mi, _ in members for r in replicates]
    _, out = adaptive_warmup(init, law, first.method.sampler["warmup"], seed=seed, stream=stream)
    return dict(zip(stream, out.states.reshape(len(stream), -1, init.shape[1])))


def certified_weights(gram, start=None):
    """The QPResult of the optimal weights on gram, solved from ``start``, a
    simplex point, or Wolfe's cold start; raises NonConvergence unless its
    duality gap certifies it."""
    qp = optimal_weights(gram, start=start)
    if not qp.converged:
        raise NonConvergence(
            f"optimal weights not certified after {qp.iterations} iterations: "
            f"duality gap {qp.duality_gap!r} at objective {qp.objective!r}"
        )
    return qp


def _reference_sample(spec, target, mode):
    """The W1 reference, drawn once per experiment and kept in lexicographic
    order, so each 1-D W1's stable sort meets it as one presorted run."""
    cfg = spec.wasserstein
    if cfg is None:
        return None
    points = _grid_sampler(target, cfg["grid"], mode).sample(cfg["reference_n"], _rng(spec.seed, 2**31))
    return uniform_sample(points[np.lexsort(points.T[::-1])])


_CELL_ERRORS = (SteinpiError, np.linalg.LinAlgError)


def _sources(spec, members, replicates):
    """Each (method index, replicate)'s states, or the error that stopped its draw.

    A chain's states do not depend on the others drawn with it, so when a
    group's draw fails each method is redrawn alone, and then each
    replicate: the others come out bitwise the same, and only the failing
    ones are lost.
    """
    try:
        return _draw_group(spec.seed, members, replicates, max(spec.ns))
    except _CELL_ERRORS as exc:
        if len(members) == len(replicates) == 1:
            return {(members[0][0], replicates[0]): exc}
    if len(members) > 1:
        retries = [([member], replicates) for member in members]
    else:
        retries = [(members, [r]) for r in replicates]
    return {key: value for retry in retries for key, value in _sources(spec, *retry).items()}


def _run_cell(spec, runtime, method_index, replicate, reference, source):
    """All sample sizes for one (method, replicate); returns (rows, failures).

    ``source`` is the replicate's states, or the error that stopped its
    draw.  Every n is read as a prefix of a window: an exact draw is one
    window for all of ``ns``, and a chain gives one random window per n,
    drawn in ``ns`` order.  A window builds one kernel context and, unless
    thinning, one Gram of its longest prefix within the size guard, whose
    leading block each n reads (a longer n builds its own, and fails on the
    guard); thinning builds only the picks' Gram.  An optimal solve starts
    from the last certified optimum of a shorter prefix of its window,
    padded with zeros.  The first n of a window carries its build.
    """
    method, kernel, kind = runtime.method, runtime.kernel, runtime.method.post["kind"]
    if isinstance(source, Exception):
        return [], [FailureRecord(method.name, replicate, n, f"sampling failed: {source}") for n in spec.ns]
    rows, failures = [], []
    rng = _rng(spec.seed, method_index, replicate)
    exact = method.sampler["mechanism"] == "exact"
    windows = [(source, spec.ns)] if exact else [(random_window(source, n, rng), (n,)) for n in spec.ns]
    for window, ns in windows:
        whole = shared = optimum = None
        for n in ns:
            begin = time.perf_counter()
            try:
                if whole is None:
                    whole = kernel.context(window)
                    fits = [m for m in ns if m <= GRAM_GUARD]
                    shared = kernel.gram(whole[: max(fits)]) if fits and kind != "thin" else None
                points, ctx = window[:n], whole[:n]
                sample = uniform_sample(points)  # refuses non-finite points
                if kind == "thin":
                    m = method.post["m"]
                    idx = greedy_thin(ctx, kernel, max(1, int(round(m * n))) if isinstance(m, float) else m)
                    sample, gram = uniform_sample(points[idx]), kernel.gram(ctx[idx])
                else:
                    gram = shared[:n, :n] if shared is not None and n <= len(shared) else kernel.gram(ctx)
                if kind == "optimal":
                    start = None
                    if optimum is not None and len(optimum) < n:
                        start = np.concatenate((optimum, np.zeros(n - len(optimum))))
                    optimum = certified_weights(gram, start).weights
                    sample = WeightedSample(points=points, weights=optimum)
                value = ksd(sample, gram)
                wass = None if reference is None else wasserstein1(sample, reference)
                rows.append(
                    ResultRow(
                        replicate=replicate,
                        n=n,
                        method=method.name,
                        ksd=value,
                        wasserstein=wass,
                        wall_time=time.perf_counter() - begin,
                    )
                )
            except _CELL_ERRORS as exc:
                failures.append(FailureRecord(method.name, replicate, n, str(exc)))
    return rows, failures


def run_experiment(spec, threads=1):
    """Execute every (method, replicate, n) cell; deterministic given seed.

    Per-cell failures are recorded and the run continues.  Every
    method's replicates are drawn first, through one path: each exact
    method alone, and the MALA methods of one warm-up schedule as one
    ensemble.  The cells then run one after another, in (method index,
    replicate) order.  ``threads`` must be 1; the benchmark harness passes it.
    """
    if threads != 1:
        raise ValueError(f"cells run on one thread; threads must be 1, got {threads!r}")
    target = build_target(spec.target)
    mode = find_mode(target, spec.mode_init)
    runtimes = [None] * len(spec.methods)
    # pi first: its law tabulates a grid at order 1, which serves every other law too
    for mi in sorted(range(len(runtimes)), key=lambda mi: spec.methods[mi].sampler["distribution"] != "pi"):
        runtimes[mi] = MethodRuntime(spec.methods[mi], target, mode)
    reference = _reference_sample(spec, target, mode)
    groups = {}
    for mi, runtime in enumerate(runtimes):
        key = mi if runtime.sampler is not None else runtime.method.sampler["warmup"]
        groups.setdefault(key, []).append((mi, runtime))
    sources = {}
    for members in groups.values():
        sources.update(_sources(spec, members, list(range(spec.replicates))))
    result = ExperimentResult()
    for mi, replicate in sorted(sources):
        rows, failures = _run_cell(spec, runtimes[mi], mi, replicate, reference, sources[mi, replicate])
        result.rows.extend(rows)
        result.failures.extend(failures)
    result.rows.sort(key=lambda r: (r.method, r.n, r.replicate))
    result.failures.sort(key=lambda r: (r.method, r.n, r.replicate))
    return result


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryRow:
    method: str
    n: int
    mean: float
    se: float
    replicates: int


def summarise(rows):
    """Per (method, n) mean and standard error of the discrepancy."""
    cells = {}
    for row in rows:
        cells.setdefault((row.method, row.n), []).append(row.ksd)
    out = []
    for (method, n), values in sorted(cells.items()):
        if len(values) < 2:
            raise InsufficientReplicates(f"cell ({method}, n={n}) has {len(values)} replicate(s)")
        arr = np.asarray(values)
        if np.all(arr == arr[0]):  # keep constant columns exact
            mean, se = float(arr[0]), 0.0
        else:
            mean = float(arr.mean())
            se = float(arr.std(ddof=1) / np.sqrt(len(values)))
        out.append(SummaryRow(method=method, n=n, mean=mean, se=se, replicates=len(values)))
    return out


def significant_improvement(summary, better, worse):
    """Non-overlapping error-bar rule, per sample size.

    True at n when mean(better) + se(better) < mean(worse) - se(worse);
    bars that touch exactly do not count.
    """
    by_key = {(s.method, s.n): s for s in summary}
    ns = sorted({s.n for s in summary if s.method in (better, worse)})
    out = {}
    for n in ns:
        a = by_key.get((better, n))
        b = by_key.get((worse, n))
        if a is None or b is None:
            continue
        out[n] = bool(a.mean + a.se < b.mean - b.se)
    return out


# ----------------------------------------------------------------------
# CSV and SVG emission
# ----------------------------------------------------------------------


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def write_csv(path, header, rows):
    """UTF-8, LF-terminated CSV with shortest-round-trip float literals."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read back a CSV written by write_csv: (header, rows of strings)."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",") if lines else []
    return header, [line.split(",") for line in lines[1:]]


_PALETTE = ("#7e2f8e", "#4dbeee", "#d95319", "#77ac30", "#000000", "#edb120")


def _log_ticks(lo, hi):
    start = int(np.floor(np.log10(lo)))
    stop = int(np.ceil(np.log10(hi)))
    return [10.0**k for k in range(start, stop + 1)]


def emit_plot(summary):
    """Standalone 640 x 480 SVG of mean +/- se curves on log-log axes.

    One polyline per method, one error bar group per point; byte
    deterministic for a given summary.
    """
    if not summary:
        raise EmptySummary("no summary rows to plot")
    width, height, margin = 640, 480, 56
    methods = sorted({s.method for s in summary})
    xs = [float(s.n) for s in summary]
    lows = [max(s.mean - s.se, 1e-300) for s in summary]
    highs = [s.mean + s.se for s in summary]
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(min(lows), min(s.mean for s in summary))
    y_hi = max(max(highs), max(s.mean for s in summary))
    if x_lo == x_hi:
        x_lo, x_hi = x_lo / 2.0, x_hi * 2.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo / 2.0, y_hi * 2.0

    def sx(v):
        t = (np.log10(v) - np.log10(x_lo)) / (np.log10(x_hi) - np.log10(x_lo))
        return margin + t * (width - 2 * margin)

    def sy(v):
        t = (np.log10(v) - np.log10(y_lo)) / (np.log10(y_hi) - np.log10(y_lo))
        return height - margin - t * (height - 2 * margin)

    def f(v):
        return format(v, ".6g")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{f(margin)}" y1="{f(height - margin)}" x2="{f(width - margin)}" '
        f'y2="{f(height - margin)}" stroke="black"/>',
        f'<line x1="{f(margin)}" y1="{f(margin)}" x2="{f(margin)}" '
        f'y2="{f(height - margin)}" stroke="black"/>',
    ]
    for tick in _log_ticks(x_lo, x_hi):
        if x_lo <= tick <= x_hi:
            parts.append(
                f'<text x="{f(sx(tick))}" y="{f(height - margin + 16)}" font-size="10" '
                f'text-anchor="middle">{format(tick, "g")}</text>'
            )
    for tick in _log_ticks(y_lo, y_hi):
        if y_lo <= tick <= y_hi:
            parts.append(
                f'<text x="{f(margin - 6)}" y="{f(sy(tick) + 3)}" font-size="10" '
                f'text-anchor="end">{format(tick, "g")}</text>'
            )
    parts.append(
        f'<text x="{f(width / 2)}" y="{f(height - 12)}" font-size="12" '
        f'text-anchor="middle">n</text>'
    )
    parts.append(
        f'<text x="14" y="{f(height / 2)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {f(height / 2)})">mean KSD</text>'
    )
    for mi, method in enumerate(methods):
        colour = _PALETTE[mi % len(_PALETTE)]
        pts = sorted((s for s in summary if s.method == method), key=lambda s: s.n)
        coords = " ".join(f"{f(sx(s.n))},{f(sy(s.mean))}" for s in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{colour}" stroke-width="1.5"/>'
        )
        for s in pts:
            x = sx(s.n)
            top = sy(max(s.mean + s.se, 1e-300))
            bot = sy(max(s.mean - s.se, 1e-300))
            parts.append(
                f'<g class="errorbar">'
                f'<line x1="{f(x)}" y1="{f(top)}" x2="{f(x)}" y2="{f(bot)}" stroke="{colour}"/>'
                f'<line x1="{f(x - 3)}" y1="{f(top)}" x2="{f(x + 3)}" y2="{f(top)}" stroke="{colour}"/>'
                f'<line x1="{f(x - 3)}" y1="{f(bot)}" x2="{f(x + 3)}" y2="{f(bot)}" stroke="{colour}"/>'
                f"</g>"
            )
            parts.append(f'<circle cx="{f(x)}" cy="{f(sy(s.mean))}" r="2.5" fill="{colour}"/>')
        parts.append(
            f'<text x="{f(width - margin + 4)}" y="{f(margin + 14 * mi)}" font-size="11" '
            f'fill="{colour}">{method}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_experiment_outputs(result, out_dir):
    """Write results.csv, timings.csv, failures.csv, summary.csv, plot.svg.

    Everything except timings.csv (and failure messages) is byte
    deterministic for a fixed config and seed.  failures.csv is written
    before the summary, so it is kept when no summary can be made
    (InsufficientReplicates, EmptySummary); plot.svg is then not written.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    has_wass = any(r.wasserstein is not None for r in result.rows)
    header = ["replicate", "n", "method", "ksd"] + (["wasserstein"] if has_wass else [])
    rows = [
        (r.replicate, r.n, r.method, r.ksd) + ((r.wasserstein,) if has_wass else ())
        for r in result.rows
    ]
    write_csv(os.path.join(out_dir, "results.csv"), header, rows)
    write_csv(
        os.path.join(out_dir, "timings.csv"),
        ["replicate", "n", "method", "wall_time"],
        [(r.replicate, r.n, r.method, r.wall_time) for r in result.rows],
    )
    if result.failures:
        write_csv(
            os.path.join(out_dir, "failures.csv"),
            ["method", "replicate", "n", "message"],
            [(x.method, x.replicate, x.n, x.message.replace(",", ";")) for x in result.failures],
        )
    summary = summarise(result.rows)
    write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["method", "n", "mean_ksd", "se_ksd", "replicates"],
        [(s.method, s.n, s.mean, s.se, s.replicates) for s in summary],
    )
    svg = emit_plot(summary)
    with open(os.path.join(out_dir, "plot.svg"), "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    return summary
