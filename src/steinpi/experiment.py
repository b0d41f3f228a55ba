"""Declarative experiment pipelines: sample, post-process, evaluate, emit.

An experiment is described by a JSON-friendly dict: one target, a list of
methods (kernel + sampling distribution + mechanism + post-processor), a
grid of sample sizes, a replicate count and a seed.  Execution is
deterministic given the seed; replicates run on independent RNG streams so
the emitted tables are byte-identical regardless of thread count.  The
MALA chains of a method's replicates run as one lockstep ensemble, and a
chain does not depend on the ensemble it runs in.  Wall
times are recorded but written to a separate file, outside the
determinism contract.
"""

from __future__ import annotations

import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EmptySummary,
    InsufficientReplicates,
    NonConvergence,
    SteinpiError,
)
from .grid import GridSampler
from .kernels import make_kernel
from .mala import AdaptSchedule, adaptive_warmup, random_window
from .metrics import wasserstein1_1d, wasserstein1_exact
from .pi_targets import make_pi, make_power_tilt
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
    "build_kernel",
    "post_process",
    "run_experiment",
    "summarise",
    "significant_improvement",
    "emit_plot",
    "write_csv",
    "read_csv",
    "write_experiment_outputs",
]


# ----------------------------------------------------------------------
# configuration parsing
# ----------------------------------------------------------------------


def _require(cfg, key, path):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return cfg[key]


def build_target(cfg, path="target"):
    """Construct a built-in target from a name plus parameter block."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object, got {type(cfg).__name__}")
    name = _require(cfg, "name", path)
    if name == "gaussian":
        if "mean" in cfg:
            mean = np.asarray(cfg["mean"], dtype=np.float64)
        elif "dim" in cfg:
            mean = np.zeros(int(cfg["dim"]))
        else:
            raise ConfigError(f"{path}: gaussian needs 'mean' or 'dim'")
        cov = np.asarray(cfg["cov"], dtype=np.float64) if "cov" in cfg else None
        return make_gaussian(mean, cov)
    if name == "mixture":
        if not any(k in cfg for k in ("weights", "means", "scales")):
            return default_mixture()
        return make_gaussian_mixture(
            _require(cfg, "weights", path), _require(cfg, "means", path), _require(cfg, "scales", path)
        )
    if name == "regression":
        if "t" in cfg or "y" in cfg:
            return make_regression_posterior(_require(cfg, "t", path), _require(cfg, "y", path))
        return make_regression_posterior()
    if name == "skew_normal":
        return make_skew_normal_2d()
    if name == "garch":
        if "y" in cfg:
            return make_garch_posterior(np.asarray(cfg["y"], dtype=np.float64))
        phi = cfg.get("phi", (0.2, 0.5, 0.3, 0.4))
        length = int(cfg.get("length", 50))
        sim_seed = int(cfg.get("sim_seed", 0))
        return make_garch_posterior(simulate_garch_series(phi, length, seed=sim_seed))
    raise ConfigError(f"{path}.name: unknown target {name!r}")


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value, low=1):
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _kernel_params(cfg, path):
    """(family, s, beta) of a kernel block; ConfigError naming the offending key."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object")
    family = cfg.get("family", "langevin")
    if family not in _FAMILIES:
        raise ConfigError(f"{path}.family: unknown family {family!r}")
    s = cfg.get("s", 3)
    if not _is_count(s):
        raise ConfigError(f"{path}.s: must be an integer >= 1, got {s!r}")
    beta = cfg.get("beta", 0.5)
    if not _is_number(beta) or not 0.0 < beta < 1.0:
        raise ConfigError(f"{path}.beta: must be a number in (0, 1), got {beta!r}")
    return family, s, float(beta)


def _are_numbers(value, count):
    return isinstance(value, (list, tuple)) and len(value) == count and all(map(_is_number, value))


def mode_init(value, target):
    """Start of the mode search: ``value``, a list of target.dim numbers, or the origin."""
    if value is not None and not _are_numbers(value, target.dim):
        raise ConfigError(f"config.mode_init: must be {target.dim} numbers, got {value!r}")
    return np.zeros(target.dim) if value is None else np.asarray(value, dtype=np.float64)


def _check_grid(grid, dim, path):
    """ConfigError unless a grid block has an integer num >= 2 and, when it
    gives bounds, dim pairs [lo, hi] of numbers with lo < hi."""
    if not isinstance(grid, dict):
        raise ConfigError(f"{path}: expected an object")
    if "num" in grid and not _is_count(grid["num"], 2):
        raise ConfigError(f"{path}.num: must be an integer >= 2, got {grid['num']!r}")
    bounds = grid.get("bounds")
    if bounds and not (
        isinstance(bounds, (list, tuple)) and len(bounds) == dim
        and all(_are_numbers(b, 2) and b[0] < b[1] for b in bounds)
    ):
        raise ConfigError(f"{path}.bounds: must be {dim} pairs [lo, hi] with lo < hi, got {bounds!r}")


def build_kernel(cfg, target, mode):
    """Construct the Stein kernel of a kernel block (family, s, beta)."""
    family, s, beta = _kernel_params(cfg, "config.kernel")
    return make_kernel(target, mode, family=family, s=s, beta=beta)


@dataclass(frozen=True)
class MethodSpec:
    """One pipeline: kernel, sampling distribution/mechanism, post-processor."""

    name: str
    kernel: dict
    sampler: dict
    post: dict


@dataclass(frozen=True)
class ExperimentSpec:
    """Parsed, validated experiment description."""

    target: dict
    methods: tuple
    ns: tuple
    replicates: int
    seed: int
    mode_init: tuple | None = None
    wasserstein: dict | None = None
    out_dir: str | None = None


_WARMUP_KEYS = {"epsilon0": float, "epoch_lengths": tuple, "learning_rates": tuple, "target_accept": float}


def _schedule(sampler, path):
    """The MALA warm-up schedule of a sampler block; ConfigError when invalid."""
    warm = sampler.get("warmup", {})
    if not isinstance(warm, dict):
        raise ConfigError(f"{path}.sampler.warmup: expected an object")
    for key in warm:
        if key not in _WARMUP_KEYS:
            raise ConfigError(f"{path}.sampler.warmup.{key}: unknown key")
    try:
        return AdaptSchedule(**{key: _WARMUP_KEYS[key](value) for key, value in warm.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.sampler.warmup: {exc}") from None


_DISTRIBUTIONS = ("p", "pi", "power_tilt")
_MECHANISMS = ("exact", "mala")
_POST_KINDS = ("none", "optimal", "thin")
_FAMILIES = ("langevin", "kgm")


def check_sampler(sampler, dim, n, path="config"):
    """ConfigError naming the key under ``path``.sampler unless the sampler
    block can draw n points of a dim-dimensional target."""
    dist = sampler.get("distribution", "p")
    if dist not in _DISTRIBUTIONS:
        raise ConfigError(f"{path}.sampler.distribution: unknown distribution {dist!r}")
    if dist == "power_tilt":
        r = sampler.get("r", 1.0)
        if not _is_number(r) or not r > 0:
            raise ConfigError(f"{path}.sampler.r: must be a number > 0, got {r!r}")
    mechanism = sampler.get("mechanism", "exact")
    if mechanism not in _MECHANISMS:
        raise ConfigError(f"{path}.sampler.mechanism: unknown mechanism {mechanism!r}")
    if mechanism == "exact":
        _check_grid(sampler.get("grid", {}), dim, f"{path}.sampler.grid")
    elif (last := _schedule(sampler, path).epoch_lengths[-1]) < n:
        raise ConfigError(
            f"{path}.sampler.warmup.epoch_lengths: the production (last) epoch "
            f"has {last} steps, fewer than the {n} points asked for"
        )


def _check_wasserstein(block, dim):
    """ConfigError naming the key unless a wasserstein block is an object
    with an integer reference_n >= 0 and, when it has one, a valid grid."""
    path = "config.wasserstein"
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    n_ref = _require(block, "reference_n", path)
    if not _is_count(n_ref, 0):
        raise ConfigError(f"{path}.reference_n: must be an integer >= 0, got {n_ref!r}")
    _check_grid(block.get("grid", {}), dim, f"{path}.grid")


def parse_experiment_spec(cfg):
    """Validate a raw config dict; errors carry the offending key path."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    target = _require(cfg, "target", "config")
    model = build_target(target)  # fail fast with a precise path
    seed = _require(cfg, "seed", "config")
    if not isinstance(seed, int):
        raise ConfigError("config.seed: must be an integer (wall-clock seeding is not allowed)")
    replicates = _require(cfg, "replicates", "config")
    if not _is_count(replicates, 2):
        # the summary's standard error needs two replicates per cell
        raise ConfigError("config.replicates: must be an integer >= 2")
    ns = _require(cfg, "ns", "config")
    if not isinstance(ns, (list, tuple)) or not ns or not all(map(_is_count, ns)):
        raise ConfigError("config.ns: must be a nonempty list of positive integers")
    raw_methods = _require(cfg, "methods", "config")
    if not raw_methods:
        raise ConfigError("config.methods: must be a nonempty list")
    methods = []
    seen = set()
    for i, m in enumerate(raw_methods):
        path = f"config.methods[{i}]"
        name = _require(m, "name", path)
        if name in seen:
            raise ConfigError(f"{path}.name: duplicate method name {name!r}")
        seen.add(name)
        kernel = m.get("kernel", {"family": "langevin"})
        _kernel_params(kernel, f"{path}.kernel")
        kernel = dict(kernel)
        sampler = dict(_require(m, "sampler", path))
        check_sampler(sampler, model.dim, max(ns), path)
        post = dict(m.get("post", {"kind": "none"}))
        kind = post.get("kind", "none")
        if kind not in _POST_KINDS:
            raise ConfigError(f"{path}.post.kind: unknown post-processor {kind!r}")
        if kind == "thin":
            m_thin = _require(post, "m", f"{path}.post")
            if not (_is_count(m_thin) or (isinstance(m_thin, float) and 0.0 < m_thin < 1.0)):
                raise ConfigError(f"{path}.post.m: must be an integer >= 1 or a float in (0, 1)")
        methods.append(MethodSpec(name=name, kernel=kernel, sampler=sampler, post=post))
    init = cfg.get("mode_init")
    mode_init(init, model)
    wasserstein = cfg.get("wasserstein")
    if wasserstein is not None:
        _check_wasserstein(wasserstein, model.dim)
    return ExperimentSpec(
        target=target,
        methods=tuple(methods),
        ns=tuple(ns),
        replicates=replicates,
        seed=seed,
        mode_init=tuple(init) if init is not None else None,
        wasserstein=wasserstein,
        out_dir=cfg.get("out_dir"),
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


def _grid_sampler(law, grid_cfg, mode):
    """Exact grid sampler of a law; bounds default to 12 sd around the mode."""
    bounds = grid_cfg.get("bounds")
    if not bounds:
        sig = np.sqrt(np.diag(mode.sigma))
        bounds = [(float(x - 12.0 * s), float(x + 12.0 * s)) for x, s in zip(mode.x_star, sig)]
    num = grid_cfg.get("num", 2001 if len(bounds) > 1 else 20001)
    return GridSampler(law, bounds, num=num)


class MethodRuntime:
    """Shared per-method state: kernel, sampling law, exact sampler."""

    def __init__(self, method, target, mode):
        self.method = method
        self.kernel = build_kernel(method.kernel, target, mode)
        dist = method.sampler.get("distribution", "p")
        if dist == "p":
            self.law = target
        elif dist == "pi":
            self.law = make_pi(target, self.kernel)
        else:
            self.law = make_power_tilt(target, float(method.sampler.get("r", 1.0)))
        self.mechanism = method.sampler.get("mechanism", "exact")
        self.mode = mode
        if self.mechanism == "exact":
            self.sampler = _grid_sampler(self.law, method.sampler.get("grid", {}), mode)
        else:
            self.schedule = _schedule(method.sampler, "config")

    def chains(self, seed, method_index, replicates):
        """Production states (R, n, d) of one MALA chain per replicate, run as one ensemble."""
        init = np.tile(self.mode.x_star, (len(replicates), 1))
        stream = [(method_index, r) for r in replicates]
        _, out = adaptive_warmup(init, self.law, self.schedule, seed=seed, stream=stream)
        return out.states.reshape(init.shape[0], -1, init.shape[1])


def post_process(points, kernel, post):
    """Post-processed sample, and the n x n Gram its KSD reuses.

    Thinning returns before any n x n Gram is built, with None in its
    place: its KSD needs only the Gram of the picks.  Raises
    NonConvergence when the optimal weights are not certified.
    """
    kind = post.get("kind", "none")
    if kind == "thin":
        m = post["m"]
        m = max(1, int(round(m * len(points)))) if isinstance(m, float) else m
        return greedy_thin(points, kernel, m), None
    gram = kernel.gram(points)
    if kind == "none":
        return uniform_sample(points), gram
    qp = optimal_weights(points, kernel, gram=gram)
    if not qp.converged:
        raise NonConvergence(
            f"optimal weights not certified after {qp.iterations} iterations: "
            f"duality gap {qp.duality_gap!r} at objective {qp.objective!r}"
        )
    return WeightedSample(points=points, weights=qp.weights), gram


def _reference_sample(spec, target, mode):
    cfg = spec.wasserstein
    if cfg is None or cfg["reference_n"] == 0:
        return None
    sampler = _grid_sampler(target, cfg.get("grid", {}), mode)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(2**31,)))
    return uniform_sample(sampler.sample(cfg["reference_n"], rng))


_CELL_ERRORS = (SteinpiError, np.linalg.LinAlgError)


def _mala_sources(spec, runtime, method_index, replicates):
    """Each replicate's MALA production states, or the error that stopped its chain.

    The replicates' chains run as one ensemble.  A chain does not depend
    on the ensemble it runs in, so when the ensemble fails each replicate
    is rerun alone: the others come out bitwise the same, and only the
    failing ones are lost.
    """
    try:
        return dict(zip(replicates, runtime.chains(spec.seed, method_index, replicates)))
    except _CELL_ERRORS as exc:
        if len(replicates) == 1:
            return {replicates[0]: exc}
    return {r: _mala_sources(spec, runtime, method_index, [r])[r] for r in replicates}


def _run_cell(spec, runtime, method_index, replicate, reference, source=None):
    """All sample sizes for one (method, replicate); returns (rows, failures).

    ``source`` is the replicate's MALA states, or the error that stopped
    its chain; exact-grid methods (``source=None``) draw here.
    """
    rows = []
    failures = []
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(method_index, replicate)))
    method = runtime.method
    if source is None:
        source = runtime.sampler.sample(max(spec.ns), rng)
    elif isinstance(source, Exception):
        for n in spec.ns:
            failures.append(FailureRecord(method.name, replicate, n, f"sampling failed: {source}"))
        return rows, failures
    for n in spec.ns:
        start = time.perf_counter()
        try:
            if runtime.mechanism == "exact":
                points = source[:n]
            else:
                points = random_window(source, n, rng)
            sample, gram = post_process(points, runtime.kernel, method.post)
            value = ksd(sample, runtime.kernel, gram=gram)
            wass = None
            if reference is not None:
                if sample.dim == 1:
                    wass = wasserstein1_1d(sample, reference)
                else:
                    wass = wasserstein1_exact(sample, reference).cost
            rows.append(
                ResultRow(
                    replicate=replicate,
                    n=n,
                    method=method.name,
                    ksd=value,
                    wasserstein=wass,
                    wall_time=time.perf_counter() - start,
                )
            )
        except _CELL_ERRORS as exc:
            failures.append(FailureRecord(method.name, replicate, n, str(exc)))
    return rows, failures


def run_experiment(spec, threads=1):
    """Execute every (method, replicate, n) cell; deterministic given seed.

    Per-cell failures are recorded and the run continues.  Each MALA
    method first runs all its replicates' chains as one ensemble; the
    cells then run in a thread pool, and rows are sorted by key before
    returning, so the output is independent of scheduling.
    """
    target = build_target(spec.target)
    mode = find_mode(target, mode_init(spec.mode_init, target))
    runtimes = [MethodRuntime(m, target, mode) for m in spec.methods]
    reference = _reference_sample(spec, target, mode)
    replicates = list(range(spec.replicates))
    sources = {
        (mi, r): source
        for mi, runtime in enumerate(runtimes)
        if runtime.mechanism == "mala"
        for r, source in _mala_sources(spec, runtime, mi, replicates).items()
    }
    tasks = [(mi, replicate) for mi in range(len(runtimes)) for replicate in replicates]

    def cell(task):
        mi, replicate = task
        return _run_cell(spec, runtimes[mi], mi, replicate, reference, sources.get(task))

    result = ExperimentResult()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(cell, tasks))
    else:
        outcomes = [cell(task) for task in tasks]
    for rows, failures in outcomes:
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
    """Write results.csv, summary.csv, plot.svg, timings.csv, failures.csv.

    Everything except timings.csv (and failure messages) is byte
    deterministic for a fixed config and seed.
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
    summary = summarise(result.rows)
    write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["method", "n", "mean_ksd", "se_ksd", "replicates"],
        [(s.method, s.n, s.mean, s.se, s.replicates) for s in summary],
    )
    with open(os.path.join(out_dir, "plot.svg"), "w", encoding="utf-8", newline="") as fh:
        fh.write(emit_plot(summary))
    if result.failures:
        write_csv(
            os.path.join(out_dir, "failures.csv"),
            ["method", "replicate", "n", "message"],
            [(x.method, x.replicate, x.n, x.message.replace(",", ";")) for x in result.failures],
        )
    return summary
