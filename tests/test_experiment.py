"""Experiment harness: config validation paths, deterministic tables,
row-count accounting, summaries with the error-bar rule, and byte-stable
CSV/SVG emission."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import steinpi.experiment as experiment
from steinpi.errors import ConfigError, EmptySummary, InsufficientReplicates
from steinpi.experiment import (
    MethodRuntime,
    MethodSpec,
    ResultRow,
    SummaryRow,
    build_target,
    emit_plot,
    parse_experiment_spec,
    parse_kernel,
    parse_post,
    parse_sampler,
    read_csv,
    run_experiment,
    significant_improvement,
    summarise,
    write_csv,
    write_experiment_outputs,
)
from steinpi.kernels import GRAM_GUARD, SteinKernel
from steinpi.mala import adaptive_warmup
from steinpi.quantise import greedy_thin, ksd
from steinpi.targets import TargetModel, find_mode, make_gaussian, make_skew_normal_2d


def _base_config(**overrides):
    cfg = {
        "target": {"name": "mixture"},
        "seed": 11,
        "replicates": 3,
        "ns": [10, 20],
        "mode_init": [0.1],
        "methods": [
            {
                "name": "p-lang",
                "kernel": {"family": "langevin"},
                "sampler": {
                    "distribution": "p",
                    "mechanism": "exact",
                    "grid": {"bounds": [[-12, 12]], "num": 4001},
                },
                "post": {"kind": "optimal"},
            },
            {
                "name": "pi-lang",
                "kernel": {"family": "langevin"},
                "sampler": {
                    "distribution": "pi",
                    "mechanism": "exact",
                    "grid": {"bounds": [[-12, 12]], "num": 4001},
                },
                "post": {"kind": "optimal"},
            },
        ],
    }
    cfg.update(overrides)
    return cfg


def _mala_method(epoch_lengths=(100, 100, 200)):
    return {
        "name": "pi-mala",
        "kernel": {"family": "langevin"},
        "sampler": {
            "distribution": "pi",
            "mechanism": "mala",
            "warmup": {"epoch_lengths": list(epoch_lengths), "epsilon0": 0.5},
        },
        "post": {"kind": "optimal"},
    }


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------


def test_parse_requires_seed():
    cfg = _base_config()
    del cfg["seed"]
    with pytest.raises(ConfigError, match="config.seed"):
        parse_experiment_spec(cfg)


def test_parse_rejects_unknown_kernel_family():
    cfg = _base_config()
    cfg["methods"][0]["kernel"]["family"] = "rbf"
    with pytest.raises(ConfigError, match=r"methods\[0\].kernel.family"):
        parse_experiment_spec(cfg)


def test_parse_rejects_unknown_target():
    with pytest.raises(ConfigError, match="target.name"):
        parse_experiment_spec(_base_config(target={"name": "banana"}))


def test_grid_guard_admits_the_default_2d_grid():
    cfg = _base_config(target={"name": "skew_normal"}, mode_init=[0, 0], methods=[{"name": "p", "sampler": {}}])
    assert parse_experiment_spec(cfg).methods[0].sampler["grid"]["num"] == 2001


@pytest.mark.parametrize("key, value", [("beta", 2), ("s", 0), ("s", "x")])
def test_parse_rejects_bad_kernel_parameters(key, value):
    cfg = _base_config()
    cfg["methods"][0]["kernel"][key] = value
    with pytest.raises(ConfigError, match=rf"config\.methods\[0\]\.kernel\.{key}"):
        parse_experiment_spec(cfg)


def test_parse_rejects_duplicate_method_names():
    cfg = _base_config()
    cfg["methods"][1]["name"] = "p-lang"
    with pytest.raises(ConfigError, match=r"methods\[1\].name"):
        parse_experiment_spec(cfg)


def test_parse_rejects_thin_without_size():
    cfg = _base_config()
    cfg["methods"][0]["post"] = {"kind": "thin"}
    with pytest.raises(ConfigError, match=r"methods\[0\].post.m"):
        parse_experiment_spec(cfg)


@pytest.mark.parametrize("m", [0, -3, 1.5, "ten", True])
def test_parse_rejects_bad_thin_size(m):
    cfg = _base_config()
    cfg["methods"][1]["post"] = {"kind": "thin", "m": m}
    with pytest.raises(ConfigError, match=r"methods\[1\].post.m"):
        parse_experiment_spec(cfg)


def test_parse_rejects_bad_ns():
    for ns in ([10, 0], 3):
        with pytest.raises(ConfigError, match="config.ns"):
            parse_experiment_spec(_base_config(ns=ns))


@pytest.mark.parametrize("replicates", [1, 0, 2.0, "3"])
def test_parse_rejects_bad_replicates(replicates):
    with pytest.raises(ConfigError, match="config.replicates"):
        parse_experiment_spec(_base_config(replicates=replicates))


def test_parse_rejects_production_epoch_shorter_than_max_n():
    # a window of max(ns) states must fit in every MALA production epoch
    cfg = _base_config(ns=[10, 500])
    cfg["methods"].append(_mala_method(epoch_lengths=(50, 100)))
    with pytest.raises(ConfigError, match=r"methods\[2\].sampler.warmup.epoch_lengths"):
        parse_experiment_spec(cfg)
    cfg["methods"][2] = _mala_method(epoch_lengths=(50, 500))
    parse_experiment_spec(cfg)


@pytest.mark.parametrize(
    "warmup, key",
    [
        ({"m0": [[1.0]]}, r"warmup\.m0: unknown key"),
        ({"epsilon0": -1.0}, "warmup: epsilon0"),
        ({"epoch_lengths": [100.0, 200.0]}, "warmup: epoch lengths"),
        ([100], "warmup"),
    ],
)
def test_parse_rejects_bad_warmup(warmup, key):
    # only epsilon0, epoch_lengths, learning_rates and target_accept are read
    method = _mala_method()
    method["sampler"]["warmup"] = warmup
    with pytest.raises(ConfigError, match=r"methods\[0\].sampler." + key):
        parse_experiment_spec(_base_config(methods=[method]))


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_bundled_configs_parse(path):
    spec = parse_experiment_spec(json.loads(path.read_text(encoding="utf-8")))
    assert spec.methods


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


def test_row_count_contract_and_determinism():
    spec = parse_experiment_spec(_base_config())
    first = run_experiment(spec)
    second = run_experiment(spec)
    assert len(first.rows) == 3 * 2 * 2  # replicates x |ns| x |methods|
    assert not first.failures
    strip = lambda rows: [(r.replicate, r.n, r.method, r.ksd, r.wasserstein) for r in rows]
    assert strip(first.rows) == strip(second.rows)


def test_cells_run_on_one_thread_only():
    with pytest.raises(ValueError, match="threads must be 1"):
        run_experiment(parse_experiment_spec(_base_config()), threads=2)


def test_mala_mechanism_runs_and_is_deterministic():
    cfg = _base_config(replicates=2, ns=[15])
    cfg["methods"] = [_mala_method()]
    spec = parse_experiment_spec(cfg)
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert len(a.rows) == 2
    assert [r.ksd for r in a.rows] == [r.ksd for r in b.rows]


def test_failed_chain_loses_only_its_replicate(monkeypatch):
    # the ensemble fails as a whole; the rerun alone recovers the other
    # replicates bitwise, because a chain does not depend on its ensemble
    spec = parse_experiment_spec(_base_config(replicates=3, ns=[15], methods=[_mala_method()]))
    clean = run_experiment(spec)
    warmup = experiment.adaptive_warmup

    def fails_for_replicate_1(init, target, schedule, *, seed, stream):
        if (0, 1) in stream:
            raise np.linalg.LinAlgError("singular preconditioner")
        return warmup(init, target, schedule, seed=seed, stream=stream)

    monkeypatch.setattr(experiment, "adaptive_warmup", fails_for_replicate_1)
    result = run_experiment(spec)
    assert [(f.replicate, f.n) for f in result.failures] == [(1, 15)]
    assert "sampling failed: singular preconditioner" in result.failures[0].message
    assert [(r.replicate, r.ksd) for r in result.rows] == [
        (r.replicate, r.ksd) for r in clean.rows if r.replicate != 1
    ]


def test_failed_exact_draw_loses_only_its_replicate(monkeypatch):
    # the runner's rerun-alone isolation covers exact draws too: each
    # replicate's grid draw has its own stream, so a redraw alone is bitwise
    spec = parse_experiment_spec(_base_config(replicates=3, ns=[15]))
    clean = run_experiment(spec)
    draw = experiment._draw_group

    def fails_for_replicate_1(seed, members, replicates, n):
        if 1 in replicates:
            raise np.linalg.LinAlgError("grid draw failed")
        return draw(seed, members, replicates, n)

    monkeypatch.setattr(experiment, "_draw_group", fails_for_replicate_1)
    result = run_experiment(spec)
    assert [(f.method, f.replicate) for f in result.failures] == [("p-lang", 1), ("pi-lang", 1)]
    assert all(f.message == "sampling failed: grid draw failed" for f in result.failures)
    assert [(r.method, r.replicate, r.ksd) for r in result.rows] == [
        (r.method, r.replicate, r.ksd) for r in clean.rows if r.replicate != 1
    ]


def test_failed_chain_in_a_group_loses_only_its_method_and_replicate(monkeypatch):
    # the group fails as a whole, then each method alone, then each of the
    # failing method's replicates alone; everything else is the clean run's
    p_mala = dict(_mala_method(), name="p-mala")
    p_mala["sampler"] = dict(p_mala["sampler"], distribution="p")
    spec = parse_experiment_spec(_base_config(replicates=3, ns=[15], methods=[_mala_method(), p_mala]))
    clean = run_experiment(spec)
    warmup = experiment.adaptive_warmup
    streams = []

    def fails_for_method_1_replicate_1(init, target, schedule, *, seed, stream):
        streams.append(list(stream))
        if (1, 1) in stream:
            raise np.linalg.LinAlgError("singular preconditioner")
        return warmup(init, target, schedule, seed=seed, stream=stream)

    monkeypatch.setattr(experiment, "adaptive_warmup", fails_for_method_1_replicate_1)
    result = run_experiment(spec)
    both = [(mi, r) for mi in (0, 1) for r in range(3)]
    assert streams == [both, both[:3], both[3:], [(1, 0)], [(1, 1)], [(1, 2)]]
    assert [(f.method, f.replicate, f.n) for f in result.failures] == [("p-mala", 1, 15)]
    assert "sampling failed: singular preconditioner" in result.failures[0].message
    assert [(r.method, r.replicate, r.ksd) for r in result.rows] == [
        (r.method, r.replicate, r.ksd) for r in clean.rows if (r.method, r.replicate) != ("p-mala", 1)
    ]


_STACK_METHODS = [
    ("p", "p", {"family": "langevin"}),
    ("pi-langevin", "pi", {"family": "langevin"}),
    ("pi-kgm3", "pi", {"family": "kgm", "s": 3}),
    ("tilt", "power_tilt", {"family": "langevin"}),
]


@pytest.mark.parametrize("target_cfg", [{"name": "regression"}, {"name": "garch"}], ids=["regression", "garch"])
def test_stacked_draw_equals_each_method_drawn_alone(target_cfg, monkeypatch):
    # p, pi under both kernels and a power tilt as one ensemble over one
    # base: every chain is bitwise its method's own ensemble's and its lone
    # chain's, and the base is evaluated once per step for all of them
    target = build_target(target_cfg)
    mode = find_mode(target, np.zeros(target.dim), max_iter=400)
    warmup = {"epsilon0": 0.5, "epoch_lengths": [20, 20, 30]}
    members = [
        (mi, MethodRuntime(MethodSpec(name, parse_kernel(kernel, "kernel"), parse_sampler(
            {"distribution": dist, "mechanism": "mala", "warmup": warmup}, target.dim, 30, "sampler"), None), target, mode))
        for mi, (name, dist, kernel) in enumerate(_STACK_METHODS)
    ]
    replicates = [0, 2]
    evaluate, batches = target._evaluate, []
    monkeypatch.setattr(target, "_evaluate", lambda x, order: batches.append(len(x)) or evaluate(x, order))
    stacked = experiment._draw_group(5, members, replicates, 30)
    assert batches == [len(members) * len(replicates)] * (20 + 20 + 30 + 3)  # one per step and per epoch start
    schedule = members[0][1].method.sampler["warmup"]
    for mi, runtime in members:
        init = np.tile(mode.x_star, (len(replicates), 1))
        _, own = adaptive_warmup(init, runtime.law, schedule, seed=5, stream=[(mi, r) for r in replicates])
        for r, states in zip(replicates, own.states.reshape(len(replicates), -1, target.dim)):
            _, lone = adaptive_warmup(mode.x_star[None], runtime.law, schedule, seed=5, stream=[(mi, r)])
            assert np.array_equal(stacked[mi, r], states)
            assert np.array_equal(lone.states, states)


def test_grouped_mala_writes_the_bytes_of_per_method_draws(tmp_path, monkeypatch):
    # a regression-shaped experiment: p and pi MALA drawn as one group, and
    # pi KGM-3 on another schedule alone, write the results.csv and
    # summary.csv of drawing each method by itself
    warmups = [{"epoch_lengths": [100, 100, 200], "epsilon0": 0.5}] * 2 + [{"epoch_lengths": [100, 200]}]
    methods = [
        {"name": name, "kernel": kernel, "post": {"kind": "optimal"},
         "sampler": {"distribution": dist, "mechanism": "mala", "warmup": warmup}}
        for (name, dist, kernel), warmup in zip(_STACK_METHODS, warmups)
    ]
    methods.append({"name": "tilt", "kernel": {"family": "langevin"}, "post": {"kind": "optimal"},
                    "sampler": {"distribution": "power_tilt", "mechanism": "exact", "grid": {"num": 101}}})
    cfg = _base_config(target={"name": "regression"}, mode_init=[0.0, 0.0], replicates=3, ns=[20, 50], methods=methods)
    spec = parse_experiment_spec(cfg)
    warmup_calls = []
    monkeypatch.setattr(experiment, "adaptive_warmup",
                        lambda init, *args, **kw: warmup_calls.append(len(init)) or adaptive_warmup(init, *args, **kw))
    write_experiment_outputs(run_experiment(spec), tmp_path / "grouped")
    assert warmup_calls == [2 * 3, 3]
    draw_group = experiment._draw_group

    def per_method(seed, members, replicates, n):
        states = {}
        for mi, runtime in members:
            if runtime.sampler is not None:
                states.update(draw_group(seed, [(mi, runtime)], replicates, n))
                continue
            init = np.tile(runtime.mode.x_star, (len(replicates), 1))
            stream = [(mi, r) for r in replicates]
            _, out = adaptive_warmup(init, runtime.law, runtime.method.sampler["warmup"], seed=seed, stream=stream)
            states.update(zip(stream, out.states.reshape(len(stream), -1, init.shape[1])))
        return states

    monkeypatch.setattr(experiment, "_draw_group", per_method)
    write_experiment_outputs(run_experiment(spec), tmp_path / "per-method")
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "grouped" / name).read_bytes() == (tmp_path / "per-method" / name).read_bytes()


def test_power_tilt_and_thin_post_processor():
    cfg = _base_config(replicates=2, ns=[12])
    cfg["methods"] = [
        {
            "name": "tilt-thin",
            "kernel": {"family": "kgm", "s": 3},
            "sampler": {
                "distribution": "power_tilt",
                "r": 1,
                "mechanism": "exact",
                "grid": {"bounds": [[-14, 14]], "num": 4001},
            },
            "post": {"kind": "thin", "m": 0.5},
        }
    ]
    result = run_experiment(parse_experiment_spec(cfg))
    assert len(result.rows) == 2
    assert all(np.isfinite(r.ksd) and r.ksd >= 0 for r in result.rows)


def test_thin_cell_builds_no_square_gram_of_its_candidates(monkeypatch):
    shapes = []
    cross = SteinKernel.cross

    def recording(self, x, y):
        out = cross(self, x, y)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(SteinKernel, "cross", recording)
    cfg = _base_config(replicates=2, ns=[40])
    cfg["methods"] = [dict(cfg["methods"][1], post={"kind": "thin", "m": 0.25})]
    result = run_experiment(parse_experiment_spec(cfg))
    assert len(result.rows) == 2
    assert (40, 40) not in shapes
    assert shapes.count((10, 10)) == 2  # the KSD of each cell's 10 picks
    assert set(shapes) == {(40, 1), (10, 10)}


class _SizeCounting(TargetModel):
    """Delegates to a base target and records the batch size of each evaluation."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.sizes = []

    def _evaluate(self, x, order):
        self.sizes.append(len(x))
        return self.base._evaluate(x, order)


def _chain_runtime(target, kernel, post):
    """Runtime of one MALA method of p under a kernel block, post-processed by
    a post block; its cells read random windows of whatever states they get."""
    sampler = parse_sampler({"mechanism": "mala"}, target.dim, 1, "sampler")
    method = MethodSpec("p", parse_kernel(kernel, "kernel"), sampler, parse_post(post, "post"))
    return MethodRuntime(method, target, find_mode(target, np.full(target.dim, 0.1)))


def _scored(monkeypatch):
    """Every (sample, gram) pair a cell hands to ksd, in call order."""
    seen = []
    monkeypatch.setattr(experiment, "ksd", lambda sample, gram: seen.append((sample, gram)) or ksd(sample, gram))
    return seen


@pytest.mark.parametrize("kind", ["none", "optimal", "thin"])
def test_cell_evaluates_its_target_once_per_point_set(kind):
    target = _SizeCounting(make_skew_normal_2d())
    post = {"kind": kind, "m": 100} if kind == "thin" else {"kind": kind}
    runtime = _chain_runtime(target, {"family": "kgm", "s": 3}, post)
    source = np.random.default_rng(5).standard_normal((1500, 2))
    ns = (300, 1000)
    target.sizes.clear()
    rows, failures = _cells(runtime, source, ns)
    assert len(rows) == 2 and not failures
    assert target.sizes == list(ns)  # each window's one context serves the Gram, the picks and the KSD


@pytest.mark.parametrize("family", ["langevin", "kgm"])
@pytest.mark.parametrize("target_name", ["skew_normal", "regression"])
def test_thin_gram_is_bitwise_the_gram_of_its_picks(target_name, family, monkeypatch):
    target = build_target({"name": target_name})
    runtime = _chain_runtime(target, {"family": family, "s": 3}, {"kind": "thin", "m": 100})
    mode, kernel = runtime.mode, runtime.kernel
    points = mode.x_star + 0.5 * np.random.default_rng(9).standard_normal((1000, target.dim))
    ctx = kernel.context(points)
    idx = greedy_thin(ctx, kernel, 100)
    assert {"a1", "u", "q"} <= ctx.__dict__.keys()  # built on all 1000 candidates
    assert len(np.unique(idx)) < len(idx)  # some picks repeat
    fresh = kernel.gram(kernel.context(points[idx]))
    scored = _scored(monkeypatch)
    _cells(runtime, points, [1000])  # a window as long as its chain is the whole chain
    ((sample, gram),) = scored
    assert np.array_equal(sample.points, points[idx])
    assert np.array_equal(gram, fresh)
    # One context object on both sides: numpy computes a @ a.T on one
    # buffer by another BLAS routine than on two equal buffers, so
    # cross(ctx[idx], ctx[idx]) of two slices can move entries at rounding
    # level, while gram(ctx[idx]) reads one slice twice, as a fresh context.
    assert np.array_equal(kernel.gram(ctx[idx]), fresh)


def _one_grid_spec(*distributions):
    """KGM-3 methods sampling each distribution on one small 2-D grid, with a W1 reference on it."""
    grid = {"bounds": [[-6, 6], [-6, 6]], "num": 41}
    methods = [
        {"name": d, "kernel": {"family": "kgm", "s": 3}, "sampler": {"distribution": d, "grid": grid}}
        for d in distributions
    ]
    return parse_experiment_spec({
        "target": {"name": "skew_normal"}, "mode_init": [0, 0], "seed": 3, "replicates": 2, "ns": [10],
        "methods": methods, "wasserstein": {"reference_n": 20, "grid": grid},
    })


@pytest.mark.parametrize(
    "distributions, orders",
    [(("p", "power_tilt", "pi"), [1]), (("pi", "p", "power_tilt"), [1])],
    ids=["p-first", "pi-first"],
)
def test_one_grid_evaluates_its_base_once_per_order(distributions, orders, monkeypatch):
    seen, build = [], experiment.build_target

    def spied_target(cfg):
        target = build(cfg)
        evaluate = target._evaluate

        def spy(x, order):
            if len(x) == 41**2:
                seen.append(order)
            return evaluate(x, order)

        target._evaluate = spy  # an instance attribute, which PiTarget reads as self.base._evaluate
        return target

    monkeypatch.setattr(experiment, "build_target", spied_target)
    spec = _one_grid_spec(*distributions)
    run_experiment(spec)
    assert seen == orders  # every law and the W1 reference read one table
    run_experiment(spec)
    assert seen == orders * 2  # a fresh target tabulates again: no table outlives its target


@pytest.mark.parametrize(
    "target_cfg, grid",
    [
        ({"name": "mixture"}, {"bounds": [[-15, 15]], "num": 3001}),
        ({"name": "skew_normal"}, {"bounds": [[-6, 6], [-6, 6]], "num": 101}),
        ({"name": "regression"}, {"num": 101}),  # no bounds: 12 sd around the mode
    ],
    ids=["mixture", "skew-normal", "regression"],
)
def test_shared_grid_tables_draw_what_fresh_targets_draw(target_cfg, grid):
    dim = build_target(target_cfg).dim
    kernel = parse_kernel({"family": "kgm", "s": 3}, "kernel")
    methods = [
        MethodSpec(d, kernel, parse_sampler({"distribution": d, "grid": grid}, dim, 50, "sampler"), None)
        for d in ("p", "power_tilt", "pi")
    ]

    def runtime(method, target=None):
        target = target or build_target(target_cfg)
        return MethodRuntime(method, target, find_mode(target, np.full(dim, 0.1)))

    shared = build_target(target_cfg)
    for i, method in enumerate(methods):
        fresh = runtime(method).draw(5, i, [0, 1], 50)
        for a, b in zip(runtime(method, shared).draw(5, i, [0, 1], 50), fresh):
            assert np.array_equal(a, b)


def test_only_square_grams_hit_the_size_guard(monkeypatch):
    target = make_gaussian([0.0])
    points = np.linspace(-3.0, 3.0, 20_001)[:, None]
    scored = _scored(monkeypatch)
    thin = _chain_runtime(target, {"family": "langevin"}, {"kind": "thin", "m": 2})
    assert len(_cells(thin, points, [20_001])[0]) == 1
    ((sample, gram),) = scored
    assert sample.n == 2 and gram.shape == (2, 2)  # the picks' Gram; the candidates' is never built
    too_large = f"a 20001 x 20001 Gram exceeds the guard of {GRAM_GUARD}**2 entries"  # GramTooLarge
    for kind in ("none", "optimal"):
        rows, failures = _cells(_chain_runtime(target, {"family": "langevin"}, {"kind": kind}), points, [20_001])
        assert not rows and [f.message for f in failures] == [too_large]


_PREFIX_NS = (10, 30, 100)


def _exact_method(target, kind):
    """Runtime of one exact pi method (KGM-3) of target post-processed by
    kind, and one draw of 100 states from it."""
    grid = {"bounds": [[-15, 15]], "num": 3001} if target.dim == 1 else {"bounds": [[-6, 6]] * 2, "num": 101}
    sampler = parse_sampler({"distribution": "pi", "grid": grid}, target.dim, 100, "sampler")
    post = parse_post({"kind": kind, "m": 0.2} if kind == "thin" else {"kind": kind}, "post")
    method = MethodSpec("pi", parse_kernel({"family": "kgm"}, "kernel"), sampler, post)
    runtime = MethodRuntime(method, target, find_mode(target, np.full(target.dim, 0.1)))
    return runtime, runtime.draw(3, 0, [0], 100)[0]


def _cells(runtime, source, ns):
    """(rows, failures) of one (method, replicate) reading source at each n of ns."""
    spec = dataclasses.replace(parse_experiment_spec(_base_config()), ns=tuple(ns))
    return experiment._run_cell(spec, runtime, 0, 0, None, source)


@pytest.mark.parametrize("kind", ["none", "thin"])
@pytest.mark.parametrize("name", ["mixture", "skew_normal"])
def test_prefix_rows_are_bitwise_those_of_cells_run_alone(name, kind):
    runtime, source = _exact_method(build_target({"name": name}), kind)
    rows, failures = _cells(runtime, source, _PREFIX_NS)
    alone = [_cells(runtime, source[:n], [n])[0][0] for n in _PREFIX_NS]
    assert not failures
    assert [(r.n, r.ksd) for r in rows] == [(r.n, r.ksd) for r in alone]


def test_optimal_prefix_grams_are_bitwise_those_of_cells_run_alone(monkeypatch):
    grams, solve = [], experiment.optimal_weights

    def recording(gram, **kwargs):
        grams.append(np.array(gram))
        return solve(gram, **kwargs)

    monkeypatch.setattr(experiment, "optimal_weights", recording)
    runtime, source = _exact_method(build_target({"name": "mixture"}), "optimal")
    rows, _ = _cells(runtime, source, _PREFIX_NS)
    shared = grams[:]
    grams.clear()
    alone = [_cells(runtime, source[:n], [n])[0][0] for n in _PREFIX_NS]
    assert len(shared) == len(grams) == 3
    assert all(np.array_equal(a, b) for a, b in zip(shared, grams))  # 1-D: leading blocks are the small Grams
    for row, single in zip(rows, alone):  # warm-started solves agree with cold ones to rounding
        assert abs(row.ksd - single.ksd) <= 1e-10 * single.ksd


@pytest.mark.parametrize("kind", ["none", "optimal", "thin"])
def test_exact_draw_evaluates_its_target_once_at_its_length(kind, monkeypatch):
    grams, gram = [], SteinKernel.gram

    def recording(self, ctx):
        grams.append(len(ctx))
        return gram(self, ctx)

    monkeypatch.setattr(SteinKernel, "gram", recording)
    target = _SizeCounting(make_skew_normal_2d())
    runtime, source = _exact_method(target, kind)
    target.sizes.clear()
    rows, failures = _cells(runtime, source, _PREFIX_NS)
    assert len(rows) == 3 and not failures
    assert target.sizes == [100]  # one context of the draw serves every prefix
    assert grams == ([2, 6, 20] if kind == "thin" else [100])  # the picks' Grams, or one for every prefix


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the target is evaluated at the NaN state
def test_non_finite_state_fails_only_the_prefixes_holding_it():
    runtime, source = _exact_method(build_target({"name": "mixture"}), "optimal")
    source = source.copy()
    source[20] = np.nan
    rows, failures = _cells(runtime, source, _PREFIX_NS)
    assert [r.n for r in rows] == [10]
    assert [f.n for f in failures] == [30, 100]
    assert all("finite" in f.message for f in failures)
    assert rows[0].ksd == _cells(runtime, source[:10], [10])[0][0].ksd


def test_uncertified_solve_never_seeds_the_next_start(monkeypatch):
    starts, results, solve = {}, {}, experiment.optimal_weights

    def uncertified_at_30(gram, start=None):
        starts[len(gram)], results[len(gram)] = start, solve(gram, start=start)
        return dataclasses.replace(results[len(gram)], converged=len(gram) != 30)

    monkeypatch.setattr(experiment, "optimal_weights", uncertified_at_30)
    runtime, source = _exact_method(build_target({"name": "mixture"}), "optimal")
    rows, failures = _cells(runtime, source, _PREFIX_NS)
    assert [r.n for r in rows] == [10, 100] and [f.n for f in failures] == [30]
    assert starts[10] is None
    first = results[10].weights
    for n in (30, 100):  # both start from the n = 10 optimum, padded with zeros
        assert np.array_equal(starts[n], np.concatenate((first, np.zeros(n - 10))))


@pytest.mark.parametrize("mechanism", ["exact", "mala"])
def test_only_prefixes_of_one_window_start_warm(mechanism, monkeypatch):
    # the same 100 states: an exact draw's n are prefixes of one window, so
    # each solve after the first starts from the last certified optimum; a
    # chain's n read random windows of their own, so every solve starts cold
    starts, solve = [], experiment.optimal_weights

    def recording(gram, start=None):
        starts.append(start)
        return solve(gram, start=start)

    monkeypatch.setattr(experiment, "optimal_weights", recording)
    target = build_target({"name": "mixture"})
    runtime, source = _exact_method(target, "optimal")
    if mechanism == "mala":
        runtime = _chain_runtime(target, {"family": "kgm"}, {"kind": "optimal"})
    rows, failures = _cells(runtime, source, _PREFIX_NS)
    assert len(rows) == 3 and not failures
    if mechanism == "mala":
        assert starts == [None] * 3
    else:
        assert starts[0] is None
        assert [len(start) for start in starts[1:]] == list(_PREFIX_NS[1:])


def test_failures_are_recorded_not_raised():
    cfg = _base_config(replicates=2, ns=[10, 30_000])  # second n exceeds the Gram guard
    spec = parse_experiment_spec(cfg)
    result = run_experiment(spec)
    expected_total = 2 * 2 * 2
    assert len(result.rows) + len(result.failures) == expected_total
    assert len(result.failures) == 4  # every (method, replicate) at the huge n
    assert all(f.n == 30_000 for f in result.failures)


def test_uncertified_optimal_weights_are_recorded_as_failures(monkeypatch):
    solve = experiment.optimal_weights

    def uncertified_at_20(gram, **kwargs):
        res = solve(gram, **kwargs)
        return dataclasses.replace(res, converged=False) if len(gram) == 20 else res

    monkeypatch.setattr(experiment, "optimal_weights", uncertified_at_20)
    result = run_experiment(parse_experiment_spec(_base_config(replicates=2)))
    assert len(result.failures) == 4  # every (method, replicate) at n = 20
    assert all(f.n == 20 and "not certified" in f.message for f in result.failures)
    assert len(result.rows) == 4 and all(r.n == 10 for r in result.rows)


def test_wasserstein_column_optional():
    cfg = _base_config(replicates=2, ns=[10], wasserstein={"reference_n": 50})
    result = run_experiment(parse_experiment_spec(cfg))
    assert all(r.wasserstein is not None and r.wasserstein >= 0 for r in result.rows)


@pytest.mark.parametrize(
    "target_cfg, grid",
    [
        ({"name": "mixture"}, {"bounds": [[-15, 15]], "num": 301}),
        ({"name": "skew_normal"}, {"bounds": [[-6, 6], [-6, 6]], "num": 41}),
    ],
    ids=["1d", "2d"],
)
def test_reference_sample_is_the_raw_draw_in_lexicographic_order(target_cfg, grid):
    dim = len(grid["bounds"])
    methods = [{"name": "p", "sampler": {"grid": grid}}]
    cfg = _base_config(target=target_cfg, mode_init=[0.1] * dim, methods=methods)
    spec = parse_experiment_spec(dict(cfg, wasserstein={"reference_n": 2000, "grid": grid}))
    target = build_target(target_cfg)
    mode = find_mode(target, np.full(dim, 0.1))
    sampler = experiment._grid_sampler(target, spec.wasserstein["grid"], mode)
    raw = sampler.sample(2000, experiment._rng(spec.seed, 2**31))
    reference = experiment._reference_sample(spec, target, mode)
    assert len(np.unique(raw, axis=0)) < 2000  # ties on the coarse grid
    assert np.array_equal(reference.points, raw[np.lexsort(raw.T[::-1])])
    step = np.diff(reference.points, axis=0)
    rises = step[:, 0] > 0
    for j in range(1, dim):  # each row is lexicographically >= the previous
        rises |= (step[:, :j] == 0).all(axis=1) & (step[:, j] > 0)
    assert np.all(rises | (step == 0).all(axis=1))
    np.testing.assert_array_equal(reference.weights, np.full(2000, 1 / 2000))


def test_mean_ksd_of_optimal_weights_non_increasing_in_n():
    # consistency trend over the sample-size grid, for sampling from the
    # target and from the over-dispersed law
    spec = parse_experiment_spec(_base_config(replicates=100, ns=[10, 30, 100], seed=77))
    summary = summarise(run_experiment(spec).rows)
    for method in ("p-lang", "pi-lang"):
        means = [s.mean for s in sorted(summary, key=lambda s: s.n) if s.method == method]
        assert means[0] >= means[1] >= means[2], (method, means)


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------


def _rows(values, method="m", n=10):
    return [
        ResultRow(replicate=i, n=n, method=method, ksd=v, wasserstein=None, wall_time=0.0)
        for i, v in enumerate(values)
    ]


def test_summarise_constant_column():
    out = summarise(_rows([0.7, 0.7, 0.7]))
    assert out[0].mean == 0.7
    assert out[0].se == 0.0


def test_summarise_two_replicates():
    out = summarise(_rows([1.0, 3.0]))
    assert out[0].mean == pytest.approx(2.0)
    assert out[0].se == pytest.approx(1.0)


def test_summarise_needs_two_replicates():
    with pytest.raises(InsufficientReplicates):
        summarise(_rows([1.0]))


def test_significance_requires_strict_separation():
    summary = [
        SummaryRow(method="a", n=10, mean=1.0, se=0.5, replicates=5),
        SummaryRow(method="b", n=10, mean=2.0, se=0.5, replicates=5),
    ]
    # intervals touch exactly at 1.5: not significant
    assert significant_improvement(summary, "a", "b") == {10: False}
    summary[1] = SummaryRow(method="b", n=10, mean=2.1, se=0.5, replicates=5)
    assert significant_improvement(summary, "a", "b") == {10: True}


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------


def test_plot_single_point_structure():
    svg = emit_plot([SummaryRow(method="m", n=10, mean=1.0, se=0.1, replicates=3)])
    assert svg.count("<circle") == 1
    assert svg.count('<g class="errorbar">') == 1


def test_plot_two_methods_three_points():
    summary = [
        SummaryRow(method=m, n=n, mean=1.0 / n + (0.1 if m == "b" else 0.0), se=0.01, replicates=3)
        for m in ("a", "b")
        for n in (10, 30, 100)
    ]
    svg = emit_plot(summary)
    polylines = [seg for seg in svg.split("<polyline")[1:]]
    assert len(polylines) == 2
    for seg in polylines:
        coords = seg.split('points="')[1].split('"')[0].split()
        assert len(coords) == 3


def test_plot_bytes_stable():
    summary = [SummaryRow(method="m", n=n, mean=1.0 / n, se=0.01 / n, replicates=4) for n in (10, 100)]
    assert emit_plot(summary) == emit_plot(summary)


def test_plot_rejects_empty():
    with pytest.raises(EmptySummary):
        emit_plot([])


def test_csv_round_trip_is_byte_identical(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0, 10, "m", 0.1 + 0.2), (1, 20, "m", 1e-17), (2, 30, "m", 123456.789)]
    write_csv(path, ["replicate", "n", "method", "ksd"], rows)
    first = path.read_bytes()
    header, parsed = read_csv(path)
    retyped = [(int(r[0]), int(r[1]), r[2], float(r[3])) for r in parsed]
    write_csv(path, header, retyped)
    assert path.read_bytes() == first


def test_experiment_outputs_are_reproducible(tmp_path):
    spec = parse_experiment_spec(_base_config(replicates=2, ns=[10]))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_experiment_outputs(run_experiment(spec), out_a)
    write_experiment_outputs(run_experiment(spec), out_b)
    for name in ("results.csv", "summary.csv", "plot.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
