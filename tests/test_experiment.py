"""Experiment harness: config validation paths, deterministic tables,
row-count accounting, summaries with the error-bar rule, and byte-stable
CSV/SVG emission."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import steinpi.experiment as experiment
from steinpi.errors import ConfigError, EmptySummary, GramTooLarge, InsufficientReplicates
from steinpi.experiment import (
    ResultRow,
    SummaryRow,
    emit_plot,
    parse_experiment_spec,
    post_process,
    read_csv,
    run_experiment,
    significant_improvement,
    summarise,
    write_csv,
    write_experiment_outputs,
)
from steinpi.kernels import LangevinKernel, SteinKernel, make_kernel
from steinpi.quantise import ksd
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


def test_threading_does_not_change_results():
    cfg = _base_config()
    cfg["methods"].append(_mala_method())
    spec = parse_experiment_spec(cfg)
    a = run_experiment(spec, threads=1)
    b = run_experiment(spec, threads=3)
    assert [(r.method, r.n, r.replicate, r.ksd) for r in a.rows] == [
        (r.method, r.n, r.replicate, r.ksd) for r in b.rows
    ]


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
    draw = experiment.MethodRuntime.draw

    def fails_for_replicate_1(self, seed, method_index, replicates, n):
        if 1 in replicates:
            raise np.linalg.LinAlgError("grid draw failed")
        return draw(self, seed, method_index, replicates, n)

    monkeypatch.setattr(experiment.MethodRuntime, "draw", fails_for_replicate_1)
    result = run_experiment(spec)
    assert [(f.method, f.replicate) for f in result.failures] == [("p-lang", 1), ("pi-lang", 1)]
    assert all(f.message == "sampling failed: grid draw failed" for f in result.failures)
    assert [(r.method, r.replicate, r.ksd) for r in result.rows] == [
        (r.method, r.replicate, r.ksd) for r in clean.rows if r.replicate != 1
    ]


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


def test_thin_cell_evaluates_its_target_once_per_point_set():
    target = _SizeCounting(make_skew_normal_2d())
    kernel = make_kernel(target, find_mode(target, np.zeros(2)), family="kgm", s=3)
    points = np.random.default_rng(5).standard_normal((1000, 2))
    target.sizes.clear()
    sample, gram = post_process(points, kernel, {"kind": "thin", "m": 100})
    ksd(sample, kernel, gram=gram)
    assert target.sizes == [1000, 100]  # the candidates, then the picks for the KSD


def test_only_square_grams_hit_the_size_guard():
    target = make_gaussian([0.0])
    kernel = LangevinKernel(target, find_mode(target, np.array([1.0])))
    points = np.linspace(-3.0, 3.0, 20_001)[:, None]
    sample, gram = post_process(points, kernel, {"kind": "thin", "m": 2})
    assert sample.n == 2 and gram is None
    for kind in ("none", "optimal"):
        with pytest.raises(GramTooLarge):
            post_process(points, kernel, {"kind": kind})


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

    def uncertified_at_20(points, kernel, **kwargs):
        res = solve(points, kernel, **kwargs)
        return dataclasses.replace(res, converged=False) if len(points) == 20 else res

    monkeypatch.setattr(experiment, "optimal_weights", uncertified_at_20)
    result = run_experiment(parse_experiment_spec(_base_config(replicates=2)))
    assert len(result.failures) == 4  # every (method, replicate) at n = 20
    assert all(f.n == 20 and "not certified" in f.message for f in result.failures)
    assert len(result.rows) == 4 and all(r.n == 10 for r in result.rows)


def test_wasserstein_column_optional():
    cfg = _base_config(replicates=2, ns=[10], wasserstein={"reference_n": 50})
    result = run_experiment(parse_experiment_spec(cfg))
    assert all(r.wasserstein is not None and r.wasserstein >= 0 for r in result.rows)


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
