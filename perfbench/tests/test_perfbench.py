"""Tests of the benchmark's own code on tiny experiment specs.

Run with ``python3 -m pytest perfbench/tests``.
"""

import inspect
import sys

import pytest
import steinpi
import steinpi.experiment
import steinpi.quantise
from steinpi.experiment import parse_experiment_spec

import harness
import run
import spans
import workloads

GRID = {"bounds": [[-15, 15]], "num": 2001}
TINY = {
    "target": {"name": "mixture"},
    "mode_init": [0.1],
    "seed": 3,
    "replicates": 2,
    "ns": [5, 10],
    "methods": [
        {"name": "p", "kernel": {"family": "langevin"},
         "sampler": {"distribution": "p", "mechanism": "exact", "grid": GRID},
         "post": {"kind": "optimal"}},
        {"name": "pi", "kernel": {"family": "kgm", "s": 3},
         "sampler": {"distribution": "pi", "mechanism": "mala",
                     "warmup": {"epoch_lengths": [40, 60], "learning_rates": [0.3]}},
         "post": {"kind": "thin", "m": 4}},
        {"name": "tilt", "kernel": {"family": "langevin"},
         "sampler": {"distribution": "power_tilt", "r": 1, "mechanism": "exact", "grid": GRID},
         "post": {"kind": "none"}},
    ],
    "wasserstein": {"reference_n": 200, "grid": GRID},
}


@pytest.fixture
def tiny():
    return parse_experiment_spec(TINY)


def _span(i, parent, name, start, end, **attrs):
    return spans.Span(i, parent, "run", name, start, end, attrs)


def test_self_times_subtract_direct_children_only():
    tree = [
        _span(0, None, "experiment.run_experiment", 0.0, 10.0),
        _span(1, 0, "quantise.optimal_weights", 1.0, 4.0, iterations=3, converged=True, rel_gap=0.0),
        _span(2, 1, "kernels.SteinKernel.gram", 2.0, 3.0, entries=4, result_bytes=32, peak_bytes=64),
        _span(3, 0, "mala.run_chain", 5.0, 9.0, steps=8, accept_rate=0.5, nonfinite=0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(tree, cells=2, failed_cells=0)
    assert metrics["trace.wall_s"] == 10.0
    assert sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)
    assert metrics["quantise.qp.self_s"] == 2.0
    assert metrics["kernels.gram.peak_over_result"] == 2.0
    assert metrics["kernels.gram.per_cell"] == 0.5
    assert metrics["mala.us_per_step"] == pytest.approx(5e5)


def _references():
    """Every function reachable as a steinpi module attribute or a class attribute."""
    refs = {}
    for name, module in list(sys.modules.items()):
        if name == "steinpi" or name.startswith("steinpi."):
            for key, value in vars(module).items():
                refs[(name, key)] = value
                if inspect.isclass(value):
                    for attr, member in vars(value).items():
                        refs[(name, key, attr)] = member
    return refs


def test_wrappers_replace_every_reference_and_are_restored(tiny):
    before = _references()
    original = steinpi.quantise.optimal_weights
    tracer = spans.Tracer("r1")
    with spans.traced(tracer):
        wrapped = steinpi.quantise.optimal_weights
        assert wrapped is not original
        assert steinpi.experiment.optimal_weights is wrapped
        assert steinpi.optimal_weights is wrapped
        steinpi.experiment.run_experiment(tiny, threads=1)
    after = _references()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.spans[0].name == "experiment.run_experiment"
    assert {s.run for s in tracer.spans} == {"r1"}
    ids = {s.id for s in tracer.spans}
    assert all(s.parent in ids for s in tracer.spans[1:])


def test_wrappers_are_restored_when_the_run_fails():
    before = _references()
    with pytest.raises(ZeroDivisionError):
        with spans.traced(spans.Tracer("r2")):
            1 / 0
    assert all(_references()[k] is v for k, v in before.items())


def test_tracing_does_not_change_outputs(tiny, tmp_path):
    _, plain = harness.run_once(tiny)
    tracer = spans.Tracer("r3")
    _, traced = harness.run_once(tiny, tracer)
    assert harness.output_digest(plain, tmp_path) == harness.output_digest(traced, tmp_path)
    metrics = spans.layer_metrics(tracer.spans, harness.cells(tiny), len(traced.failures))
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["mala.steps"] == 2 * 100
    assert metrics["quantise.qp.calls"] == 2 * 2
    assert metrics["quantise.thin.calls"] == 2 * 2


@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(tiny, tmp_path, trace):
    if trace:
        metrics, correct, _, failed, _, _ = harness.per_layer(tiny, 0.0, tmp_path)
    else:
        metrics, correct, _, failed, details = harness.end_to_end([tiny, tiny], 0.0, tmp_path)
        assert len(details["repeats"]) == 3
        assert sum(len(r["setups"]) for r in details["repeats"]) >= harness.MIN_SETUPS
    assert set(metrics) == set(run.declared_metrics(trace))
    assert correct and failed == 0


def test_times_are_scaled_to_reference_speed():
    ref = harness.CALIBRATION_REFERENCE_S
    # During the second repeat the host ran at half speed: the calibrations
    # around it average 2 * ref, so its times are halved.
    repeats = [
        {"wall": 2.0, "setups": [0.2], "calibrations": [ref]},
        {"wall": 8.0, "setups": [0.4, 0.4], "calibrations": [3 * ref]},
    ]
    assert harness.at_reference_speed(repeats) == pytest.approx((3.0, 0.2))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_samples_each_distribution(name):
    for cfg in workloads.specs(name, seed=5):
        spec = parse_experiment_spec(cfg)
        laws = {m.sampler.get("distribution", "p") for m in spec.methods}
        assert laws == set(harness.KSD_METRICS.values())
