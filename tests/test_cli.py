"""Command-line interface: every verb end to end, exit-code contract and
seed determinism of emitted files."""

import dataclasses
import json
import os
import types

import numpy as np
import pytest

from steinpi.cli import main
from steinpi.experiment import (
    MethodRuntime,
    MethodSpec,
    build_target,
    parse_experiment_spec,
    parse_kernel,
    parse_sampler,
    read_csv,
)
from steinpi.mala import AdaptSchedule
from steinpi.targets import find_mode


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


GRID = {"bounds": [[-12, 12]], "num": 4001}
MIXTURE = {"name": "mixture", "weights": [0.5, 0.5], "means": [0, 1], "scales": [1, 1]}
MALA_METHOD = {"name": "mala", "sampler": {"mechanism": "mala"}}


@pytest.fixture
def pipeline_config(tmp_path):
    return _write_config(
        tmp_path / "pipeline.json",
        {
            "target": {"name": "mixture"},
            "mode_init": [0.1],
            "kernel": {"family": "langevin"},
            "sampler": {
                "distribution": "pi",
                "mechanism": "exact",
                "grid": {"bounds": [[-12, 12]], "num": 4001},
            },
            "seed": 5,
        },
    )


@pytest.fixture
def experiment_config(tmp_path):
    return _write_config(
        tmp_path / "experiment.json",
        {
            "target": {"name": "mixture"},
            "mode_init": [0.1],
            "seed": 9,
            "replicates": 2,
            "ns": [10, 20],
            "methods": [
                {
                    "name": "p",
                    "kernel": {"family": "langevin"},
                    "sampler": {
                        "distribution": "p",
                        "mechanism": "exact",
                        "grid": {"bounds": [[-12, 12]], "num": 4001},
                    },
                    "post": {"kind": "optimal"},
                },
                {
                    "name": "pi",
                    "kernel": {"family": "langevin"},
                    "sampler": {
                        "distribution": "pi",
                        "mechanism": "exact",
                        "grid": {"bounds": [[-12, 12]], "num": 4001},
                    },
                    "post": {"kind": "optimal"},
                },
            ],
        },
    )


def test_sample_weights_thin_ksd_round_trip(pipeline_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["sample", "--config", pipeline_config, "--n", "40", "--out-dir", out]) == 0
    sample_path = os.path.join(out, "sample.csv")
    header, rows = read_csv(sample_path)
    assert header == ["x0"]
    assert len(rows) == 40

    assert main(["weights", "--config", pipeline_config, "--points", sample_path, "--out-dir", out]) == 0
    wheader, wrows = read_csv(os.path.join(out, "weights.csv"))
    assert wheader == ["index", "weight"]
    weights = np.array([float(r[1]) for r in wrows])
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(weights >= 0)

    assert main(["thin", "--config", pipeline_config, "--points", sample_path, "--m", "10", "--out-dir", out]) == 0
    iheader, irows = read_csv(os.path.join(out, "indices.csv"))
    assert iheader == ["index"]
    assert len(irows) == 10
    assert all(0 <= int(r[0]) < 40 for r in irows)

    capsys.readouterr()
    assert main(["ksd", "--config", pipeline_config, "--points", sample_path]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0


def test_ksd_accepts_weight_file(pipeline_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["sample", "--config", pipeline_config, "--n", "20", "--out-dir", out])
    sample_path = os.path.join(out, "sample.csv")
    main(["weights", "--config", pipeline_config, "--points", sample_path, "--out-dir", out])
    capsys.readouterr()
    code = main(
        [
            "ksd",
            "--config",
            pipeline_config,
            "--points",
            sample_path,
            "--weights",
            os.path.join(out, "weights.csv"),
        ]
    )
    assert code == 0
    weighted = float(capsys.readouterr().out.strip())
    main(["ksd", "--config", pipeline_config, "--points", sample_path])
    uniform = float(capsys.readouterr().out.strip())
    assert weighted <= uniform + 1e-8


def test_ksd_builds_no_sampler_for_a_four_dimensional_target(tmp_path, capsys):
    # an exact grid sampler supports one or two dimensions only
    cfg = _write_config(tmp_path / "garch.json", {"target": {"name": "garch"}, "seed": 1})
    points = tmp_path / "points.csv"
    points.write_text("x0,x1,x2,x3\n0.1,-1.0,0.2,0.3\n0.0,-0.8,0.1,0.5\n0.2,-1.2,0.0,0.1\n")
    assert main(["ksd", "--config", cfg, "--points", str(points)]) == 0
    assert np.isfinite(float(capsys.readouterr().out.strip()))


def test_wasserstein_verb(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x0\n0.0\n1.0\n")
    b.write_text("x0\n0.5\n1.5\n")
    assert main(["wasserstein", str(a), str(b)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5)


def test_experiment_verb_and_seed_determinism(experiment_config, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["experiment", "--config", experiment_config, "--out-dir", out_a]) == 0
    assert main(["experiment", "--config", experiment_config, "--out-dir", out_b]) == 0
    for name in ("results.csv", "summary.csv", "plot.svg"):
        with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read()
    header, rows = read_csv(os.path.join(out_a, "results.csv"))
    assert header == ["replicate", "n", "method", "ksd"]
    assert len(rows) == 2 * 2 * 2


def test_experiment_seed_override_changes_results(experiment_config, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    main(["experiment", "--config", experiment_config, "--out-dir", out_a])
    main(["experiment", "--config", experiment_config, "--out-dir", out_b, "--seed", "123"])
    with open(os.path.join(out_a, "results.csv"), "rb") as fa, open(
        os.path.join(out_b, "results.csv"), "rb"
    ) as fb:
        assert fa.read() != fb.read()


def test_check_assumptions_verb(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "gauss.json",
        {"target": {"name": "gaussian", "dim": 2}, "kernel": {"family": "langevin"}, "seed": 1},
    )
    assert main(["check-assumptions", "--config", cfg, "--radius", "3.0", "--probes", "16"]) == 0
    text = capsys.readouterr().out
    assert "b1 candidate" in text
    assert "predicate" in text


def test_config_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["experiment", "--config", missing]) == 1
    bad = _write_config(tmp_path / "bad.json", {"target": {"name": "mixture"}})
    assert main(["experiment", "--config", bad]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


def test_usage_error_is_config_error(capsys):
    assert main(["sample"]) == 1  # missing required flags


def test_one_replicate_experiment_fails_before_sampling(experiment_config, tmp_path, capsys):
    with open(experiment_config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["replicates"] = 1
    path = _write_config(tmp_path / "one.json", cfg)
    out = tmp_path / "one-out"
    assert main(["experiment", "--config", path, "--out-dir", str(out)]) == 1
    assert "config.replicates" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize(
    "verb, change, path",
    [
        ("experiment", {"kernel": {"family": "langevin", "beta": 2}}, "config.methods[0].kernel.beta"),
        ("experiment", {"kernel": {"family": "kgm", "s": 0}}, "config.methods[0].kernel.s"),
        ("experiment", {"kernel": {"family": "kgm", "s": "x"}}, "config.methods[0].kernel.s"),
        ("experiment", {"ns": 3}, "config.ns"),
        ("experiment", {"sampler": {"distribution": "power_tilt", "r": 0, "grid": GRID}}, "config.methods[0].sampler.r"),
        ("experiment", {"sampler": {"grid": dict(GRID, num=1)}}, "config.methods[0].sampler.grid.num"),
        ("experiment", {"sampler": {"grid": dict(GRID, num=100.5)}}, "config.methods[0].sampler.grid.num"),
        ("experiment", {"sampler": {"grid": dict(GRID, bounds=[[12, -12]])}}, "config.methods[0].sampler.grid.bounds"),
        ("experiment", {"sampler": {"grid": dict(GRID, bounds=[[-12, 12]] * 2)}}, "config.methods[0].sampler.grid.bounds"),
        # a 2-D grid at the 1-D default num would hold 4.0e8 nodes
        (
            "experiment",
            {"target": {"name": "skew_normal"}, "mode_init": [0, 0],
             "methods": [{"name": "p", "sampler": {"grid": {"num": 20001}}}]},
            "config.methods[0].sampler.grid.num",
        ),
        ("experiment", {"mode_init": [0.1, 0.2]}, "config.mode_init"),
        ("experiment", {"wasserstein": {"reference_n": "lots"}}, "config.wasserstein.reference_n"),
        ("experiment", {"wasserstein": {"reference_n": 50, "grid": {"num": 1}}}, "config.wasserstein.grid.num"),
        ("experiment", {"wasserstein": [1, 2]}, "config.wasserstein"),
        # steinpi sample (--n 300) runs the same sampler checks on its one sampler block
        ("sample", {"sampler": {"distribution": "power_tilt", "r": 0, "grid": GRID}}, "config.sampler.r"),
        ("sample", {"sampler": {"grid": dict(GRID, num=1)}}, "config.sampler.grid.num"),
        ("sample", {"mode_init": [0.1, 0.2]}, "config.mode_init"),
        (
            "sample",
            {"sampler": {"mechanism": "mala", "warmup": {"epoch_lengths": [100, 100]}}},
            "config.sampler.warmup.epoch_lengths",
        ),
        # target parameters, checked by build_target
        ("experiment", {"target": {"name": "gaussian", "dim": "two"}}, "config.target.dim"),
        ("experiment", {"target": {"name": "gaussian", "mean": [0, 0], "cov": [[1, 2], [2, 1]]}}, "config.target.cov"),
        ("experiment", {"target": {"name": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0.5, 1]]}}, "config.target.cov"),
        ("experiment", {"target": {"name": "gaussian", "mean": [0, 0], "cov": [[1]]}}, "config.target.cov"),
        ("experiment", {"target": {"name": "gaussian", "mean": ["a", 0]}}, "config.target.mean"),
        ("experiment", {"target": {"name": "gaussian", "mean": [10**400]}}, "config.target.mean"),
        ("experiment", {"target": dict(MIXTURE, weights=[0.5, 0.6])}, "config.target.weights"),
        ("experiment", {"target": dict(MIXTURE, weights=[1.0, 0.0])}, "config.target.weights"),
        ("experiment", {"target": dict(MIXTURE, means=[0, 1, 2])}, "config.target.weights"),
        ("experiment", {"target": dict(MIXTURE, scales=[1, 0])}, "config.target.scales"),
        ("experiment", {"target": {"name": "regression", "t": [1, 2], "y": [1]}}, "config.target.y"),
        ("experiment", {"target": {"name": "regression", "t": [[1], [2]], "y": [1, 2]}}, "config.target.t"),
        ("experiment", {"target": {"name": "garch", "length": 1}}, "config.target.length"),
        ("experiment", {"target": {"name": "garch", "sim_seed": -1}}, "config.target.sim_seed"),
        ("experiment", {"target": {"name": "garch", "phi": [0.2, 0.5, 0.6, 0.6]}}, "config.target.phi"),
        ("experiment", {"target": {"name": "garch", "phi": [0.2, 0.5, 0.3]}}, "config.target.phi"),
        ("experiment", {"target": {"name": "garch", "y": [1.0]}}, "config.target.y"),
        ("experiment", {"target": {"name": "garch", "y": ["x", 1.0]}}, "config.target.y"),
        # exact grids need a target of one or two dimensions
        ("experiment", {"target": {"name": "garch"}}, "config.methods[0].sampler.mechanism"),
        (
            "experiment",
            {"target": {"name": "garch"}, "mode_init": [0.0] * 4, "methods": [MALA_METHOD],
             "wasserstein": {"reference_n": 10}},
            "config.wasserstein",
        ),
        # one seed rule, an integer >= 0, for configs and --seed
        ("experiment", {"seed": True}, "config.seed"),
        ("experiment", {"seed": -1}, "config.seed"),
        ("sample", {"seed": 7.9}, "config.seed"),
        ("sample", {"seed": "x"}, "config.seed"),
        ("experiment --seed -1", {}, "--seed"),
        ("check-assumptions --seed -1", {}, "--seed"),
        # malformed structure
        ("experiment", {"methods": [5]}, "config.methods[0]"),
        ("experiment", {"sampler": [1]}, "config.methods[0].sampler"),
        ("experiment", {"post": "optimal"}, "config.methods[0].post"),
        ("experiment", {"out_dir": 5}, "config.out_dir"),
        ("experiment", {"ns": [10, 10]}, "config.ns"),
        ("sample", {"sampler": [1]}, "config.sampler"),
        # every number is finite, and warm-up values are numbers
        ("experiment", {"sampler": {"distribution": "power_tilt", "r": float("inf"), "grid": GRID}},
         "config.methods[0].sampler.r"),
        ("sample", {"sampler": {"mechanism": "mala", "warmup": {"epsilon0": "0.5"}}}, "config.sampler.warmup.epsilon0"),
        ("sample", {"sampler": {"mechanism": "mala", "warmup": {"target_accept": 1.5}}}, "config.sampler.warmup"),
        # every block rejects a key it does not know
        ("experiment", {"replicate": 3}, "config.replicate: unknown key"),
        ("experiment", {"methods": [dict(MALA_METHOD, kernal={})]}, "config.methods[0].kernal: unknown key"),
        ("experiment", {"kernel": {"familly": "kgm"}}, "config.methods[0].kernel.familly: unknown key"),
        ("experiment", {"sampler": {"mechansim": "mala", "grid": GRID}}, "config.methods[0].sampler.mechansim: unknown key"),
        ("experiment", {"sampler": {"grid": dict(GRID, nums=11)}}, "config.methods[0].sampler.grid.nums: unknown key"),
        ("experiment", {"post": {"kind": "thin", "m": 4, "n": 4}}, "config.methods[0].post.n: unknown key"),
        ("experiment", {"wasserstein": {"reference_n": 50, "n": 5}}, "config.wasserstein.n: unknown key"),
        ("experiment", {"wasserstein": {"reference_n": 50, "grid": dict(GRID, bound=[[0, 1]])}},
         "config.wasserstein.grid.bound: unknown key"),
        ("experiment", {"target": {"name": "gaussian", "dim": 1, "sd": 2}}, "config.target.sd: unknown key"),
        ("experiment", {"target": dict(MIXTURE, dim=1)}, "config.target.dim: unknown key"),
        ("sample", {"sampler": {"distribution": "pi", "grid": GRID, "warmpu": {}}}, "config.sampler.warmpu: unknown key"),
        ("sample", {"kernel": {"family": "kgm", "S": 3}}, "config.kernel.S: unknown key"),
        ("check-assumptions", {"kernel": {"familly": "kgm"}}, "config.kernel.familly: unknown key"),
        ("check-assumptions", {"target": {"name": "skew_normal", "alpha": 4}}, "config.target.alpha: unknown key"),
        # every key is read by the variant its block chose
        ("experiment", {"sampler": {"mechanism": "mala", "grid": {"num": 5}}},
         "config.methods[0].sampler.grid: the mala mechanism does not read this key"),
        ("experiment", {"sampler": {"grid": GRID, "warmup": {}}},
         "config.methods[0].sampler.warmup: the exact mechanism does not read this key"),
        ("experiment", {"post": {"kind": "none", "m": 4}}, "config.methods[0].post.m: the none post does not read this key"),
        ("experiment", {"post": {"kind": "optimal", "m": 0.5}},
         "config.methods[0].post.m: the optimal post does not read this key"),
        ("sample", {"sampler": {"mechanism": "mala", "grid": GRID}}, "config.sampler.grid: the mala mechanism"),
        ("sample --epsilon0 0.5", {}, "config.sampler.warmup: the exact mechanism"),
        # a one-step tuning epoch would make every chain's preconditioner NaN
        ("experiment", {"sampler": {"mechanism": "mala", "warmup": {"epoch_lengths": [1, 300]}}},
         "config.methods[0].sampler.warmup: every tuning epoch"),
        ("sample --epoch-length 1", {"sampler": {"mechanism": "mala"}}, "config.sampler.warmup: every tuning epoch"),
    ],
    ids=["beta-2", "s-0", "s-x", "ns-3", "r-0", "grid-num-1", "grid-num-float",
         "grid-bounds-reversed", "grid-bounds-2d", "grid-nodes-above-guard", "mode-init-2d",
         "wasserstein-n-not-integer", "wasserstein-grid-num-1", "wasserstein-not-object",
         "sample-r-0", "sample-grid-num-1", "sample-mode-init-2d", "sample-n-above-final-length",
         "gaussian-dim-not-integer", "gaussian-cov-not-spd", "gaussian-cov-not-symmetric",
         "gaussian-cov-shape", "gaussian-mean-not-numeric", "gaussian-mean-overflows", "mixture-weights-sum",
         "mixture-weight-zero", "mixture-lengths", "mixture-scale-zero", "regression-lengths",
         "regression-t-2d", "garch-length-1", "garch-sim-seed-negative", "garch-phi-not-stationary",
         "garch-phi-3", "garch-y-short", "garch-y-not-numeric", "garch-exact-grid",
         "garch-wasserstein", "seed-bool", "seed-negative", "sample-seed-float", "sample-seed-string",
         "seed-flag-negative", "check-assumptions-seed-flag-negative", "method-not-object",
         "sampler-not-object", "post-not-object", "out-dir-not-string", "ns-repeated",
         "sample-sampler-not-object", "r-infinite", "sample-epsilon0-string",
         "sample-target-accept-above-1", "top-level-unknown-key", "method-unknown-key",
         "kernel-unknown-key", "sampler-unknown-key", "grid-unknown-key", "post-unknown-key",
         "wasserstein-unknown-key", "wasserstein-grid-unknown-key", "gaussian-unknown-key",
         "mixture-unknown-key", "sample-sampler-unknown-key", "sample-kernel-unknown-key",
         "check-assumptions-kernel-unknown-key", "check-assumptions-target-unknown-key",
         "mala-grid", "exact-warmup", "none-m", "optimal-m", "sample-mala-grid", "sample-epsilon0-exact",
         "one-step-tuning-epoch", "sample-epoch-length-1"],
)
def test_bad_kernel_or_ns_fails_before_sampling(
    verb, change, path, experiment_config, pipeline_config, tmp_path, capsys
):
    verb, *flags = verb.split()
    out = tmp_path / "bad-out"
    config, args = {
        "experiment": (experiment_config, ["--out-dir", str(out)]),
        "sample": (pipeline_config, ["--n", "300", "--out-dir", str(out)]),
        "check-assumptions": (pipeline_config, ["--probes", "4"]),
    }[verb]
    with open(config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if verb == "experiment" and change.keys() <= {"kernel", "sampler", "post"}:
        cfg["methods"][0].update(change)
    else:
        cfg.update(change)
    config = _write_config(tmp_path / "bad.json", cfg)
    assert main([verb, "--config", config] + args + flags) == 1
    assert path in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, content, weights",
    [
        ("ksd", "", None),
        ("ksd", "x0\n", None),
        ("ksd", "x0\n0.5\nabc\n", None),
        ("ksd", "x0,x1\n0.5,1.0\n2.0\n", None),
        ("ksd", "x0,x1\n0.5,1.0\n2.0,3.0\n", None),
        ("thin", "x0,x1\n0.5,1.0\n2.0,3.0\n", None),
        ("weights", "x0,x1\n0.5,1.0\n2.0,3.0\n", None),
        ("ksd", "x0,weight\n0.5,0.6\n2.0,0.5\n", None),
        ("wasserstein", "x0,weight\n0.5,0.6\n2.0,0.5\n", None),
        ("ksd", "x0\n0.5\n1.0\n2.0\n", "index,weight\n0,0.5\n1,0.5\n"),
        ("wasserstein", "x0\n0.5\n1.0\n", "x0,x1\n0.5,1.0\n2.0,3.0\n"),
    ],
    ids=[
        "empty", "header-only", "non-numeric", "ragged", "wrong-dimension", "thin-wrong-dimension",
        "weights-wrong-dimension", "weight-column-not-simplex", "wasserstein-weight-column-not-simplex",
        "weights-file-too-short", "wasserstein-second-sample-wrong-dimension",
    ],
)
def test_malformed_points_file_is_a_config_error(verb, content, weights, pipeline_config, tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text(content)
    out = tmp_path / "out"
    args = {
        "ksd": ["--config", pipeline_config, "--points", str(points)],
        "thin": ["--config", pipeline_config, "--points", str(points), "--m", "1", "--out-dir", str(out)],
        "weights": ["--config", pipeline_config, "--points", str(points), "--out-dir", str(out)],
        "wasserstein": [str(points), str(points)],
    }[verb]
    bad = points
    if weights is not None:  # a --weights file, or wasserstein's second sample
        bad = tmp_path / "weights.csv"
        bad.write_text(weights)
        args = [str(points), str(bad)] if verb == "wasserstein" else args + ["--weights", str(bad)]
    assert main([verb] + args) == 1
    err = capsys.readouterr().err
    assert "config error" in err and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, args",
    [
        ("thin", ["--m", "0"]),
        ("thin", ["--m", "two"]),
        ("sample", ["--n", "-2"]),
        ("sample", ["--n", "10", "--epochs", "0"]),
        ("sample", ["--n", "10", "--epochs", "-2"]),
        ("sample", ["--n", "10", "--epoch-length", "0"]),
        ("sample", ["--n", "10", "--final-length", "1.5"]),
        ("check-assumptions", ["--probes", "0"]),
    ],
    ids=[
        "m-zero", "m-not-integer", "n-negative",
        "epochs-zero", "epochs-negative", "epoch-length-zero", "final-length-not-integer",
        "probes-zero",
    ],
)
def test_counts_must_be_integers_of_at_least_one(verb, args, pipeline_config, tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("x0\n0.0\n1.0\n")
    out = tmp_path / "out"
    base = {
        "thin": ["--config", pipeline_config, "--points", str(points), "--out-dir", str(out)],
        "sample": ["--config", pipeline_config, "--out-dir", str(out)],
        "check-assumptions": ["--config", pipeline_config],
    }[verb]
    assert main([verb] + base + args) == 1
    assert "integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--radius", "0"),
        ("--radius", "-1"),
        ("--radius", "nan"),
        ("--radius", "inf"),
        ("--radius", "wide"),
        ("--b1", "nan"),
        ("--b1", "inf"),
        ("--b1", "half"),
    ],
)
def test_check_assumptions_numbers_must_be_finite(flag, value, pipeline_config, capsys):
    assert main(["check-assumptions", "--config", pipeline_config, "--probes", "4", flag, value]) == 1
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, flag",
    [
        ("sample", "--threads"),
        ("weights", "--threads"),
        ("weights", "--seed"),
        ("thin", "--threads"),
        ("thin", "--seed"),
        ("ksd", "--threads"),
        ("ksd", "--out-dir"),
        ("ksd", "--seed"),
        ("check-assumptions", "--threads"),
        ("check-assumptions", "--out-dir"),
        ("wasserstein", "--seed"),
        ("wasserstein", "--out-dir"),
        ("wasserstein", "--threads"),
        ("experiment", "--threads"),
    ],
)
def test_flags_a_verb_does_not_read_are_usage_errors(verb, flag, tmp_path, capsys):
    cfg = _write_config(tmp_path / "gauss.json", {"target": {"name": "gaussian", "dim": 1}, "seed": 1})
    points = tmp_path / "points.csv"
    points.write_text("x0\n0.0\n1.0\n")
    args = {
        "sample": ["--config", cfg, "--n", "5"],
        "weights": ["--config", cfg, "--points", str(points)],
        "thin": ["--config", cfg, "--points", str(points), "--m", "1"],
        "ksd": ["--config", cfg, "--points", str(points)],
        "check-assumptions": ["--config", cfg, "--probes", "4"],
        "wasserstein": [str(points), str(points)],
        "experiment": ["--config", cfg, "--out-dir", str(tmp_path / "out")],
    }[verb]
    value = str(tmp_path / "out") if flag == "--out-dir" else "2"
    assert main([verb] + args + [flag, value]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sample_verb_runs_one_mala_chain(tmp_path, capsys):
    cfg = {
        "target": {"name": "mixture"},
        "mode_init": [0.1],
        "kernel": {"family": "langevin"},
        "sampler": {"distribution": "pi", "mechanism": "mala"},
        "seed": 5,
    }
    path = _write_config(tmp_path / "mala.json", cfg)
    warmup = ["--epochs", "3", "--epoch-length", "50", "--final-length", "60"]
    outputs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["sample", "--config", path, "--n", "40", "--out-dir", out] + warmup) == 0
        outputs.append(open(os.path.join(out, "sample.csv"), encoding="utf-8").read())
    assert outputs[0] == outputs[1]
    assert len(read_csv(os.path.join(str(tmp_path / "a"), "sample.csv"))[1]) == 40

    cfg["sampler"]["warmup"] = {"m0": [[1.0]]}
    path = _write_config(tmp_path / "bad.json", cfg)
    capsys.readouterr()
    assert main(["sample", "--config", path, "--n", "40", "--out-dir", str(tmp_path / "c")]) == 1
    assert "warmup.m0: unknown key" in capsys.readouterr().err


def test_numerical_failure_exit_code(pipeline_config, tmp_path, capsys):
    bad_points = tmp_path / "bad.csv"
    bad_points.write_text("x0,weight\n0.0,nan\n1.0,0.5\n")
    code = main(
        ["ksd", "--config", pipeline_config, "--points", str(bad_points)]
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_thin_refuses_non_finite_points(cell, pipeline_config, tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text(f"x0\n{cell}\n1.0\n")
    out = tmp_path / "out"
    args = ["thin", "--config", pipeline_config, "--points", str(points), "--m", "1", "--out-dir", str(out)]
    assert main(args) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_weights_refuses_non_finite_points(cell, pipeline_config, tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text(f"x0\n{cell}\n1.0\n")
    out = tmp_path / "out"
    args = ["weights", "--config", pipeline_config, "--points", str(points), "--out-dir", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "certified" not in err
    assert not out.exists()


def test_failures_are_written_when_no_cell_can_be_summarised(tmp_path, capsys):
    cfg = {
        "target": {"name": "mixture"},
        "mode_init": [0.1],
        "seed": 3,
        "replicates": 2,
        "ns": [20001],  # every cell's Gram exceeds the guard
        "methods": [{"name": "p", "sampler": {"grid": GRID}, "post": {"kind": "none"}}],
    }
    out = tmp_path / "out"
    assert main(["experiment", "--config", _write_config(tmp_path / "big.json", cfg), "--out-dir", str(out)]) == 2
    assert "no summary rows to plot" in capsys.readouterr().err
    header, rows = read_csv(str(out / "failures.csv"))
    assert header == ["method", "replicate", "n", "message"]
    assert [row[:3] for row in rows] == [["p", "0", "20001"], ["p", "1", "20001"]]
    assert all("exceeds the guard" in row[3] for row in rows)
    assert not (out / "plot.svg").exists()


def test_a_failed_transport_lp_is_a_cell_failure(tmp_path, capsys, monkeypatch):
    import steinpi.metrics as metrics

    monkeypatch.setattr(metrics, "linprog", lambda *a, **k: types.SimpleNamespace(success=False, message="forced"))
    grid = {"bounds": [[-4, 4], [-4, 4]], "num": 41}
    cfg = {
        "target": {"name": "skew_normal"},
        "seed": 3,
        "replicates": 2,
        "ns": [10],
        "wasserstein": {"reference_n": 20, "grid": grid},
        "methods": [  # equal weights on 10 of 20 points: an assignment; optimal weights: the LP
            {"name": "none", "sampler": {"grid": grid}, "post": {"kind": "none"}},
            {"name": "optimal", "sampler": {"grid": grid}, "post": {"kind": "optimal"}},
        ],
    }
    out = tmp_path / "out"
    assert main(["experiment", "--config", _write_config(tmp_path / "w1.json", cfg), "--out-dir", str(out)]) == 0
    assert [row[2] for row in read_csv(str(out / "results.csv"))[1]] == ["none", "none"]
    _, rows = read_csv(str(out / "failures.csv"))
    assert [row[:3] for row in rows] == [["optimal", "0", "10"], ["optimal", "1", "10"]]
    assert all("transport LP failed: forced" in row[3] for row in rows)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x0,x1\n0,0\n1,0\n2,1\n")
    b.write_text("x0,x1\n0,1\n1,1\n")
    capsys.readouterr()
    assert main(["wasserstein", str(a), str(b)]) == 2
    assert "transport LP failed" in capsys.readouterr().err


def test_weights_verb_refuses_uncertified_solve(pipeline_config, tmp_path, capsys, monkeypatch):
    import steinpi.experiment as experiment

    solve = experiment.optimal_weights
    monkeypatch.setattr(
        experiment, "optimal_weights", lambda *a, **k: dataclasses.replace(solve(*a, **k), converged=False)
    )
    points = tmp_path / "points.csv"
    points.write_text("x0\n-1.0\n0.0\n0.5\n2.0\n")
    out = tmp_path / "wout"
    code = main(["weights", "--config", pipeline_config, "--points", str(points), "--out-dir", str(out)])
    assert code == 2
    assert "not certified" in capsys.readouterr().err
    assert not (out / "weights.csv").exists()


def test_sample_and_experiment_parse_a_sampler_block_alike(experiment_config, tmp_path, monkeypatch):
    # steinpi sample sets its flags in a copy of the raw config, then runs
    # the parser an experiment method's sampler block goes through
    import steinpi.cli as cli

    samplers = []
    runtime = cli.MethodRuntime

    def recording(method, target, mode):
        samplers.append(method.sampler)
        return runtime(method, target, mode)

    monkeypatch.setattr(cli, "MethodRuntime", recording)
    pipeline = {"target": {"name": "mixture"}, "mode_init": [0.1], "sampler": {"mechanism": "mala"}, "seed": 5}
    flags = ["--target", "pi", "--epsilon0", "0.5", "--epochs", "3", "--epoch-length", "50", "--final-length", "60"]
    path = _write_config(tmp_path / "pipeline.json", pipeline)
    assert main(["sample", "--config", path, "--n", "20", "--out-dir", str(tmp_path / "out")] + flags) == 0
    with open(experiment_config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    warmup = {"epsilon0": 0.5, "epoch_lengths": [50, 50, 60]}
    cfg["methods"][0]["sampler"] = {"distribution": "pi", "mechanism": "mala", "warmup": warmup}
    assert samplers == [parse_experiment_spec(cfg).methods[0].sampler]
    assert samplers[0]["warmup"] == AdaptSchedule(epsilon0=0.5, epoch_lengths=(50, 50, 60))


@pytest.mark.parametrize(
    "sampler",
    [
        {"distribution": "pi", "mechanism": "exact", "grid": GRID},
        {"distribution": "pi", "mechanism": "mala", "warmup": {"epsilon0": 0.5, "epoch_lengths": [50, 50, 60]}},
    ],
    ids=["exact", "mala"],
)
def test_sample_writes_the_runtime_draw(sampler, tmp_path):
    # steinpi sample draws through the one path the experiment runner uses
    cfg = {"target": {"name": "mixture"}, "mode_init": [0.1], "sampler": sampler, "seed": 5}
    path = _write_config(tmp_path / "pipeline.json", cfg)
    assert main(["sample", "--config", path, "--n", "40", "--out-dir", str(tmp_path / "out")]) == 0
    header, rows = read_csv(tmp_path / "out" / "sample.csv")
    target = build_target(cfg["target"])
    method = MethodSpec("sample", parse_kernel({}, "kernel"), parse_sampler(sampler, 1, 40, "sampler"), None)
    runtime = MethodRuntime(method, target, find_mode(target, (0.1,)))
    assert header == ["x0"]
    np.testing.assert_array_equal(np.array(rows, dtype=float), runtime.draw(5, 0, [0], 40)[0][:40])


def test_check_assumptions_reads_the_config_seed(tmp_path, capsys):
    # on a 2-D target the report depends on the probes, so on the seed:
    # --seed if given, else the config's seed, else 0
    def report(*flags, **seed):
        path = _write_config(tmp_path / "regression.json", {"target": {"name": "regression"}, **seed})
        assert main(["check-assumptions", "--config", path, "--probes", "8", *flags]) == 0
        return capsys.readouterr().out

    assert report(seed=7) != report(seed=0)
    assert report("--seed", "7", seed=0) == report(seed=7)
    assert report() == report(seed=0)
