"""Experiment specs the benchmark runs, built from a seed.

Each sub-seed of a run becomes an experiment seed, so it picks every grid
draw, chain stream and window; the targets and sizes are fixed.  Each spec is a plain
config dict, the format ``steinpi.experiment.parse_experiment_spec`` reads.

Every workload has at least one method per sampling distribution (p, pi
and the power tilt), so every end-to-end KSD metric exists on every
workload.  The power-tilt methods sample on an exact grid: under MALA the
tilt's KSD was heavy-tailed across seeds, from windows in which the chain
barely moved (see README.md).
"""

from __future__ import annotations

LANGEVIN = {"family": "langevin"}
KGM3 = {"family": "kgm", "s": 3}
OPTIMAL = {"kind": "optimal"}
THIN = {"kind": "thin", "m": 0.1}
# Short adaptive warm-up: six tuning epochs of 200 steps, then 800 production steps.
SHORT_WARMUP = {"epoch_lengths": [200] * 6 + [800], "learning_rates": [0.3] * 6}


def _method(name, kernel, distribution, post, *, grid=None, warmup=None):
    sampler = {"distribution": distribution, "mechanism": "exact" if grid else "mala"}
    if grid:
        sampler["grid"] = grid
    if warmup:
        sampler["warmup"] = warmup
    if distribution == "power_tilt":
        sampler["r"] = 1
    return {"name": name, "kernel": kernel, "sampler": sampler, "post": post}


def mixture_optimal(seed):
    grid = {"bounds": [[-15, 15]], "num": 30001}
    return {
        "target": {"name": "mixture"},
        "mode_init": [0.1],
        "seed": seed,
        "replicates": 2,
        "ns": [10, 30, 100],
        "methods": [
            _method("p-langevin", LANGEVIN, "p", OPTIMAL, grid=grid),
            _method("pi-langevin", LANGEVIN, "pi", OPTIMAL, grid=grid),
            _method("p-kgm3", KGM3, "p", OPTIMAL, grid=grid),
            _method("pi-kgm3", KGM3, "pi", OPTIMAL, grid=grid),
            _method("tilt-langevin", LANGEVIN, "power_tilt", OPTIMAL, grid=grid),
            _method("tilt-kgm3", KGM3, "power_tilt", OPTIMAL, grid=grid),
        ],
        "wasserstein": {"reference_n": 10000, "grid": grid},
    }


def regression_mala(seed):
    return {
        "target": {"name": "regression"},
        "mode_init": [0.0, 0.0],
        "seed": seed,
        "replicates": 6,
        "ns": [30, 100],
        "methods": [
            _method("p-langevin", LANGEVIN, "p", OPTIMAL, warmup=SHORT_WARMUP),
            _method("pi-langevin", LANGEVIN, "pi", OPTIMAL, warmup=SHORT_WARMUP),
            _method("tilt-langevin", LANGEVIN, "power_tilt", OPTIMAL, grid={"num": 201}),
        ],
    }


def skew2d_thin(seed):
    grid = {"bounds": [[-6, 6], [-6, 6]], "num": 801}
    return {
        "target": {"name": "skew_normal"},
        "mode_init": [0.0, 0.0],
        "seed": seed,
        "replicates": 2,
        "ns": [300, 1000],
        "methods": [
            _method("p", KGM3, "p", THIN, grid=grid),
            _method("power-tilt", KGM3, "power_tilt", THIN, grid=grid),
            _method("pi", KGM3, "pi", THIN, grid=grid),
        ],
        "wasserstein": {"reference_n": 500, "grid": grid},
    }


# Workload name -> (spec function, sub-seeds).  A run builds one spec per
# sub-seed, ``seed * 1000 + k``, so the KSD metrics pool more replicates
# and the wall-time median more runs than one spec alone would give.
WORKLOADS = {
    "mixture-optimal": (mixture_optimal, 8),
    "regression-mala": (regression_mala, 4),
    "skew2d-thin": (skew2d_thin, 2),
}


def specs(name, seed):
    """The config dicts of one run of a workload, one per sub-seed."""
    build, subseeds = WORKLOADS[name]
    return [build(seed * 1000 + k) for k in range(subseeds)]
