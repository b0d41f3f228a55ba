"""Rerun the protocol of test_criterion_11_thinning_near_optimal on more targets.

For each target and kernel family, one pi chain runs under the default
``AdaptSchedule()`` (seed 1100) from the mode; ten random windows of 1000
states are drawn from it, and on each the KSD of greedy thinning to 500
points is compared with the KSD of the certified optimal weights on all
1000 states.  A second ratio puts optimal weights on the distinct greedy
picks, which tells how much of the gap is the picks' uniform weights and
how much is which states greedy selects.  Prints the median of each ratio
over the ten windows.  Not collected by pytest; run it from the root of a
checkout (about a minute):

    PYTHONPATH=src python tests/measure_criterion_11.py
"""

import numpy as np

import steinpi as sp

TARGETS = {
    "1-D mixture": (sp.default_mixture(), [0.1]),
    "2-D regression": (sp.make_regression_posterior(), [0.0, 0.0]),
    "2-D skew normal": (sp.make_skew_normal_2d(), [0.0, 0.0]),
}
KERNELS = {"Langevin": {"family": "langevin"}, "KGM-3": {"family": "kgm", "s": 3}}


def _optimal_ksd(gram, points):
    qp = sp.optimal_weights(gram)
    return sp.ksd(sp.WeightedSample(points=points, weights=qp.weights), gram)


def ratios(target, init, kernel_args):
    """(greedy / optimal, optimal on the distinct picks / optimal) over the ten windows."""
    mode = sp.find_mode(target, np.array(init))
    kernel = sp.make_kernel(target, mode, **kernel_args)
    pi = sp.make_pi(target, kernel)
    _, out = sp.adaptive_warmup(mode.x_star[None], pi, sp.AdaptSchedule(), seed=1100, stream=[(0,)])
    greedy, picked = [], []
    for rep in range(10):
        rng = np.random.default_rng(np.random.SeedSequence(1100, spawn_key=(rep,)))
        pts = sp.random_window(out.states, 1000, rng)
        ctx = kernel.context(pts)
        k_opt = _optimal_ksd(kernel.gram(ctx), pts)
        idx = sp.greedy_thin(ctx, kernel, 500)
        greedy.append(sp.ksd(sp.uniform_sample(pts[idx]), kernel.gram(ctx[idx])) / k_opt)
        distinct = np.unique(idx)
        picked.append(_optimal_ksd(kernel.gram(ctx[distinct]), pts[distinct]) / k_opt)
    return np.array(greedy), np.array(picked)


def main():
    print(f"{'target':16s} {'kernel':9s} {'greedy/optimal':>15s} {'picks/optimal':>14s}  greedy range")
    for name, (target, init) in TARGETS.items():
        for family, kernel_args in KERNELS.items():
            greedy, picked = ratios(target, init, kernel_args)
            print(f"{name:16s} {family:9s} {np.median(greedy):15.2f} {np.median(picked):14.2f}"
                  f"  {greedy.min():.2f}-{greedy.max():.2f}", flush=True)


if __name__ == "__main__":
    main()
