"""Acceptance suite.

Each test exercises one gate criterion at its stated tolerance; the
conftest hook prints one PASS/FAIL line per criterion after the run.
Criteria with runtime targets assert their own elapsed time.
"""

import json
import time

import numpy as np

import steinpi as sp
from steinpi.cli import main
from steinpi.experiment import (
    parse_experiment_spec,
    run_experiment,
    significant_improvement,
    summarise,
    write_experiment_outputs,
)
from _oracles import (
    fd_gradient,
    greedy_reference,
    kkt_residual,
    mala_log_ratio_reference,
    qp_grid_search,
    qp_support_enumeration,
    rel_err,
    snis_weights,
)

GRID_1D = {"bounds": [[-15, 15]], "num": 30001}


def _optimal_ksd(points, kernel):
    gram = kernel.gram(kernel.context(points))
    qp = sp.optimal_weights(gram)
    return sp.ksd(sp.WeightedSample(points=points, weights=qp.weights), gram)


# ----------------------------------------------------------------------
# 1. trimodal mixture, exact sampling: optimally weighted samples from the
#    over-dispersed law beat samples from the target itself, for both
#    kernel families, with non-overlapping one-standard-error bars
# ----------------------------------------------------------------------


def test_criterion_01_mixture_ordering_exact_sampling():
    start = time.perf_counter()
    methods = []
    for family, s, tag in (("langevin", 1, "lang"), ("kgm", 3, "kgm3")):
        for dist in ("p", "pi"):
            methods.append(
                {
                    "name": f"{dist}-{tag}",
                    "kernel": {"family": family, "s": s},
                    "sampler": {"distribution": dist, "mechanism": "exact", "grid": GRID_1D},
                    "post": {"kind": "optimal"},
                }
            )
    spec = parse_experiment_spec(
        {
            "target": {"name": "mixture"},
            "mode_init": [0.1],
            "seed": 7,
            "replicates": 100,
            "ns": [100],
            "methods": methods,
        }
    )
    result = run_experiment(spec)
    assert not result.failures
    summary = summarise(result.rows)
    for tag in ("lang", "kgm3"):
        flags = significant_improvement(summary, f"pi-{tag}", f"p-{tag}")
        assert flags == {100: True}, f"no separation for {tag}: {summary}"
    assert time.perf_counter() - start < 300.0


# ----------------------------------------------------------------------
# 2. two-parameter regression posterior, sampled by adaptive MALA: the
#    over-dispersed chain's optimally weighted output beats the plain
#    chain's at n = 100 with non-overlapping one-standard-error bars.
#    The 100 states per replicate are thinned from the production epoch
#    (stride 50, random span start), giving an effective sample size
#    close to n; contiguous windows bury the effect in autocorrelation
#    noise at this dimension and sample size.
# ----------------------------------------------------------------------


def test_criterion_02_regression_mala_ordering():
    start = time.perf_counter()
    target = sp.make_regression_posterior()
    mode = sp.find_mode(target, np.zeros(2))
    kernel = sp.make_kernel(target, mode, family="langevin")
    pi = sp.make_pi(target, kernel)
    schedule = sp.AdaptSchedule()  # 9 x 1000 tuning epochs, production 1e5
    stride, n, seed = 50, 100, 8
    means = {}
    ses = {}
    for mi, (name, law) in enumerate((("p", target), ("pi", pi))):
        _, out = sp.adaptive_warmup(mode.x_star[None], law, schedule, seed=seed, stream=[(mi,)])
        values = []
        for rep in range(10):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(mi, rep)))
            first = int(rng.integers(0, len(out.states) - stride * n + 1))
            pts = out.states[first : first + stride * n : stride]
            values.append(_optimal_ksd(pts, kernel))
        means[name] = float(np.mean(values))
        ses[name] = float(np.std(values, ddof=1) / np.sqrt(10))
    assert means["pi"] + ses["pi"] < means["p"] - ses["p"], (means, ses)
    assert time.perf_counter() - start < 300.0


# ----------------------------------------------------------------------
# 3. the variance of the normalised kernel diagonal on a standard
#    Gaussian matches its 2 c^2 / d closed form across dimensions
# ----------------------------------------------------------------------


def test_criterion_03_dimension_law():
    start = time.perf_counter()
    for d in (1, 10, 100):
        estimate, predicted = sp.dimension_effect(d, 1_000_000, seed=2024 + d)
        assert abs(estimate - predicted) / predicted < 0.10, (d, estimate, predicted)
    assert time.perf_counter() - start < 60.0


# ----------------------------------------------------------------------
# 4. zero-mean embedding: the Monte Carlo average of k_P(X, y) over one
#    million exact draws vanishes within four standard errors
# ----------------------------------------------------------------------


def test_criterion_04_zero_mean_embedding_at_scale():
    targets = {
        "normal": (sp.make_gaussian([0.0]), np.array([1.0])),
        "mixture": (sp.default_mixture(), np.array([0.1])),
    }
    fixed_y = (-4.0, -1.5, 0.0, 0.8, 3.0)
    for name, (target, init) in targets.items():
        mode = sp.find_mode(target, init)
        draws = target.sample(1_000_000, np.random.default_rng(99))
        for family, s in (("langevin", 1), ("kgm", 3)):
            kernel = sp.make_kernel(target, mode, family=family, s=s)
            ctx = kernel.context(draws)
            for y in fixed_y:
                vals = kernel.cross(ctx, kernel.context(np.array([[y]])))[:, 0]
                se = vals.std(ddof=1) / 1000.0
                assert abs(vals.mean()) <= 4.0 * se, (name, family, y)


# ----------------------------------------------------------------------
# 5. every analytic gradient in the package agrees with central finite
#    differences at one hundred random points
# ----------------------------------------------------------------------


def test_criterion_05_gradient_suites():
    rng = np.random.default_rng(314)
    failures = []

    def check(tag, value_fn, grad_fn, points):
        for x in points:
            if rel_err(grad_fn(x), fd_gradient(value_fn, x)) >= 1e-5:
                failures.append(tag)
                return

    gauss = sp.make_gaussian([0.4, -0.6], np.array([[1.4, 0.3], [0.3, 0.9]]))
    mixture = sp.default_mixture()
    regression = sp.make_regression_posterior()
    skew = sp.make_skew_normal_2d()
    garch = sp.make_garch_posterior(sp.simulate_garch_series((0.2, 0.5, 0.3, 0.4), 50, seed=4))
    spreads = {"gauss": 1.0, "mixture": 2.5, "regression": 1.0, "skew": 1.0, "garch": 0.6}
    for tag, target in (
        ("gauss", gauss),
        ("mixture", mixture),
        ("regression", regression),
        ("skew", skew),
        ("garch", garch),
    ):
        pts = spreads[tag] * rng.standard_normal((100, target.dim))
        check(f"target:{tag}", target.log_density, target.grad_log_density, pts)

    for tag, target, init in (("normal2", gauss, np.zeros(2)), ("mixture", mixture, np.array([0.1]))):
        mode = sp.find_mode(target, init)
        for family, s in (("langevin", 1), ("kgm", 1), ("kgm", 3), ("kgm", 4)):
            kernel = sp.make_kernel(target, mode, family=family, s=s)
            pts = rng.standard_normal((100, target.dim))
            check(
                f"diag:{tag}:{family}{s}",
                lambda x: kernel.diag_values(x[None])[0],
                lambda x: kernel.diag_grads(x[None])[0],
                pts,
            )

    for tag, target, init, family in (
        ("mixture", mixture, np.array([0.1]), "langevin"),
        ("regression", regression, np.zeros(2), "kgm"),
    ):
        mode = sp.find_mode(target, init)
        kernel = sp.make_kernel(target, mode, family=family, s=3)
        pi = sp.make_pi(target, kernel)
        pts = rng.standard_normal((100, target.dim))
        check(f"pi:{tag}", pi.log_density, pi.grad_log_density, pts)

    assert failures == []


# ----------------------------------------------------------------------
# 6. simplex QP: objective matches independent exact references within
#    1e-4 and the KKT residual stays below 1e-6 at default tolerance
# ----------------------------------------------------------------------


def test_criterion_06_qp_objective_and_kkt():
    target = sp.make_gaussian([0.0])
    mode = sp.find_mode(target, np.array([1.0]))
    kernels = [
        sp.make_kernel(target, mode, family="langevin"),
        sp.make_kernel(target, mode, family="kgm", s=3),
    ]
    rng = np.random.default_rng(606)
    for case in range(50):
        n = int(rng.integers(1, 11))
        kernel = kernels[case % 2]
        pts = 2.0 * rng.standard_normal((n, 1))
        gram = kernel.gram(kernel.context(pts))
        res = sp.optimal_weights(gram)
        exact, _ = qp_support_enumeration(gram)
        assert abs(res.objective - exact) < 1e-4, (case, n)
        residual = kkt_residual(gram @ res.weights, res.weights)
        assert residual <= 1e-6, (case, n, residual)
        if n <= 3:
            grid_best = qp_grid_search(gram, resolution=1e-3)
            assert abs(res.objective - grid_best) < 1e-4, (case, n)


# ----------------------------------------------------------------------
# 7. greedy thinning reproduces the uncached reference index-for-index
# ----------------------------------------------------------------------


def test_criterion_07_greedy_matches_bruteforce():
    normal = sp.make_gaussian([0.0])
    mode_n = sp.find_mode(normal, np.array([1.0]))
    mixture = sp.default_mixture()
    mode_m = sp.find_mode(mixture, np.array([0.1]))
    kernels = [
        sp.make_kernel(normal, mode_n, family="langevin"),
        sp.make_kernel(mixture, mode_m, family="kgm", s=3),
    ]
    rng = np.random.default_rng(707)
    for case in range(50):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 11))
        kernel = kernels[case % 2]
        pts = 2.0 * rng.standard_normal((n, 1))
        fast = sp.greedy_thin(kernel.context(pts), kernel, m)
        slow = greedy_reference(pts, kernel, m)
        np.testing.assert_array_equal(fast, slow, err_msg=f"case {case} n={n} m={m}")


# ----------------------------------------------------------------------
# 8. dominance chain on over-dispersed point sets: the optimal weights
#    never lose to the root-diagonal weights, uniform weights, or the
#    full-budget greedy selection
# ----------------------------------------------------------------------


def test_criterion_08_weight_dominance_chain():
    target = sp.make_gaussian([0.0])
    mode = sp.find_mode(target, np.array([1.0]))
    kernel = sp.make_kernel(target, mode, family="langevin")
    pi = sp.make_pi(target, kernel)
    sampler = sp.GridSampler(pi, [(-12.0, 12.0)], num=24001)
    for seed in range(20):
        pts = sampler.sample(50, np.random.default_rng(seed))
        ctx = kernel.context(pts)
        gram = kernel.gram(ctx)
        qp = sp.optimal_weights(gram)
        best = sp.ksd(sp.WeightedSample(points=pts, weights=qp.weights), gram)
        snis = sp.ksd(snis_weights(pts, kernel), gram)
        uniform = sp.ksd(sp.uniform_sample(pts), gram)
        idx = sp.greedy_thin(ctx, kernel, 50)
        greedy = sp.ksd(sp.uniform_sample(pts[idx]), kernel.gram(ctx[idx]))
        assert best <= snis + 1e-8
        assert best <= uniform + 1e-8
        assert best <= greedy + 1e-8


# ----------------------------------------------------------------------
# 9. step-level detailed balance against an independent proposal-density
#    oracle, and exact equivalence of preconditioning with whitening
# ----------------------------------------------------------------------


def test_criterion_09_detailed_balance_and_preconditioning():
    from steinpi.mala import _Precond, _step, _step_size

    rng = np.random.default_rng(909)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        target = sp.make_gaussian(rng.standard_normal(d))
        eps = float(rng.uniform(0.05, 1.0))
        a = rng.standard_normal((d, d))
        m = a @ a.T + d * np.eye(d)
        pre = _Precond(m)
        x = rng.standard_normal(d)
        logp, grad = target.log_density_with_grad(x)
        z = rng.standard_normal(d)
        res = _step(x, logp, pre.whiten(grad), target, _step_size(eps), pre, z, 0.5 * z @ z, np.log(rng.random()))
        oracle = mala_log_ratio_reference(x, res.proposal, eps, m, target)
        assert abs(res.log_ratio - oracle) <= 1e-12

    # preconditioning = whitening: chains related by the Cholesky transpose
    cov = np.array([[3.0, 0.8], [0.8, 1.5]])
    target = sp.make_gaussian(np.zeros(2), cov)
    m = np.array([[2.0, 0.4], [0.4, 1.2]])
    chol = np.linalg.cholesky(m)

    class _Whitened(sp.TargetModel):
        dim = 2

        def _evaluate(self, y, order):
            inv = np.linalg.inv(chol)
            lp, g = target.log_density_with_grad(y @ inv)
            return lp, g @ inv.T, None

    x0 = np.array([0.7, -0.2])
    def one_chain(m):
        return sp.ChainConfig(epsilon=np.array([0.4]), m=m[None], n=400, seed=9, stream=((0,),))

    out_m = sp.run_chain(x0[None], target, one_chain(m))
    out_i = sp.run_chain((chol.T @ x0)[None], _Whitened(), one_chain(np.eye(2)))
    mapped = out_m.states @ chol
    err = np.max(np.abs(mapped - out_i.states)) / max(1.0, np.max(np.abs(out_i.states)))
    assert err < 1e-8


# ----------------------------------------------------------------------
# 10. adaptive warm-up lands the production acceptance rate inside the
#     tuning band on a five-dimensional Gaussian
# ----------------------------------------------------------------------


def test_criterion_10_adaptive_acceptance_window():
    target = sp.make_gaussian(np.zeros(5))
    schedule = sp.AdaptSchedule(epoch_lengths=(1000,) * 9 + (2000,))
    hits = 0
    for seed in range(10):
        _, out = sp.adaptive_warmup(np.zeros((1, 5)), target, schedule, seed=seed, stream=[()])
        hits += 0.42 <= out.accept_rate <= 0.72
    assert hits >= 9


# ----------------------------------------------------------------------
# 11. greedy thinning at half budget versus optimal reweighting of the
#     same 1000 chain states on the trimodal mixture.
#
#     KNOWN RED.  Both sides of this comparison are verified against
#     independent exact oracles elsewhere in the suite (criteria 6 and 7),
#     and the bound fails under every faithful protocol tried: the
#     median ratio is 1.6-4.4 rather than <= 1.2, for both kernel
#     families, for chains targeting either law, for tuned and default
#     schedules, and for both readings of "the same states".  On a
#     one-dimensional support the simplex-optimal weights are close to
#     spectrally accurate (discrepancy ~1e-3 at n = 1000), which a
#     uniform-weight selection of 500 points cannot approach; the 20%
#     margin describes multivariate chain behaviour, not this regime.
#     The assertion is kept as stated rather than loosened.
# ----------------------------------------------------------------------


def test_criterion_11_thinning_near_optimal():
    target = sp.default_mixture()
    mode = sp.find_mode(target, np.array([0.1]))
    kernel = sp.make_kernel(target, mode, family="langevin")
    pi = sp.make_pi(target, kernel)
    _, out = sp.adaptive_warmup(mode.x_star[None], pi, sp.AdaptSchedule(), seed=1100, stream=[(0,)])
    ratios = []
    for rep in range(10):
        rng = np.random.default_rng(np.random.SeedSequence(1100, spawn_key=(rep,)))
        pts = sp.random_window(out.states, 1000, rng)
        ctx = kernel.context(pts)
        gram = kernel.gram(ctx)
        qp = sp.optimal_weights(gram)
        k_opt = sp.ksd(sp.WeightedSample(points=pts, weights=qp.weights), gram)
        idx = sp.greedy_thin(ctx, kernel, 500)
        k_thin = sp.ksd(sp.uniform_sample(pts[idx]), kernel.gram(ctx[idx]))
        ratios.append(k_thin / k_opt)
    assert np.median(ratios) <= 1.2, f"median ratio {np.median(ratios):.3f}; ratios {np.round(ratios, 2)}"


# ----------------------------------------------------------------------
# 12. heavily skewed bivariate target with the order-3 moment kernel:
#     sampling the root-diagonal tilt beats the generic power tilt,
#     which in turn beats sampling the target itself, in mean KSD
# ----------------------------------------------------------------------


def test_criterion_12_skew_target_ordering():
    target = sp.make_skew_normal_2d()
    mode = sp.find_mode(target, np.zeros(2))
    kernel = sp.make_kernel(target, mode, family="kgm", s=3)
    laws = {
        "pi": sp.make_pi(target, kernel),
        "tilt": sp.make_power_tilt(target, 1.0),
        "p": target,
    }
    bounds = [(-6.0, 6.0), (-6.0, 6.0)]
    means = {}
    for name, law in laws.items():
        sampler = sp.GridSampler(law, bounds, num=801)
        values = []
        for rep in range(10):
            rng = np.random.default_rng(np.random.SeedSequence(1200, spawn_key=(ord(name[0]), rep)))
            pts = sampler.sample(100, rng)
            values.append(_optimal_ksd(pts, kernel))
        means[name] = float(np.mean(values))
    assert means["pi"] <= means["tilt"] <= means["p"], means


# ----------------------------------------------------------------------
# 13. rerunning an experiment with the same seed reproduces every emitted
#     deterministic artifact byte for byte, through the API and the CLI
# ----------------------------------------------------------------------


def test_criterion_13_experiment_determinism(tmp_path):
    cfg = {
        "target": {"name": "mixture"},
        "mode_init": [0.1],
        "seed": 1312,
        "replicates": 3,
        "ns": [20, 50],
        "methods": [
            {
                "name": "pi-mala",
                "kernel": {"family": "langevin"},
                "sampler": {
                    "distribution": "pi",
                    "mechanism": "mala",
                    "warmup": {"epoch_lengths": [200, 200, 1000], "epsilon0": 0.5},
                },
                "post": {"kind": "optimal"},
            },
            {
                "name": "p-exact-thin",
                "kernel": {"family": "kgm", "s": 3},
                "sampler": {"distribution": "p", "mechanism": "exact", "grid": GRID_1D},
                "post": {"kind": "thin", "m": 0.5},
            },
        ],
    }
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_experiment_outputs(run_experiment(parse_experiment_spec(cfg)), out_a)
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(config), "--out-dir", str(out_b)]) == 0
    for name in ("results.csv", "summary.csv", "plot.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
