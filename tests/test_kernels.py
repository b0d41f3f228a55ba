"""Kernels: closed forms against finite differences, documented spot
values, positive semi-definiteness, and the zero-mean embedding property."""

import tracemalloc

import numpy as np
import pytest

from steinpi.kernels import (
    KGMKernel,
    LangevinKernel,
    check_theorem_assumptions,
    make_kernel,
)
from steinpi.pi_targets import make_pi
from steinpi.targets import default_mixture, find_mode, make_gaussian, make_skew_normal_2d

from _oracles import (
    ConstantKernel,
    base_kappa,
    exact_sample,
    kernel_diagonal,
    kernel_value,
    rel_err,
    stein_kernel_value,
)


def _gaussian_setup(d=2):
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])[:d, :d] if d == 2 else np.eye(d)
    target = make_gaussian(np.zeros(d), cov)
    mode = find_mode(target, np.full(d, 1.5))
    return target, mode


def _skew_normal_setup():
    target = make_skew_normal_2d()
    return target, find_mode(target, np.zeros(2))


def all_kernels(setup=_gaussian_setup):
    target, mode = setup()
    return [
        LangevinKernel(target, mode),
        KGMKernel(target, mode, s=1),
        KGMKernel(target, mode, s=2),
        KGMKernel(target, mode, s=3),
        KGMKernel(target, mode, s=4),
    ]


# ----------------------------------------------------------------------
# base kernel
# ----------------------------------------------------------------------


def test_base_kappa_langevin_on_diagonal():
    target, mode = _gaussian_setup()
    kernel = LangevinKernel(target, mode)
    x = np.array([0.7, -0.3])
    value, grad_x, grad_y, div = base_kappa(kernel, x, x)
    assert value == 1.0
    np.testing.assert_array_equal(grad_x, np.zeros(2))
    np.testing.assert_array_equal(grad_y, np.zeros(2))
    assert div == pytest.approx(2.0 * 0.5 * np.trace(mode.sigma_inv), rel=1e-14)


def test_base_kappa_kgm_at_centre():
    target, mode = _gaussian_setup()
    kernel = KGMKernel(target, mode, s=3)
    value, _, _, _ = base_kappa(kernel, mode.x_star, mode.x_star)
    assert value == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: f"{k.family}{k.order}")
def test_base_kappa_derivatives_match_finite_differences(kernel, rng):
    h = 1e-6
    for _ in range(20):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        _, grad_x, grad_y, div = base_kappa(kernel, x, y)
        fd_gx = np.empty(2)
        fd_gy = np.empty(2)
        fd_div = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd_gx[i] = (base_kappa(kernel, x + e, y)[0] - base_kappa(kernel, x - e, y)[0]) / (2 * h)
            fd_gy[i] = (base_kappa(kernel, x, y + e)[0] - base_kappa(kernel, x, y - e)[0]) / (2 * h)
            fd_div += (base_kappa(kernel, x + e, y)[2][i] - base_kappa(kernel, x - e, y)[2][i]) / (
                2 * h
            )
        assert rel_err(grad_x, fd_gx) < 1e-6
        assert rel_err(grad_y, fd_gy) < 1e-6
        assert abs(fd_div - div) / max(1.0, abs(div)) < 1e-6


# ----------------------------------------------------------------------
# off-diagonal kernel value
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: f"{k.family}{k.order}")
def test_kernel_eval_symmetry_bitwise(kernel, rng):
    for _ in range(50):
        x = rng.standard_normal((1, 2))
        y = rng.standard_normal((1, 2))
        gram = kernel.gram(kernel.context(np.concatenate([x, y])))
        assert gram[0, 1] == gram[1, 0]
        # the two orders run different float operations: equal to rounding,
        # measured against the Cauchy-Schwarz bound sqrt(k(x, x) k(y, y))
        scale = np.sqrt(gram[0, 0] * gram[1, 1])
        cx, cy = kernel.context(x), kernel.context(y)
        assert abs(kernel.cross(cx, cy)[0, 0] - kernel.cross(cy, cx).T[0, 0]) <= 1e-12 * scale


@pytest.mark.parametrize(
    "kernel",
    all_kernels() + all_kernels(_skew_normal_setup),
    ids=lambda k: f"{type(k.target).__name__}-{k.family}{k.order}",
)
def test_cross_matches_pointwise_stein_kernel_oracle(kernel, rng):
    for _ in range(50):
        x = kernel.x_star + rng.standard_normal(2)
        y = kernel.x_star + 2.0 * rng.standard_normal(2)
        value = kernel.cross(kernel.context(x[None]), kernel.context(y[None]))[0, 0]
        scale = np.sqrt(np.prod(kernel.diag_values(np.stack([x, y]))))
        assert abs(value - stein_kernel_value(kernel, x, y)) <= 1e-12 * scale


def test_kernel_value_standard_normal_origin():
    target = make_gaussian([0.0])
    mode = find_mode(target, np.array([1.0]))
    kernel = LangevinKernel(target, mode)
    assert kernel_value(kernel, np.array([0.0]), np.array([0.0])) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("family,s", [("langevin", 1), ("kgm", 3)])
def test_zero_mean_embedding_monte_carlo(family, s, rng):
    # The defining property: averaging k_P(X, y) over exact draws X ~ P
    # must vanish within Monte Carlo error, for any fixed y.
    target = default_mixture()
    mode = find_mode(target, np.array([0.1]))
    kernel = make_kernel(target, mode, family=family, s=s)
    x = kernel.context(exact_sample(target, 200_000, rng))
    for y in (-4.0, -1.0, 0.5, 2.0):
        vals = kernel.cross(x, kernel.context(np.array([[y]])))[:, 0]
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) <= 4.0 * se


# ----------------------------------------------------------------------
# diagonal and its gradient
# ----------------------------------------------------------------------


def test_langevin_diagonal_standard_normal_closed_form():
    target = make_gaussian([0.0])
    mode = find_mode(target, np.array([1.0]))
    kernel = LangevinKernel(target, mode)
    diag = kernel_diagonal(kernel, np.array([1.0]))
    assert diag.value == pytest.approx(2.0, rel=1e-14)  # 1 + x^2 at x = 1
    np.testing.assert_allclose(diag.grad, [2.0], rtol=1e-14)  # 2x at x = 1
    xs = np.linspace(-3, 3, 7)[:, None]
    np.testing.assert_allclose(kernel.diag_values(xs), 1.0 + xs[:, 0] ** 2, rtol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kgm3_diagonal_at_mode_standard_normal(d):
    target = make_gaussian(np.zeros(d))
    mode = find_mode(target, np.full(d, 1.0))
    kernel = KGMKernel(target, mode, s=3)
    value = kernel.diag_values(np.zeros((1, d)))[0]
    assert value == pytest.approx(2.0 * d, rel=1e-13)
    assert kernel_value(kernel, np.zeros(d), np.zeros(d)) == pytest.approx(2.0 * d, rel=1e-13)


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: f"{k.family}{k.order}")
def test_diag_gradient_matches_finite_differences(kernel, rng):
    pts = rng.standard_normal((100, 2))
    grads = kernel.diag_grads(pts)
    h = 1e-6
    for x, g in zip(pts, grads):
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (
                kernel.diag_values((x + e)[None])[0] - kernel.diag_values((x - e)[None])[0]
            ) / (2 * h)
        assert rel_err(g, fd) < 1e-6


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: f"{k.family}{k.order}")
def test_diag_consistent_with_cross_evaluation(kernel, rng):
    pts = rng.standard_normal((100, 2))
    closed = kernel.diag_values(pts)
    cross = np.array([kernel_value(kernel, x, x) for x in pts])
    assert np.max(np.abs(closed - cross) / np.abs(cross)) < 1e-10


def test_langevin_diagonal_identity_exact(rng):
    target, mode = _gaussian_setup()
    kernel = LangevinKernel(target, mode)
    pts = rng.standard_normal((100, 2))
    scores = target.grad_log_density(pts)
    expected = 2.0 * kernel.beta * np.trace(mode.sigma_inv) + np.einsum(
        "nd,nd->n", scores, scores
    )
    np.testing.assert_allclose(kernel.diag_values(pts), expected, rtol=1e-12)


def test_langevin_diagonal_bounded_below(rng):
    target, mode = _gaussian_setup()
    kernel = LangevinKernel(target, mode)
    pts = 5.0 * rng.standard_normal((500, 2))
    c1sq = kernel.c1_squared()
    assert c1sq == pytest.approx(np.trace(mode.sigma_inv), rel=1e-14)  # 2 beta tr
    assert np.all(kernel.diag_values(pts) >= c1sq)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_kgm_growth_rate(s):
    target = make_gaussian(np.zeros(2))
    mode = find_mode(target, np.ones(2))
    kernel = KGMKernel(target, mode, s=s)
    x = np.array([0.8, -0.5])
    ratios = [kernel.diag_values((t * x)[None])[0] / t ** (2 * s) for t in (1e2, 1e3, 1e4)]
    assert abs(ratios[0] / ratios[2] - 1.0) < 0.05
    assert abs(ratios[1] / ratios[2] - 1.0) < 0.05


# ----------------------------------------------------------------------
# per-point contexts
# ----------------------------------------------------------------------

PIECES = ("a1", "a2", "u", "v", "q")


def _eager_pieces(kernel, x):
    # the formulas a context used to build up front, for every point set
    delta = x - kernel.x_star
    a1 = np.einsum("ni,ij->nj", delta, kernel.sigma_inv)
    a2 = np.einsum("ni,ij->nj", delta, kernel.sigma_inv2)
    v = 1.0 + np.einsum("nd,nd->n", delta, a1)
    u = np.einsum("nd,nd->n", delta, a1)
    return {"a1": a1, "a2": a2, "u": u, "v": v, "q": np.einsum("nd,nd->n", delta, a2)}


def _built(ctx):
    return [name for name in PIECES if name in vars(ctx)]


def test_context_pieces_are_lazy_and_equal_the_eager_formulas(rng):
    target, mode = _gaussian_setup()
    kernel = KGMKernel(target, mode, s=3)
    pts = 3.0 * rng.standard_normal((50, 2))
    eager = _eager_pieces(kernel, pts)
    ctx = kernel.context(pts)
    assert _built(ctx) == []
    for name in PIECES:
        assert getattr(ctx, name).tobytes() == eager[name].tobytes(), name
    for rows in (np.array([7, 0, 7, 31]), slice(12, 13)):
        picked = ctx[rows]  # a thinning pick: every built piece selected, none rebuilt
        assert _built(picked) == list(PIECES)
        lazy = kernel.context(pts)[rows]  # nothing built yet: each piece built on the rows
        assert _built(lazy) == []
        for name in PIECES:
            assert getattr(picked, name).tobytes() == eager[name][rows].tobytes(), name
            assert getattr(lazy, name).tobytes() == eager[name][rows].tobytes(), name
        np.testing.assert_array_equal(lazy.score, ctx.score[rows])


def test_langevin_pi_evaluation_builds_no_whitened_pieces(rng):
    target, mode = _gaussian_setup()
    pts = rng.standard_normal((20, 2))
    cases = ((LangevinKernel(target, mode), []), (KGMKernel(target, mode, s=3), list(PIECES)))
    for kernel, built in cases:
        seen = []
        diag_at = kernel._diag_at
        kernel._diag_at = lambda ctx, hess=None: (seen.append(ctx), diag_at(ctx, hess))[1]
        make_pi(target, kernel).log_density_with_grad(pts)
        assert len(seen) == 1
        assert sorted(_built(seen[0])) == sorted(built), kernel.family


# ----------------------------------------------------------------------
# Gram matrices
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", all_kernels()[:2] + all_kernels()[3:4], ids=lambda k: f"{k.family}{k.order}")
def test_gram_positive_semidefinite(kernel, rng):
    for _ in range(30):
        pts = rng.standard_normal((20, 2)) * rng.uniform(0.5, 2.0)
        gram = kernel.gram(kernel.context(pts))
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8 * eigs.max()


def test_gram_bitwise_symmetric(rng):
    target, mode = _gaussian_setup()
    kernel = KGMKernel(target, mode, s=3)
    pts = rng.standard_normal((40, 2))
    ctx = kernel.context(pts)
    gram = kernel.gram(ctx)
    assert np.array_equal(gram, gram.T)
    with pytest.raises(TypeError):  # one context only; two go through cross
        kernel.gram(ctx, ctx)


@pytest.mark.parametrize("family,s", [("langevin", 1), ("kgm", 3)])
def test_gram_peak_memory_is_a_few_results(family, s, rng):
    target, mode = _skew_normal_setup()
    kernel = make_kernel(target, mode, family=family, s=s)
    pts = mode.x_star + rng.standard_normal((500, 2))
    tracemalloc.start()
    try:
        gram = kernel.gram(kernel.context(pts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * gram.nbytes


def test_gram_cross_matches_pairwise(rng):
    target, mode = _gaussian_setup()
    kernel = KGMKernel(target, mode, s=2)
    xs = rng.standard_normal((6, 2))
    ys = rng.standard_normal((4, 2))
    gram = kernel.cross(kernel.context(xs), kernel.context(ys))
    for i in range(6):
        for j in range(4):
            assert gram[i, j] == pytest.approx(kernel_value(kernel, xs[i], ys[j]), rel=1e-12)


# ----------------------------------------------------------------------
# constant kernel and assumption probing
# ----------------------------------------------------------------------


def test_constant_kernel_basics():
    kernel = ConstantKernel(4.0, dim=1)
    pts = np.array([[0.0], [2.0]])
    np.testing.assert_array_equal(kernel.gram(kernel.context(pts)), np.full((2, 2), 4.0))
    np.testing.assert_array_equal(kernel.diag_values(pts), [4.0, 4.0])
    np.testing.assert_array_equal(kernel.diag_grads(pts), np.zeros((2, 1)))


def test_assumption_probe_standard_normal_1d():
    target = make_gaussian([0.0])
    mode = find_mode(target, np.array([1.0]))
    kernel = LangevinKernel(target, mode)
    report = check_theorem_assumptions(kernel, probe_radius=2.0, probe_count=16)
    assert report.in_theorem_scope
    assert report.b1_candidate == pytest.approx(1.0, rel=1e-12)
    assert report.b2_candidate == pytest.approx(2.0, rel=1e-5)
    assert report.c1_squared == pytest.approx(1.0, rel=1e-14)
    # boundary case: b2 == 2 b1 C1^2 exactly, so the strict predicate fails
    assert not report.predicate_holds
    assert report.predicate_text in str(report)


def test_assumption_probe_standard_normal_2d_holds():
    target = make_gaussian(np.zeros(2))
    mode = find_mode(target, np.ones(2))
    kernel = LangevinKernel(target, mode)
    report = check_theorem_assumptions(kernel, probe_radius=3.0, probe_count=16)
    assert report.c1_squared == pytest.approx(2.0, rel=1e-14)
    assert report.b1_candidate == pytest.approx(1.0, rel=1e-12)
    assert report.predicate_holds  # 2 < 2 * 1 * 2


def test_assumption_probe_flags_higher_order_kgm():
    target = make_gaussian([0.0])
    mode = find_mode(target, np.array([1.0]))
    report = check_theorem_assumptions(KGMKernel(target, mode, s=3), 2.0, probe_count=8)
    assert not report.in_theorem_scope
    assert any("outside" in note for note in report.notes)


def test_assumption_probe_locates_curvature_radius(quartic_target):
    # -d2/dx2 log p = 12 x^2 >= b1 exactly when |x| >= sqrt(b1 / 12)
    from steinpi.targets import ModeInfo

    mode = ModeInfo(
        x_star=np.zeros(1),
        sigma=np.eye(1),
        sigma_inv=np.eye(1),
    )
    kernel = LangevinKernel(quartic_target, mode)
    b1 = 3.0
    report = check_theorem_assumptions(kernel, probe_radius=1.0, probe_count=8, b1=b1)
    threshold = np.sqrt(b1 / 12.0)
    assert report.min_radius_for_b1 is not None
    assert threshold <= report.min_radius_for_b1 <= threshold * 1.2


def test_kernel_rejects_bad_beta():
    target, mode = _gaussian_setup()
    with pytest.raises(ValueError):
        LangevinKernel(target, mode, beta=1.5)
    with pytest.raises(ValueError):
        KGMKernel(target, mode, s=0)
    with pytest.raises(ValueError):
        make_kernel(target, mode, family="KGM")  # family names are lower case
