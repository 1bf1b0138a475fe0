"""Primal-dual mode solver tests.

The mode minimises U = phi + |c|^2/2 + tv_weight * TV.  The full solver is
checked against an exhaustive coefficient-space grid search on a four-pixel
toy problem, and in the smooth case against an independent plain
gradient-descent optimizer; the primal step, the dual projection and the
residuals are checked against hand-made iterates.
"""


import numpy as np
import pytest

from poistomo import (AdmmConfig, CovarianceSpec, Grid, ScalarField,
                      TGPosterior, build_kl_basis, build_radon_operator,
                      simulate_data)
from poistomo.admm import (NORM_K_MARGIN, _norm_k, offset_direction,
                           solve_map, z_step)
from poistomo.fields import grad_arrays, tv_arrays

# ---------------------------------------------------------------------------
# helpers


def mode_objective(post, c):
    """U = phi + |c|^2/2 + tv_weight * TV(z), from scratch."""
    g = post.grid
    z = post.basis.synthesize_values(c).reshape(g.shape)
    return (post.evaluate(c).phi + 0.5 * float(c @ c)
            + post.tv_weight * tv_arrays(z, g.hx, g.hy))


def grad_f(post, c):
    """grad F = phi_grad + c at coefficients c."""
    return post.phi_grad_at(post.evaluate(c)) + c


class _Toy:
    """Four-pixel, four-ray, two-coefficient problem with dense reference math.

    Every evaluation here goes through explicit index arithmetic rather than
    the library's field helpers, so grid searches over the coefficient plane
    act as an independent oracle for the solver.  Two projection angles keep
    both row and column sums in the data; a single angle would leave one
    coefficient direction invisible by symmetry.
    """

    def __init__(self, tv_weight, kappa=40.0):
        self.grid = Grid(2, 2)
        self.op = build_radon_operator(self.grid, 2, 2, kappa=kappa)
        self.basis = build_kl_basis(self.grid, CovarianceSpec(corr_len=0.5), 2)
        truth = ScalarField(self.grid, np.array([[1.3, 2.7], [2.2, 1.6]]))
        sino = simulate_data(self.op, truth, np.random.default_rng(7))
        from poistomo import Reparam
        self.post = TGPosterior(self.op, Reparam(), self.basis, sino,
                                tv_weight=tv_weight)
        # kappa W, column by column: the counts of each one-pixel image
        self.dense = np.array([self.op.apply(e)
                               for e in np.eye(self.grid.npix)]).T
        self.counts = sino.counts.astype(float)

    def latents(self, coeff_rows):
        b = self.basis
        return b.mean + (coeff_rows * np.sqrt(b.eigenvalues)) @ np.asarray(
            b.modes)

    def grad_components(self, z_rows):
        """Forward differences of (n, 4) latent rows on the 2x2 grid.

        Flat order is (x0y0, x0y1, x1y0, x1y1); replicate boundary zeroes the
        last difference along each axis.
        """
        n = z_rows.shape[0]
        hx, hy = self.grid.hx, self.grid.hy
        g1 = np.zeros((n, 2, 2))
        g2 = np.zeros((n, 2, 2))
        g1[:, 0, 0] = (z_rows[:, 2] - z_rows[:, 0]) / hx
        g1[:, 0, 1] = (z_rows[:, 3] - z_rows[:, 1]) / hx
        g2[:, 0, 0] = (z_rows[:, 1] - z_rows[:, 0]) / hy
        g2[:, 1, 0] = (z_rows[:, 3] - z_rows[:, 2]) / hy
        return g1, g2

    def data_misfit(self, coeff_rows):
        u = self.post.rep.apply(self.latents(coeff_rows))
        theta = u @ self.dense.T
        return theta.sum(axis=1) - (self.counts * np.log(theta)).sum(axis=1)

    def objective(self, coeff_rows):
        """Misfit plus the weighted isotropic roughness penalty."""
        g1, g2 = self.grad_components(self.latents(coeff_rows))
        tv = np.hypot(g1, g2).sum(axis=(1, 2)) * self.grid.cell
        return self.data_misfit(coeff_rows) + self.post.tv_weight * tv

    def mode_objective(self, coeff_rows):
        """The objective plus the reference's |c|^2/2: U, row by row."""
        return self.objective(coeff_rows) + 0.5 * np.sum(coeff_rows ** 2,
                                                         axis=1)


def _grid_search(fun, lo, hi, step, block=120):
    """Exhaustive scan of fun over the [lo, hi]^2 coefficient mesh."""
    axis = np.arange(lo, hi + 0.5 * step, step)
    best_val = np.inf
    best_c = None
    for start in range(0, axis.size, block):
        a0 = axis[start:start + block]
        cc = np.stack(np.meshgrid(a0, axis, indexing="ij"), axis=-1)
        rows = cc.reshape(-1, 2)
        vals = fun(rows)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_c = rows[k].copy()
    return best_val, best_c, axis


@pytest.fixture(scope="module")
def toy():
    return _Toy(tv_weight=0.8)


def _record_evaluations(monkeypatch):
    """Coefficient vectors passed to TGPosterior.evaluate, as bytes."""
    seen = []
    evaluate = TGPosterior.evaluate

    def recorded(self, c):
        seen.append(np.asarray(c, dtype=float).tobytes())
        return evaluate(self, c)

    monkeypatch.setattr(TGPosterior, "evaluate", recorded)
    return seen


# ---------------------------------------------------------------------------
# primal step


def test_zstep_doubles_lip_to_a_lipschitz_bound(post16_strong):
    # from lip 1 a plain gradient step (sigma_k2 = 0) doubles lip until it
    # bounds the change of grad F over the step; at half that lip the bound
    # failed
    post = post16_strong
    rng = np.random.default_rng(6)
    c = 0.3 * rng.standard_normal(post.n_modes)
    gf = grad_f(post, c)
    o = np.zeros_like(c)
    c_new, ev, g_new, lip = z_step(post, c, gf, o, 1.0, 0.0)
    assert lip > 1.0 and np.log2(lip) == int(np.log2(lip))
    s = c_new - c
    np.testing.assert_array_equal(c_new, c + -gf / (0.5 * lip))
    assert np.linalg.norm(g_new - gf) <= lip * np.linalg.norm(s)
    c_half = c + -gf / (0.25 * lip)
    assert (np.linalg.norm(grad_f(post, c_half) - gf)
            > 0.5 * lip * np.linalg.norm(c_half - c))
    # the evaluation and gradient returned are those at c+
    np.testing.assert_array_equal(ev.z, post.evaluate(c_new).z)
    np.testing.assert_array_equal(g_new, grad_f(post, c_new))


def test_zstep_keeps_a_lip_that_already_holds(post16):
    # a large lip passes at the first trial: one evaluation, lip unchanged,
    # and the step is -(grad F + o) * tau with tau = 1 / (lip/2 + sigma_k2)
    rng = np.random.default_rng(7)
    c = 0.2 * rng.standard_normal(post16.n_modes)
    o = rng.standard_normal(post16.n_modes)
    gf = grad_f(post16, c)
    c_new, _, _, lip = z_step(post16, c, gf, o, 1024.0, 3.0)
    assert lip == 1024.0
    np.testing.assert_array_equal(c_new, c + -(gf + o) / (512.0 + 3.0))


def test_zstep_descends_and_reports_convergence(post16, map16):
    # at a fixed multiplier the step descends the Lagrangian
    # F(c) + <eta, K c>, and reports the lip it was taken at
    res, _ = map16
    rng = np.random.default_rng(9)
    c = res.coeffs + 0.3 * rng.standard_normal(post16.n_modes)
    o = offset_direction(post16, res.multiplier)
    cell = post16.grid.cell

    def lagrangian(x):
        ev = post16.evaluate(x)
        return (ev.phi + 0.5 * float(x @ x)
                + cell * float(np.vdot(res.multiplier, ev.grad)))

    gf = grad_f(post16, c)
    c_new, _, _, lip = z_step(post16, c, gf, o, 1.0, 3.0)
    assert lagrangian(c_new) < lagrangian(c)
    np.testing.assert_array_equal(c_new, c + -(gf + o) / (0.5 * lip + 3.0))


def test_zstep_never_evaluates_a_point_twice(post16_strong, monkeypatch):
    # every doubling of lip moves the trial point, so a step costs one
    # evaluation for each trial, and no point is evaluated twice
    post = post16_strong
    c = 0.3 * np.random.default_rng(6).standard_normal(post.n_modes)
    gf = grad_f(post, c)
    seen = _record_evaluations(monkeypatch)
    _, _, _, lip = z_step(post, c, gf, np.zeros_like(c), 1.0, 0.0)
    assert len(seen) == len(set(seen)) == 1 + int(np.log2(lip))


def test_zstep_budget_exhaustion_is_reported(post16_strong, monkeypatch):
    # a step that needs more doublings than MAX_BACKTRACKS raises
    from poistomo import admm
    post = post16_strong
    c = 0.3 * np.random.default_rng(6).standard_normal(post.n_modes)
    gf = grad_f(post, c)
    o = np.zeros_like(c)
    _, _, _, lip = z_step(post, c, gf, o, 1.0, 0.0)
    monkeypatch.setattr(admm, "MAX_BACKTRACKS", int(np.log2(lip)))
    with pytest.raises(RuntimeError, match="backtracked"):
        z_step(post, c, gf, o, 1.0, 0.0)


def test_zstep_gradient_matches_finite_differences(post16):
    # grad F = phi_grad + c is the gradient of F = phi + |c|^2/2
    rng = np.random.default_rng(8)
    c = 0.2 * rng.standard_normal(post16.n_modes)
    g = grad_f(post16, c)

    def f(x):
        return post16.evaluate(x).phi + 0.5 * float(x @ x)

    for k in rng.choice(post16.n_modes, size=8, replace=False):
        h = 1e-6
        cp = c.copy()
        cp[k] += h
        cm = c.copy()
        cm[k] -= h
        assert (f(cp) - f(cm)) / (2 * h) == pytest.approx(g[k], rel=1e-5,
                                                          abs=1e-8)


def test_norm_k_bounds_the_operator_norm(toy):
    # on the two-mode toy K is a dense 8 x 2 matrix in the cell pairing:
    # the power iteration reads its largest singular value, and the bound
    # is that value times the stated margin, above it
    post = toy.post
    g = post.grid
    cols = []
    for e in np.eye(post.n_modes):
        z0 = post.basis.synthesize_values(np.zeros(2)).reshape(g.shape)
        z1 = post.basis.synthesize_values(e).reshape(g.shape)
        cols.append(np.sqrt(g.cell) * (grad_arrays(z1, g.hx, g.hy)
                                       - grad_arrays(z0, g.hx, g.hy)).ravel())
    k = np.array(cols).T
    norm = np.linalg.norm(k, 2)
    assert _norm_k(post) == pytest.approx(NORM_K_MARGIN * norm, rel=1e-9)
    assert _norm_k(post) > norm


# ---------------------------------------------------------------------------
# multiplier step


def test_dual_update_vanishes_without_tv():
    # without a TV term the ball is the zero vector, so the multiplier
    # never leaves zero and the iteration is gradient descent on F
    smooth = _Toy(tv_weight=0.0)
    res = solve_map(smooth.post, AdmmConfig(rho_pen=1.3, max_outer=3))
    assert np.all(res.multiplier == 0.0)


def test_dual_update_increment_scales_with_penalty(toy):
    # from c = 0 and y = 0 the first multiplier is the projection of
    # sigma K(2 c1 - c0), sigma = rho_pen / |K|, bit for bit, with c1 the
    # first primal step; and some pixel is cut back to the ball
    post = toy.post
    w = post.tv_weight
    nk = _norm_k(post)
    c0 = np.zeros(post.n_modes)
    ev0 = post.evaluate(c0)
    for rho_pen in (1.0, 1.3, 3.0):
        res = solve_map(post, AdmmConfig(rho_pen=rho_pen, max_outer=1))
        _, ev1, _, _ = z_step(post, c0, grad_f(post, c0), np.zeros(2), 1.0,
                              rho_pen * nk)
        y = rho_pen / nk * (2.0 * ev1.grad - ev0.grad)
        mag = np.hypot(y[0], y[1])
        y *= np.divide(w, mag, out=np.ones_like(mag), where=mag > w)
        np.testing.assert_array_equal(res.multiplier, y)
        assert np.any(res.multiplier != 0.0)


def test_returned_pair_meets_the_optimality_conditions(post16, map16):
    # where grad z is clear of zero at the returned coefficients, eta* is
    # its direction scaled to the ball's edge: w grad z / |grad z|
    res, cfg = map16
    gz = post16.evaluate(res.coeffs).grad
    mag = np.hypot(gz[0], gz[1])
    live = mag > 1e-3 * mag.max()
    assert live.sum() >= 20
    want = post16.tv_weight * gz[:, live] / mag[live]
    assert np.max(np.abs(res.multiplier[:, live] - want)) <= 10 * cfg.tol


def test_multiplier_lies_in_the_ball(post16, map16):
    # every iterate of the dual is projected: |eta*| <= tv_weight pointwise
    res, _ = map16
    mag = np.hypot(res.multiplier[0], res.multiplier[1])
    assert np.all(mag <= post16.tv_weight * (1.0 + 1e-15))
    assert np.any(mag >= post16.tv_weight * (1.0 - 1e-12))


# ---------------------------------------------------------------------------
# full solver


def test_smooth_case_matches_plain_gradient_descent():
    smooth = _Toy(tv_weight=0.0)
    res = solve_map(smooth.post, AdmmConfig(max_outer=2000, tol=1e-9))
    assert res.converged
    u_solver = mode_objective(smooth.post, res.coeffs)

    # independent optimizer: Armijo gradient descent straight on
    # F = phi + |c|^2/2
    c = np.zeros(smooth.post.n_modes)

    def f(x):
        return smooth.post.evaluate(x).phi + 0.5 * float(x @ x)

    fc = f(c)
    step = 1.0
    for _ in range(5000):
        g = grad_f(smooth.post, c)
        gn2 = float(g @ g)
        if np.sqrt(gn2) <= 1e-9:
            break
        while True:
            c_try = c - step * g
            f_try = f(c_try)
            if f_try <= fc - 1e-4 * step * gn2:
                break
            step *= 0.5
        c, fc = c_try, f_try
        step *= 2.0
    assert abs(u_solver - fc) <= 1e-7 * abs(fc)
    assert np.max(np.abs(res.coeffs - c)) <= 1e-4


def test_toy_objective_matches_exhaustive_search(toy):
    res = solve_map(toy.post, AdmmConfig(max_outer=2000, tol=1e-7))
    assert res.converged
    u_solver = mode_objective(toy.post, res.coeffs)

    coarse_val, c_best, axis = _grid_search(toy.mode_objective, -5.0, 5.0,
                                            0.01)
    assert np.all(np.abs(c_best) < axis[-1] - 0.01)
    # refine twice around the winner for a sharp reference value
    best = c_best
    for half, step in ((0.02, 5e-4), (1e-3, 2.5e-5)):
        ax0 = np.arange(best[0] - half, best[0] + half + 0.5 * step, step)
        ax1 = np.arange(best[1] - half, best[1] + half + 0.5 * step, step)
        rows = np.stack(np.meshgrid(ax0, ax1, indexing="ij"),
                        axis=-1).reshape(-1, 2)
        vals = toy.mode_objective(rows)
        best = rows[int(np.argmin(vals))]
    refined = float(vals.min())
    assert refined <= coarse_val + 1e-12
    # the solver is at or below the mesh's best point, and within 1e-7
    assert u_solver <= refined + 1e-12
    assert abs(u_solver - refined) <= 1e-7 * abs(refined)
    assert np.max(np.abs(res.coeffs - best)) <= 2.5e-5


def test_default_tolerance_is_within_1e7_of_a_tight_solve(post16):
    # at the default tol U is already within 1e-7 relative of U at tol 1e-8
    loose = solve_map(post16)
    tight = solve_map(post16, AdmmConfig(max_outer=2000, tol=1e-8))
    assert loose.converged and tight.converged
    u_loose = mode_objective(post16, loose.coeffs)
    u_tight = mode_objective(post16, tight.coeffs)
    assert abs(u_loose - u_tight) <= 1e-7 * abs(u_tight)


def test_exit_contract_reports_tolerance_or_budget(toy):
    for cfg in (AdmmConfig(max_outer=3, tol=1e-12),
                AdmmConfig(max_outer=2000, tol=1e-6)):
        res = solve_map(toy.post, cfg)
        if res.converged:
            assert res.primal[-1] <= cfg.tol and res.dual[-1] <= cfg.tol
        else:
            assert res.iterations == cfg.max_outer
        assert res.primal.size == res.iterations
        assert res.dual.size == res.iterations
        assert res.objective.size == res.iterations
    assert res.converged and res.iterations < cfg.max_outer


def test_solver_is_deterministic(toy, post16):
    # two solves are bit-equal: the power iteration draws from no RNG
    for post in (toy.post, post16):
        cfg = AdmmConfig(max_outer=20, tol=1e-9)
        a = solve_map(post, cfg)
        b = solve_map(post, cfg)
        for name in ("coeffs", "multiplier", "objective", "primal", "dual"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert (a.iterations, a.converged) == (b.iterations, b.converged)


def test_median_primal_residual_trend(map16):
    res, _cfg = map16
    n = res.primal.size
    assert n >= 9
    for hist in (res.primal, res.dual):
        first = np.median(hist[: n // 3])
        last = np.median(hist[-(n // 3):])
        assert last <= first


# ---------------------------------------------------------------------------
# offset direction


def test_offset_direction_vanishes_at_solution(post16, map16):
    # at the mode phi_grad + c + o is zero, to tol relative to the largest
    # of its three terms: the pdpcn drift phi_grad + o there is -c
    res, cfg = map16
    c = res.coeffs
    pg = post16.phi_grad_at(post16.evaluate(c))
    o = offset_direction(post16, res.multiplier)
    scale = max(np.linalg.norm(pg), np.linalg.norm(c), np.linalg.norm(o))
    assert float(np.linalg.norm(pg + c + o)) <= cfg.tol * scale
    assert float(np.linalg.norm(pg + c + o)) <= 1e-3 * np.linalg.norm(c)


def test_offset_direction_matches_finite_differences(post16, map16):
    # phi_grad_at + offset_direction is the coefficient gradient of
    # phi + cell * <eta*, grad z>
    res, _ = map16
    rng = np.random.default_rng(13)
    c = res.coeffs + 0.4 * rng.standard_normal(post16.n_modes)
    g = (post16.phi_grad_at(post16.evaluate(c))
         + offset_direction(post16, res.multiplier))
    cell = post16.grid.cell

    def saddle(x):
        ev = post16.evaluate(x)
        return ev.phi + cell * float(np.vdot(res.multiplier, ev.grad))

    for k in rng.choice(post16.n_modes, size=8, replace=False):
        h = 1e-6
        cp = c.copy()
        cp[k] += h
        cm = c.copy()
        cm[k] -= h
        fd = (saddle(cp) - saddle(cm)) / (2 * h)
        assert fd == pytest.approx(g[k], rel=1e-5, abs=1e-8)


def test_offset_direction_checks_anchor_shape(post16, map16):
    # the multiplier must be (2, nx, ny) on the posterior's grid
    res, _ = map16
    for bad in (res.multiplier[0], res.multiplier[:, :-1],
                np.zeros((3, 16, 16))):
        with pytest.raises(ValueError):
            offset_direction(post16, bad)


# ---------------------------------------------------------------------------
# bookkeeping


def test_initial_state_contract(toy, monkeypatch):
    # solve_map starts at c = 0, y = 0 and lip 1: its first iterate is one
    # made by hand from there
    seen = _record_evaluations(monkeypatch)
    cfg = AdmmConfig(max_outer=1)
    res = solve_map(toy.post, cfg)
    c0 = np.zeros(2)
    assert seen[0] == c0.tobytes()
    c1, _, _, _ = z_step(toy.post, c0, grad_f(toy.post, c0), np.zeros(2),
                         1.0, cfg.rho_pen * _norm_k(toy.post))
    np.testing.assert_array_equal(res.coeffs, c1)
    assert res.iterations == 1


def test_lagrangian_is_the_explicit_sum(post16):
    # the duality the solver rests on: over |y| <= w pointwise the
    # Lagrangian F(c) + cell * <y, grad z> is largest at y = w grad z /
    # |grad z|, where it is the explicit sum phi + |c|^2/2 + w * TV(z);
    # every other point of the ball gives less
    rng = np.random.default_rng(14)
    g = post16.grid
    w = post16.tv_weight
    c = 0.3 * rng.standard_normal(post16.n_modes)
    ev = post16.evaluate(c)
    gz = ev.grad
    mag = np.hypot(gz[0], gz[1])

    def lagrangian(y):
        return ev.phi + 0.5 * float(c @ c) + g.cell * float(np.vdot(y, gz))

    best = lagrangian(w * np.divide(gz, mag, out=np.zeros_like(gz),
                                    where=mag > 0))
    assert best == pytest.approx(mode_objective(post16, c), rel=1e-12)
    for _ in range(20):
        other = rng.standard_normal(gz.shape)
        m = np.hypot(other[0], other[1])
        other *= w * rng.uniform(0, 1, m.shape) / m
        assert lagrangian(other) <= best


def test_objective_history_tracks_true_target(toy):
    res = solve_map(toy.post, AdmmConfig(max_outer=6, tol=1e-12))
    assert res.iterations == 6
    c = res.coeffs
    z = toy.post.basis.synthesize_values(c)
    want = (toy.post.evaluate(c).phi + 0.5 * float(c @ c)
            + toy.post.tv_weight * tv_arrays(z.reshape(2, 2),
                                             toy.grid.hx, toy.grid.hy))
    assert res.objective[-1] == pytest.approx(want, rel=1e-12)


def test_solver_evaluates_each_state_once(toy, monkeypatch):
    # the dual step, the residuals and the objective history reuse the
    # primal step's evaluation, and no point is evaluated twice
    seen = _record_evaluations(monkeypatch)
    res = solve_map(toy.post, AdmmConfig(max_outer=6, tol=1e-12))
    assert res.iterations == 6
    assert len(seen) == len(set(seen))


def test_map_line_search_costs_about_one_evaluation_an_iteration(
        post16, monkeypatch):
    # one evaluation at the start, one an iteration, and one for each
    # doubling of lip, which starts at 1 and never shrinks
    from poistomo import admm
    lips = []

    def counted(*args):
        out = z_step(*args)
        lips.append(out[3])
        return out

    monkeypatch.setattr(admm, "z_step", counted)
    seen = _record_evaluations(monkeypatch)
    res = solve_map(post16, AdmmConfig(max_outer=20))
    assert lips == sorted(lips)
    assert len(seen) == 1 + res.iterations + int(np.log2(lips[-1]))


@pytest.mark.parametrize("kwargs", [
    {"rho_pen": 0.0},
    {"rho_pen": -1.0},
    {"tol": 0.0},
    {"tol": -1e-6},
    {"max_outer": 0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        AdmmConfig(**kwargs)


@pytest.mark.parametrize("key", ["rho_pen", "tol"])
def test_config_refuses_nan(key):
    with pytest.raises(ValueError):
        AdmmConfig(**{key: float("nan")})
