import io
import math
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from lanemden import (
    DiscreteOperator,
    StarConfig,
    assemble,
    build_sl_data,
    classify_stability,
    eigen_residual_strongform,
    graded_mesh,
    instability_witness,
    integrate_gas_profile,
    manufactured_sl_data,
    quadratic_form,
    smallest_eigenpair,
    spectral_result_dict,
    stable_at_zero,
    truncate_liquid,
    weighted_norm_sq,
    write_eigenfunction_csv,
)
from lanemden.spectral import STABLE, UNSTABLE, _positive_definite, _robin_defect

from conftest import get_liquid, get_profile

FOUR_PI = 4 * math.pi


def poly_coeff(d):
    return lambda y: np.asarray(y, dtype=float) ** (d + 1)


def manufactured(d=3, n_grid=257):
    p = poly_coeff(d)
    return manufactured_sl_data(
        d, 1.5, 1.0, p_fn=p, q_fn=lambda y: -p(y), wgt_fn=p, robin_weight=0.0, n_grid=n_grid
    )


def ldl_pivots(diag, off):
    pivots = [diag[0]]
    for i in range(1, len(diag)):
        pivots.append(diag[i] - off[i - 1] ** 2 / pivots[-1])
    return np.array(pivots)


def dense_smallest(op):
    """Smallest eigenvalue of the dense pencil (K, Mw), Jacobi-scaled for accuracy."""
    s = 1.0 / np.sqrt(op.m_diag)
    scale = np.outer(s, s)
    K = op.K.toarray() * scale
    M = op.Mw.toarray() * scale
    return float(eigh(K, M, eigvals_only=True, subset_by_index=[0, 0])[0])


class TestBuildSlData:
    def test_requires_liquid(self):
        gas = get_profile(3, 1.2, 0.5)
        with pytest.raises(ValueError, match="no liquid truncation"):
            build_sl_data(gas)

    def test_q_vanishes_at_neutral_gamma(self):
        # 2(d-1) - d gamma = 0 kills the potential coefficient
        data = build_sl_data(get_liquid(3, 4 / 3, 10.0))
        p, q, _ = data.coeffs(data.grid)
        assert np.max(np.abs(q)) <= 1e-12 * np.max(np.abs(p))

    def test_q_sign(self):
        below = build_sl_data(get_liquid(3, 1.25, 10.0))
        assert np.all(below.coeffs(below.grid)[1][1:] < 0)
        above = build_sl_data(get_liquid(3, 1.5, 10.0))
        assert np.all(above.coeffs(above.grid)[1][1:] > 0)

    def test_q_near_origin_limit(self):
        d, g, rho0 = 3, 1.25, 10.0
        data = build_sl_data(get_liquid(d, g, rho0))
        expected = -(2 * (d - 1) - d * g) * (FOUR_PI / d) * rho0**2
        y = data.grid[1:6]
        ratio = data.coeffs(y)[1] / y ** (d + 1)
        assert np.max(np.abs(ratio / expected - 1)) <= 1e-3

    def test_robin_weight_and_grid(self):
        data = build_sl_data(get_liquid(3, 1.4, 10.0))
        assert data.robin_weight == pytest.approx(3 * 1.4 * data.R**3, rel=1e-14)
        assert data.grid[0] == 0.0
        assert data.grid[-1] == data.R

    def test_accepts_truncated_profile(self):
        t = truncate_liquid(get_liquid(3, 1.4, 10.0))
        data = build_sl_data(t)
        assert data.R == t.liquid_radius


class TestQuadraticForm:
    def test_constant_function_value(self):
        # the q term carries a zero coefficient at gamma = 2(d-1)/d, leaving
        # exactly the boundary term
        data = build_sl_data(get_liquid(3, 4 / 3, 10.0))
        ones = np.ones_like(data.grid)
        assert quadratic_form(data, ones, ones) == pytest.approx(4 * data.R**3, rel=1e-12)

    @pytest.mark.parametrize("min_points", [2048, 4096, 8192])
    def test_constant_function_value_on_finer_grids(self, min_points):
        # the p part is summed from element differences, so it vanishes
        # exactly for a constant however many elements the grid has
        profile = integrate_gas_profile(
            StarConfig(3, 4 / 3, 10.0), r_max=50.0, min_points=min_points, stop_at_liquid=True
        )
        data = build_sl_data(profile)
        ones = np.ones_like(data.grid)
        assert quadratic_form(data, ones, ones) == pytest.approx(4 * data.R**3, rel=1e-12)

    def test_negative_for_large_density(self):
        data = build_sl_data(get_liquid(3, 1.25, 1e4))
        ones = np.ones_like(data.grid)
        assert quadratic_form(data, ones, ones) < 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetry(self, seed):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        rng = np.random.default_rng(seed)
        c1 = rng.standard_normal(len(data.grid))
        c2 = rng.standard_normal(len(data.grid))
        a = quadratic_form(data, c1, c2)
        b = quadratic_form(data, c2, c1)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)

    def test_mesh_mismatch(self):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        with pytest.raises(ValueError, match="mesh mismatch"):
            quadratic_form(data, np.ones(7), np.ones(7))

    @pytest.mark.parametrize("layout", ["uniform", "graded plus one node"])
    def test_arbitrary_nodes_match_closed_form(self, layout):
        # p = y^3, q = y - 2, wgt = 1 + y^2: the 3-point Gauss rule integrates
        # every product of P1 functions exactly, and 1 and y are P1, so the
        # forms on span{1, y} equal the closed-form integrals on [0, L]
        L, robin = 1.3, 0.7
        data = manufactured_sl_data(
            3, 1.5, L, p_fn=lambda y: y**3, q_fn=lambda y: y - 2.0,
            wgt_fn=lambda y: 1.0 + y**2, robin_weight=robin,
        )
        if layout == "uniform":
            nodes = np.linspace(0.0, L, 101)
        else:  # as instability_witness case 3 builds them
            nodes = np.unique(np.concatenate([graded_mesh(L, 64), [L / 100]]))
            assert len(nodes) == 66
        a, b = 0.4, -1.7
        chi1, chi2 = np.ones_like(nodes), a + b * nodes
        # Q[1, a + b y] and <a + b y, a + b y>_wgt
        q_exact = a * (L**2 / 2 - 2 * L + robin) + b * (L**3 / 3 - L**2 + robin * L)
        m_exact = (a**2 * (L + L**3 / 3) + 2 * a * b * (L**2 / 2 + L**4 / 4)
                   + b**2 * (L**3 / 3 + L**5 / 5))
        assert quadratic_form(data, chi1, chi2, nodes) == pytest.approx(q_exact, rel=1e-13)
        assert weighted_norm_sq(data, chi2, nodes) == pytest.approx(m_exact, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-100.0, 100.0).filter(lambda x: abs(x) > 1e-6), seed=st.integers(0, 999))
    def test_rayleigh_scale_invariance(self, c, seed):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        rng = np.random.default_rng(seed)
        chi = rng.standard_normal(len(data.grid))
        rq1 = quadratic_form(data, chi, chi) / weighted_norm_sq(data, chi)
        rq2 = quadratic_form(data, c * chi, c * chi) / weighted_norm_sq(data, c * chi)
        assert rq2 == pytest.approx(rq1, rel=1e-10)


class TestAssemble:
    def test_symmetric_stiffness(self):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        op = assemble(data, 128)
        K = op.K.toarray()
        assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))

    def test_mass_positive_definite(self):
        for d, g, rho0 in ((3, 1.25, 10.0), (5, 1.6, 10.0)):
            op = assemble(build_sl_data(get_liquid(d, g, rho0)), 512)
            assert np.all(ldl_pivots(op.m_diag, op.m_off) > 0)

    def test_rayleigh_consistency_with_quadrature(self):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        op = assemble(data, 1024)
        ones = np.ones(len(op.nodes))
        lhs = op.rayleigh(ones)
        ones_g = np.ones_like(data.grid)
        rhs = quadratic_form(data, ones_g, ones_g) / weighted_norm_sq(data, ones_g)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_mesh_too_small(self):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        with pytest.raises(ValueError):
            assemble(data, 8)

    def test_nodes_graded(self):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        op = assemble(data, 64)
        assert op.nodes[0] == 0.0
        assert op.nodes[-1] == pytest.approx(data.R, rel=1e-15)
        assert np.all(np.diff(np.diff(op.nodes)) > 0)  # spacing grows outward


class TestCertificate:
    PENCILS = [(3, 1.25, 10.0), (3, 1.25, 1e4), (4, 1.5, 3.0), (5, 1.7, 10.0), "manufactured"]

    @pytest.mark.parametrize("mesh", [16, 32, 64])
    @pytest.mark.parametrize("star", PENCILS, ids=str)
    def test_brackets_dense_eigenvalue(self, star, mesh):
        data = manufactured() if star == "manufactured" else build_sl_data(get_liquid(*star))
        op = assemble(data, mesh)
        lam = dense_smallest(op)
        pencil = (op.k_diag, op.k_off, op.m_diag, op.m_off)
        below, above = lam - 1e-6 * abs(lam), lam + 1e-6 * abs(lam)
        assert _positive_definite(*pencil, below)
        assert not _positive_definite(*pencil, above)
        # the Sturm recurrence agrees: all pivots positive below lam, not above
        for sigma, positive in ((below, True), (above, False)):
            pivots = ldl_pivots(op.k_diag - sigma * op.m_diag, op.k_off - sigma * op.m_off)
            assert bool(np.all(pivots > 0)) == positive
        assert smallest_eigenpair(op).mu_star == pytest.approx(lam, rel=1e-9)

    def test_singular_shift_not_positive_definite(self):
        ones, zeros = np.ones(5), np.zeros(4)
        assert not _positive_definite(ones, zeros, ones, zeros, 1.0)
        assert _positive_definite(ones, zeros, ones, zeros, 1.0 - 1e-12)

    def test_nan_coefficients_rejected(self):
        p = poly_coeff(3)

        def q_nan(y):
            out = -p(y)
            out[len(out) // 2] = math.nan
            return out

        data = manufactured_sl_data(3, 1.5, 1.0, p_fn=p, q_fn=q_nan, wgt_fn=p)
        with pytest.raises(ValueError, match="non-finite"):
            assemble(data, 64)


class TestStableAtZero:
    # one line per regime for each d: gamma < 2d/(d+2), between the
    # thresholds, and gamma >= 2(d-1)/d
    LINES = [(3, 1.1), (3, 1.25), (3, 1.5), (4, 1.2), (4, 1.4), (4, 1.7),
             (5, 1.3), (5, 1.5), (5, 1.8)]
    DENSITIES = (1.01, 10.0, 50.3231, 1e3, 1e6)

    @pytest.mark.parametrize("mesh", [2048, 8192])
    def test_agrees_with_full_solve(self, mesh):
        signs = []
        for d, g in self.LINES:
            for rho0 in self.DENSITIES:
                op = assemble(build_sl_data(get_liquid(d, g, rho0)), mesh)
                mu = smallest_eigenpair(op).mu_star
                assert stable_at_zero(op) == (math.copysign(1.0, mu) > 0.0), (d, g, rho0, mu)
                signs.append(mu > 0.0)
        assert len(signs) >= 40
        assert any(signs) and not all(signs)

    @pytest.mark.parametrize("rho0", [50.301901546453614, 50.344305024976556])
    def test_agrees_next_to_the_pinned_crossing(self, rho0):
        # the ends of the pinned line's final bracket, |mu*| small against K
        op = assemble(build_sl_data(get_liquid(3, 1.25, rho0)), 8192)
        mu = smallest_eigenpair(op).mu_star
        assert stable_at_zero(op) == (mu > 0.0)

    def test_singular_stiffness_reads_unstable(self):
        # P1 Neumann Laplacian on a unit mesh: K 1 = 0 exactly and every LDL^T
        # pivot is an integer, so the last one is exactly zero; the unit mass
        # diagonal makes the Jacobi scaling the identity
        n = 65
        k_diag = np.full(n, 2.0)
        k_diag[[0, -1]] = 1.0
        op = DiscreteOperator(
            nodes=np.arange(n, dtype=float),
            k_diag=k_diag,
            k_off=np.full(n - 1, -1.0),
            m_diag=np.ones(n),
            m_off=np.full(n - 1, 0.25),
            mu_lower=-1e-300,
        )
        assert not np.any(op.apply_K(np.ones(n)))
        assert not stable_at_zero(op)
        assert math.copysign(1.0, smallest_eigenpair(op).mu_star) < 0.0

    def test_shifted_laplacian_reads_stable(self):
        n = 65
        k_diag = np.full(n, 2.0)
        k_diag[[0, -1]] = 1.0 + 1e-9
        op = DiscreteOperator(
            nodes=np.arange(n, dtype=float),
            k_diag=k_diag,
            k_off=np.full(n - 1, -1.0),
            m_diag=np.ones(n),
            m_off=np.full(n - 1, 0.25),
            mu_lower=-1e-300,
        )
        assert stable_at_zero(op)
        assert smallest_eigenpair(op).mu_star > 0.0


class TestFusedCoefficients:
    """build_sl_data's one-search coefficients against the two-interpolant path."""

    STARS = [(3, 1.0, 1.01), (3, 1.0, 1e6), (3, 1.25, 50.0), (3, 2.0, 1.01), (3, 2.0, 1e6),
             (4, 1.4, 1e3), (5, 1.5, 10.0), (7, 1.01, 1e3), (7, 1.5, 1.01), (7, 2.0, 1e6),
             (4, 1.2, 1e6)]

    @staticmethod
    def reference_coeffs(profile):
        d, g = profile.config.d, profile.config.gamma
        coef = 2.0 * (d - 1.0) - d * g

        def coeffs(y):
            y = np.asarray(y, dtype=float)
            rho = profile.rho_at(y)
            y_pow = y ** (d + 1)
            return g * rho**g * y_pow, -coef * y * rho * profile.mass_at(y), y_pow * rho

        return coeffs

    @staticmethod
    def reference_assemble(data, mesh):
        # the (M, 3) element layout with numpy row sums
        x = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
        w = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
        nodes = graded_mesh(data.R, mesh)
        yl, yr = nodes[:-1], nodes[1:]
        h = yr - yl
        pts = 0.5 * (yl + yr)[:, None] + 0.5 * h[:, None] * x[None, :]
        wq = 0.5 * h[:, None] * w[None, :]
        p, q, wgt = (np.reshape(c, pts.shape) for c in data.coeffs(pts.ravel()))
        phi_l = (yr[:, None] - pts) / h[:, None]
        phi_r = (pts - yl[:, None]) / h[:, None]

        def hat(c):
            return ((c * phi_l**2 * wq).sum(axis=1), (c * phi_l * phi_r * wq).sum(axis=1),
                    (c * phi_r**2 * wq).sum(axis=1))

        kp = (p * wq).sum(axis=1) / h**2
        (q_ll, q_lr, q_rr), (m_ll, m_lr, m_rr) = hat(q), hat(wgt)
        k_diag, m_diag = np.zeros(len(nodes)), np.zeros(len(nodes))
        k_diag[:-1] += kp + q_ll
        k_diag[1:] += kp + q_rr
        m_diag[:-1] += m_ll
        m_diag[1:] += m_rr
        k_diag[-1] += data.robin_weight
        mu_lower = float(np.minimum((q / wgt).min(), 0.0)) * (1.0 + 1e-12) - 1e-300
        return k_diag, -kp + q_lr, m_diag, m_lr, mu_lower

    @pytest.mark.parametrize("star", STARS, ids=str)
    def test_pencil_bitwise(self, star):
        profile = get_liquid(*star)
        data = build_sl_data(profile)
        reference = replace(data, coeffs=self.reference_coeffs(profile))
        for mesh in (256, 2048, 8192):
            op = assemble(data, mesh)
            ref = self.reference_assemble(reference, mesh)
            for got, want in zip((op.k_diag, op.k_off, op.m_diag, op.m_off), ref[:4]):
                assert got.tobytes() == want.tobytes(), (star, mesh)
            assert float(op.mu_lower).hex() == float(ref[4]).hex(), (star, mesh)

    @pytest.mark.parametrize("star", STARS[:4], ids=str)
    def test_coefficients_bitwise_at_breakpoints(self, star):
        # interval ends, including both ends of the grid, are where the
        # interval search could pick the wrong cubic
        profile = get_liquid(*star)
        data = build_sl_data(profile)
        r = profile.radii
        y = np.concatenate([r, 0.5 * (r[:-1] + r[1:]), np.nextafter(r[1:], 0.0)])
        for got, want in zip(data.coeffs(y), self.reference_coeffs(profile)(y)):
            assert got.tobytes() == want.tobytes()

    def test_rejects_nan_and_out_of_range(self):
        profile = get_liquid(3, 1.25, 50.0)
        coeffs = build_sl_data(profile).coeffs
        for y in ([0.1, math.nan], [-1e-12, 0.1], [0.1, np.nextafter(profile.r_end, math.inf)]):
            with pytest.raises(ValueError, match="outside the profile grid"):
                coeffs(np.array(y))


class TestSmallestEigenpair:
    def test_stable_regime_positive(self):
        res = classify_stability(get_liquid(3, 1.5, 2.0), mesh_size=512)
        assert res.mu_star > 0
        assert res.verdict == STABLE
        assert res.lam is None

    def test_small_density_positive(self):
        res = classify_stability(get_liquid(3, 1.25, 1.01), mesh_size=512)
        assert res.mu_star > 0
        assert res.verdict == STABLE

    def test_large_density_negative_with_growth_rate(self):
        res = classify_stability(get_liquid(3, 1.25, 1e4), mesh_size=512)
        assert res.mu_star < 0
        assert res.verdict == UNSTABLE
        assert res.lam == pytest.approx(math.sqrt(-res.mu_star), rel=1e-14)

    def test_eigenvector_normalized_and_residual(self):
        data = build_sl_data(get_liquid(3, 1.25, 1e4))
        op = assemble(data, 512)
        res = smallest_eigenpair(op, tol_eig=1e-8)
        norm = float(res.chi_star @ op.apply_Mw(res.chi_star))
        assert norm == pytest.approx(1.0, rel=1e-10)
        assert res.residual <= 1e-8

    def test_variational_upper_bound(self):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        op = assemble(data, 512)
        res = smallest_eigenpair(op)
        rng = np.random.default_rng(7)
        for _ in range(20):
            chi = rng.standard_normal(len(op.nodes))
            assert res.mu_star <= op.rayleigh(chi) + 1e-9 * abs(res.mu_star)
            chi_g = rng.standard_normal(len(data.grid))
            rq = quadratic_form(data, chi_g, chi_g) / weighted_norm_sq(data, chi_g)
            assert res.mu_star <= rq + max(1e-6 * abs(rq), 1e-9)

    def test_monotone_mesh_convergence(self):
        p = get_liquid(3, 1.25, 1e4)
        mus = {m: classify_stability(p, mesh_size=m).mu_star for m in (256, 512, 1024, 2048)}
        d1 = abs(mus[512] - mus[256])
        d2 = abs(mus[1024] - mus[512])
        d3 = abs(mus[2048] - mus[1024])
        assert d1 > d2 > d3

    def test_verdict_stable_under_mesh_doubling(self):
        for d, g, rho0 in ((3, 1.4, 10.0), (3, 1.25, 1e4), (3, 1.05, 1.01)):
            p = get_liquid(d, g, rho0)
            v1 = classify_stability(p, mesh_size=512).verdict
            v2 = classify_stability(p, mesh_size=1024).verdict
            assert v1 == v2


class TestSignTheorems:
    def test_stable_regime_battery(self):
        from lanemden.config import stability_threshold

        for d in (3, 4, 5):
            for dg in (0.0, 0.05, 0.1):
                g = min(stability_threshold(d) + dg, 2.0)
                for rho0 in (1.1, 2.0, 10.0, 1e2, 1e3):
                    res = classify_stability(get_liquid(d, g, rho0), mesh_size=384)
                    assert res.mu_star > 0, (d, g, rho0, res.mu_star)

    def test_small_density_battery(self):
        for g in (1.05, 1.15, 1.25, 1.3):
            res = classify_stability(get_liquid(3, g, 1.01), mesh_size=384)
            assert res.mu_star > 0, (g, res.mu_star)

    def test_stable_above_threshold_any_density(self):
        for rho0 in (1.1, 10.0, 1e3):
            res = classify_stability(get_liquid(3, 1.4, rho0), mesh_size=384)
            assert res.verdict == STABLE, (rho0, res.mu_star)

    def test_large_density_battery(self):
        for g in (1.05, 1.15, 1.2, 1.25, 1.3):
            res = classify_stability(get_liquid(3, g, 1e6), mesh_size=384)
            assert res.mu_star < 0, (g, res.mu_star)


class TestWitness:
    def test_case1(self):
        p = get_liquid(3, 1.25, 1e4)
        assert instability_witness(p, 1) < 0

    def test_case2(self):
        p = get_liquid(3, 1.2, 1e6)
        assert instability_witness(p, 2) < 0

    def test_case3(self):
        p = get_liquid(3, 1.1, 1e6)
        val = instability_witness(p, 3)
        assert val < 0

    def test_case3_parameters(self):
        # a = (d - 2 gamma/(2-gamma))/2 satisfies the sufficient condition for d < 10
        d, g = 3, 1.1
        a = 0.5 * (d - 2 * g / (2 - g))
        assert a == pytest.approx(0.2777778, abs=1e-6)
        assert a**2 - 2 * a - (d - 2) == pytest.approx(-1.478395, abs=1e-5)

    def test_case_mismatch(self):
        p = get_liquid(3, 1.25, 1e4)
        with pytest.raises(ValueError):
            instability_witness(p, 3)
        with pytest.raises(ValueError):
            instability_witness(p, 2)
        with pytest.raises(ValueError):
            instability_witness(p, 4)
        p2 = get_liquid(3, 1.1, 1e6)
        with pytest.raises(ValueError):
            instability_witness(p2, 1)

    def test_witness_soundness(self):
        configs = [(3, 1.25, 1e4, 1), (3, 1.2, 1e6, 2), (3, 1.05, 1e6, 3)]
        for d, g, rho0, case in configs:
            p = get_liquid(d, g, rho0)
            if instability_witness(p, case) < 0:
                assert classify_stability(p, mesh_size=512).verdict == UNSTABLE


class TestStrongForm:
    def test_manufactured_eigenpair(self):
        data = manufactured()
        op = assemble(data, 512)
        res = smallest_eigenpair(op)
        assert res.mu_star == pytest.approx(-1.0, abs=1e-9)
        sf = eigen_residual_strongform(data, res)
        assert sf.interior_norm <= 1e-8

    def test_residual_halves_under_refinement(self):
        data = build_sl_data(get_liquid(3, 1.4, 10.0))
        norms = {}
        for mesh in (256, 512, 1024):
            res = smallest_eigenpair(assemble(data, mesh))
            norms[mesh] = eigen_residual_strongform(data, res).interior_norm
        assert norms[512] <= 0.55 * norms[256]
        assert norms[1024] <= 0.55 * norms[512]

    def test_robin_defect_refinement(self):
        # relative to its terms d |chi(R)| + R |chi'(R)|
        data = build_sl_data(get_liquid(3, 4 / 3, 10.0))
        res = smallest_eigenpair(assemble(data, 4096))
        sf = eigen_residual_strongform(data, res)
        assert sf.robin_defect <= 1e-6

    def test_robin_defect_near_flat_centre(self):
        # rho0 = 1 + 1e-9 gives a tiny star whose chi(R) is far from 1; the
        # absolute defect read 6e5 there, the relative one is small
        profile = integrate_gas_profile(StarConfig(3, 1.25, 1 + 1e-9), stop_at_liquid=True)
        res = classify_stability(profile, mesh_size=2048)
        assert res.verdict == STABLE
        assert 0.0 <= res.robin_defect <= 1e-6

    @settings(max_examples=200, deadline=None)
    @given(
        chi=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        gaps=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=2),
        d=st.integers(3, 30),
    )
    def test_robin_defect_at_most_one(self, chi, gaps, d):
        nodes = np.cumsum([0.5, *gaps])
        data = types.SimpleNamespace(d=d, R=float(nodes[-1]))
        result = types.SimpleNamespace(nodes=nodes, chi_star=np.array(chi))
        assert 0.0 <= _robin_defect(data, result) <= 1.0


class TestExports:
    def test_csv_roundtrip_preserves_stability_analysis(self):
        # the profile CSV schema carries everything the eigenproblem needs:
        # a reloaded star must classify identically (bitwise, 17 sig digits)
        from lanemden import read_profile_csv, write_profile_csv

        p = truncate_liquid(get_liquid(3, 1.25, 1e4))
        buf = io.StringIO()
        write_profile_csv(p, buf)
        back = read_profile_csv(io.StringIO(buf.getvalue()))
        direct = classify_stability(p, mesh_size=512)
        reloaded = classify_stability(back, mesh_size=512)
        assert reloaded.mu_star == direct.mu_star
        assert reloaded.verdict == direct.verdict

    def test_result_dict_keys(self):
        res = classify_stability(get_liquid(3, 1.25, 1e4), mesh_size=256)
        payload = spectral_result_dict(res)
        assert set(payload) == {"mu_star", "lambda", "verdict", "marginal", "mesh_size", "robin_defect"}
        assert payload["verdict"] == UNSTABLE
        assert payload["lambda"] == pytest.approx(math.sqrt(-payload["mu_star"]), rel=1e-12)
        assert payload["marginal"] is False
        assert payload["mesh_size"] == 256

    def test_eigenfunction_csv(self):
        res = classify_stability(get_liquid(3, 1.25, 1e4), mesh_size=256)
        buf = io.StringIO()
        write_eigenfunction_csv(res, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "y,chi"
        assert len(lines) == len(res.nodes) + 1
