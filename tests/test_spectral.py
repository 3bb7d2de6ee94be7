import io
import math
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, solve_banded
import scipy.linalg.lapack
from scipy.linalg.lapack import dpttrf, dpttrs

from lanemden import (
    DiscreteOperator,
    StarConfig,
    assemble,
    build_sl_data,
    certified_search,
    classify_stability,
    eigen_residual_strongform,
    graded_mesh,
    instability_witness,
    liquid_radius,
    manufactured_sl_data,
    quadratic_form,
    smallest_eigenpair,
    spectral_result_dict,
    stable_at_zero,
    weighted_norm_sq,
    write_eigenfunction_csv,
)
from lanemden import harness, spectral, steady
from lanemden.spectral import (
    STABLE,
    UNSTABLE,
    _CertifiedBracket,
    _jacobi_scaled,
    _positive_definite,
    _robin_defect,
    _solve,
    _Tridiagonal,
)

from conftest import SEED0_LINES, get_gas, get_liquid, rho_and_mass

FOUR_PI = 4 * math.pi


def poly_coeff(d):
    return lambda y: np.asarray(y, dtype=float) ** (d + 1)


def manufactured(d=3):
    p = poly_coeff(d)
    return manufactured_sl_data(d, 1.5, 1.0, p_fn=p, q_fn=lambda y: -p(y), wgt_fn=p, robin_weight=0.0)


def ldl_pivots(diag, off):
    pivots = [diag[0]]
    for i in range(1, len(diag)):
        pivots.append(diag[i] - off[i - 1] ** 2 / pivots[-1])
    return np.array(pivots)


def dense_tridiagonal(diag, off):
    """The symmetric tridiagonal matrix with the given diagonal and off-diagonal, as a dense array."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def dense_smallest(op):
    """Smallest eigenvalue of the dense pencil (K, Mw), Jacobi-scaled for accuracy."""
    s = 1.0 / np.sqrt(op.m_diag)
    scale = np.outer(s, s)
    K = dense_tridiagonal(op.k_diag, op.k_off) * scale
    M = dense_tridiagonal(op.m_diag, op.m_off) * scale
    return float(eigh(K, M, eigvals_only=True, subset_by_index=[0, 0])[0])


def mesh_of(data, mesh=2048):
    """The graded mesh assemble puts on data's [0, R]."""
    return graded_mesh(data.R, mesh)


class TestBuildSlData:
    def test_requires_liquid(self):
        with pytest.raises(ValueError, match="no liquid truncation"):
            build_sl_data(get_gas(3, 1.2, 0.5))

    def test_run_ending_before_its_surface_raises_cleanly(self):
        # the run stops at r_max = 0.01, short of R: liquid_read's error, not
        # a missing attribute
        run = steady.gas_read(StarConfig(3, 1.2, 10.0), r_max=0.01)
        for call in (build_sl_data, classify_stability):
            with pytest.raises(RuntimeError, match=r"lies beyond r_max = 0\.01 \(increase r_max\)"):
                call(run)

    def test_q_vanishes_at_neutral_gamma(self):
        # 2(d-1) - d gamma = 0 kills the potential coefficient
        data = build_sl_data(get_liquid(3, 4 / 3, 10.0))
        p, q, _ = data.coeffs(mesh_of(data))
        assert np.max(np.abs(q)) <= 1e-12 * np.max(np.abs(p))

    def test_q_sign(self):
        below = build_sl_data(get_liquid(3, 1.25, 10.0))
        assert np.all(below.coeffs(mesh_of(below))[1][1:] < 0)
        above = build_sl_data(get_liquid(3, 1.5, 10.0))
        assert np.all(above.coeffs(mesh_of(above))[1][1:] > 0)

    def test_q_near_origin_limit(self):
        d, g, rho0 = 3, 1.25, 10.0
        data = build_sl_data(get_liquid(d, g, rho0))
        expected = -(2 * (d - 1) - d * g) * (FOUR_PI / d) * rho0**2
        y = mesh_of(data)[1:6]
        ratio = data.coeffs(y)[1] / y ** (d + 1)
        assert np.max(np.abs(ratio / expected - 1)) <= 1e-3

    def test_robin_weight_and_grid(self):
        data = build_sl_data(get_liquid(3, 1.4, 10.0))
        assert data.robin_weight == pytest.approx(3 * 1.4 * data.R**3, rel=1e-14)
        nodes = assemble(data, 64).nodes
        assert nodes[0] == 0.0
        assert nodes[-1] == data.R

    def test_accepts_truncated_profile(self):
        # the liquid star's samples end at R, the pencil's end
        t = get_liquid(3, 1.4, 10.0)
        samples = t.profile()
        assert samples.kind == "liquid-truncated"
        data = build_sl_data(t)
        assert data.R == t.liquid_radius == samples.radii[-1]


class TestQuadraticForm:
    def test_constant_function_value(self):
        # the q term carries a zero coefficient at gamma = 2(d-1)/d, leaving
        # exactly the boundary term
        data = build_sl_data(get_liquid(3, 4 / 3, 10.0))
        nodes = mesh_of(data)
        ones = np.ones_like(nodes)
        assert quadratic_form(data, ones, ones, nodes) == pytest.approx(4 * data.R**3, rel=1e-12)

    @pytest.mark.parametrize("min_points", [2048, 4096, 8192])
    def test_constant_function_value_on_finer_grids(self, min_points):
        # the p part is summed from element differences, so it vanishes
        # exactly for a constant however many elements the grid has: here
        # the star's own samples at min_points
        star = get_liquid(3, 4 / 3, 10.0)
        data = build_sl_data(star)
        nodes = star.profile(min_points).radii
        ones = np.ones_like(nodes)
        assert quadratic_form(data, ones, ones, nodes) == pytest.approx(4 * data.R**3, rel=1e-12)

    def test_negative_for_large_density(self):
        data = build_sl_data(get_liquid(3, 1.25, 1e4))
        nodes = mesh_of(data)
        ones = np.ones_like(nodes)
        assert quadratic_form(data, ones, ones, nodes) < 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetry(self, seed):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        nodes = mesh_of(data)
        rng = np.random.default_rng(seed)
        c1 = rng.standard_normal(len(nodes))
        c2 = rng.standard_normal(len(nodes))
        a = quadratic_form(data, c1, c2, nodes)
        b = quadratic_form(data, c2, c1, nodes)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)

    def test_mesh_mismatch(self):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        with pytest.raises(ValueError, match="mesh mismatch"):
            quadratic_form(data, np.ones(7), np.ones(7), mesh_of(data, 64))

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
        nodes = mesh_of(data)
        rng = np.random.default_rng(seed)
        chi = rng.standard_normal(len(nodes))
        rq1 = quadratic_form(data, chi, chi, nodes) / weighted_norm_sq(data, chi, nodes)
        rq2 = quadratic_form(data, c * chi, c * chi, nodes) / weighted_norm_sq(data, c * chi, nodes)
        assert rq2 == pytest.approx(rq1, rel=1e-10)


class TestAssemble:
    def test_symmetric_stiffness(self):
        data = build_sl_data(get_liquid(3, 1.25, 10.0))
        op = assemble(data, 128)
        K = dense_tridiagonal(op.k_diag, op.k_off)
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
        nodes = mesh_of(data)
        ones_g = np.ones_like(nodes)
        rhs = quadratic_form(data, ones_g, ones_g, nodes) / weighted_norm_sq(data, ones_g, nodes)
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
        # a numerical failure, not a usage error: the inputs were valid
        with pytest.raises(RuntimeError, match="non-finite"):
            assemble(data, 64)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def tridiagonal(d, e):
    t = _Tridiagonal(len(d))
    t.d[:], t.e[:] = d, e
    return t


@pytest.fixture(params=["in-use", "scipy-fallback"])
def lapack_pair(request, monkeypatch):
    """(pttrf, pttrs) as spectral uses them, and as the fallback picks them when numpy has no symbols."""
    if request.param == "in-use":
        return spectral._pttrf, spectral._pttrs
    monkeypatch.setattr(spectral, "_openblas_lapack", lambda: None)
    return spectral._lapack_pair()


class TestLapackPair:
    """_pttrf/_pttrs against scipy.linalg.lapack's dpttrf/dpttrs, bit for bit."""

    @staticmethod
    def shifted_tridiagonal(n, fail_at):
        # diagonal in [4, 5] and off-diagonal in [-0.5, 0.5], shifted by 2:
        # every pivot is at least 1.9, except that a diagonal entry of 1 at
        # fail_at (counted from 1) makes that pivot the first non-positive one
        rng = np.random.default_rng(n + (fail_at or 0))
        d, e = 4.0 + rng.random(n), rng.random(n - 1) - 0.5
        if fail_at is not None:
            d[fail_at - 1] = 1.0
        return d - 2.0, e

    @pytest.mark.parametrize("n", [2, 17, 2049, 8193])
    @pytest.mark.parametrize("fail_at", [None, 1, "interior", "n"])
    def test_factor_and_info_match_scipy(self, lapack_pair, n, fail_at):
        pttrf, pttrs = lapack_pair
        k = {"interior": n // 2 + 1, "n": n}.get(fail_at, fail_at)
        d, e = self.shifted_tridiagonal(n, k)
        t = tridiagonal(d, e)
        want_d, want_e, want_info = dpttrf(d, e)
        assert pttrf(t) == want_info == (k or 0)
        assert same_bits(t.d, want_d) and same_bits(t.e, want_e)
        if k is None:
            b = np.random.default_rng(n).standard_normal(n)
            want_x, info = dpttrs(want_d, want_e, b)
            assert info == 0
            x = pttrs(t, b)
            assert same_bits(x, want_x)
            assert x is not b and same_bits(t.d, want_d)  # the solve changes neither b nor the factor

    def test_zero_pivot_stops_the_factorisation(self, lapack_pair):
        pttrf, _ = lapack_pair
        for k in (1, 3):
            d, e = np.ones(5), np.zeros(4)
            d[k - 1] = 0.0
            assert pttrf(tridiagonal(d, e)) == dpttrf(d, e)[2] == k

    def test_fallback_calls_scipy_where_numpy_has_no_symbols(self, monkeypatch):
        calls = []

        def spy(name, routine):
            def call(*args, **kwargs):
                calls.append(name)
                return routine(*args, **kwargs)

            return call

        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", spy("dpttrf", dpttrf))
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", spy("dpttrs", dpttrs))
        monkeypatch.setattr(spectral, "_openblas_lapack", lambda: None)
        pttrf, pttrs = spectral._lapack_pair()
        t = tridiagonal(*self.shifted_tridiagonal(17, None))
        assert pttrf(t) == 0
        pttrs(t, np.ones(17))
        assert calls == ["dpttrf", "dpttrs"]

    def test_solve_rejects_a_mismatched_right_hand_side(self, lapack_pair):
        pttrf, pttrs = lapack_pair
        t = tridiagonal(*self.shifted_tridiagonal(17, None))
        assert pttrf(t) == 0
        for b in (np.ones(16), np.ones(18)):
            with pytest.raises(ValueError):
                pttrs(t, b)


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


def reference_eigenpair(op, tol_eig=1e-8):
    """The solver smallest_eigenpair replaced, kept as the reference.

    Bisection of [mu_lower, RQ(1)] by inertia counts until the ends are
    adjacent doubles, then banded-LU inverse iteration shifted to the lower
    end with a shift back-off.  Returns mu*, chi*, verdict, marginal and the
    number of counts.
    """
    n = len(op.k_diag)
    ones = np.ones(n)
    rq_ones = op.rayleigh(ones)
    s, scaled = _jacobi_scaled(op)
    kd, ke, md, me = scaled.k_diag, scaled.k_off, scaled.m_diag, scaled.m_off
    counts = 0

    def positive_definite(sigma):
        nonlocal counts
        counts += 1
        return _positive_definite(kd, ke, md, me, sigma)

    lo = op.mu_lower
    hi = rq_ones + abs(rq_ones) * 1e-12 + 1e-300
    while not positive_definite(lo):
        lo -= max(1.0, abs(lo))
    if lo >= hi:
        lo = hi - max(abs(hi) * 1e-12, 1e-300)
    for _ in range(140):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if positive_definite(mid):
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)

    row_sum = np.abs(kd).copy()
    row_sum[:-1] += np.abs(ke)
    row_sum[1:] += np.abs(ke)
    spectral_scale = float(row_sum.max()) / max(1.0 - 2.0 * float(np.abs(me).max()), 0.05)
    sigma, z = lo, ones.copy()
    for attempt in range(5):
        ab = np.zeros((3, n))
        ab[0, 1:] = ke - sigma * me
        ab[1, :] = kd - sigma * md
        ab[2, :-1] = ke - sigma * me
        converged = False
        for _ in range(50):
            try:
                with np.errstate(all="ignore"):
                    y = solve_banded((1, 1), ab, scaled.apply_Mw(z))
            except np.linalg.LinAlgError:
                break
            nrm = math.sqrt(abs(float(y @ scaled.apply_Mw(y))))
            if not np.all(np.isfinite(y)) or nrm == 0.0 or not math.isfinite(nrm):
                break
            z = y / nrm
            Mz = scaled.apply_Mw(z)
            residual = float(np.linalg.norm(scaled.apply_K(z) - mu * Mz)) / (
                float(np.linalg.norm(Mz)) * spectral_scale
            )
            if residual <= tol_eig:
                converged = True
                break
        if converged:
            break
        sigma -= max(abs(sigma), 1.0) * 10.0 ** (-12 + 2 * attempt)
        z = ones.copy()
    else:
        raise RuntimeError("reference eigensolver did not converge")
    x = s * z
    x /= math.sqrt(abs(float(x @ op.apply_Mw(x))))
    if x[int(np.argmax(np.abs(x)))] < 0.0:
        x = -x
    margin = tol_eig * max(abs(mu), abs(rq_ones))
    return types.SimpleNamespace(
        mu_star=mu,
        chi_star=x,
        verdict=UNSTABLE if mu < -margin else STABLE,
        marginal=abs(mu) <= margin,
        counts=counts,
    )


def stated_width(result, op):
    """The certified bracket's widest: 2 w, w = 5e-11 max(1, (mesh/2048)^2) max(|mu*|, |RQ(1)|).

    The probe's ends are RQ -+ w rounded, so the width may exceed 2 w by
    rounding: an ulp of each end is allowed.
    """
    mesh = len(op.nodes) - 1
    scale = max(abs(result.mu_star), abs(op.rayleigh(np.ones(len(op.nodes)))))
    ulps = sum(np.spacing(abs(end)) for end in result.bracket)
    return 2.0 * 5e-11 * max(1.0, (mesh / 2048) ** 2) * scale + ulps


def shifted(op, shift):
    """The pencil (K - shift Mw, Mw): every eigenvalue moves down by shift."""
    return replace(
        op,
        k_diag=op.k_diag - shift * op.m_diag,
        k_off=op.k_off - shift * op.m_off,
        mu_lower=op.mu_lower - abs(shift),
    )


class TestCertifiedSearch:
    """smallest_eigenpair against the adjacent-doubles bisection it replaced."""

    def check_against_reference(self, op, tol_eig=1e-8, mu_tol=None):
        res = smallest_eigenpair(op, tol_eig)
        ref = reference_eigenpair(op, tol_eig)
        lo, hi = res.bracket
        _, scaled = _jacobi_scaled(op)
        pencil = (scaled.k_diag, scaled.k_off, scaled.m_diag, scaled.m_off)
        assert _positive_definite(*pencil, lo)
        assert not _positive_definite(*pencil, hi)
        assert lo < res.mu_star < hi or np.nextafter(lo, math.inf) == hi
        assert hi - lo <= stated_width(res, op)
        assert abs(res.mu_star - ref.mu_star) <= (hi - lo if mu_tol is None else mu_tol)
        assert (res.verdict, res.marginal) == (ref.verdict, ref.marginal)
        assert res.inertia_counts <= ref.counts
        # at most 10 solves to settle the Rayleigh quotient and one on the
        # final lower end; the residual test never asks for more here
        assert 2 <= res.solves <= 11
        assert res.residual <= tol_eig
        # the same eigenvector as the reference's
        assert abs(float(res.chi_star @ op.apply_Mw(ref.chi_star))) == pytest.approx(1.0, abs=1e-8)
        return res, ref

    @pytest.mark.parametrize("mesh", [2048, 8192])
    def test_stars(self, mesh):
        counts, ref_counts = [], []
        for d, g in TestStableAtZero.LINES:
            for rho0 in TestStableAtZero.DENSITIES:
                op = assemble(build_sl_data(get_liquid(d, g, rho0)), mesh)
                res, ref = self.check_against_reference(op)
                counts.append(res.inertia_counts)
                ref_counts.append(ref.counts)
        # the regula falsi steps do the work: at most half the reference's counts
        assert np.median(counts) <= 0.5 * np.median(ref_counts)

    def test_count_budget(self):
        # counts narrow only to 0.1 of the scale, and the Rayleigh quotient's
        # two counts certify the rest; the search that narrowed by counts to
        # 1e-12 of the scale took a median of 20 and at most 46 here
        counts = [smallest_eigenpair(assemble(build_sl_data(get_liquid(d, g, rho0)), 2048)).inertia_counts
                  for d, g in TestStableAtZero.LINES for rho0 in TestStableAtZero.DENSITIES]
        assert len(counts) == 45
        assert np.median(counts) <= 12 and max(counts) <= 32

    @pytest.mark.parametrize("start", ["rq", "lower-bound"])
    @pytest.mark.parametrize("tol_eig", [1e-8, 1e6])
    def test_returned_factor_is_lo_s(self, start, tol_eig):
        # the counts share two slots: the factor held must be a fresh
        # L D L^T of the scaled K - lo Mw, bit for bit, after every step.
        # Starting hi at the lower bound makes lo move in the upper-bound
        # loop; narrowing to the width tol_eig = 1e6 stops right after that
        # loop, so no later move of lo can hide a slot overwritten there.
        # tol_eig = 1e-8 narrows to that width, and a probe around the
        # midpoint and the margin counts move lo again
        def check(bracket):
            lo = bracket.lo
            want_d, want_e, info = dpttrf(scaled.k_diag - lo, scaled.k_off - lo * scaled.m_off)
            assert info == 0
            assert same_bits(bracket.factor.d, want_d) and same_bits(bracket.factor.e, want_e), (d, g, rho0)

        moved_up, stars = 0, 0
        for d, g in TestStableAtZero.LINES:
            for rho0 in TestStableAtZero.DENSITIES:
                op = assemble(build_sl_data(get_liquid(d, g, rho0)), 2048)
                _, scaled = _jacobi_scaled(op)
                rq = op.rayleigh(np.ones(len(op.nodes)))
                hi = op.mu_lower if start == "lower-bound" else rq + abs(rq) * 1e-12 + 1e-300
                bracket = _CertifiedBracket(scaled, op.mu_lower, hi, rq)
                bracket.narrow(tol_eig)
                check(bracket)
                # the first count above the lower bound is at hi0; lo >= hi0
                # only if that count, in the upper-bound loop, moved lo
                hi0 = max(hi, op.mu_lower + max(abs(op.mu_lower) * 1e-12, 1e-300))
                moved_up += bracket.lo >= hi0 if tol_eig > 1.0 else 0
                if tol_eig < 1.0:
                    bracket.probe(0.5 * (bracket.lo + bracket.hi), 1e-10)
                    check(bracket)
                    bracket.settle(1e-2)
                    check(bracket)
                stars += 1
        if tol_eig > 1.0:
            assert moved_up == (stars if start == "lower-bound" else 0)

    @pytest.mark.parametrize("mesh", [16, 32, 64, 128, 256, 512])
    def test_manufactured(self, mesh):
        # K is the singular p-stiffness minus Mw, so near mu* = -1 the count
        # flips by rounding over about 2e-12: the two solvers' brackets, each
        # certified by its own counts, can miss each other by that much, and
        # the reference's mu* may lie anywhere in this one's stated width
        op = assemble(manufactured(), mesh)
        res, _ = self.check_against_reference(op, mu_tol=stated_width(smallest_eigenpair(op), op))
        assert res.mu_star == pytest.approx(-1.0, abs=1e-9)

    @staticmethod
    def near_crossing():
        # tol_eig = 1e-2 widens the margin to 1e-2 |RQ(1)|; the shifts below
        # step by 2e-10 and 1e-7 of |RQ(1)|, above the 6e-11 steps by which
        # rounding the shifted diagonal moves mu*
        op = assemble(build_sl_data(get_liquid(3, 1.25, 50.3231)), 256)
        return op, smallest_eigenpair(op).mu_star, abs(op.rayleigh(np.ones(len(op.nodes))))

    def test_sign_follows_the_count_at_zero(self):
        # |mu*| far below the stopping width: the bracket would contain 0, so
        # the count at 0 must decide the sign of mu*
        op, mu, rq = self.near_crossing()
        signs = []
        for k in range(-10, 11):
            op_k = shifted(op, mu + k * 2e-10 * rq)
            res, _ = self.check_against_reference(op_k, tol_eig=1e-2)
            lo, hi = res.bracket
            assert not lo < 0.0 < hi
            assert (math.copysign(1.0, res.mu_star) > 0.0) == stable_at_zero(op_k), k
            signs.append(res.mu_star > 0.0)
        assert any(signs) and not all(signs)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_bracket_never_straddles_the_margin(self, side):
        # mu* within the stopping width of -margin or +margin: the verdict
        # and the marginal flag must not depend on where the search stops
        op, mu, rq = self.near_crossing()
        # mu - shift = side * 1e-2 * (rq - shift): mu* on the margin of the
        # shifted pencil, whose RQ(1) moves with the shift
        on_margin = (mu - side * 1e-2 * rq) / (1.0 - side * 1e-2)
        flags = set()
        for k in range(-10, 11):
            op_k = shifted(op, on_margin + k * 1e-7 * rq)
            res, _ = self.check_against_reference(op_k, tol_eig=1e-2)
            lo, hi = res.bracket
            m = 1e-2 * max(abs(res.mu_star), abs(op_k.rayleigh(np.ones(len(op_k.nodes)))))
            assert not lo < -m < hi and not lo < m < hi, k
            flags.add((res.verdict, res.marginal))
        assert len(flags) == 2

    @pytest.mark.parametrize("gap", [2e-12, 1e-10, 1e-8])
    def test_bisection_safeguard(self, gap):
        # RQ(1) sits just below the pole of the last pivot at sigma = 1: the
        # regula falsi steps from the far end barely move, and without the
        # bisection fallback the search takes about 50 counts
        op = DiscreteOperator(
            nodes=np.arange(2.0),
            k_diag=np.array([1.0, 3.0 - 2.0 * gap]),
            k_off=np.array([-1.0]),
            m_diag=np.ones(2),
            m_off=np.zeros(1),
            mu_lower=-1.0,
        )
        res, ref = self.check_against_reference(op)
        exact = 2.0 - gap - math.sqrt(2.0 - 2.0 * gap + gap * gap)
        assert abs(res.mu_star - exact) <= stated_width(res, op)
        assert res.inertia_counts <= 25 < ref.counts

    @pytest.mark.parametrize("offset", [-3.0, 3.0])
    @pytest.mark.parametrize("star", [(3, 1.25, 10.0), (3, 1.25, 1e3), (4, 1.4, 50.3231)], ids=str)
    def test_probe_fallback(self, monkeypatch, star, offset):
        # the Rayleigh quotient pushed 3 w off: one of the probe's counts
        # disagrees, and the count search must finish the bracket itself
        op = assemble(build_sl_data(get_liquid(*star)), 2048)
        rq_ones = op.rayleigh(np.ones(len(op.nodes)))
        real_iteration, real_narrow = spectral._inverse_iteration, _CertifiedBracket.narrow
        narrowed = []

        def narrow(self, width):
            before = self.counts
            real_narrow(self, width)
            narrowed.append((width, self.counts - before))

        monkeypatch.setattr(_CertifiedBracket, "narrow", narrow)
        want = smallest_eigenpair(op)
        settled_by_probe = len(narrowed) == 1
        narrowed.clear()

        def off_by(*args):
            z, Mz, rq, solves = real_iteration(*args)
            return z, Mz, rq + offset * 5e-11 * max(abs(rq), abs(rq_ones)), solves  # w at mesh 2048

        monkeypatch.setattr(spectral, "_inverse_iteration", off_by)
        res = smallest_eigenpair(op)
        assert [width for width, _ in narrowed] == [0.1, 1e-10]
        assert narrowed[1][1] >= 1  # the counts after the probe finish the bracket
        lo, hi = res.bracket
        _, scaled = _jacobi_scaled(op)
        pencil = (scaled.k_diag, scaled.k_off, scaled.m_diag, scaled.m_off)
        assert _positive_definite(*pencil, lo)
        assert not _positive_definite(*pencil, hi)
        assert hi - lo <= stated_width(res, op)
        assert (res.verdict, res.marginal) == (want.verdict, want.marginal)
        assert abs(res.mu_star - want.mu_star) <= stated_width(res, op)
        # where the unshifted quotient settles by the probe, the fallback costs
        # counts; where it falls back too, both searches narrow by counts
        assert res.inertia_counts > want.inertia_counts or not settled_by_probe
        assert abs(float(res.chi_star @ op.apply_Mw(want.chi_star))) == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
           shift=st.floats(-1e3, 1e3), spread=st.floats(1e-3, 1e3))
    def test_random_pencils_bracket_the_dense_eigenvalue(self, n, seed, shift, spread):
        # a symmetric tridiagonal K and a diagonally dominant, so positive
        # definite, tridiagonal Mw: the certified bracket must hold scipy's
        # dense smallest eigenvalue, up to its width and both solvers' rounding
        rng = np.random.default_rng(seed)
        k_diag = shift + spread * rng.uniform(-1.0, 1.0, n)
        k_off = spread * rng.uniform(-1.0, 1.0, n - 1)
        m_diag = rng.uniform(0.5, 2.0, n)
        m_off = 0.2 * np.minimum(m_diag[:-1], m_diag[1:]) * rng.uniform(-1.0, 1.0, n - 1)
        op = DiscreteOperator(nodes=np.arange(float(n)), k_diag=k_diag, k_off=k_off,
                              m_diag=m_diag, m_off=m_off, mu_lower=shift - 10.0 * spread)
        res = smallest_eigenpair(op)
        lam = float(eigh(dense_tridiagonal(k_diag, k_off), dense_tridiagonal(m_diag, m_off),
                         eigvals_only=True, subset_by_index=[0, 0])[0])
        lo, hi = res.bracket
        assert hi - lo <= stated_width(res, op)
        rounding = 64 * n * np.finfo(float).eps * (abs(shift) + 3.0 * spread + abs(lam))
        assert lo - rounding <= lam <= hi + rounding

    def test_residual_is_relative_to_mu(self):
        data = build_sl_data(get_liquid(3, 1.25, 1e4))
        op = assemble(data, 512)
        res = smallest_eigenpair(op)
        s, scaled = _jacobi_scaled(op)
        z = res.chi_star / s
        Mz = scaled.apply_Mw(z)
        scale = max(abs(res.mu_star), abs(op.rayleigh(np.ones(len(op.nodes)))))
        want = np.linalg.norm(scaled.apply_K(z) - res.mu_star * Mz) / (scale * np.linalg.norm(Mz))
        # both sit at the rounding floor of K z, so they agree in size only
        assert 0.5 * want <= res.residual <= 2.0 * want
        assert 1e-14 < res.residual <= 1e-8


def bits(value):
    """A value with every float replaced by its hex form: equal bits compare equal, signed zeros apart."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


class TestSearchAlone:
    """certified_search is smallest_eigenpair's certificate: its record, without the eigenvector finish."""

    CERTIFIED = ("mu_star", "lam", "verdict", "marginal", "mesh_size", "bracket", "inertia_counts")

    @staticmethod
    def sweep_stars():
        """The 72 stars of the seed-0 sweep, read as run_sweep reads them, then the pinned (3, 1.25, 50.3231)."""
        for d, g in SEED0_LINES:
            line = steady.integrate_line(StarConfig(d, g, 1e6))
            for rho0 in np.geomspace(1.01, 1e6, 8).tolist():
                yield harness._line_read(line, StarConfig(d, g, rho0), 1e-10, 50.0)
        yield steady.liquid_read(StarConfig(3, 1.25, 50.3231))

    @pytest.mark.parametrize("mesh", [512, 2048, 8192])
    def test_search_is_the_full_solves_certificate(self, monkeypatch, mesh):
        # every _solve and LDL^T count is tallied; the finish starts where
        # _search returns, and it takes no count of its own
        tally = {"solves": 0, "counts": 0, "searched": None}
        real_solve, real_pttrf, real_search = spectral._solve, spectral._pttrf, spectral._search

        def counted_solve(*args):
            tally["solves"] += 1
            return real_solve(*args)

        def counted_pttrf(t):
            tally["counts"] += 1
            return real_pttrf(t)

        def search(*args):
            out = real_search(*args)
            tally["searched"] = tally["solves"]
            return out

        monkeypatch.setattr(spectral, "_solve", counted_solve)
        monkeypatch.setattr(spectral, "_pttrf", counted_pttrf)
        monkeypatch.setattr(spectral, "_search", search)
        stars = 0
        for star in self.sweep_stars():
            op = assemble(build_sl_data(star), mesh)
            tally.update(solves=0, counts=0)
            alone = certified_search(op)
            assert (tally["solves"], tally["counts"]) == (alone.solves, alone.inertia_counts)
            tally.update(solves=0, counts=0)
            full = smallest_eigenpair(op)
            finish = tally["solves"] - tally["searched"]
            assert type(alone) is spectral.CertifiedEigenvalue
            assert [bits(getattr(alone, f)) for f in self.CERTIFIED] == [
                bits(getattr(full, f)) for f in self.CERTIFIED]
            assert finish >= 1 and full.solves == tally["solves"]
            assert alone.solves == full.solves - finish
            assert tally["counts"] == full.inertia_counts
            stars += 1
        assert stars == 73

    def test_rejects_a_tolerance_that_is_not_positive(self):
        op = assemble(build_sl_data(get_liquid(3, 1.25, 1e4)), 64)
        with pytest.raises(ValueError, match="tol_eig must be positive"):
            certified_search(op, 0.0)


class TestSolveScaling:
    """_solve scales an iterate whose y.Mw y underflows by a power of two, and moves no bit."""

    @pytest.mark.parametrize("power", [-520, -600])
    def test_scaled_right_hand_side_gives_the_same_bits(self, power):
        # Mw x scaled by 2^power scales y exactly, and y.Mw y (about 2e-5
        # unscaled) falls below the normal doubles at -520 and to 0 at -600;
        # the step's z, Mw z and Rayleigh ratio are the unscaled step's, bit
        # for bit
        op = assemble(build_sl_data(get_liquid(3, 1.25, 1e4)), 512)
        _, scaled = _jacobi_scaled(op)
        bracket = _CertifiedBracket(scaled, op.mu_lower, 0.0, 1.0)
        Mx = scaled.apply_Mw(np.linspace(1.0, 2.0, len(op.nodes)))
        z, Mz, ratio = _solve(scaled, bracket.factor, Mx)
        zs, Mzs, ratios = _solve(scaled, bracket.factor, Mx * 2.0**power)
        assert zs.tobytes() == z.tobytes() and Mzs.tobytes() == Mz.tobytes()
        assert ratios.hex() == ratio.hex()

    def test_star_of_radius_1e_minus_38_is_certified_stable(self):
        # (3, 1.5, 1e150): R = 2.1e-38 and y.Mw y underflowed to 0 in the
        # first solve; gamma >= 4/3, so every liquid star is stable
        star = steady.liquid_read(StarConfig(3, 1.5, 1e150))
        for mesh in (256, 2048):
            op = assemble(build_sl_data(star), mesh)
            alone, full = certified_search(op), smallest_eigenpair(op)
            assert alone.verdict == full.verdict == STABLE and not full.marginal
            assert bits(alone.bracket) == bits(full.bracket)
            assert np.all(np.isfinite(full.chi_star))


class TestFusedCoefficients:
    """build_sl_data's fused coefficients against the explicit formula on the star's read, and the pencil's layout."""

    STARS = [(3, 1.0, 1.01), (3, 1.0, 1e6), (3, 1.25, 50.0), (3, 2.0, 1.01), (3, 2.0, 1e6),
             (4, 1.4, 1e3), (5, 1.5, 10.0), (7, 1.01, 1e3), (7, 1.5, 1.01), (7, 2.0, 1e6),
             (4, 1.2, 1e6)]

    @staticmethod
    def formula(config, enthalpy, mass_hat, y):
        """(p, q, wgt) from the enthalpy and m/y^d.

        wgt = y^(d+1) rho, p = gamma rho^(gamma-1) wgt and q = -coef (m/y^d) wgt.
        """
        d, g = config.d, config.gamma
        coef = 2.0 * (d - 1.0) - d * g
        wgt = y ** (d + 1) * config.rho_of_enthalpy(enthalpy)
        rho_power = 1.0 if g == 1.0 else enthalpy  # rho^(gamma-1) is w itself
        return g * rho_power * wgt, -coef * mass_hat * wgt, wgt

    @classmethod
    def reference_coeffs(cls, star):
        """The coefficients by the explicit formula, from the star's read of both columns."""

        def coeffs(y):
            y = np.asarray(y, dtype=float)
            return cls.formula(star.config, *star.enthalpy_and_mass_hat_at(y), y)

        return coeffs

    @staticmethod
    def reference_assemble(data, mesh):
        # the (M, 3) element layout, one row per element, with reference-element
        # tables from leggauss(3) mapped to [0, 1]
        x, w = np.polynomial.legendre.leggauss(3)
        x, w = 0.5 * (1.0 + x), 0.5 * w
        hat = w * np.array([(1.0 - x) ** 2, (1.0 - x) * x, x**2])
        nodes = graded_mesh(data.R, mesh)
        yl = nodes[:-1]
        h = nodes[1:] - yl
        pts = yl[:, None] + h[:, None] * x[None, :]
        p, q, wgt = (np.reshape(c, pts.shape) for c in data.coeffs(pts.ravel()))
        # the code's contractions: a matrix-vector product rounds by the
        # layout of its matrix, so kp takes the rows as (3, M); the 3 x 3
        # table rounds alike in either layout
        kp = (w @ np.ascontiguousarray(p.T)) / h
        (q_ll, q_lr, q_rr), (m_ll, m_lr, m_rr) = (q @ hat.T).T * h, (wgt @ hat.T).T * h
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
        star = get_liquid(*star)
        data = build_sl_data(star)
        reference = replace(data, coeffs=self.reference_coeffs(star))
        for mesh in (256, 2048, 8192):
            op = assemble(data, mesh)
            ref = self.reference_assemble(reference, mesh)
            for got, want in zip((op.k_diag, op.k_off, op.m_diag, op.m_off), ref[:4]):
                assert got.tobytes() == want.tobytes(), (star, mesh)
            assert float(op.mu_lower).hex() == float(ref[4]).hex(), (star, mesh)

    @staticmethod
    def point_major_assemble(data, mesh):
        """The pencil with its Gauss points read point-major, (3, M), not element by element."""
        nodes = graded_mesh(data.R, mesh)
        yl = nodes[:-1]
        h = nodes[1:] - yl
        pts = yl + h * spectral._REF_X[:, None]
        p, q, wgt = (np.reshape(c, pts.shape) for c in data.coeffs(pts.ravel()))
        kp = (spectral._REF_W @ p) / h
        (q_ll, q_lr, q_rr), (m_ll, m_lr, m_rr) = (spectral._REF_HAT @ q) * h, (spectral._REF_HAT @ wgt) * h
        k_diag, m_diag = np.zeros(len(nodes)), np.zeros(len(nodes))
        k_diag[:-1] += kp + q_ll
        k_diag[1:] += kp + q_rr
        m_diag[:-1] += m_ll
        m_diag[1:] += m_rr
        k_diag[-1] += data.robin_weight
        mu_lower = float(np.minimum((q / wgt).min(), 0.0)) * (1.0 + 1e-12) - 1e-300
        return k_diag, -kp + q_lr, m_diag, m_lr, mu_lower

    @pytest.mark.parametrize("star", [(3, 1.25, 50.0), (4, 1.4, 1e3), (7, 1.01, 1e3)], ids=str)
    def test_ascending_points_keep_the_point_major_pencil(self, star):
        # assemble reads its Gauss points in ascending order, element by
        # element, and contracts the same contiguous (3, M) tables: a
        # star's pencil has the bits of the point-major reads
        data = build_sl_data(get_liquid(*star))
        read = []

        def recorded(y):
            read.append(np.array(y))
            return data.coeffs(y)

        for mesh in (512, 2048, 8192):
            read.clear()
            op = assemble(replace(data, coeffs=recorded), mesh)
            (y,) = read
            assert len(y) == 3 * mesh and np.all(np.diff(y) > 0.0)
            ref = self.point_major_assemble(data, mesh)
            for got, want in zip((op.k_diag, op.k_off, op.m_diag, op.m_off), ref[:4]):
                assert got.tobytes() == want.tobytes(), (star, mesh)
            assert float(op.mu_lower).hex() == float(ref[4]).hex(), (star, mesh)

    @pytest.mark.parametrize("star", STARS[:4], ids=str)
    def test_coefficients_bitwise_at_breakpoints(self, star):
        # the run's step ends, the seed radius and both ends of [0, R] are
        # where the read changes polynomial
        star = get_liquid(*star)
        data = build_sl_data(star)
        r = np.sort(np.append(star.radii, [star.seed_radius, star.liquid_radius]))
        y = np.concatenate([r, 0.5 * (r[:-1] + r[1:]), np.nextafter(r[1:], 0.0)])
        for got, want in zip(data.coeffs(y), self.reference_coeffs(star)(y)):
            assert got.tobytes() == want.tobytes()

    # the name is that of the two PCHIP builds this once checked; the ids stay
    @pytest.mark.parametrize(
        "star", [(3, 1.0, 1e3), (3, 2.0, 1.01), (7, 1.5, 1.01), (7, 2.0, 1e6), (4, 1.25, 1 + 1e-9),
                 (5, 1.3, 50.0)], ids=str)
    def test_one_pchip_build_matches_two(self, star):
        # each Gauss point's coefficients are its own: the pencil read in one
        # call has the bits of the same points read in two interleaved halves
        data = build_sl_data(get_liquid(*star))

        def two_reads(y):
            out = tuple(np.empty_like(y) for _ in range(3))
            for half in (slice(0, None, 2), slice(1, None, 2)):
                for o, c in zip(out, data.coeffs(y[half])):
                    o[half] = c
            return out

        reference = replace(data, coeffs=two_reads)
        for mesh in (256, 2048):
            op, ref = assemble(data, mesh), assemble(reference, mesh)
            for name in ("k_diag", "k_off", "m_diag", "m_off"):
                assert getattr(op, name).tobytes() == getattr(ref, name).tobytes(), (name, mesh)
            assert float(op.mu_lower).hex() == float(ref.mu_lower).hex()

    @pytest.mark.parametrize("star", STARS, ids=str)
    def test_coefficient_identities(self, star):
        # q / wgt = -coef m / r^d and p / wgt = gamma rho^(gamma-1), each
        # side from the star's own read, away from y = 0 where wgt = 0
        star = get_liquid(*star)
        config = star.config
        d, g = config.d, config.gamma
        coef = 2.0 * (d - 1.0) - d * g
        y = graded_mesh(liquid_radius(star), 512)[1:]
        p, q, wgt = build_sl_data(star).coeffs(y)
        rho, mass = rho_and_mass(star, y)
        ulp = np.finfo(float).eps
        assert np.allclose(q / wgt, -coef * mass / y**d, rtol=8 * ulp, atol=0.0)
        assert np.allclose(p / wgt, g * rho ** (g - 1.0), rtol=8 * ulp, atol=0.0)
        assert np.array_equal(wgt, y ** (d + 1) * rho)

    def test_rejects_nan_and_out_of_range(self):
        star = get_liquid(3, 1.25, 50.0)
        coeffs = build_sl_data(star).coeffs
        for y in ([0.1, math.nan], [-1e-12, 0.1], [0.1, np.nextafter(star.liquid_radius, math.inf)]):
            with pytest.raises(ValueError, match="outside the star"):
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
            nodes = mesh_of(data)
            chi_g = rng.standard_normal(len(nodes))
            rq = quadratic_form(data, chi_g, chi_g, nodes) / weighted_norm_sq(data, chi_g, nodes)
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
        res = classify_stability(steady.liquid_read(StarConfig(3, 1.25, 1 + 1e-9)), mesh_size=2048)
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
        # a profile CSV is data: its samples and metadata come back bit for
        # bit (17 significant digits), and the star its metadata names,
        # integrated again, classifies as the original does
        from lanemden import read_profile_csv, write_profile_csv

        star = get_liquid(3, 1.25, 1e4)
        p = star.profile()
        buf = io.StringIO()
        write_profile_csv(p, buf)
        back = read_profile_csv(io.StringIO(buf.getvalue()))
        for name in ("radii", "rho", "enthalpy", "mass"):
            assert getattr(back, name).tobytes() == getattr(p, name).tobytes(), name
        assert (back.config, back.kind, back.liquid_radius, back.total_mass) == (
            p.config, p.kind, p.liquid_radius, p.total_mass)
        direct = classify_stability(star, mesh_size=512)
        reloaded = classify_stability(steady.liquid_read(back.config), mesh_size=512)
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
