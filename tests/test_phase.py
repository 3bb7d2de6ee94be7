import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lanemden import (
    buchdahl_bounds,
    fixed_points,
    jacobian_spectrum,
    phase_trajectory,
    profile_to_phase,
    radius_limit,
    singular_star,
    tail_convergence_rate,
    vector_field,
)
from lanemden.config import stability_threshold, support_threshold

from conftest import get_gas, get_profile

FOUR_PI = 4 * math.pi


def fixed_point_jacobian(d, gamma):
    """The 2x2 linearization of the vector field at the interior fixed point: jacobian_spectrum's oracle."""
    _, (v1, v2) = fixed_points(d, gamma)
    return np.array(
        [
            [
                -(2.0 - gamma) / gamma * v1 ** (1.0 - gamma) * v2 + 2.0 / (2.0 - gamma),
                -(1.0 / gamma) * v1 ** (2.0 - gamma),
            ],
            [FOUR_PI, -(d - 2.0 / (2.0 - gamma))],
        ]
    )


admissible = st.tuples(st.integers(3, 9), st.floats(1.0, 1.95)).filter(
    lambda t: 2 * (t[0] - 1) - t[0] * t[1] > 1e-6
)


def flow_forward(v0, d, gamma, tau_span):
    """Reference tau-integration of the planar field (cross-check utility)."""
    sol = solve_ivp(
        lambda t, v: vector_field(v, d, gamma),
        tau_span,
        v0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    return sol.y[:, -1]


class TestVectorField:
    def test_origin(self):
        assert np.all(vector_field((0.0, 0.0), 3, 1.2) == 0.0)

    def test_hand_value(self):
        f = vector_field((1.0, 1.0), 3, 1.0)
        assert f[0] == pytest.approx(1.0, abs=1e-15)
        assert f[1] == pytest.approx(FOUR_PI - 1.0, rel=1e-15)

    def test_rejects_gamma_two_and_negative_v1(self):
        with pytest.raises(ValueError):
            vector_field((1.0, 1.0), 3, 2.0)
        with pytest.raises(ValueError):
            vector_field((-1.0, 1.0), 3, 1.2)

    @settings(max_examples=60)
    @given(params=admissible)
    def test_vanishes_at_fixed_points(self, params):
        d, g = params
        origin, vs = fixed_points(d, g)
        assert np.linalg.norm(vector_field(origin, d, g)) == 0.0
        assert np.linalg.norm(vector_field(vs, d, g)) <= 1e-12


class TestFixedPoints:
    def test_isothermal_values(self):
        _, vs = fixed_points(3, 1.0)
        assert vs[0] == pytest.approx(1 / (2 * math.pi), rel=1e-15)
        assert vs[1] == pytest.approx(2.0, rel=1e-15)

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            fixed_points(3, 1.4)

    def test_grid_residual(self):
        worst = 0.0
        for d in range(3, 10):
            for g in np.linspace(1.0, stability_threshold(d) - 1e-6, 50):
                _, vs = fixed_points(d, float(g))
                worst = max(worst, float(np.linalg.norm(vector_field(vs, d, float(g)))))
        assert worst <= 1e-12

    @settings(max_examples=40)
    @given(params=admissible)
    def test_amplitude_matches_singular_star(self, params):
        d, g = params
        _, vs = fixed_points(d, g)
        assert singular_star(d, g).amplitude == pytest.approx(vs[0], rel=1e-12)


class TestJacobianSpectrum:
    def test_isothermal_pair(self):
        rep = jacobian_spectrum(3, 1.0)
        lam = max(rep.eigenvalues, key=lambda z: z.imag)
        assert lam.real == pytest.approx(-0.5, abs=1e-13)
        assert lam.imag == pytest.approx(math.sqrt(7) / 2, abs=1e-13)
        assert rep.exponentially_stable
        # the report carries v* = (1/(2 pi), 2), fixed_points' bit for bit
        assert rep.v_star.tobytes() == fixed_points(3, 1.0)[1].tobytes()

    @settings(max_examples=60)
    @given(params=admissible)
    def test_closed_form_matches_numpy_eig(self, params):
        d, g = params
        rep = jacobian_spectrum(d, g)
        ours = sorted(rep.eigenvalues, key=lambda z: (z.real, z.imag))
        ref = sorted(np.linalg.eigvals(fixed_point_jacobian(d, g)), key=lambda z: (z.real, z.imag))
        for a, b in zip(ours, ref):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    @settings(max_examples=40)
    @given(params=admissible)
    def test_trace(self, params):
        d, g = params
        rep = jacobian_spectrum(d, g)
        tr = rep.eigenvalues[0] + rep.eigenvalues[1]
        expected = 2 * (2 / (2 - g) - 1 - d / 2)
        assert tr.imag == pytest.approx(0.0, abs=1e-12)
        assert tr.real == pytest.approx(expected, rel=1e-12)

    def test_jacobian_matches_finite_differences(self):
        d, g = 4, 1.2
        _, vs = fixed_points(d, g)
        J = fixed_point_jacobian(d, g)
        eps = 1e-7
        num = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = eps * max(1.0, abs(vs[j]))
            num[:, j] = (vector_field(vs + e, d, g) - vector_field(vs - e, d, g)) / (2 * e[j])
        assert np.allclose(J, num, rtol=1e-6, atol=1e-8)

    def test_stability_criterion_grid(self):
        for d in range(3, 10):
            gc = support_threshold(d)
            for g in np.linspace(1.0, stability_threshold(d) - 1e-3, 40):
                rep = jacobian_spectrum(d, float(g))
                assert rep.exponentially_stable == (g < gc)


class TestProfileToPhase:
    def test_small_r_ratios(self):
        for d, g, rho0 in ((3, 1.2, 1.0), (4, 1.0, 10.0)):
            r1 = get_profile(d, g, rho0).radii[1]
            state = profile_to_phase(get_gas(d, g, rho0), r1)
            power = 2 / (2 - g)
            assert state.v1 / (r1**power * rho0) == pytest.approx(1.0, abs=1e-3)
            assert state.v2 / (r1**power * rho0 * FOUR_PI / d) == pytest.approx(1.0, abs=1e-3)

    def test_buchdahl_bound_at_r10(self):
        state = profile_to_phase(get_gas(3, 1.0, 1.0), 10.0)
        assert state.v1 <= 3 / (2 * math.pi)

    def test_rejects_center_and_gamma_two(self):
        with pytest.raises(ValueError):
            profile_to_phase(get_gas(3, 1.2, 1.0), 0.0)
        with pytest.raises(ValueError):
            profile_to_phase(get_gas(3, 2.0, 10.0), 0.5)

    def test_containment_battery(self):
        tol = 1e-10
        for d, g, rho0 in ((3, 1.0, 10.0), (3, 1.2, 1.0), (4, 1.5, 1.0), (5, 1.2, 10.0)):
            p = get_profile(d, g, rho0)
            traj = phase_trajectory(p)
            v1b, v2b = buchdahl_bounds(d, g)
            assert np.all(traj.v1 <= v1b * (1 + 10 * tol))
            if v2b is not None:
                assert np.all(traj.v2 <= v2b * (1 + 10 * tol))

    def test_singular_star_is_constant_state(self):
        for d, g in ((3, 1.0), (4, 1.2)):
            star = singular_star(d, g)
            _, vs = fixed_points(d, g)
            power = 2 / (2 - g)
            for r in (0.3, 1.0, 7.0):
                u1 = r**power * float(star.rho_at(r))
                u2 = r ** (power - d) * float(star.mass_at(r))
                assert u1 == pytest.approx(vs[0], rel=1e-13)
                assert u2 == pytest.approx(vs[1], rel=1e-13)

    def test_pushforward_matches_direct_tau_integration(self):
        run = get_gas(3, 1.2, 1.0, r_max=10.0)
        s0 = profile_to_phase(run, 1.0)
        s1 = profile_to_phase(run, 4.0)
        v_end = flow_forward([s0.v1, s0.v2], 3, 1.2, (0.0, math.log(4.0)))
        assert v_end[0] == pytest.approx(s1.v1, rel=1e-7)
        assert v_end[1] == pytest.approx(s1.v2, rel=1e-7)


class TestDulac:
    def test_scaled_divergence_negative(self):
        rng = np.random.default_rng(42)
        for d, g in ((3, 1.0), (3, 1.1), (4, 1.2)):
            assert g < support_threshold(d)
            expected_coef = -(d - 2 * g / (2 - g))
            assert expected_coef < 0
            pts = rng.uniform(0.05, 5.0, size=(1000, 2))
            analytic = expected_coef * pts[:, 0] ** -(2 - g)
            assert np.all(analytic < 0)
            # spot-check the closed form against a numerical divergence
            for v1, v2 in pts[:10]:
                eps1 = 1e-6 * v1
                eps2 = 1e-6 * max(1.0, v2)
                scaled = lambda a, b: vector_field((a, b), d, g) / a ** (2 - g)
                div = (scaled(v1 + eps1, v2)[0] - scaled(v1 - eps1, v2)[0]) / (2 * eps1) + (
                    scaled(v1, v2 + eps2)[1] - scaled(v1, v2 - eps2)[1]
                ) / (2 * eps2)
                assert div == pytest.approx(expected_coef * v1 ** -(2 - g), rel=1e-4)


class TestTail:
    def test_exponent_and_terminal_deviation(self):
        p = get_profile(3, 1.1, 1.0, r_max=1e3)
        fit = tail_convergence_rate(p)
        _, vs = fixed_points(3, 1.1)
        initial = abs(float(profile_to_phase(get_gas(3, 1.1, 1.0, r_max=1e3), 1.0).v1) - vs[0])
        assert fit.exponent > 0
        assert fit.terminal_deviation < initial
        assert fit.window == (100.0, 1000.0)

    def test_isothermal_mass_state_near_fixed_point(self):
        run = get_gas(3, 1.0, 1.0, r_max=1e3)
        state = profile_to_phase(run, run.end)
        assert abs(state.v2 - 2.0) / 2.0 <= 1e-2

    def test_rejects_compact_support(self):
        p = get_profile(3, 1.5, 1.0)
        with pytest.raises(ValueError):
            tail_convergence_rate(p)

    def test_insufficient_tail(self):
        p = get_profile(3, 1.1, 1.0)  # r_max = 20: fine
        fit = tail_convergence_rate(p)
        assert fit.n_points >= 8


class TestRadiusLimit:
    def test_isothermal_value(self):
        assert radius_limit(3, 1.0) == pytest.approx(math.sqrt(1 / (2 * math.pi)), rel=1e-14)

    def test_equals_sqrt_of_base(self):
        for d, g in ((3, 1.1), (5, 1.4)):
            base = (-d * g**2 + 2 * (d - 1) * g) / (2 * math.pi * (2 - g) ** 2)
            assert radius_limit(d, g) == pytest.approx(math.sqrt(base), rel=1e-13)

    def test_rejects_supercritical(self):
        with pytest.raises(ValueError):
            radius_limit(3, 1.3)
