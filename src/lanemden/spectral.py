"""Radial-perturbation eigenproblem for a liquid star and its sign analysis.

A liquid equilibrium on [0, R] perturbed radially admits separated modes
chi(y) e^(lambda t) governed by a Sturm-Liouville pencil in weak form

    Q[chi, phi] = mu <chi, phi>_wgt        for all phi,

    Q[f, g] = int_0^R p f' g' + q f g dy + robin_weight f(R) g(R),

with p = gamma rhobar^gamma y^(d+1), q = (2(d-1) - d gamma) y^d (rhobar^gamma)',
wgt = y^(d+1) rhobar, robin_weight = d gamma R^d.  The free-surface condition
d chi(R) + R chi'(R) = 0 is natural (it is the boundary term above), and no
condition is needed at y = 0 where p and wgt vanish like y^(d+1).  The star
is linearly unstable iff the smallest eigenvalue mu* is negative, with growth
rate sqrt(-mu*).

q is evaluated through the equilibrium identity y^d (rhobar^gamma)' =
-y rhobar m, which avoids numerical differentiation of the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, TextIO, Tuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .config import stability_threshold, support_threshold
from .steady import Profile, gauss_rule, liquid_radius

STABLE = "Stable"
UNSTABLE = "Unstable"

# element quadrature on the reference element [0, 1]: the 3-point Gauss
# points and weights, and the rows ll, lr, rr of w_g phi_a(x_g) phi_b(x_g)
# for the hat functions phi_l = 1 - x and phi_r = x
_REF_X, _REF_W = gauss_rule(3)
_REF_HAT = _REF_W * np.array([(1.0 - _REF_X) ** 2, (1.0 - _REF_X) * _REF_X, _REF_X**2])

MESH_GRADING = 1.5

_NON_FINITE = "non-finite pencil entries: the coefficients must be finite on [0, R]"


@dataclass(frozen=True)
class SturmLiouvilleData:
    """Coefficients of the pencil on [0, R].

    `coeffs(y)` returns the three coefficients (p, q, wgt) anywhere in [0, R]
    (for a star, through the profile's cubic Hermite interpolant).  `grid`
    is the default node set of quadratic_form and weighted_norm_sq: the
    profile radii restricted to [0, R].
    """

    d: int
    gamma: float
    R: float
    robin_weight: float
    grid: np.ndarray
    coeffs: Callable


def build_sl_data(profile: Profile) -> SturmLiouvilleData:
    """Assemble the pencil coefficients for a liquid-truncated profile."""
    config = profile.config
    R = liquid_radius(profile)
    d, g = config.d, config.gamma
    coef = 2.0 * (d - 1.0) - d * g

    def coeffs(y):
        y = np.asarray(y, dtype=float)
        rho, mass = profile.rho_and_mass_at(y)
        y_pow = y ** (d + 1)
        return g * rho**g * y_pow, -coef * y * rho * mass, y_pow * rho

    inside = profile.radii < R
    return SturmLiouvilleData(
        d=d,
        gamma=g,
        R=float(R),
        robin_weight=d * g * R**d,
        grid=np.concatenate([profile.radii[inside], [R]]),
        coeffs=coeffs,
    )


def manufactured_sl_data(
    d: int,
    gamma: float,
    R: float,
    p_fn: Callable,
    q_fn: Callable,
    wgt_fn: Callable,
    robin_weight: float = 0.0,
    n_grid: int = 257,
) -> SturmLiouvilleData:
    """Pencil with user-supplied coefficients (for oracles and manufactured modes)."""
    if robin_weight < 0.0:
        raise ValueError("robin_weight must be non-negative")

    def coeffs(y):
        return p_fn(y), q_fn(y), wgt_fn(y)

    return SturmLiouvilleData(
        d=d,
        gamma=gamma,
        R=float(R),
        robin_weight=float(robin_weight),
        grid=np.linspace(0.0, R, n_grid),
        coeffs=coeffs,
    )


def graded_mesh(R: float, mesh_size: int) -> np.ndarray:
    """Nodes R (i/M)^1.5: clustered at the center where the weight degenerates."""
    return R * (np.arange(mesh_size + 1) / mesh_size) ** MESH_GRADING


def _apply_tridiagonal(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = diag * x
    out[:-1] += off * x[1:]
    out[1:] += off * x[:-1]
    return out


@dataclass(frozen=True)
class DiscreteOperator:
    """Tridiagonal stiffness/mass pencil of the weak form on `nodes`.

    K is symmetric tridiagonal with diagonal k_diag and off-diagonal k_off,
    Mw likewise with m_diag and m_off; apply_K and apply_Mw multiply by them.
    mu_lower is a certified lower bound on the smallest generalized
    eigenvalue, obtained from min(q/wgt) over the quadrature points (the p and
    boundary parts of K are positive semidefinite).
    """

    nodes: np.ndarray
    k_diag: np.ndarray
    k_off: np.ndarray
    m_diag: np.ndarray
    m_off: np.ndarray
    mu_lower: float

    def apply_K(self, x: np.ndarray) -> np.ndarray:
        return _apply_tridiagonal(self.k_diag, self.k_off, x)

    def apply_Mw(self, x: np.ndarray) -> np.ndarray:
        return _apply_tridiagonal(self.m_diag, self.m_off, x)

    def rayleigh(self, x: np.ndarray) -> float:
        return float(x @ self.apply_K(x)) / float(x @ self.apply_Mw(x))


def _element_integrals(data: SturmLiouvilleData, nodes: np.ndarray):
    """Per-element integrals of the weak form on strictly increasing `nodes`.

    Returns (kp, (q_ll, q_lr, q_rr), (m_ll, m_lr, m_rr), ratio): kp is
    int p dy / h^2, the p-stiffness of each element; q_ab and m_ab are the
    integrals of q phi_a phi_b and wgt phi_a phi_b over the element's left and
    right hat functions; ratio is q/wgt at the quadrature points.  This is
    the only place the coefficients are evaluated at quadrature points:
    assemble, quadratic_form and weighted_norm_sq all go through it.

    The coefficients are evaluated at yl + h _REF_X, laid out (3, M), one
    row per Gauss point of gauss_rule(3).  The hat functions take the same
    values at the Gauss points of every element, so each integral is one
    contraction with a reference-element table: kp = (_REF_W @ p) / h, and
    the rows ll, lr, rr are (_REF_HAT @ q) h and (_REF_HAT @ wgt) h.
    """
    yl = nodes[:-1]
    h = nodes[1:] - yl
    if np.any(h <= 0.0):
        raise ValueError("degenerate mesh: nodes must be strictly increasing")
    pts = yl + h * _REF_X[:, None]
    p, q, wgt = (np.reshape(c, pts.shape) for c in data.coeffs(pts.ravel()))
    return (_REF_W @ p) / h, (_REF_HAT @ q) * h, (_REF_HAT @ wgt) * h, q / wgt


def _assemble_on(data: SturmLiouvilleData, nodes: np.ndarray) -> DiscreteOperator:
    """The weak-form pencil on strictly increasing `nodes` (see assemble)."""
    kp, (q_ll, q_lr, q_rr), (m_ll, m_lr, m_rr), ratio = _element_integrals(data, nodes)
    n = len(nodes)
    k_diag = np.zeros(n)
    m_diag = np.zeros(n)
    k_diag[:-1] += kp + q_ll
    k_diag[1:] += kp + q_rr
    k_off = -kp + q_lr
    m_diag[:-1] += m_ll
    m_diag[1:] += m_rr
    m_off = m_lr
    k_diag[-1] += data.robin_weight

    mu_lower = float(np.minimum(ratio.min(), 0.0))
    mu_lower = mu_lower * (1.0 + 1e-12) - 1e-300
    # the LDL^T certificate reads a NaN pivot as positive: never let one in
    if not all(np.isfinite(a).all() for a in (k_diag, k_off, m_diag, m_off, mu_lower)):
        raise ValueError(_NON_FINITE)
    return DiscreteOperator(
        nodes=nodes,
        k_diag=k_diag,
        k_off=k_off,
        m_diag=m_diag,
        m_off=m_off,
        mu_lower=mu_lower,
    )


def assemble(data: SturmLiouvilleData, mesh_size: int) -> DiscreteOperator:
    """Weak-form stiffness and weighted mass on the graded mesh.

    K_ij = Q[phi_i, phi_j] and Mw_ij = <phi_i, phi_j>_wgt over the continuous
    piecewise-linear nodal basis; the boundary term robin_weight lands on the
    last diagonal entry and no essential condition is imposed anywhere.
    """
    if mesh_size < 16:
        raise ValueError(f"mesh_size must be >= 16, got {mesh_size}")
    return _assemble_on(data, graded_mesh(data.R, mesh_size))


def quadratic_form(data: SturmLiouvilleData, chi1, chi2, nodes: Optional[np.ndarray] = None) -> float:
    """Q[chi1, chi2] of the P1 interpolants on `nodes` (default: the coefficient grid).

    The same element integrals as K, but the p part is summed in flux form,
    int_p/h^2 (chi1_r - chi1_l)(chi2_r - chi2_l) per element, so a constant
    test function gets exactly no p contribution.
    """
    if nodes is None:
        nodes = data.grid
    chi1 = np.asarray(chi1, dtype=float)
    chi2 = np.asarray(chi2, dtype=float)
    if chi1.shape != nodes.shape or chi2.shape != nodes.shape:
        raise ValueError("mesh mismatch: test functions must be sampled on the nodes")
    if not np.all(np.isfinite(chi1)) or not np.all(np.isfinite(chi2)):
        raise ValueError("test functions must be finite")
    kp, (q_ll, q_lr, q_rr), _, _ = _element_integrals(data, nodes)
    l1, r1, l2, r2 = chi1[:-1], chi1[1:], chi2[:-1], chi2[1:]
    value = float(
        np.sum(kp * ((r1 - l1) * (r2 - l2)))
        + np.sum(q_ll * (l1 * l2) + q_lr * (l1 * r2 + r1 * l2) + q_rr * (r1 * r2))
        + data.robin_weight * (chi1[-1] * chi2[-1])
    )
    if not math.isfinite(value):
        raise ValueError(_NON_FINITE)
    return value


def weighted_norm_sq(data: SturmLiouvilleData, chi, nodes: Optional[np.ndarray] = None) -> float:
    """<chi, chi>_wgt of the P1 interpolant: chi . Mw chi with Mw assembled on `nodes`."""
    if nodes is None:
        nodes = data.grid
    chi = np.asarray(chi, dtype=float)
    if chi.shape != nodes.shape:
        raise ValueError("mesh mismatch: test function must be sampled on the nodes")
    return float(chi @ _assemble_on(data, nodes).apply_Mw(chi))


@dataclass(frozen=True)
class SpectralResult:
    """Smallest eigenpair of the discrete pencil, the verdict and its evidence.

    bracket = (lo, hi) is certified by two inertia counts, K - lo Mw positive
    definite and K - hi Mw not, so lo < mu* <= hi; mu_star is its midpoint.
    inertia_counts is the number of LDL^T factorisations the search took and
    solves the number of inverse-iteration solves.  residual is
    ||K chi - mu* Mw chi|| / (max(|mu*|, |RQ(1)|) ||Mw chi||) in the
    Jacobi-scaled pencil: the eigenvector's defect relative to the spectrum
    near mu*.  It sits at the rounding floor of K chi, which grows like
    mesh^2 (5.1e-10, 9.4e-9 and 3.1e-8 at meshes 2048, 8192 and 16384 on
    (4, 1.4, 50.3231), where more inverse iteration does not lower it), so
    above a mesh of about 8192 it can exceed tol_eig for a converged
    eigenvector and is no acceptance test there.
    """

    mu_star: float
    chi_star: np.ndarray
    nodes: np.ndarray
    lam: Optional[float]
    verdict: str
    marginal: bool
    mesh_size: int
    residual: float
    robin_defect: float
    bracket: Tuple[float, float]
    inertia_counts: int
    solves: int


def _positive_definite(kd, ke, md, me, sigma: float) -> bool:
    """Certificate that no generalized eigenvalue lies at or below sigma.

    By Sylvester's law of inertia K - sigma Mw is positive definite exactly
    when sigma < mu*.  LAPACK dpttrf factors the symmetric tridiagonal
    K - sigma Mw as L D L^T and stops at the first pivot that is not
    positive (info > 0), so a zero pivot also reads as not positive definite.
    """
    _, _, info = dpttrf(kd - sigma * md, ke - sigma * me, overwrite_d=1, overwrite_e=1)
    return info == 0


def _jacobi_scaled(op: DiscreteOperator) -> Tuple[np.ndarray, DiscreteOperator]:
    """(s, the pencil (D K D, D Mw D)) with D = diag(s), s = m_diag^(-1/2).

    The weight degenerates like y^(d+1) at the center, so the raw pencil
    spans hundreds of orders of magnitude; the congruence preserves the
    eigenvalues and the inertia while making the banded solves well-scaled.
    smallest_eigenpair and stable_at_zero both work on this pencil.
    """
    s = 1.0 / np.sqrt(op.m_diag)
    scaled = replace(
        op,
        k_diag=op.k_diag * s * s,
        k_off=op.k_off * s[:-1] * s[1:],
        m_diag=np.ones(len(s)),
        m_off=op.m_off * s[:-1] * s[1:],
    )
    return s, scaled


def stable_at_zero(op: DiscreteOperator) -> bool:
    """True iff mu* > 0, from one LDL^T inertia count at sigma = 0.

    By Sylvester's law of inertia the scaled K is positive definite exactly
    when every generalized eigenvalue is positive, so one dpttrf gives the
    sign of mu* that smallest_eigenpair certifies with a bracketing search.
    A zero pivot reads as not positive definite: mu* = 0 counts as not
    stable.  smallest_eigenpair takes this same count whenever 0 lies
    inside its bracket, so the sign of its mu* is the sign read here.
    """
    _, scaled = _jacobi_scaled(op)
    return _positive_definite(scaled.k_diag, scaled.k_off, scaled.m_diag, scaled.m_off, 0.0)


# relative width, against tol_eig * max(|mu*|, |RQ(1)|), at which the
# certified bracket stops narrowing: four orders below the verdict margin
_BRACKET_WIDTH = 1e-4


def _certified_bracket(scaled: DiscreteOperator, lo: float, hi: float, rq_ones: float, tol_eig: float):
    """Narrow lo < mu* <= hi by inertia counts on the Jacobi-scaled pencil.

    See smallest_eigenpair for the search.  Returns (lo, hi, the L D L^T
    factor (d, e) of K - lo Mw, number of counts).  Each count is the
    factorisation _positive_definite makes: the scaled mass diagonal is 1,
    so K - sigma Mw has the diagonal kd - sigma, bitwise.
    """
    kd, ke, me = scaled.k_diag, scaled.k_off, scaled.m_off
    n = len(kd)
    counts = 0

    def count(sigma):
        nonlocal counts
        counts += 1
        d, e, info = dpttrf(kd - sigma, ke - sigma * me, overwrite_d=1, overwrite_e=1)
        # the last pivot exists when every earlier one is positive; it is
        # smooth in sigma up to the pole at the leading minor's smallest
        # eigenvalue and changes sign at mu*
        return (d, e), info, (float(d[-1]) if info in (0, n) else None)

    for _ in range(60):
        factor, info, f_lo = count(lo)
        if info == 0:
            break
        lo -= max(1.0, abs(lo))
    else:
        raise RuntimeError("eigensolver failed to certify a lower bound")
    if hi <= lo:
        hi = lo + max(abs(lo) * 1e-12, 1e-300)
    for _ in range(60):
        hi_factor, info, f_hi = count(hi)
        if info != 0:
            break
        lo, f_lo, factor = hi, f_hi, hi_factor
        hi += max(1.0, abs(hi))
    else:
        raise RuntimeError("eigensolver failed to certify an upper bound")

    widths = [hi - lo] * 3  # the bracket width before each count
    w_lo = w_hi = 1.0  # Illinois weights of f_lo and f_hi (see smallest_eigenpair)
    last = 0  # +1 after lo moved, -1 after hi moved
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent doubles
        scale = max(abs(mid), abs(rq_ones))
        secant = False
        if hi - lo < _BRACKET_WIDTH * tol_eig * scale:
            # narrow enough; the verdict compares mu* with 0 and +-margin, so
            # settle each of them that still lies inside by its own count
            margin = tol_eig * scale
            sigma = next((t for t in (0.0, -margin, margin) if lo < t < hi), None)
            if sigma is None:
                break
        elif f_hi is None or hi - lo > 0.5 * widths[-3]:
            sigma = mid  # no last pivot above, or three counts did not halve
        else:
            # regula falsi on the weighted last pivot, f_lo > 0 >= f_hi
            a, b = w_lo * f_lo, w_hi * f_hi
            sigma = lo + (hi - lo) * (a / (a - b))
            secant = lo < sigma < hi
            if not secant:
                sigma = mid
        widths.append(hi - lo)
        sigma_factor, info, f = count(sigma)
        if info == 0:
            lo, f_lo, factor = sigma, f, sigma_factor
            w_lo = 1.0 if secant else w_lo
            if last > 0 and f_hi is not None:
                w_hi *= 0.5
            last = 1
        else:
            hi, f_hi = sigma, f
            w_hi = 1.0 if secant else w_hi
            if last < 0:
                w_lo *= 0.5
            last = -1
    return lo, hi, factor, counts


def smallest_eigenpair(op: DiscreteOperator, tol_eig: float = 1e-8) -> SpectralResult:
    """Smallest generalized eigenvalue, certified by inertia counts, and its eigenvector.

    Each count is a LAPACK LDL^T factorisation (dpttrf) of the Jacobi-scaled
    K - sigma Mw: by Sylvester's law of inertia it is positive definite
    exactly when sigma < mu*.  The search starts from the certified lower
    bound and the Rayleigh quotient RQ(1) of the constant vector, both
    counted, and narrows the bracket lo < mu* <= hi by regula falsi on the
    factorisation's last pivot, which changes sign at mu*.  It bisects when
    the last pivot is not available (an earlier pivot failed) or when the
    last three counts together did not halve the bracket, so the bracket
    halves at least every four counts.  The regula falsi is Illinois with a
    weight per end, halved each time the other end moves twice in a row and
    reset only when a regula falsi step replaces its end: a bisection keeps
    the halving.  It stops
    once the bracket is narrower than 1e-4 * tol_eig * max(|mu*|, |RQ(1)|),
    four orders below the verdict margin, and reports mu* as its midpoint:
    mu* is certified to that width, not to adjacent doubles, and relative
    to the counts, not to the exact discrete eigenvalue: near mu* the last
    pivot is rounding noise of about eps * kd[-1], so the counts flip back
    and forth over a band of about 1e-10 of max(|mu*|, |RQ(1)|) (star
    pencils at mesh 2048), wider than the default stopping width of 1e-12
    of that scale.  Before
    stopping, every one of 0, -margin and +margin that still lies inside
    the bracket gets its own count, so the verdict, the marginal flag and
    the sign of mu* (which stable_at_zero reads with one count) never
    depend on the stopping width.

    The eigenvector comes from inverse iteration on the factor of the
    bracket's lower end, which the count proved positive definite, so no
    solve can meet a singular shift.  It is normalized to unit weighted norm
    with a deterministic sign and accepted once
    ||K chi - mu Mw chi|| <= tol_eig * spectral_scale * ||Mw chi||, where
    spectral_scale is a Gershgorin bound on the pencil spectrum (the level a
    backward-stable solve can achieve regardless of |mu*|); the reported
    residual is normalized by max(|mu*|, |RQ(1)|) instead.  The verdict is
    Unstable iff mu* < -margin with margin = tol_eig * max(|mu*|, |RQ(1)|);
    |mu*| <= margin reports Stable with the marginal flag set.
    """
    if not (tol_eig > 0.0):
        raise ValueError("tol_eig must be positive")
    n = len(op.k_diag)
    ones = np.ones(n)
    rq_ones = op.rayleigh(ones)

    s, scaled = _jacobi_scaled(op)
    hi = rq_ones + abs(rq_ones) * 1e-12 + 1e-300
    lo, hi, (d_lo, e_lo), counts = _certified_bracket(scaled, op.mu_lower, hi, rq_ones, tol_eig)
    mu = 0.5 * (lo + hi)
    scale = max(abs(mu), abs(rq_ones))

    # Gershgorin bound on the scaled pencil spectrum: eigenvector residuals
    # can be driven to tol_eig relative to this scale, but no further
    kd, ke, me = scaled.k_diag, scaled.k_off, scaled.m_off
    row_sum = np.abs(kd).copy()
    row_sum[:-1] += np.abs(ke)
    row_sum[1:] += np.abs(ke)
    mass_floor = max(1.0 - 2.0 * float(np.abs(me).max()), 0.05)
    spectral_scale = float(row_sum.max()) / mass_floor

    Mz = scaled.apply_Mw(ones)
    for solves in range(1, 51):
        y, _ = dpttrs(d_lo, e_lo, Mz)
        My = scaled.apply_Mw(y)
        nrm = math.sqrt(abs(float(y @ My)))
        z, Mz = y / nrm, My / nrm
        defect = float(np.linalg.norm(scaled.apply_K(z) - mu * Mz))
        mz_norm = float(np.linalg.norm(Mz))
        if defect <= tol_eig * spectral_scale * mz_norm:
            break
    else:
        raise RuntimeError(
            f"eigensolver did not converge: residual {defect / (spectral_scale * mz_norm):.3e}"
        )
    residual = defect / (scale * mz_norm) if scale * mz_norm > 0.0 else math.inf

    x = s * z  # back to nodal values, unit weighted norm as z
    imax = int(np.argmax(np.abs(x)))
    if x[imax] < 0.0:
        x = -x

    margin = tol_eig * scale
    unstable = mu < -margin
    return SpectralResult(
        mu_star=mu,
        chi_star=x,
        nodes=op.nodes,
        lam=math.sqrt(-mu) if unstable else None,
        verdict=UNSTABLE if unstable else STABLE,
        marginal=abs(mu) <= margin,
        mesh_size=n - 1,
        residual=residual,
        robin_defect=math.nan,
        bracket=(lo, hi),
        inertia_counts=counts,
        solves=solves,
    )


@dataclass(frozen=True)
class StrongFormResidual:
    """Pointwise defect of the reconstructed eigenpair in the strong equation."""

    interior_norm: float
    robin_defect: float


def _robin_defect(data: SturmLiouvilleData, result: SpectralResult) -> float:
    """|d chi(R) + R chi'(R)| / (d |chi(R)| + R |chi'(R)|), in [0, 1].

    chi'(R) comes from a quadratic through the last three nodes.  Dividing
    by the size of the two terms makes the defect comparable across stars
    (0 when the free-surface condition holds, 1 when one term is missing).
    """
    y2, y1, y0 = result.nodes[-3:]
    c2, c1, c0 = result.chi_star[-3:]
    d01, d02, d12 = y0 - y1, y0 - y2, y1 - y2
    dchi_R = c0 * (1.0 / d01 + 1.0 / d02) - c1 * d02 / (d01 * d12) + c2 * d01 / (d02 * d12)
    size = data.d * abs(c0) + data.R * abs(dchi_R)
    return abs(data.d * c0 + data.R * dchi_R) / size if size > 0.0 else 0.0


def eigen_residual_strongform(data: SturmLiouvilleData, result: SpectralResult) -> StrongFormResidual:
    """Strong-form residual -(p chi')' + q chi - mu wgt chi from P1 reconstruction.

    The flux p chi' is formed per element (coefficient at the midpoint, slope
    from the nodal values) and differenced across interior nodes; the reported
    norm is a weighted RMS relative to the local term sizes, which decays at
    first order in the mesh.  The Robin defect is |d chi(R) + R chi'(R)|
    relative to the size of its two terms, with chi'(R) from a one-sided
    quadratic fit (see _robin_defect).
    """
    nodes, chi, mu = result.nodes, result.chi_star, result.mu_star
    h = np.diff(nodes)
    n_mid = len(h)
    # one coefficient evaluation: p at the element midpoints, q and wgt at
    # the interior nodes
    p, q, wgt = data.coeffs(np.concatenate([0.5 * (nodes[:-1] + nodes[1:]), nodes[1:-1]]))
    flux = p[:n_mid] * np.diff(chi) / h
    hbar = 0.5 * (nodes[2:] - nodes[:-2])
    div = (flux[1:] - flux[:-1]) / hbar
    qi = q[n_mid:]
    wi = wgt[n_mid:]
    res = -div + qi * chi[1:-1] - mu * wi * chi[1:-1]
    scale = np.abs(div) + np.abs(qi * chi[1:-1]) + np.abs(mu * wi * chi[1:-1])
    num = math.sqrt(float((hbar * res**2).sum()))
    den = math.sqrt(float((hbar * scale**2).sum()))
    interior = num / den if den > 0.0 else 0.0
    return StrongFormResidual(interior_norm=interior, robin_defect=_robin_defect(data, result))


def classify_stability(profile: Profile, mesh_size: int = 2048, tol_eig: float = 1e-8) -> SpectralResult:
    """Assemble the pencil for a liquid profile and decide the verdict by sign of mu*."""
    data = build_sl_data(profile)
    op = assemble(data, mesh_size)
    result = smallest_eigenpair(op, tol_eig)
    return replace(result, robin_defect=_robin_defect(data, result))


def instability_witness(profile: Profile, case: int, mesh_size: int = 4096) -> float:
    """Q evaluated on the closed-form destabilizing test function of one regime.

    case 1 (2d/(d+2) < gamma < 2(d-1)/d): the constant function.
    case 2 (gamma = 2d/(d+2)): the rho0-scaled constant family.
    case 3 (gamma < 2d/(d+2)): a power law y^-a capped at epsilon, with
    a = (d - 2 gamma/(2-gamma))/2 and epsilon = R/100 (falling back to a sweep
    over {R/10, R/100, R/1000} and returning the smallest value found).

    A negative return certifies linear instability without an eigensolve.
    """
    data = build_sl_data(profile)
    d, g, R = data.d, data.gamma, data.R
    t_sup, t_stab = support_threshold(d), stability_threshold(d)
    crit = math.isclose(g, t_sup, rel_tol=1e-12)
    if case == 1 and (crit or not t_sup < g < t_stab):
        raise ValueError(f"case 1 requires {t_sup:g} < gamma < {t_stab:g}, got {g}")
    if case == 2 and not crit:
        raise ValueError(f"case 2 requires gamma = {t_sup:g} exactly, got {g}")
    if case in (1, 2):
        amplitude = 1.0 if case == 1 else profile.config.rho_center ** (d / (d + 2.0))
        nodes = graded_mesh(R, mesh_size)
        chi = np.full_like(nodes, amplitude)
        return quadratic_form(data, chi, chi, nodes)
    if case == 3:
        if not (g < t_sup) or crit:
            raise ValueError(f"case 3 requires gamma < {t_sup:g}, got {g}")
        a = 0.5 * (d - 2.0 * g / (2.0 - g))
        best = math.inf
        for frac in (100.0, 10.0, 1000.0):
            eps = R / frac
            nodes = np.unique(np.concatenate([graded_mesh(R, mesh_size), [eps]]))
            chi = np.minimum(eps**-a, nodes[1:] ** -a)
            chi = np.concatenate([[eps**-a], chi])
            val = quadratic_form(data, chi, chi, nodes)
            best = min(best, val)
            if best < 0.0:
                break
        return best
    raise ValueError(f"case must be 1, 2, or 3, got {case!r}")


def spectral_result_dict(result: SpectralResult) -> dict:
    """JSON-ready summary of a SpectralResult."""
    return {
        "mu_star": result.mu_star,
        "lambda": result.lam,
        "verdict": result.verdict,
        "marginal": result.marginal,
        "mesh_size": result.mesh_size,
        "robin_defect": None if math.isnan(result.robin_defect) else result.robin_defect,
    }


def write_eigenfunction_csv(result: SpectralResult, out: TextIO) -> None:
    """Emit the eigenfunction samples as CSV with header y,chi."""
    out.write("y,chi\n")
    for y, c in zip(result.nodes, result.chi_star):
        out.write(f"{y:.17g},{c:.17g}\n")
