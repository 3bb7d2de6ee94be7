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
-y rhobar m = -(m/y^d) wgt, which avoids numerical differentiation of the
profile: with p = gamma rhobar^(gamma-1) wgt, every coefficient is wgt times
one of the two columns a steady.RunStar reads off its DOP853 run (the
enthalpy gives rhobar^(gamma-1), and m/y^d is the other column), so the
only power of rhobar taken is rhobar itself.  The Gauss points of a mesh
are read in ascending order, element by element, so the run locates them
in one pass over its steps.

The sign of mu* is certified by LAPACK's tridiagonal L D L^T, dpttrf, and the
eigenvector solved for with its dpttrs.  Both are called through ctypes in
the OpenBLAS that numpy's wheels bundle, which numpy has loaded already, so
importing this module loads no part of scipy.  Where numpy's build exports
no such symbols (conda, distribution and numpy 1.x builds), the pair comes
from scipy.linalg.lapack instead, chosen once at import by _lapack_pair.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, TextIO, Tuple

import numpy as np

from .config import stability_threshold, support_threshold
from .steady import RunStar, gauss_rule, liquid_radius

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
    (for a star, read off its RunStar's run).  The nodes they are integrated
    on are the caller's: assemble's graded mesh, or those passed to
    quadratic_form and weighted_norm_sq.
    """

    d: int
    gamma: float
    R: float
    robin_weight: float
    coeffs: Callable


def build_sl_data(star: RunStar) -> SturmLiouvilleData:
    """The pencil coefficients of a liquid star, read off its run (enthalpy_and_mass_hat_at) anywhere in [0, R].

    Raises liquid_radius's errors: a star with rho0 <= 1, or a run that ends
    before its liquid radius.
    """
    config = star.config
    R = liquid_radius(star)
    d, g = config.d, config.gamma
    coef = 2.0 * (d - 1.0) - d * g

    def coeffs(y):
        y = np.asarray(y, dtype=float)
        enthalpy, mass_hat = star.enthalpy_and_mass_hat_at(y)
        wgt = y ** (d + 1) * config.rho_of_enthalpy(enthalpy)
        return g * config.rho_power_of_enthalpy(enthalpy) * wgt, -coef * mass_hat * wgt, wgt

    return SturmLiouvilleData(d=d, gamma=g, R=float(R), robin_weight=d * g * R**d, coeffs=coeffs)


def manufactured_sl_data(
    d: int,
    gamma: float,
    R: float,
    p_fn: Callable,
    q_fn: Callable,
    wgt_fn: Callable,
    robin_weight: float = 0.0,
) -> SturmLiouvilleData:
    """Pencil with user-supplied coefficients (for oracles and manufactured modes)."""
    if robin_weight < 0.0:
        raise ValueError("robin_weight must be non-negative")

    def coeffs(y):
        return p_fn(y), q_fn(y), wgt_fn(y)

    return SturmLiouvilleData(d=d, gamma=gamma, R=float(R), robin_weight=float(robin_weight), coeffs=coeffs)


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

    The coefficients are evaluated at yl + h _REF_X element by element, so
    the points ascend (a RunStar's run reads ascending radii in one pass),
    then laid out (3, M), one contiguous row per Gauss point of
    gauss_rule(3).  The hat functions take the same values at the Gauss
    points of every element, so each integral is one contraction with a
    reference-element table: kp = (_REF_W @ p) / h, and the rows ll, lr, rr
    are (_REF_HAT @ q) h and (_REF_HAT @ wgt) h.
    """
    yl = nodes[:-1]
    h = nodes[1:] - yl
    if np.any(h <= 0.0):
        raise ValueError("degenerate mesh: nodes must be strictly increasing")
    pts = yl[:, None] + h[:, None] * _REF_X
    # a matrix-vector product rounds by its matrix's layout: contract contiguous rows
    p, q, wgt = (np.ascontiguousarray(np.reshape(c, pts.shape).T) for c in data.coeffs(pts.ravel()))
    return (_REF_W @ p) / h, (_REF_HAT @ q) * h, (_REF_HAT @ wgt) * h, q / wgt


def _assemble_on(data: SturmLiouvilleData, nodes: np.ndarray) -> DiscreteOperator:
    """The weak-form pencil on strictly increasing `nodes` (see assemble).

    Overflow and invalid values are not warned about: the finiteness check
    at the end is the one way out for them, and it names the cause.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
        # name the matrix and the kind of value: an infinity is a float64
        # overflow of a coefficient, a NaN an invalid operation such as inf - inf
        def holds(name, *parts):
            kinds = [kind for kind, test in (("infinities (float64 overflow)", np.isinf), ("NaNs", np.isnan))
                     if any(test(a).any() for a in parts)]
            return f"{name} holds {' and '.join(kinds)}" if kinds else f"{name} is finite"

        found = [holds("K", k_diag, k_off), holds("Mw", m_diag, m_off)]
        if not math.isfinite(mu_lower):
            found.append(holds("min(q/wgt)", mu_lower))
        raise RuntimeError(f"{_NON_FINITE}; {'; '.join(found)}")
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


def quadratic_form(data: SturmLiouvilleData, chi1, chi2, nodes: np.ndarray) -> float:
    """Q[chi1, chi2] of the P1 interpolants on `nodes`.

    The same element integrals as K, but the p part is summed in flux form,
    int_p/h^2 (chi1_r - chi1_l)(chi2_r - chi2_l) per element, so a constant
    test function gets exactly no p contribution.
    """
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
        raise RuntimeError(_NON_FINITE)
    return value


def weighted_norm_sq(data: SturmLiouvilleData, chi, nodes: np.ndarray) -> float:
    """<chi, chi>_wgt of the P1 interpolant: chi . Mw chi with Mw assembled on `nodes`."""
    chi = np.asarray(chi, dtype=float)
    if chi.shape != nodes.shape:
        raise ValueError("mesh mismatch: test function must be sampled on the nodes")
    return float(chi @ _assemble_on(data, nodes).apply_Mw(chi))


@dataclass(frozen=True)
class CertifiedEigenvalue:
    """Smallest eigenvalue of the discrete pencil, the verdict and its evidence: certified_search's.

    bracket = (lo, hi) is certified by two inertia counts, K - lo Mw positive
    definite and K - hi Mw not, so lo < mu* <= hi; mu_star is its midpoint.
    hi - lo is at most 2 w, w = 5e-11 max(1, (mesh/2048)^2) max(|mu*|,
    |RQ(1)|), above the band over which the counts flip by rounding (see
    smallest_eigenpair).  inertia_counts is the number of LDL^T
    factorisations the search took and solves the number of
    inverse-iteration solves that settled the Rayleigh quotient the bracket
    is certified around.
    """

    mu_star: float
    lam: Optional[float]
    verdict: str
    marginal: bool
    mesh_size: int
    bracket: Tuple[float, float]
    inertia_counts: int
    solves: int


@dataclass(frozen=True)
class SpectralResult(CertifiedEigenvalue):
    """The certified search's record plus the eigenvector finish: smallest_eigenpair's.

    Every field of CertifiedEigenvalue is the search's, bitwise, except
    solves, which adds the finish's: at least one more on the factor of the
    bracket's final lower end.  chi_star is the eigenvector at nodes.
    residual is ||K chi - mu* Mw chi|| / (max(|mu*|, |RQ(1)|) ||Mw chi||) in
    the Jacobi-scaled pencil: the eigenvector's defect relative to the
    spectrum near mu*.  It sits at the rounding floor of K chi, which grows
    like mesh^2 (5.1e-10, 9.4e-9 and 3.1e-8 at meshes 2048, 8192 and 16384
    on (4, 1.4, 50.3231), where more inverse iteration does not lower it),
    so above a mesh of about 8192 it can exceed tol_eig for a converged
    eigenvector and is no acceptance test there.  robin_defect is
    classify_stability's (NaN from smallest_eigenpair alone).
    """

    chi_star: np.ndarray
    nodes: np.ndarray
    residual: float
    robin_defect: float


class _Tridiagonal:
    """Buffers for a symmetric tridiagonal of order n that _pttrf factors in place.

    The diagonal d and the off-diagonal e are views of one float64 array,
    and n and the last info are int64 cells, since the Fortran routines take
    every argument by reference.  ptrs holds the addresses of n, d, e and
    info, read once here: reading an array's address costs about 1.5 us, a
    twentieth of an inertia count at mesh 2048.
    """

    __slots__ = ("d", "e", "n", "info", "ptrs")

    def __init__(self, n: int):
        buf = np.empty(2 * n - 1)
        self.d, self.e = buf[:n], buf[n:]
        self.n, self.info = ctypes.c_int64(n), ctypes.c_int64(0)
        d = buf.ctypes.data
        self.ptrs = (ctypes.addressof(self.n), d, d + buf.itemsize * n, ctypes.addressof(self.info))


def _openblas_lapack():
    """dpttrf and dpttrs of the OpenBLAS bundled with numpy, or None where numpy has none.

    numpy's wheels link numpy.libs/libscipy_openblas64_*.so into
    numpy.linalg._umath_linalg, which numpy imports at startup; a handle on
    that extension resolves the library's ILP64 Fortran symbols (every
    integer argument is int64).  The LAPACKE entry points would add a NaN
    scan of their own.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        return lib.scipy_dpttrf_64_, lib.scipy_dpttrs_64_
    except (ImportError, OSError, AttributeError):
        return None


def _lapack_pair():
    """(pttrf, pttrs) on numpy's OpenBLAS, or on scipy.linalg.lapack where numpy exports none.

    pttrf(t) factors the _Tridiagonal t in place as L D L^T and returns
    LAPACK's info: 0, or the index k (from 1) of the first pivot that is not
    positive, where the factorisation stopped.  pttrs(t, b) solves
    T x = b with t's factor and returns x in a new array.  Both paths call
    the same LAPACK routines on the same buffers.
    """

    def solution_buffer(t: _Tridiagonal, b) -> np.ndarray:
        # LAPACK takes the order from the buffers: b of another length
        # would have it read or write past them
        x = np.array(b, dtype=np.float64)
        if x.shape != t.d.shape:
            raise ValueError(f"right-hand side of shape {x.shape} for a tridiagonal of order {len(t.d)}")
        return x

    symbols = _openblas_lapack()
    if symbols is None:
        from scipy.linalg.lapack import dpttrf, dpttrs

        def pttrf(t: _Tridiagonal) -> int:
            return int(dpttrf(t.d, t.e, overwrite_d=1, overwrite_e=1)[2])

        def pttrs(t: _Tridiagonal, b: np.ndarray) -> np.ndarray:
            return dpttrs(t.d, t.e, solution_buffer(t, b), overwrite_b=1)[0]

        return pttrf, pttrs

    dpttrf, dpttrs = symbols
    dpttrf.argtypes = [ctypes.c_void_p] * 4  # n, d, e, info
    dpttrs.argtypes = [ctypes.c_void_p] * 7  # n, nrhs, d, e, b, ldb, info
    dpttrf.restype = dpttrs.restype = None
    nrhs = ctypes.c_int64(1)

    def pttrf(t: _Tridiagonal) -> int:
        dpttrf(*t.ptrs)
        return t.info.value

    def pttrs(t: _Tridiagonal, b: np.ndarray) -> np.ndarray:
        x = solution_buffer(t, b)
        n, d, e, info = t.ptrs
        dpttrs(n, ctypes.addressof(nrhs), d, e, x.ctypes.data, n, info)  # x's leading dimension is n
        return x

    return pttrf, pttrs


_pttrf, _pttrs = _lapack_pair()


def _positive_definite(kd, ke, md, me, sigma: float) -> bool:
    """Certificate that no generalized eigenvalue lies at or below sigma.

    By Sylvester's law of inertia K - sigma Mw is positive definite exactly
    when sigma < mu*.  LAPACK dpttrf (_pttrf) factors the symmetric
    tridiagonal K - sigma Mw as L D L^T and stops at the first pivot that is
    not positive (info > 0), so a zero pivot also reads as not positive
    definite.
    """
    t = _Tridiagonal(len(kd))
    t.d[:] = kd - sigma * md
    t.e[:] = ke - sigma * me
    return _pttrf(t) == 0


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
    inside its bracket, however wide, so the sign of its mu* is the sign
    read here.
    """
    _, scaled = _jacobi_scaled(op)
    return _positive_definite(scaled.k_diag, scaled.k_off, scaled.m_diag, scaled.m_off, 0.0)


# the count search hands over to the Rayleigh-quotient probe once the
# bracket is narrower than this share of max(|mu*|, |RQ(1)|)
_COARSE_WIDTH = 0.1
# half-width w of the certified bracket around the Rayleigh quotient, as a
# share of max(|mu*|, |RQ(1)|) at mesh 2048: above the band of about 1e-10
# over which the counts flip by rounding; the band grows like mesh^2
_PROBE_WIDTH = 5e-11
# the probe waits until the error left in the Rayleigh quotient, as its
# last two changes extrapolate it, is at most this share of w, for at most
# _PROBE_SOLVES solves
_SETTLE = 0.3
_PROBE_SOLVES = 10
# the smallest positive normal double
_NORMAL_MIN = 2.0**-1022


class _CertifiedBracket:
    """lo < mu* <= hi on the Jacobi-scaled pencil, both ends certified by inertia counts.

    See smallest_eigenpair for the search.  The constructor counts at lo and
    hi, moving either outward until it holds; narrow, probe and settle
    narrow the bracket from there.  Each count is the factorisation
    _positive_definite makes: the scaled mass diagonal is 1, so K - sigma Mw
    has the diagonal kd - sigma, bitwise.  counts is the number taken.

    The counts factor into two preallocated slots: factor (slots[0]) holds
    lo's L D L^T factor, every count writes slots[1], and the two swap
    whenever lo moves to the shift just counted.
    """

    def __init__(self, scaled: DiscreteOperator, lo: float, hi: float, rq_ones: float):
        self.kd, self.ke, self.me = scaled.k_diag, scaled.k_off, scaled.m_off
        self.rq_ones = rq_ones
        self.counts = 0
        n = len(self.kd)
        self.slots = [_Tridiagonal(n), _Tridiagonal(n)]
        for _ in range(60):
            info, f_lo = self._factor(lo)
            if info == 0:
                self.slots.reverse()
                break
            lo -= max(1.0, abs(lo))
        else:
            raise RuntimeError("eigensolver failed to certify a lower bound")
        if hi <= lo:
            hi = lo + max(abs(lo) * 1e-12, 1e-300)
        for _ in range(60):
            info, f_hi = self._factor(hi)
            if info != 0:
                break
            lo, f_lo = hi, f_hi
            self.slots.reverse()
            hi += max(1.0, abs(hi))
        else:
            raise RuntimeError("eigensolver failed to certify an upper bound")
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi
        self.widths = [hi - lo] * 3  # the bracket width before each count
        self.w_lo = self.w_hi = 1.0  # Illinois weights of f_lo and f_hi (see smallest_eigenpair)
        self.last = 0  # +1 after lo moved, -1 after hi moved

    @property
    def factor(self) -> _Tridiagonal:
        return self.slots[0]

    def scale(self, mu: float) -> float:
        return max(abs(mu), abs(self.rq_ones))

    def _factor(self, sigma: float):
        """Factor K - sigma Mw into slots[1]: (LAPACK's info, the last pivot or None)."""
        self.counts += 1
        t = self.slots[1]
        np.subtract(self.kd, sigma, out=t.d)
        np.multiply(self.me, sigma, out=t.e)
        np.subtract(self.ke, t.e, out=t.e)
        info = _pttrf(t)
        # the last pivot exists when every earlier one is positive; it is
        # smooth in sigma up to the pole at the leading minor's smallest
        # eigenvalue and changes sign at mu*
        n = len(t.d)
        return info, (float(t.d[-1]) if info in (0, n) else None)

    def count(self, sigma: float, secant: bool = False) -> bool:
        """Count at lo < sigma < hi and move the end it certifies there; True when lo moved."""
        self.widths.append(self.hi - self.lo)
        info, f = self._factor(sigma)
        if info == 0:
            self.lo, self.f_lo = sigma, f
            self.slots.reverse()
            self.w_lo = 1.0 if secant else self.w_lo
            if self.last > 0 and self.f_hi is not None:
                self.w_hi *= 0.5
            self.last = 1
            return True
        self.hi, self.f_hi = sigma, f
        self.w_hi = 1.0 if secant else self.w_hi
        if self.last < 0:
            self.w_lo *= 0.5
        self.last = -1
        return False

    def narrow(self, width: float) -> None:
        """Count until hi - lo < width * max(|mid|, |RQ(1)|) or the ends are adjacent doubles."""
        for _ in range(200):
            lo, hi = self.lo, self.hi
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi or hi - lo < width * self.scale(mid):
                return
            sigma, secant = mid, False  # no last pivot above, or three counts did not halve
            if self.f_hi is not None and hi - lo <= 0.5 * self.widths[-3]:
                # regula falsi on the weighted last pivot, f_lo > 0 >= f_hi
                a, b = self.w_lo * self.f_lo, self.w_hi * self.f_hi
                t = lo + (hi - lo) * (a / (a - b))
                if lo < t < hi:
                    sigma, secant = t, True
            self.count(sigma, secant)

    def probe(self, rq: float, half_width: float) -> bool:
        """Certify [rq - w, rq + w], w = half_width * max(|rq|, |RQ(1)|), by a count at each end.

        An end outside the bracket needs no count.  Returns True when the
        bracket lies within that interval; a count that disagrees still
        moves its end.
        """
        w = half_width * self.scale(rq)
        a, b = rq - w, rq + w
        if a >= self.hi or b <= self.lo:
            return False
        if a > self.lo and not self.count(a):
            return False
        return b >= self.hi or not self.count(b)

    def settle(self, tol_eig: float) -> None:
        """Count at each of 0, -margin and +margin inside the bracket, margin = tol_eig * scale."""
        for side in (0.0, -1.0, 1.0):
            t = side * tol_eig * self.scale(0.5 * (self.lo + self.hi))
            if self.lo < t < self.hi:
                self.count(t)


def _solve(scaled: DiscreteOperator, factor: _Tridiagonal, Mx: np.ndarray):
    """One inverse-iteration step on factor's T: (z, Mw z, y.Mx / y.Mw y), y = T^-1 Mx, z = y / ||y||_Mw.

    When T = K - shift Mw and Mx = Mw x, y.T y = y.Mw x, so the ratio is
    RQ(y) - shift: the shift-invert identity gives y's Rayleigh quotient
    without a product with K.

    Where y.Mw y underflows below the normal doubles (a star of radius
    1e-38 has y of about 1e-160), y is first scaled by 2^-e, the power of
    two that brings its largest entry into [0.5, 1), and the ratio is
    2^-e y.Mx / y.Mw y.  Scaling by a power of two is exact, and so is the
    square root of 2^-2e y.Mw y, so z, Mw z and the ratio keep the bits
    they would have had wherever nothing else underflows.
    """
    y = _pttrs(factor, Mx)
    My = scaled.apply_Mw(y)
    yMy = float(y @ My)
    e = 0
    if abs(yMy) < _NORMAL_MIN:
        e = math.frexp(float(np.abs(y).max()))[1]
        np.ldexp(y, -e, out=y)
        My = scaled.apply_Mw(y)
        yMy = float(y @ My)
    ratio = math.ldexp(float(y @ Mx), -e) / yMy
    nrm = math.sqrt(abs(yMy))
    y /= nrm
    My /= nrm
    return y, My, ratio


def _inverse_iteration(scaled: DiscreteOperator, factor: _Tridiagonal, shift: float, x: np.ndarray,
                       rq: float, tol: float, max_solves: int):
    """Inverse iteration from x (whose Rayleigh quotient is rq) on factor, K - shift Mw's L D L^T.

    Each step takes its Rayleigh quotient from _solve.  The quotients
    converge geometrically, so with q the ratio of the last two changes,
    about change q / (1 - q) of the error is left; the iteration stops once
    that, or the change itself, is at most tol, or after max_solves solves.
    Returns (z, Mw z, RQ(z), solves), z of unit weighted norm, with RQ None
    when it did not settle.
    """
    Mx = scaled.apply_Mw(x)
    last = 0.0  # the change before, none yet
    for solves in range(1, max_solves + 1):
        x, Mx, ratio = _solve(scaled, factor, Mx)
        previous, rq = rq, shift + ratio
        change = abs(rq - previous)
        # change q / (1 - q) <= tol with q = change / last
        if change <= tol or change * change <= tol * (last - change):
            return x, Mx, rq, solves
        last = change
    return x, Mx, None, max_solves


def _search(op: DiscreteOperator, tol_eig: float):
    """Steps 1-4 of smallest_eigenpair: (its CertifiedEigenvalue, what the eigenvector finish goes on from).

    That is (s, scaled, bracket, z, Mz): the Jacobi scaling and the scaled
    pencil, the _CertifiedBracket, whose factor is its final lower end's,
    and the iterate z of step 2 with Mw z.
    """
    if not (tol_eig > 0.0):
        raise ValueError("tol_eig must be positive")
    n = len(op.k_diag)
    ones = np.ones(n)
    rq_ones = op.rayleigh(ones)

    s, scaled = _jacobi_scaled(op)
    hi = rq_ones + abs(rq_ones) * 1e-12 + 1e-300
    bracket = _CertifiedBracket(scaled, op.mu_lower, hi, rq_ones)
    bracket.narrow(_COARSE_WIDTH)
    half_width = _PROBE_WIDTH * max(1.0, ((n - 1) / 2048.0) ** 2)  # w / scale
    tol = _SETTLE * half_width * bracket.scale(0.5 * (bracket.lo + bracket.hi))
    # from the constant vector, 1 / s in the scaled pencil, whose Rayleigh quotient is RQ(1)
    z, Mz, rq, solves = _inverse_iteration(scaled, bracket.factor, bracket.lo, 1.0 / s, rq_ones, tol,
                                           _PROBE_SOLVES)
    if rq is None or not bracket.probe(rq, half_width):
        bracket.narrow(2.0 * half_width)
    bracket.settle(tol_eig)
    lo, hi = bracket.lo, bracket.hi
    mu = 0.5 * (lo + hi)
    margin = tol_eig * bracket.scale(mu)
    unstable = mu < -margin
    certificate = CertifiedEigenvalue(
        mu_star=mu,
        lam=math.sqrt(-mu) if unstable else None,
        verdict=UNSTABLE if unstable else STABLE,
        marginal=abs(mu) <= margin,
        mesh_size=n - 1,
        bracket=(lo, hi),
        inertia_counts=bracket.counts,
        solves=solves,
    )
    return certificate, (s, scaled, bracket, z, Mz)


def certified_search(op: DiscreteOperator, tol_eig: float = 1e-8) -> CertifiedEigenvalue:
    """The smallest generalized eigenvalue and the verdict, certified by inertia counts: no eigenvector.

    This is steps 1-4 of smallest_eigenpair, which runs it and then the
    eigenvector finish, so every field is smallest_eigenpair's bitwise but
    solves, which leaves out the finish's.  The scan rows and critical's
    bracket ends (harness) read nothing else.
    """
    return _search(op, tol_eig)[0]


def smallest_eigenpair(op: DiscreteOperator, tol_eig: float = 1e-8) -> SpectralResult:
    """Smallest generalized eigenvalue, certified by inertia counts, and its eigenvector.

    Each count is a LAPACK LDL^T factorisation (dpttrf, through _pttrf from
    numpy's bundled OpenBLAS, or from scipy where numpy has none; see
    _lapack_pair) of the Jacobi-scaled K - sigma Mw: by Sylvester's law of
    inertia it is positive definite exactly when sigma < mu*.  With
    scale = max(|mu*|, |RQ(1)|) and w = 5e-11 * max(1, (mesh/2048)^2) * scale,
    the search (_CertifiedBracket) goes in four steps:

    1. Counts narrow the bracket lo < mu* <= hi, from the certified lower
       bound and the Rayleigh quotient RQ(1) of the constant vector, to
       0.1 * scale.  They take regula falsi steps on the factorisation's
       last pivot, which changes sign at mu*, and bisect when the last
       pivot is not available (an earlier pivot failed) or when the last
       three counts together did not halve the bracket, so the bracket
       halves at least every four counts.  The regula falsi is Illinois
       with a weight per end, halved each time the other end moves twice in
       a row and reset only when a regula falsi step replaces its end: a
       bisection keeps the halving.
    2. Inverse iteration from the constant vector on the factor of lo,
       which the count proved positive definite, so no solve can meet a
       singular shift (dpttrs, through _pttrs), runs until its Rayleigh
       quotient RQ settles to about 0.3 w (_inverse_iteration).
    3. Two counts certify [RQ - w, RQ + w].  w lies above the band over
       which the counts flip by rounding: near mu* the last pivot is
       rounding noise of about eps * kd[-1], and the band is about 1e-10 of
       scale at mesh 2048 and grows like mesh^2.  RQ carries rounding of
       the same size, so some stars land more than w from the counts'
       crossing: 28 of the 288 rows of the benchmark's sweep seeds 0, 3, 5
       and 7 at mesh 2048 (about one in ten).  If either count disagrees,
       or RQ did not settle within 10 solves, the counts of step 1 go on
       from the bracket they left until it is narrower than 2 w.
    4. Every one of 0, -margin and +margin that still lies inside the
       bracket gets its own count.

    So hi - lo <= 2 w, and mu* is the bracket's midpoint: certified to that
    width, not to adjacent doubles, and relative to the counts, not to the
    exact discrete eigenvalue.  The verdict, the marginal flag and the sign
    of mu* (which stable_at_zero reads with one count) never depend on the
    width, by step 4.

    Steps 1-4 are the certified search, certified_search on its own.  The
    eigenvector finish comes after it: the inverse iteration of step 2,
    continued on the factor of the bracket's final lower end, which lies
    within 2 w of mu*, with no count of its own.  The eigenvector is
    normalized to unit weighted norm with a deterministic sign and accepted
    once
    ||K chi - mu Mw chi|| <= tol_eig * spectral_scale * ||Mw chi||, where
    spectral_scale is a Gershgorin bound on the pencil spectrum (the level a
    backward-stable solve can achieve regardless of |mu*|), after at least
    one solve on that factor and at most 50 solves in all.  The reported
    residual is normalized by max(|mu*|, |RQ(1)|) instead.  The verdict is
    Unstable iff mu* < -margin with margin = tol_eig * max(|mu*|, |RQ(1)|);
    |mu*| <= margin reports Stable with the marginal flag set.
    """
    certificate, (s, scaled, bracket, z, Mz) = _search(op, tol_eig)
    mu = certificate.mu_star
    scale = bracket.scale(mu)

    # Gershgorin bound on the scaled pencil spectrum: eigenvector residuals
    # can be driven to tol_eig relative to this scale, but no further
    kd, ke, me = scaled.k_diag, scaled.k_off, scaled.m_off
    row_sum = np.abs(kd).copy()
    row_sum[:-1] += np.abs(ke)
    row_sum[1:] += np.abs(ke)
    mass_floor = max(1.0 - 2.0 * float(np.abs(me).max()), 0.05)
    spectral_scale = float(row_sum.max()) / mass_floor

    # the iterate goes on from the bracket's final lower end, within 2 w of mu*
    for solves in range(certificate.solves + 1, 51):
        z, Mz, _ = _solve(scaled, bracket.factor, Mz)
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

    return SpectralResult(
        **{**vars(certificate), "solves": solves},
        chi_star=x,
        nodes=op.nodes,
        residual=residual,
        robin_defect=math.nan,
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
    # one coefficient evaluation at ascending radii, the element midpoints
    # interleaved with the interior nodes: p at the midpoints, q and wgt at
    # the nodes
    y = np.empty(2 * len(h) - 1)
    y[0::2] = 0.5 * (nodes[:-1] + nodes[1:])
    y[1::2] = nodes[1:-1]
    p, q, wgt = data.coeffs(y)
    flux = p[0::2] * np.diff(chi) / h
    hbar = 0.5 * (nodes[2:] - nodes[:-2])
    div = (flux[1:] - flux[:-1]) / hbar
    qi = q[1::2]
    wi = wgt[1::2]
    res = -div + qi * chi[1:-1] - mu * wi * chi[1:-1]
    scale = np.abs(div) + np.abs(qi * chi[1:-1]) + np.abs(mu * wi * chi[1:-1])
    num = math.sqrt(float((hbar * res**2).sum()))
    den = math.sqrt(float((hbar * scale**2).sum()))
    interior = num / den if den > 0.0 else 0.0
    return StrongFormResidual(interior_norm=interior, robin_defect=_robin_defect(data, result))


def classify_stability(star: RunStar, mesh_size: int = 2048, tol_eig: float = 1e-8) -> SpectralResult:
    """Assemble the pencil for a liquid star read off its run and decide the verdict by sign of mu*."""
    data = build_sl_data(star)
    op = assemble(data, mesh_size)
    result = smallest_eigenpair(op, tol_eig)
    return replace(result, robin_defect=_robin_defect(data, result))


def instability_witness(star: RunStar, case: int, mesh_size: int = 4096) -> float:
    """Q evaluated on the closed-form destabilizing test function of one regime.

    case 1 (2d/(d+2) < gamma < 2(d-1)/d): the constant function.
    case 2 (gamma = 2d/(d+2)): the rho0-scaled constant family.
    case 3 (gamma < 2d/(d+2)): a power law y^-a capped at epsilon, with
    a = (d - 2 gamma/(2-gamma))/2 and epsilon = R/100 (falling back to a sweep
    over {R/10, R/100, R/1000} and returning the smallest value found).

    A negative return certifies linear instability without an eigensolve.
    """
    data = build_sl_data(star)
    d, g, R = data.d, data.gamma, data.R
    t_sup, t_stab = support_threshold(d), stability_threshold(d)
    crit = math.isclose(g, t_sup, rel_tol=1e-12)
    if case == 1 and (crit or not t_sup < g < t_stab):
        raise ValueError(f"case 1 requires {t_sup:g} < gamma < {t_stab:g}, got {g}")
    if case == 2 and not crit:
        raise ValueError(f"case 2 requires gamma = {t_sup:g} exactly, got {g}")
    if case in (1, 2):
        amplitude = 1.0 if case == 1 else star.config.rho_center ** (d / (d + 2.0))
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
