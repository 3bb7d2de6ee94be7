"""Dormand-Prince 8(5,3) for a two-component ODE, stepped on Python floats.

The method is DOP853 of Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, section II.5 (their Fortran code dop853.f): a
12-stage order-8 step, an error estimate that blends the order-5 and order-3
embedded formulas, and a 7th-degree dense output from 3 extra stages.  Step
control is the usual one (safety 0.9, step factors clamped to [0.2, 10],
exponent -1/8, the Hairer-Wanner initial-step heuristic), as in scipy's
DOP853, so the two take the same steps up to rounding.

Stepping a 2-vector through numpy costs far more in call overhead than in
arithmetic, so the stages are combined in plain Python on the two components.
The dense output of all accepted steps is kept as one coefficient array and
evaluated in one vectorised pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1/(error estimator order + 1)

EPS = float(np.finfo(float).eps)

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])

# lower-triangular stage matrix; row 12 holds the weights B of the order-8
# solution and rows 13-15 the extra stages of the dense output
A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2
A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
A[6, [0, 3, 4, 5]] = [
    3.7109375e-2,
    1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2,
    -1.7578125e-2,
]
A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1,
]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209,
    1.09143734899672957818500254654,
    -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1,
    2.49360555267965238987089396762,
    -3.0467644718982195003823669022,
]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674,
    -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2,
    2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3,
    -8.298e-3,
]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2,
    2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1,
]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1,
    -4.69762141536116384314449447206,
    7.68342119606259904184240953878,
    4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1,
    -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149,
    -9.15095847217987001081870187138,
]

B = A[N_STAGES, :N_STAGES]

# error estimators over the 12 stages and f at the new point: B minus the
# order-3 weights, and the order-5 error weights
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
]

# the four highest dense-output coefficients as combinations of all 16 stages
# (the first three come from the step's end values and slopes)
_D_COLUMNS = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, _D_COLUMNS] = [
    -0.84289382761090128651353491142e+1,
    0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1,
    0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1,
    -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1,
    0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1,
    0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1,
    -0.44360363875948939664310572000e+1,
]
D[1, _D_COLUMNS] = [
    0.10427508642579134603413151009e+2,
    0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3,
    -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2,
    0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2,
    -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2,
    -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1,
    0.35816841486394083752465898540e+2,
]
D[2, _D_COLUMNS] = [
    0.19985053242002433820987653617e+2,
    -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3,
    0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2,
    0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1,
    0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1,
    -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2,
    0.11992291136182789328035130030e+2,
]
D[3, _D_COLUMNS] = [
    -0.25693933462703749003312586129e+2,
    -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3,
    0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2,
    -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3,
    0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2,
    0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2,
    -0.14972683625798562581422125276e+3,
]


def _sparse(row: np.ndarray) -> Tuple[Tuple[int, float], ...]:
    """(index, coefficient) pairs of the nonzero entries, as Python floats."""
    return tuple((j, c) for j, c in enumerate(row.tolist()) if c != 0.0)


_C = C.tolist()
_ROWS = tuple(_sparse(A[s, :s]) for s in range(N_STAGES_EXTENDED))
_E3 = _sparse(E3)
_E5 = _sparse(E5)
_D = tuple(_sparse(row) for row in D)

# one accepted step as a flat record: t_old, h, y_old (2), y_new (2), then the
# 16 stage slopes of each component
_K0 = 6


@dataclass(frozen=True)
class DenseSolution:
    """The accepted steps of one integration and their dense output.

    ts are the step boundaries; when a terminal event stopped the run, the
    last boundary is the event root, inside the last step.  Step k spans
    [t_old[k], t_old[k] + h[k]] with start value y_old[k] and dense-output
    coefficients coeffs[k] (7 x 2).  event_roots holds, per event, the radii
    where it fired.  nfev counts right-hand-side evaluations.
    """

    ts: np.ndarray
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    coeffs: np.ndarray
    event_roots: Tuple[Tuple[float, ...], ...]
    nfev: int

    @property
    def n_steps(self) -> int:
        return len(self.h)

    def __call__(self, t) -> np.ndarray:
        """Both components at the radii t (1-D array): shape (2, len(t)).

        A radius on a step boundary is evaluated on the step that ends there.
        """
        t = np.asarray(t, dtype=float)
        seg = np.searchsorted(self.ts, t, side="left") - 1
        np.clip(seg, 0, len(self.h) - 1, out=seg)
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        y = _horner(self.coeffs[seg].transpose(1, 0, 2), x)
        y += self.y_old[seg]
        return y.T


def _horner(coeffs, x):
    """The DOP853 dense-output polynomial at fraction x of the step.

    coeffs[i] is the i-th coefficient (a float, or an array that broadcasts
    against x); the polynomial is nested in alternating factors x and 1 - x.
    """
    y = 0.0
    for i in range(INTERPOLATOR_POWER - 1, -1, -1):
        y = (y + coeffs[i]) * (x if i % 2 == 0 else 1.0 - x)
    return y


def _dense_coefficients(records: np.ndarray) -> np.ndarray:
    """Dense-output coefficients (n, 7, 2) of n step records."""
    n = len(records)
    h = records[:, 1, None]
    dy = records[:, 4:6] - records[:, 2:4]
    k = records[:, _K0:].reshape(n, 2, N_STAGES_EXTENDED)
    f_old, f_new = k[:, :, 0], k[:, :, N_STAGES]
    out = np.empty((n, INTERPOLATOR_POWER, 2))
    out[:, 0] = dy
    out[:, 1] = h * f_old - dy
    out[:, 2] = 2.0 * dy - h * (f_new + f_old)
    # elementwise sums in a fixed order, so one record gives the same
    # coefficients alone as inside a batch
    for i, row in enumerate(_D):
        acc = np.zeros((n, 2))
        for j, c in row:
            acc += c * k[:, :, j]
        out[:, 3 + i] = h * acc
    return out


def _rms(u: float, v: float) -> float:
    return math.sqrt(u * u + v * v) / math.sqrt(2.0)


def _initial_step(rhs, t0, a, b, fa, fb, t_bound, rtol, atol) -> float:
    """Hairer-Wanner starting step for an order-7 error estimator (II.4)."""
    interval = t_bound - t0
    sa = atol + abs(a) * rtol
    sb = atol + abs(b) * rtol
    d0 = _rms(a / sa, b / sb)
    d1 = _rms(fa / sa, fb / sb)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    ga, gb = rhs(t0 + h0, a + h0 * fa, b + h0 * fb)
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100.0 * h0, h1, interval)


def solve(
    rhs: Callable[[float, float, float], Tuple[float, float]],
    t0: float,
    y0: Sequence[float],
    t_bound: float,
    rtol: float,
    atol: float,
    events: Sequence[Tuple[float, bool]] = (),
) -> DenseSolution:
    """Integrate (a, b)' = rhs(t, a, b) from t0 up to t_bound > t0.

    The local error of each step is kept below atol + rtol |y| per component
    (rtol is raised to 100 eps if smaller).  Each event is a pair
    (level, terminal): it fires where the first component falls through
    level (g = a - level going from >= 0 to <= 0 over a step), located by
    brentq on the step's dense output to 4 eps.  A terminal event ends the
    run at its root.  Raises RuntimeError when the step size falls below ten
    float spacings of t or the state stops being finite.
    """
    t = float(t0)
    t_bound = float(t_bound)
    if not t_bound > t:
        raise ValueError(f"t_bound must exceed t0, got {t0} and {t_bound}")
    rtol = max(float(rtol), 100.0 * EPS)
    a, b = (float(v) for v in y0)
    fa, fb = rhs(t, a, b)
    h_abs = _initial_step(rhs, t, a, b, fa, fb, t_bound, rtol, atol)
    nfev = 2

    rows, cs = _ROWS, _C
    rows_b, e3, e5 = _ROWS[N_STAGES], _E3, _E5
    ka = [0.0] * N_STAGES_EXTENDED
    kb = [0.0] * N_STAGES_EXTENDED
    levels = [float(level) for level, _ in events]
    g = [a - level for level in levels]
    roots = [[] for _ in events]
    records = []
    ts = [t]

    while t < t_bound:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    f"required step size fell below the float spacing at r = {t:.17g}"
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h

            ka[0], kb[0] = fa, fb
            for s in range(1, N_STAGES):
                sa = sb = 0.0
                for j, c in rows[s]:
                    sa += c * ka[j]
                    sb += c * kb[j]
                ka[s], kb[s] = rhs(t + cs[s] * h, a + sa * h, b + sb * h)
            sa = sb = 0.0
            for j, c in rows_b:
                sa += c * ka[j]
                sb += c * kb[j]
            a_new = a + h * sa
            b_new = b + h * sb
            fa_new, fb_new = rhs(t + h, a_new, b_new)
            ka[N_STAGES], kb[N_STAGES] = fa_new, fb_new
            nfev += N_STAGES

            scale_a = atol + max(abs(a), abs(a_new)) * rtol
            scale_b = atol + max(abs(b), abs(b_new)) * rtol
            e5a = e5b = e3a = e3b = 0.0
            for j, c in e5:
                e5a += c * ka[j]
                e5b += c * kb[j]
            for j, c in e3:
                e3a += c * ka[j]
                e3b += c * kb[j]
            e5a, e5b, e3a, e3b = e5a / scale_a, e5b / scale_b, e3a / scale_a, e3b / scale_b
            err5 = e5a * e5a + e5b * e5b
            err3 = e3a * e3a + e3b * e3b
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)

            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            # NaN and inf norms land here too and shrink the step by 1/5
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True

        if not (math.isfinite(a_new) and math.isfinite(b_new)):
            raise RuntimeError(f"non-finite state at r = {t_new:.17g}")

        # the extra stages of the dense output
        for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
            sa = sb = 0.0
            for j, c in rows[s]:
                sa += c * ka[j]
                sb += c * kb[j]
            ka[s], kb[s] = rhs(t + cs[s] * h, a + sa * h, b + sb * h)
        nfev += N_STAGES_EXTENDED - N_STAGES - 1
        records.append((t, h, a, b, a_new, b_new, *ka, *kb))

        stop = None
        if levels:
            g_new = [a_new - level for level in levels]
            hits = [i for i in range(len(levels)) if g[i] >= 0.0 and g_new[i] <= 0.0]
            if hits:
                poly = _dense_coefficients(np.array(records[-1:]))[0, :, 0].tolist()
                t_old, a_old = t, a

                def crossing(r, level):
                    return _horner(poly, (r - t_old) / h) + a_old - level

                found = sorted(
                    (brentq(crossing, t_old, t_new, args=(levels[i],), xtol=4 * EPS, rtol=4 * EPS), i)
                    for i in hits
                )
                for root, i in found:
                    roots[i].append(root)
                    if events[i][1]:
                        stop = root
                        break
            g = g_new

        t, a, b, fa, fb = t_new, a_new, b_new, fa_new, fb_new
        if stop is not None:
            if len(ts) > 1 and stop == ts[-1]:
                records.pop()  # the root is the previous boundary: no new segment
            else:
                ts.append(stop)
            break
        ts.append(t)

    rec = np.array(records)
    return DenseSolution(
        ts=np.array(ts),
        t_old=rec[:, 0],
        h=rec[:, 1],
        y_old=rec[:, 2:4],
        coeffs=_dense_coefficients(rec),
        event_roots=tuple(tuple(r) for r in roots),
        nfev=nfev,
    )
