"""Dormand-Prince 8(5,3) for a two-component ODE, stepped on Python floats.

The method is DOP853 of Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, section II.5 (their Fortran code dop853.f): a
12-stage order-8 step, an error estimate that blends the order-5 and order-3
embedded formulas, and a 7th-degree dense output from 3 extra stages.  Step
control is the usual one (safety 0.9, step factors clamped to [0.2, 10],
exponent -1/8, the Hairer-Wanner initial-step heuristic), as in scipy's
DOP853, so the two take the same steps up to rounding.

Stepping a 2-vector through numpy costs far more in call overhead than in
arithmetic, so a run is stepped in plain Python on the two components, and
the right-hand side is given as source: statements that set the slopes fa,
fb from t, a, b and named parameters (solve).  Each source is compiled, on
its first run in a process, into one function that holds the whole step
loop as straight-line code over local floats (_compiled): the source is
inlined at each of the 15 stages, and each stage sum, the order-8 weights
and the two error sums is one expression 0.0 + c k_j0 + c k_j1 + ... in the
row's order, so a step costs about its arithmetic, makes no call for a
slope, and gives the bits a loop over the row would.  The starting slope
and step come from the same source compiled as a plain function.

The dense output of all accepted steps is kept once, component-major:
coeffs[i, c] is the contiguous row of the i-th coefficient of component c
over the steps.  It is evaluated at ascending radii: each step's run of
radii is located by one search of the radii per step boundary, and each
coefficient row is repeated over those runs, so a radius costs its Horner
arithmetic and no search or gather of its own.  A run is only its steps:
the stepper ends after the step where the first component falls through a
stop level, without rooting it, and every crossing, the stop's included, is
found after the run on the dense output (DenseSolution.crossing) with
brentq, a port of scipy's Brent root-finder kept here so that no part of
scipy.optimize loads.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1/(error estimator order + 1)

EPS = float(np.finfo(float).eps)

# accepted steps a run may take before solve gives up, so that no run hangs;
# the slowest known runs, (3, 1 + 1e-9, 10) liquid and gas, take 260,815 and
# 313,657 steps (the gas run alone peaks at 217 MiB, about 0.6 KiB a step)
MAX_STEPS = 1_000_000

# step records a run holds as Python tuples before it packs them into one
# float64 array (38 floats a step), so that a long run's records cost 304
# bytes a step, not the ~1.3 KiB of a tuple of floats
RECORD_BLOCK = 4096

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


def _sum(row: Tuple[Tuple[int, float], ...], k: str) -> str:
    """Source of 0.0 + c k_j + ... over the (j, c) pairs of row, in row order.

    Python adds left to right and a float's repr reads back as the same
    double, so the expression accumulates exactly what a loop over row
    starting from 0.0 does.
    """
    return " + ".join(["0.0"] + [f"{c!r} * {k}{j}" for j, c in row])


def _names(k: str, n: int) -> str:
    return ", ".join(f"{k}{j}" for j in range(n))


# The step loop of one right-hand side, as a template: $-fields are filled by
# _compiled.  The loop's own names start with an underscore; t, a, b, fa and
# fb are the source's, set at each stage.
_LOOP = """\
def _steps(_t, _a, _b, _ka0, _kb0, _h_abs, _t_bound, _rtol, _atol, _stop, _max_steps, _block$params):
    _nfev = 2
    _n_steps = 0
    _blocks = []  # float64 arrays of _block step records each
    _records = []  # the records since the last block, as tuples
    while _t < _t_bound:
        if _n_steps == _max_steps:
            raise RuntimeError(
                f"step budget exhausted: {_max_steps} accepted steps (dop853.MAX_STEPS) "
                f"reached r = {_t:.17g} of {_t_bound:.17g}"
            )
        _min_step = 10.0 * (math.nextafter(_t, math.inf) - _t)
        _h_abs = max(_h_abs, _min_step)
        _rejected = False
        while True:
            if _h_abs < _min_step:
                raise RuntimeError(f"required step size fell below the float spacing at r = {_t:.17g}")
            _t_new = min(_t + _h_abs, _t_bound)
            _h = _t_new - _t
            _h_abs = _h
$trial
            _nfev += $n_stages
            _scale_a = _atol + max(abs(_a), abs(_a_new)) * _rtol
            _scale_b = _atol + max(abs(_b), abs(_b_new)) * _rtol
            _e5a = ($e5a) / _scale_a
            _e5b = ($e5b) / _scale_b
            _e3a = ($e3a) / _scale_a
            _e3b = ($e3b) / _scale_b
            _err5 = _e5a * _e5a + _e5b * _e5b
            _err3 = _e3a * _e3a + _e3b * _e3b
            if _err5 == 0.0 and _err3 == 0.0:
                _error_norm = 0.0
            else:
                _error_norm = _h_abs * _err5 / math.sqrt((_err5 + 0.01 * _err3) * 2.0)
            if _error_norm < 1.0:
                if _error_norm == 0.0:
                    _factor = $max_factor
                else:
                    _factor = min($max_factor, $safety * _error_norm ** $exponent)
                if _rejected:
                    _factor = min(1.0, _factor)
                _h_abs *= _factor
                break
            # NaN and inf norms land here too and shrink the step by 1/5
            _h_abs *= max($min_factor, $safety * _error_norm ** $exponent)
            _rejected = True
        if not (math.isfinite(_a_new) and math.isfinite(_b_new)):
            raise RuntimeError(f"non-finite state at r = {_t_new:.17g}")
$dense
        _nfev += $n_dense
        _records.append(($record))
        _n_steps += 1
        if len(_records) == _block:
            _blocks.append(np.array(_records))
            _records = []
        if _stop is not None and _a >= _stop >= _a_new:
            break
        _t, _a, _b, _ka0, _kb0 = _t_new, _a_new, _b_new, _ka$n_stages, _kb$n_stages
    if _records:
        _blocks.append(np.array(_records))
    return _blocks, _t_new, _nfev


def _rhs(t, a, b$params):
$source
    return fa, fb
"""


def _point(s: int, source: str, t: str, a: str, b: str):
    """Lines that run source at the point (t, a, b), each given as source, keeping fa, fb as _ka{s}, _kb{s}."""
    return [f"t = {t}", f"a = {a}", f"b = {b}", *source.splitlines(), f"_ka{s}, _kb{s} = fa, fb"]


def _stage(s: int, source: str):
    """Lines of stage s: the slopes at t + C[s] h and y + h times row s of the tableau."""
    return _point(s, source, f"_t + {_C[s]!r} * _h", f"_a + ({_sum(_ROWS[s], '_ka')}) * _h",
                  f"_b + ({_sum(_ROWS[s], '_kb')}) * _h")


def _indent(lines, n: int) -> str:
    return "\n".join(" " * n + line for line in lines)


@functools.cache
def _compiled(source: str, names: Tuple[str, ...]):
    """The step loop of one right-hand side and the right-hand side alone: (_steps, _rhs).

    source is statements that set the slopes fa, fb from t, a, b, the
    parameters names and the module math; the names it sets of its own
    must not start with an underscore, as the loop's do.  The loop is _LOOP
    with the source inlined at each of the 15 stages: straight-line code
    over local floats, each stage sum, the order-8 weights and the two
    error sums one expression of _sum.  _rhs(t, a, b, *params) is the
    source as a plain function, returning (fa, fb).  Compiled once per
    source and process, on first use.
    """
    for name in names:
        if not name.isidentifier() or name.startswith("_") or name in ("t", "a", "b", "fa", "fb"):
            raise ValueError(f"bad parameter name {name!r}")
    n, m = N_STAGES, N_STAGES_EXTENDED
    trial = [line for s in range(1, n) for line in _stage(s, source)] + [
        f"_a_new = _a + _h * ({_sum(_ROWS[n], '_ka')})",
        f"_b_new = _b + _h * ({_sum(_ROWS[n], '_kb')})",
        *_point(n, source, "_t + _h", "_a_new", "_b_new"),
    ]
    fields = dict(
        params="".join(", " + name for name in names),
        source=_indent(source.splitlines(), 4),
        trial=_indent(trial, 12),
        dense=_indent([line for s in range(n + 1, m) for line in _stage(s, source)], 8),
        n_stages=str(n),
        n_dense=str(m - n - 1),
        e5a=_sum(_E5, "_ka"), e5b=_sum(_E5, "_kb"), e3a=_sum(_E3, "_ka"), e3b=_sum(_E3, "_kb"),
        safety=repr(SAFETY), min_factor=repr(MIN_FACTOR), max_factor=repr(MAX_FACTOR),
        exponent=repr(ERROR_EXPONENT),
        record=", ".join(["_t, _h, _a, _b, _a_new, _b_new", _names("_ka", m), _names("_kb", m)]),
    )
    namespace = {"math": math, "np": np}
    text = re.sub(r"\$(\w+)", lambda field: fields[field[1]], _LOOP)
    exec(compile(text, "<dop853 step loop>", "exec"), namespace)
    return namespace["_steps"], namespace["_rhs"]


@dataclass(frozen=True)
class DenseSolution:
    """The accepted steps of one integration and their dense output.

    ts are the step boundaries and ys both components at each, shape
    (n_steps + 1, 2).  Step k spans [ts[k], ts[k + 1]], of size h[k];
    coeffs[i, c, k] is its i-th dense-output coefficient of component c, so
    coeffs has shape (7, 2, n_steps), each row contiguous over the steps.
    nfev counts right-hand-side evaluations.
    """

    ts: np.ndarray
    ys: np.ndarray
    h: np.ndarray
    coeffs: np.ndarray
    nfev: int

    @property
    def n_steps(self) -> int:
        return len(self.h)

    def __call__(self, t, component: Optional[int] = None) -> np.ndarray:
        """Both components at the radii t: shape (2,) + t.shape.

        t is 1-D and ascending, or 2-D with each row ascending, all rows
        read in one pass.  Given a component (0 or 1), that component
        alone: shape t.shape, bit for bit its row of the two-component read.
        A radius on a step boundary is evaluated on the step that ends
        there, one below ts[0] on the first step and one above ts[-1] on the
        last.  The radii of step k are a run of each row, found by searching
        the row for each step boundary, and each coefficient row is repeated
        over those runs.  Over several rows the coefficients of the steps a
        row holds radii in are gathered first, row after row, so the table
        is not copied per row; one row reads the table as it is, as the
        gather's fixed cost (a few numpy calls) slows verify and transition,
        which read one row at a time, by 2-3%.  Each radius gets _horner's
        arithmetic on its step's floats, so its bits.  Raises ValueError
        when a row is not ascending.
        """
        t = np.asarray(t, dtype=float)
        rows = t if t.ndim == 2 else t.reshape(1, -1)
        if not (rows[:, 1:] >= rows[:, :-1]).all():
            raise ValueError("dense output radii must be ascending")
        # the runs of radii in (ts[k], ts[k + 1]] of each row, the first and
        # last steps also taking the radii below ts[0] and above ts[-1]
        runs = []
        for row in rows:
            ends = row.searchsorted(self.ts, side="right")
            run = ends[1:] - ends[:-1]
            run[0] += ends[0]
            run[-1] += len(row) - ends[-1]
            runs.append(run)
        runs = np.concatenate(runs)
        starts, h, y0, coeffs = self.ts[:-1], self.h, self.ys[:-1], self.coeffs
        if len(rows) > 1:  # gather the steps each row holds radii in, row after row
            held = runs.nonzero()[0]
            steps, runs = held % self.n_steps, runs[held]
            starts, h, y0, coeffs = starts[steps], h[steps], y0[steps], coeffs[..., steps]
        x = starts.repeat(runs)
        np.subtract(rows.ravel(), x, out=x)
        x /= h.repeat(runs)
        x1 = 1.0 - x
        if component is None:
            y0, y = y0.T, np.zeros((2, x.size))
        else:
            coeffs, y0, y = coeffs[:, component], y0[:, component], np.zeros(x.size)
        for i in range(INTERPOLATOR_POWER - 1, -1, -1):
            y += coeffs[i].repeat(runs, axis=-1)
            y *= x if i % 2 == 0 else x1
        y += y0.repeat(runs, axis=-1)
        return y.reshape(y.shape[:-1] + t.shape)

    def at(self, t: float, component: int) -> float:
        """One component at the one radius t, with the bits __call__ gives it.

        t is evaluated on the step __call__ takes for it (the step that ends
        at a boundary radius, the first below ts[0], the last above ts[-1]),
        by _horner on that step's floats: __call__'s arithmetic, without its
        arrays.
        """
        k = min(max(int(np.searchsorted(self.ts, t)) - 1, 0), self.n_steps - 1)
        x = (t - float(self.ts[k])) / float(self.h[k])
        return _horner(self.coeffs[:, component, k].tolist(), x) + float(self.ys[k, component])

    def crossing(self, level: float) -> Optional[float]:
        """The first radius where the first component falls through level, or None.

        The fall is in the first step that starts at or above level and ends
        at or below it.  Its root is found on that step's dense output by
        brentq, which returns scipy.optimize.brentq's bits, to 4 eps relative
        to the step's end t_new (xtol 4 eps min(1, |t_new|), rtol 4 eps): an
        absolute 4 eps would be most of the step on a star of radius 1e-14.
        None when no step falls through level.
        """
        level = float(level)
        a = self.ys[:, 0]
        (falls,) = np.nonzero((a[:-1] >= level) & (a[1:] <= level))
        if not falls.size:
            return None
        k = int(falls[0])
        poly, (t_old, t_new) = self.coeffs[:, 0, k].tolist(), self.ts[k:k + 2].tolist()
        h, a_old = float(self.h[k]), float(a[k])
        return brentq(lambda r: _horner(poly, (r - t_old) / h) + a_old - level, t_old, t_new,
                      xtol=4 * EPS * min(1.0, abs(t_new)), rtol=4 * EPS)


def _horner(coeffs, x):
    """The DOP853 dense-output polynomial at fraction x of the step.

    coeffs[i] is the i-th coefficient (a float, or an array that broadcasts
    against x); the polynomial is nested in alternating factors x and 1 - x.
    """
    x1 = 1.0 - x
    y = 0.0
    for i in range(INTERPOLATOR_POWER - 1, -1, -1):
        y = (y + coeffs[i]) * (x if i % 2 == 0 else x1)
    return y


def _dense_coefficients(records: np.ndarray) -> np.ndarray:
    """Dense-output coefficients (7, 2, n) of n step records.

    Each element is computed by elementwise operations alone, so a record's
    coefficients do not depend on the batch it is computed in.
    """
    n = len(records)
    h = records[:, 1]
    dy = (records[:, 4:6] - records[:, 2:4]).T
    k = records[:, _K0:].reshape(n, 2, N_STAGES_EXTENDED).transpose(2, 1, 0)  # k[j] is (2, n)
    f_old, f_new = k[0], k[N_STAGES]
    out = np.empty((INTERPOLATOR_POWER, 2, n))
    out[0] = dy
    out[1] = h * f_old - dy
    out[2] = 2.0 * dy - h * (f_new + f_old)
    # the four high-order rows share their 12 columns: one broadcast term per
    # column, added in column order to sums that start from 0.0
    acc = np.zeros((INTERPOLATOR_POWER - 3, 2, n))
    for j in _D_COLUMNS:
        acc += D[:, j, None, None] * k[j]
    np.multiply(h, acc, out=out[3:])
    return out


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's method.

    Brent, *Algorithms for Minimization Without Derivatives* (1973), ch. 4:
    inverse quadratic or secant steps, bisection whenever a step would leave
    the bracket or shrink it too slowly.  The iteration is scipy's brentq.c
    line for line (Charles Harris's variant), on Python floats, so it returns
    the bits scipy.optimize.brentq returns; a test keeps scipy as the
    reference.  It stops when the bracket half-width falls below
    (xtol + rtol |x|) / 2 or f is exactly 0.  Raises ValueError when f(a)
    and f(b) have the same sign or f returns NaN, and RuntimeError after
    maxiter iterations.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the better end in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _rms(u: float, v: float) -> float:
    return math.sqrt(u * u + v * v) / math.sqrt(2.0)


def _initial_step(rhs, params, t0, a, b, fa, fb, t_bound, rtol, atol) -> float:
    """Hairer-Wanner starting step for an order-7 error estimator (II.4); rhs(t, a, b, *params)."""
    interval = t_bound - t0
    sa = atol + abs(a) * rtol
    sb = atol + abs(b) * rtol
    d0 = _rms(a / sa, b / sb)
    d1 = _rms(fa / sa, fb / sb)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    ga, gb = rhs(t0 + h0, a + h0 * fa, b + h0 * fb, *params)
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100.0 * h0, h1, interval)


def solve(
    source: str,
    params: Mapping[str, object],
    t0: float,
    y0: Sequence[float],
    t_bound: float,
    rtol: float,
    atol: float,
    stop: Optional[float] = None,
) -> DenseSolution:
    """Integrate (a, b)' = (fa, fb) from t0 up to t_bound > t0.

    source is Python statements that set the slopes fa, fb from t, a, b,
    the named parameters params (floats, or anything the source calls) and
    the module math; "fa = b\nfb = -a" is the harmonic oscillator.  Each
    source is compiled into one step loop on its first run (_compiled).
    The local error of each step is kept below atol + rtol |y| per component
    (rtol is raised to 100 eps if smaller).  When stop is given, the run ends
    after the first step that starts at or above stop and ends at or below
    it; the root there, as every other level's, is read off the result with
    DenseSolution.crossing.  Raises RuntimeError when y0 or its slope is not
    finite, when the step size falls below ten float spacings of t, when the
    state stops being finite, or when the run needs more than MAX_STEPS
    accepted steps.
    """
    t = float(t0)
    t_bound = float(t_bound)
    if not t_bound > t:
        raise ValueError(f"t_bound must exceed t0, got {t0} and {t_bound}")
    rtol = max(float(rtol), 100.0 * EPS)
    a, b = (float(v) for v in y0)
    steps, rhs = _compiled(source, tuple(params))
    values = tuple(params.values())
    fa, fb = rhs(t, a, b, *values)
    if not all(map(math.isfinite, (a, b, fa, fb))):
        # a NaN step size never falls below min_step: the step loop would not exit
        raise RuntimeError(f"non-finite start at r = {t:.17g}: y, y' = {a!r}, {b!r}, {fa!r}, {fb!r}")
    h_abs = _initial_step(rhs, values, t, a, b, fa, fb, t_bound, rtol, atol)
    # the budget and the block size are read as the run starts
    blocks, t_new, nfev = steps(t, a, b, fa, fb, h_abs, t_bound, rtol, atol, stop, MAX_STEPS, RECORD_BLOCK,
                                *values)
    rec = np.concatenate(blocks)
    del blocks  # freed before the dense coefficients are computed
    return DenseSolution(
        ts=np.append(rec[:, 0], t_new),
        ys=np.concatenate([rec[:, 2:4], rec[-1:, 4:6]]),
        h=rec[:, 1].copy(),  # a copy, so that the solution does not keep rec alive
        coeffs=_dense_coefficients(rec),
        nfev=nfev,
    )
