"""The Dormand–Prince 8(5,3) integrator with dense output, in NumPy alone.

Hairer, Nørsett & Wanner, *Solving Ordinary Differential Equations I*,
§II.10. ``integrate`` repeats, operation for operation, what SciPy's DOP853
solver does with rtol = atol = tol, with or without dense output, on a
forward span, so it returns the same floats without loading SciPy. Two
things are pinned to SciPy's solver. The stage sums stay the dot products of
``np.dot`` on the same slices of one stage array (called as the array
method, which skips the function's dispatch): written as Python sums they
round differently. And the clocks and states reach ``fun`` as NumPy scalars
(the first clock is ``a`` as given), so a force that overflows in their
arithmetic raises under the caller's error state instead of passing as inf.
What produces no float is not repeated. The stage views and tableau rows
are paired once per call. Each stage state, step-end state, error-scale
entry and entry of the first three dense rows is formed from NumPy scalars,
one per component, not as a two-element array: ``d * h + y`` from the
pinned dot's two values, with the step made a NumPy scalar first, makes the
two roundings of SciPy's array arithmetic and raises under the same error
state. ``fun``'s pair is written into the stage array element by element,
the error scale into one reused two-element array, and the accepted states
are kept as pairs and made one array at the end; the step control takes
``abs`` and ``math.nextafter`` on scalars. Three more products stay pinned
on arrays: the error estimates ``KT.dot(E5)`` and ``KT.dot(E3)``, their
norms ``np.sqrt(x.dot(x))`` (all ``np.linalg.norm`` computes for a real 1-D
array), and the dense coefficients ``np.dot(D, K)``.
"""

from __future__ import annotations

import math

import numpy as np

# The tableau below is copied as data from SciPy 1.17.1, its module
# integrate/_ivp/dop853_coefficients.py (BSD-3-Clause,
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers).
N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
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
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2
A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2
A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2
A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1
A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1
A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2
A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3
A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1
A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2
A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022
A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1
A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2
A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3
A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1
A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1
D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2
D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2
D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# Step-size control, as in SciPy's explicit Runge–Kutta solvers.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# SciPy's direction np.sign(b - a) on a forward span. Multiplying by it
# changes no value, but makes a step a NumPy scalar: every clock after the
# first reaches ``fun`` with the type it has under SciPy's solver, and a
# stage's dot * h overflows under NumPy's error state even where a first step
# cut to b is b - a in Python floats.
FORWARD = np.float64(1.0)


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(fun, t0, y0, t_bound, f0, tol):
    """SciPy's select_initial_step (Hairer, Nørsett & Wanner, §II.4) for order 7."""
    interval_length = abs(t_bound - t0)
    scale = tol + np.abs(y0) * tol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * FORWARD * f0
    f1 = np.asarray(fun(t0 + h0 * FORWARD, y1), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _stages(fun, K, stages, t, y0, y1, h):
    """Fill K[s] for each (s, view K[:s].T, tableau row A[s, :s], node C[s]) of ``stages``.

    h, y0 and y1 are NumPy scalars, so d * h + y makes the two roundings of
    NumPy's array y + dot * h, under the caller's error state.
    """
    for s, KT, a, c in stages:
        d0, d1 = KT.dot(a).tolist()
        K[s, 0], K[s, 1] = fun(t + c * h, (d0 * h + y0, d1 * h + y1))


def _error_norm(KT, h, scale):
    err5 = KT.dot(E5) / scale
    err3 = KT.dot(E3) / scale
    # np.sqrt(x.dot(x)) is what np.linalg.norm computes for a real 1-D array.
    err5_norm_2 = np.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = np.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def integrate(fun, a, b, y0, tol, dense):
    """Integrate y' = fun(t, y) from t = a to t = b > a with rtol = atol = tol.

    The state has two components, as an orbit's (q, p) does: ``fun`` gets a
    clock and a state that unpacks into two NumPy scalars, and returns a
    pair of numbers. Returns (t, y, read): the accepted clocks, the states as
    rows of (2, len(t)), and, if ``dense``, ``read(marks)``, which gives the
    interpolated states at a 1-D array of clocks in [a, b] as a
    (2, len(marks)) array; else None. A step that would fall below the
    spacing of doubles at its clock raises FloatingPointError(TOO_SMALL_STEP).
    """
    t, y = a, np.asarray(y0, dtype=float)
    K = np.empty((N_STAGES_EXTENDED, 2))
    KT = [K[:s].T for s in range(N_STAGES_EXTENDED)]
    step_stages = [(s, KT[s], A[s, :s], C[s]) for s in range(1, N_STAGES)]
    extra_stages = [(s, KT[s], A[s, :s], C[s]) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)]
    K[0] = fun(t, y)  # K[0] holds the derivative at (t, y) from here on
    h_abs = _initial_step(fun, t, y, b, K[0], tol)
    y0, y1 = y
    scale = np.empty(2)
    ts, ys, Fs = [t], [(y0, y1)], []
    while t < b:
        # The spacing is positive, so SciPy's np.abs around it changes nothing.
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise FloatingPointError(TOO_SMALL_STEP)
            t_new = t + h_abs * FORWARD
            if t_new - b > 0:
                t_new = b
            h = t_new - t
            h_abs = abs(h)
            hf = h * FORWARD
            _stages(fun, K, step_stages, t, y0, y1, hf)
            d0, d1 = KT[N_STAGES].dot(B).tolist()
            n0, n1 = d0 * hf + y0, d1 * hf + y1
            g0, g1 = fun(t + h, (n0, n1))
            K[N_STAGES, 0], K[N_STAGES, 1] = g0, g1
            scale[0] = tol + max(abs(y0), abs(n0)) * tol
            scale[1] = tol + max(abs(y1), abs(n1)) * tol
            error_norm = _error_norm(KT[N_STAGES + 1], h, scale)
            if error_norm < 1:
                factor = MAX_FACTOR
                if error_norm != 0:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True
        if dense:
            _stages(fun, K, extra_stages, t, y0, y1, hf)
            e0, e1 = n0 - y0, n1 - y1
            f0, f1 = K[0, 0], K[0, 1]  # NumPy scalars, so g + f raises as SciPy's sum does
            F = np.empty((INTERPOLATOR_POWER, 2))
            F[0, 0], F[0, 1] = e0, e1
            F[1, 0], F[1, 1] = hf * f0 - e0, hf * f1 - e1
            F[2, 0], F[2, 1] = 2 * e0 - hf * (g0 + f0), 2 * e1 - hf * (g1 + f1)
            F[3:] = hf * np.dot(D, K)
            Fs.append(F)
        t, y0, y1 = t_new, n0, n1
        K[0, 0], K[0, 1] = g0, g1
        ts.append(t)
        ys.append((y0, y1))
    ts, ys = np.array(ts), np.array(ys)
    return ts, ys.T, _reader(ts, ys, np.array(Fs)) if dense else None


def _reader(ts, ys, F):
    """Read the step interpolants of F (steps, INTERPOLATOR_POWER, n) at many clocks at once.

    Each mark takes the step whose closed interval holds it, the earlier one
    at a shared edge, as SciPy's OdeSolution does, and the elementwise Horner
    sum of SciPy's Dop853DenseOutput.
    """

    def read(marks):
        marks = np.asarray(marks, dtype=float)
        step = np.clip(np.searchsorted(ts, marks, side="left") - 1, 0, len(F) - 1)
        t_old = ts[step]
        x = ((marks - t_old) / (ts[step + 1] - t_old))[:, None]
        y = np.zeros((len(marks), ys.shape[1]))
        for j in range(INTERPOLATOR_POWER - 1, -1, -1):
            y += F[step, j]
            y *= x if j % 2 == 0 else 1 - x
        y += ys[step]
        return y.T

    return read
