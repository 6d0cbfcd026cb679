"""Autonomous time propagation of the closed loop with Lyapunov monitoring.

The loop is LTI, so the default propagator takes one matrix exponential
phi = e^{A_cl dt} and its powers phi^1..phi^K, K = _BLOCK_STEPS, and fills
the K rows after a stored state with one stacked product, so the trace
x_k = phi^k x0 is exact up to the exponential's own accuracy and about
steps / K products long; a fixed-step RK4 integrator is available for
cross-checking.  When block certificates are supplied, the storage function
V = x^T Q x and the dissipation rate ||ytilde2||^2 are recorded alongside the
states, as whole-trace products that may differ from the one-state formulas
of ``lyapunov`` in the last bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError, FeedthroughError
from .interconnect import ClosedLoop
from .linalg import matrix_exponential
from .lyapunov import block_gram
from .nicert import NICertificate

METHODS = ("expm_exact", "rk4")
#: rows per stacked product of the expm_exact propagator, which cuts the 5,000
#: Python-level products of a 5,001-row trace to 157.  It rounds differently
#: from one product per step, with errors of the same size: on six
#: random_certified_pair(s, lam, n1=6, n2=4, m=2) loops, three of them unstable,
#: every 100th row is within 3.7e-14 to 2.4e-13 relative of expm(A_cl t_k) x0,
#: against 5.5e-14 to 2.0e-13 per step
_BLOCK_STEPS = 32
#: values per formatting block in trace_to_csv (1,024 rows of a two-state
#: trace).  The largest temporaries of a block take 40 bytes a value.  On a
#: 5,001 x 15 trace with 1.08 MB of text the peak traced allocation of
#: trace_to_csv is 2.77 MB, the join of the text: the table and the text
#: twice, as blocks and joined.  10,240-value blocks raise it to 3.3 MB
_CSV_VALUES = 5120


@dataclass
class SimulationTrace:
    times: np.ndarray
    x: np.ndarray                   # (steps + 1, n), one closed-loop state per row
    V: np.ndarray
    ytilde2_normsq: np.ndarray
    dt: float
    method: str


def simulate(cl: ClosedLoop, x0: np.ndarray, t_final: float, dt: float = 1e-2,
             method: str = "expm_exact",
             certs: tuple[NICertificate, NICertificate] | None = None) -> SimulationTrace:
    """Propagate x' = A_cl x from x0 on a uniform grid of spacing dt.

    ``expm_exact`` computes one matrix exponential phi and its first K =
    _BLOCK_STEPS powers, and writes rows k0 + 1..k0 + K as one product of the
    stacked powers with the stored row k0; ``rk4`` takes four stage
    evaluations per step.  V and ||ytilde2||^2 are NaN unless certificates are
    provided.  After propagation, the loop output u2 = y1 is solved once with
    every row as a right-hand side, and both columns are row sums of
    products over the whole (steps + 1, n) state array.  A loop that is not
    ``cl.well_posed`` (I - D1 D2 singular) raises FeedthroughError, with or
    without certificates.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = cl.n
    if x0.shape != (n,):
        raise DimensionError(f"x0 must have shape ({n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise DimensionError("x0 must be finite")
    if not (np.isfinite(t_final) and np.isfinite(dt)):
        raise DimensionError("t_final and dt must be finite")
    if dt <= 0:
        raise DimensionError("dt must be positive")
    if t_final < dt:
        raise DimensionError("t_final must be at least one step long")
    if method not in METHODS:
        raise DimensionError(f"unknown method {method!r}; pick one of {METHODS}")
    if not cl.well_posed:
        raise FeedthroughError("loop is not well posed: I - D1 D2 is singular")
    plant, ctrl = cl.plant, cl.controller
    steps = int(round(t_final / dt))
    times = np.arange(steps + 1) * dt

    n1 = plant.n
    A = cl.A_cl
    # whole blocks of rows, so that every expm_exact product has one shape and a
    # row's bits do not depend on t_final
    X = np.empty((-(-steps // _BLOCK_STEPS) * _BLOCK_STEPS + 1, n))
    X[0] = x0
    if method == "expm_exact":
        phi = matrix_exponential(A, dt)
        powers = np.empty((_BLOCK_STEPS, n, n))
        powers[0] = phi
        for prev, nxt in zip(powers, powers[1:]):
            np.matmul(prev, phi, out=nxt)
        stacked = powers.reshape(-1, n)     # phi^j in rows (j - 1) n .. j n - 1
        for k0 in range(0, steps, _BLOCK_STEPS):
            np.dot(stacked, X[k0], out=X[k0 + 1:k0 + 1 + _BLOCK_STEPS].reshape(-1))
    else:
        def step(x):
            k1 = A @ x
            k2 = A @ (x + 0.5 * dt * k1)
            k3 = A @ (x + 0.5 * dt * k2)
            k4 = A @ (x + dt * k3)
            return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        for k in range(steps):
            X[k + 1] = step(X[k])
    X = X[:steps + 1]
    if certs is None:
        V = np.full(steps + 1, np.nan)
        diss = np.full(steps + 1, np.nan)
    else:
        X1, X2 = X[:, :n1], X[:, n1:]
        loop = np.eye(plant.m) - plant.D @ ctrl.D
        Y1 = np.linalg.solve(loop, (X1 @ plant.C.T + (X2 @ ctrl.C.T) @ plant.D.T).T).T
        XQ = X @ block_gram(certs[0].P, certs[1].P, plant, ctrl).Q
        XQ *= X     # in place: one (steps + 1, n) temporary, not two
        V = XQ.sum(axis=1)
        L2 = certs[1].L
        yt2 = X2 @ (L2 @ certs[1].P).T - Y1 @ (L2 @ ctrl.C.T).T
        diss = (yt2 * yt2).sum(axis=1)
    return SimulationTrace(times=times, x=X, V=V,
                           ytilde2_normsq=diss, dt=dt, method=method)


def v_monotone(trace: SimulationTrace, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether V never increases by more than tol per step; returns the worst rise."""
    V = np.asarray(trace.V, dtype=float)
    if len(V) < 2 or np.isnan(V).all():
        return True, 0.0
    rises = np.diff(V)
    worst = float(np.nanmax(rises)) if rises.size else 0.0
    return bool(worst <= tol), worst


# %.12g for a block of values at once.  A finite v with 1e-280 <= |v| <= 1e280
# has e = floor(log10|v|) and t = |v| 10^(11-e), which lies in [1e11, 1e12)
# unless log10 misplaced e.  The scaled s multiplies by 10^(11-e) or divides
# by 10^(e-11), a power that is exact up to 10^22 and correctly rounded beyond
# (parsed from "1e<k>"), so s = t (1 + d) with |d| <= 2u + u^2, u = 2^-53: one
# rounding up to 10^22, two beyond.  For s < 1e12 that puts |s - t| below
# 2.3e-4.  When s is in [1e11, 1e12) and |s - rint(s)| < 0.498, t lies within
# 0.4983 of the same integer N = rint(s), on the same side of every half, so N
# is the correctly rounded 12-digit significand that % computes; exact ties
# (frac(t) = 1/2) never pass the test.  N = 10^12 means the rounding carried
# into the next decade: the digits are 10^11 and the exponent is e + 1, which
# is also what % gives when t itself lies a hair outside [1e11, 1e12).  Every
# other value (0, -0, nan, inf, |v| out of range, s out of range, and the
# 0.4% of trace values within 2e-3 of a half) is formatted by % and spliced in.
#
# A value occupies 40 byte slots, written as five uint64 words.  AND-ing them
# with the keep words of the value's class makes every dropped slot NUL, and one
# bytes.translate over the block deletes those (no kept slot holds NUL):
#   0       '-'                         negative values
#   1-5     '0.000'                     fixed notation with x < 0: '0.' and -x-1 zeros
#   8-31    d0 '.' d1 '.' ... d11 '.'   the 12 digits of N, one '.' kept at most
#   32-36   'e' sign h t o              scientific notation; h only when |x| >= 100
#   37      ',' or '\n'                 always kept
# (6, 7, 38 and 39 are never kept.)  Which slots a value keeps depends only on
# its class: x and the digit count d for fixed notation (-4 <= x < 12), d and
# whether |x| >= 100 for scientific, the text length for a % value, and the sign.
_SLOTS = 40
_POW_OFFSET = 300       # index offset of the power and exponent tables
_SCI_CLASS = 192        # 16 fixed exponents x 12 digit counts come first
_FALLBACK_CLASS = 216   # then 2 x 12 scientific classes, then % lengths 1..19
_FALLBACK_WIDTH = 19    # len("%.12g" % -1.23456789012e-100)


class _FormatTables(NamedTuple):
    head: np.uint64          # slots 0-7
    digits: np.ndarray       # 4-digit group -> 'd.d.d.d.' as one uint64
    sig: np.ndarray          # (3, 10^4): digits kept up to a group, or 0 for group 0
    mul: np.ndarray          # 10^k for k >= 0, else 1
    div: np.ndarray          # 10^-k for k < 0, else 1
    exponent: np.ndarray     # x -> 'e+hto,' as one uint64
    base: np.ndarray         # x -> first class of its notation
    keep: np.ndarray         # (2 * classes, _SLOTS // 8) words, 0xff where class and sign keep


@functools.cache
def _format_tables() -> _FormatTables:
    group = np.arange(10_000, dtype=np.int16)
    digits = np.full((group.size, 8), ord("."), np.uint8)
    zeros = np.zeros(group.size, np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        digits[:, 2 * j] = group // place % 10 + ord("0")
        zeros += group % (10 * place) == 0
    sig = np.where(zeros < 4, np.array([[4], [8], [12]], np.uint8) - zeros, 0).astype(np.uint8)
    k = np.arange(-_POW_OFFSET, _POW_OFFSET + 1)
    power = np.array([float(f"1e{abs(j)}") for j in k.tolist()])
    exponent = np.zeros((k.size, 8), np.uint8)
    exponent[:, :6] = np.array([list(b"e%+04d," % j) for j in k.tolist()])
    sci = (k < -4) | (k >= 12)
    base = np.where(sci, _SCI_CLASS + 12 * (abs(k) >= 100), (k + 4) * 12)
    keep = np.zeros((_FALLBACK_CLASS + _FALLBACK_WIDTH + 1, 2, _SLOTS), bool)
    keep[:, 1, 0] = True
    keep[:, :, 37] = True
    digit_slot = 8 + 2 * np.arange(12)
    for d in range(1, 13):
        for x in range(-4, 12):
            row = keep[(x + 4) * 12 + d - 1]
            row[:, digit_slot[:max(d, x + 1)]] = True
            if x < 0:
                row[:, 1:2 - x] = True
            elif d > x + 1:
                row[:, digit_slot[x] + 1] = True
        for big in (0, 1):
            row = keep[_SCI_CLASS + 12 * big + d - 1]
            row[:, digit_slot[:d]] = True
            row[:, 9] = d > 1
            row[:, 32:37] = True
            row[:, 34] = big
    for length in range(1, _FALLBACK_WIDTH + 1):
        keep[_FALLBACK_CLASS + length, 0, :length] = True
    return _FormatTables(
        head=np.frombuffer(b"-0.000\0\0", np.uint64)[0],
        digits=digits.view(np.uint64).ravel(), sig=sig,
        mul=np.where(k >= 0, power, 1.0), div=np.where(k < 0, power, 1.0),
        exponent=exponent.view(np.uint64).ravel(), base=base,
        keep=np.where(keep, 0xff, 0).astype(np.uint8).reshape(-1, _SLOTS).view(np.uint64))


def _significands(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """12-digit N, exponent x + _POW_OFFSET, and where N is the correct rounding."""
    tab = _format_tables()
    s = np.abs(v)
    exact = (s >= 1e-280) & (s <= 1e280)
    s[~exact] = 1.0
    e = np.floor(np.log10(s)).astype(np.int64)
    k = _POW_OFFSET + 11 - e
    s *= tab.mul[k]
    s /= tab.div[k]
    r = np.rint(s)
    exact &= (s >= 1e11) & (s < 1e12) & (np.abs(s - r) < 0.498)
    n = r.astype(np.int64)
    n[~exact] = 10 ** 11
    carry = n == 10 ** 12
    n[carry] = 10 ** 11
    e += carry
    e += _POW_OFFSET
    return n, e, exact


def _format_rows(table: np.ndarray) -> str:
    """``"%.12g" % v`` of each value, ``,`` between columns and ``\n`` after each row."""
    tab = _format_tables()
    rows, ncol = table.shape
    v = table.ravel()
    n, x, exact = _significands(v)
    q2, low = np.divmod(n, 10 ** 8)
    q1, q0 = np.divmod(low, 10 ** 4)
    words = np.empty((v.size, _SLOTS // 8), np.uint64)
    words[:, 0] = tab.head
    words[:, 1] = tab.digits[q2]
    words[:, 2] = tab.digits[q1]
    words[:, 3] = tab.digits[q0]
    words[:, 4] = tab.exponent[x]
    chars = words.view(np.uint8)
    chars.reshape(rows, ncol, _SLOTS)[:, -1, 37] = ord("\n")
    d = np.maximum(np.maximum(tab.sig[2, q0], tab.sig[1, q1]), tab.sig[0, q2])
    cls = 2 * (tab.base[x] + d - 1) + (v < 0)
    slow = np.flatnonzero(~exact)
    if slow.size:
        text = np.array(["%.12g" % f for f in v[slow].tolist()], dtype=f"S{_FALLBACK_WIDTH}")
        text = text.view(np.uint8).reshape(-1, _FALLBACK_WIDTH)
        chars[slow, :_FALLBACK_WIDTH] = text
        cls[slow] = 2 * (_FALLBACK_CLASS + np.count_nonzero(text, axis=1))
    words &= np.take(tab.keep, cls, axis=0)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def trace_to_csv(trace: SimulationTrace) -> str:
    """Serialize a trace as CSV with 12 significant digits per value.

    Header is ``t,x1,...,xn,V,ytilde2sq``; one row per step, deterministic.
    The bytes are those of ``"%.12g" % v`` for each value.
    """
    nx = trace.x.shape[-1]
    header = ",".join(["t", *(f"x{i + 1}" for i in range(nx)), "V", "ytilde2sq"])
    table = np.column_stack([trace.times, trace.x, trace.V, trace.ytilde2_normsq])
    block = max(1, _CSV_VALUES // table.shape[1])
    parts = [header + "\n"]
    for i in range(0, len(table), block):
        parts.append(_format_rows(table[i:i + block]))
    return "".join(parts)
