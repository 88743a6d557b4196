"""Optimized cat-state gain and root bracketing.

The optimized gain is a root of the closed-form slope ``analytic.scs_slope``:
every stationary point in the search range is bracketed on a fixed grid, scanned
only up to a proven bound on where the slope can be positive, and refined by
Newton steps on D = g/2 times the slope, a difference of class means, whose
derivative is closed form too (``analytic.scs_slope_newton``).  A Newton step
that would leave its sign bracket gives way to the bracket's false-position
point.  The same steps' log class sums value each candidate; the largest wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import amplify, analytic
from .errors import OptimizationError
from .states import ScsSpec

GAIN_LO = 1e-3
GAIN_HI = 20.0
#: grid points of the slope scan that brackets the stationary points
SLOPE_GRID = 256
#: the scan's gains, read-only
SLOPE_GAINS = np.linspace(GAIN_LO, GAIN_HI, SLOPE_GRID)
SLOPE_GAINS.flags.writeable = False
#: absolute gain tolerance and evaluation budget of the root refinement
ROOT_XTOL = 1e-14
ROOT_MAX_CALLS = 100


@dataclass(frozen=True)
class OptResult:
    """A maximum: ``value`` is the fidelity at ``argmax`` from the log class sums
    of the refinement's last step (a scalar ``analytic.scs_fidelity``'s route;
    a call at alpha = 0), ``iterations`` counts the (D, dD/dg) evaluations of the
    root refinement (about three per root; the one that values GAIN_HI is not
    counted), ``converged`` holds when every refinement converged (a sweep row
    is flagged otherwise), and ``boundary_hit`` when the argmax is the top of
    the search range.  ``argmax`` is None where the value does not depend on the gain."""

    argmax: float | None
    value: float
    iterations: int
    converged: bool
    boundary_hit: bool


def _illinois(f, a: float, b: float, fa: float, fb: float, tol: float) -> tuple[float, int, bool]:
    """Root of f in [a, b], where fa and fb have opposite signs, by the Illinois
    variant of regula falsi; returns (root, evaluations of f, converged)."""
    side = 0  # which end moved last; when one end moves twice, halve the other's f
    for calls in range(ROOT_MAX_CALLS):
        if fb == 0.0 or b - a <= tol:
            return b, calls, True
        c = (a * fb - b * fa) / (fb - fa)
        fc = f(c)
        if not np.isfinite(fc):
            raise OptimizationError(f"objective non-finite at {c}")
        if fc != 0.0 and (fc > 0) == (fa > 0):
            a, fa, fb, side = c, fc, fb / 2 if side < 0 else fb, -1
        else:
            b, fb, fa, side = c, fc, fa / 2 if side > 0 else fa, 1
    return b, ROOT_MAX_CALLS, False


def _newton(step, a: float, b: float, fa: float, fb: float, tol: float):
    """Root of f in [a, b], where fa and fb have opposite signs, from the
    false-position point by Newton steps on step(x) = (f(x), f'(x), ...); a step
    that would not land strictly inside the current sign bracket is replaced by
    the bracket's false-position point.

    Stops once a step is at most tol, or once two Newton steps in a row,
    s_{k-1} then s_k <= s_{k-1} / 4, estimate the error left after s_k under
    quadratic convergence, s_k^3 / s_{k-1}^2, at most tol.  A false-position
    step breaks that chain, and the factor 4 keeps out the linear contraction
    of Newton's method at a multiple root (a ratio of at least 1/2), where that
    estimate is too small.  Returns (root, evaluations of step, converged,
    (x, step(x)) at the last evaluation).
    """
    x = (a * fb - b * fa) / (fb - fa)
    prev = None  # size of the previous step, if it was a Newton one
    for calls in range(1, ROOT_MAX_CALLS + 1):
        last = x, step(x)
        fx, dfx = last[1][:2]
        if not (math.isfinite(fx) and math.isfinite(dfx)):
            raise OptimizationError(f"objective or its derivative non-finite at {x}")
        if fx == 0.0:
            return x, calls, True, last
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        newton = dfx != 0.0 and a < (new := x - fx / dfx) < b
        if not newton:
            new = (a * fb - b * fa) / (fb - fa)
        size = abs(new - x)
        if size <= tol or (prev is not None and newton and 4.0 * size <= prev
                           and size ** 3 <= tol * prev * prev):
            return new, calls, True, last
        prev = size if newton else None
        x = new
    return x, ROOT_MAX_CALLS, False, last


def scs_gain(spec: ScsSpec, s) -> OptResult:
    """Gain maximizing the cat-state fidelity on [GAIN_LO, GAIN_HI], for a named
    scheme or a word (``analytic.scheme_word``).

    Candidates are the roots of the slope at each + to - sign change of a scan of
    the SLOPE_GRID-point grid through its first point at or past g_max, refined by
    ``_newton`` to ROOT_XTOL, and GAIN_HI when the slope is still positive there
    (the last qudit indices under double addition at small amplitude).  No slope is
    positive past g_max = 1/2 + sqrt(1/4 + C / alpha^2), C = l + 2d + Q, l the word's
    net photon change and Q its count of overlap offsets: D = l + M_y - M_z, class
    means of m over P(m) y^m / m! (y = g alpha^2) and z^m / m! (z = g^2 alpha^2),
    weights whose ratio w(m + 1) / w(m) falls in m.  Cut m >= 0 into runs of d, each
    topped by a class member: the top's share falls from run to run, so the class's
    mean run index is at most the full sum's (Chebyshev's sum inequality), and
    M <= (full mean) + d - 1; runs headed by a member give M >= (full mean) - d + 1,
    at every x.  The full means are y + E[q] <= y + Q (``amplify.falling``) and z,
    so D <= l + Q + 2d - 2 - alpha^2 g (g - 1) <= -2 from g_max on; a scan positive
    there (by rounding) is redone on the whole grid.  ``iterations`` counts the
    (D, dD/dg) evaluations of every refinement.  Each candidate's fidelity comes
    from the log class sums of its last ``analytic.scs_slope_newton`` call (one
    more call values GAIN_HI), carried to the root by the second-order Taylor step
    of ln F, whose derivative is 2 D / g; no ``analytic.scs_fidelity`` call is
    made.  Past the scan, every step works on Python floats.  The candidate of
    largest fidelity wins.  At alpha = 0 the qudit is a number state, F does
    not depend on the gain, and no gain is returned.
    """
    word = analytic.scheme_word(s)
    alpha, d, k = spec.alpha, spec.d, spec.k
    if alpha == 0.0:
        return OptResult(None, analytic.scs_fidelity(0.0, 1.0, d, k, word), 0, True, False)

    c = amplify.rises(word)[0] + 2 * d + len(amplify.overlap_rises(word))
    grid = SLOPE_GAINS[:np.searchsorted(SLOPE_GAINS, 0.5 + math.sqrt(0.25 + c / alpha / alpha)) + 1]
    scan = analytic.scs_slope(alpha, grid, d, k, word)
    if scan[-1] > 0 and grid.size < SLOPE_GRID:  # past g_max only by rounding
        grid, scan = SLOPE_GAINS, analytic.scs_slope(alpha, SLOPE_GAINS, d, k, word)
    grid, scan = grid.tolist(), scan.tolist()
    if not all(map(math.isfinite, scan)):
        raise OptimizationError(f"fidelity slope non-finite on the gain scan of {spec}")

    def step(g):
        return analytic.scs_slope_newton(alpha, g, d, k, word)

    gains, logs, iterations, converged = [], [], 0, True
    for i in [i for i in range(len(scan) - 1) if scan[i] > 0 >= scan[i + 1]]:
        a, b = grid[i], grid[i + 1]  # D, the slope's class-mean difference, is g/2 times it
        root, calls, ok, (x, (gap_x, dgap_x, log_f)) = _newton(
            step, a, b, scan[i] * a / 2.0, scan[i + 1] * b / 2.0, ROOT_XTOL)
        # ln F from x to the root, h away: (ln F)' = 2 D / g, (ln F)'' = 2 (D' - D / g) / g
        h = root - x
        gains.append(root)
        logs.append(log_f + 2.0 * h / x * (gap_x + 0.5 * h * (dgap_x - gap_x / x)))
        iterations += calls
        converged &= ok
    if scan[-1] > 0:
        gains.append(GAIN_HI)
        logs.append(step(GAIN_HI)[2])
    if not gains:
        raise OptimizationError(f"fidelity has no maximum in gain at {spec}")
    values = np.exp(np.array(logs) - analytic.scs_log_norm(alpha, d, k, word)).tolist()
    if not all(map(math.isfinite, values)):
        raise OptimizationError(f"fidelity non-finite at a stationary gain of {spec}")
    best = values.index(max(values))
    return OptResult(gains[best], values[best], iterations, converged, gains[best] == GAIN_HI)


def find_crossing(f, target: float, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Abscissa where f crosses target on [lo, hi], lo < hi, to within tol."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo) - target
    fhi = f(hi) - target
    if not np.isfinite(flo) or not np.isfinite(fhi):
        raise OptimizationError("objective non-finite at bracket endpoints")
    if flo == 0.0:
        return lo
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    root, _, converged = _illinois(lambda x: f(x) - target, lo, hi, flo, fhi, tol)
    if not converged:
        raise OptimizationError(f"no crossing within {tol} after {ROOT_MAX_CALLS} evaluations")
    return root
