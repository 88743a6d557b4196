"""Optimized cat-state gain and root bracketing.

The optimized gain is a root of the closed-form slope ``analytic.scs_slope``:
every stationary point in the search range is bracketed on a fixed grid and
refined by Newton steps on D = g/2 times the slope, a difference of class
means, whose derivative is closed form too (``analytic.scs_slope_newton``).
Where a Newton step would leave the current sign bracket, the bracket's
false-position point is taken instead.  The candidate of largest fidelity wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic
from .errors import OptimizationError
from .states import ScsSpec

GAIN_LO = 1e-3
GAIN_HI = 20.0
#: grid points of the slope scan that brackets the stationary points
SLOPE_GRID = 256
#: absolute gain tolerance and evaluation budget of the root refinement
ROOT_XTOL = 1e-14
ROOT_MAX_CALLS = 100


@dataclass(frozen=True)
class OptResult:
    """A maximum: ``iterations`` counts the (D, dD/dg) evaluations of the root
    refinement, ``converged`` holds when every refinement converged, and
    ``boundary_hit`` when the argmax is the top of the search range.
    ``argmax`` is None where the value does not depend on the gain."""

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


def _newton(step, a: float, b: float, fa: float, fb: float, tol: float) -> tuple[float, int, bool]:
    """Root of f in [a, b], where fa and fb have opposite signs, from the
    false-position point by Newton steps on step(x) = (f(x), f'(x)); a step
    that would not land strictly inside the current sign bracket is replaced by
    the bracket's false-position point.  Stops once a step is at most tol;
    returns (root, evaluations of step, converged)."""
    x = (a * fb - b * fa) / (fb - fa)
    for calls in range(1, ROOT_MAX_CALLS + 1):
        fx, dfx = step(x)
        if not (np.isfinite(fx) and np.isfinite(dfx)):
            raise OptimizationError(f"objective or its derivative non-finite at {x}")
        if fx == 0.0:
            return x, calls, True
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        if dfx == 0.0 or not a < (new := x - fx / dfx) < b:
            new = (a * fb - b * fa) / (fb - fa)
        if abs(new - x) <= tol:
            return new, calls, True
        x = new
    return x, ROOT_MAX_CALLS, False


def scs_gain(spec: ScsSpec, s) -> OptResult:
    """Gain maximizing the cat-state fidelity on [GAIN_LO, GAIN_HI], for a named
    scheme or a word (``analytic.scheme_word``).

    Candidates are the roots of the slope at each + to - sign change of a
    SLOPE_GRID-point scan, refined by ``_newton`` until a step is at most
    ROOT_XTOL, and GAIN_HI when the slope is still positive there (the last
    qudit indices under double addition at small amplitude).  ``iterations``
    counts the (D, dD/dg) evaluations of every refinement.  The candidate of
    largest fidelity wins.  At alpha = 0 the qudit is a number state, F does
    not depend on the gain, and no gain is returned.
    """
    word = analytic.scheme_word(s)
    alpha, d, k = spec.alpha, spec.d, spec.k
    if alpha == 0.0:
        return OptResult(None, analytic.scs_fidelity(0.0, 1.0, d, k, word), 0, True, False)

    grid = np.linspace(GAIN_LO, GAIN_HI, SLOPE_GRID)
    scan = analytic.scs_slope(alpha, grid, d, k, word)
    if not np.all(np.isfinite(scan)):
        raise OptimizationError(f"fidelity slope non-finite on the gain scan of {spec}")
    gap = scan * grid / 2.0  # D, the slope's class-mean difference
    gains, iterations, converged = [], 0, True
    for i in np.flatnonzero((scan[:-1] > 0) & (scan[1:] <= 0)):
        root, calls, ok = _newton(lambda g: analytic.scs_slope_newton(alpha, g, d, k, word),
                                  grid[i], grid[i + 1], gap[i], gap[i + 1], ROOT_XTOL)
        gains.append(root)
        iterations += calls
        converged &= ok
    if scan[-1] > 0:
        gains.append(GAIN_HI)
    if not gains:
        raise OptimizationError(f"fidelity has no maximum in gain at {spec}")
    values = [analytic.scs_fidelity(alpha, g, d, k, word) for g in gains]
    if not np.all(np.isfinite(values)):
        raise OptimizationError(f"fidelity non-finite at a stationary gain of {spec}")
    best = int(np.argmax(values))
    return OptResult(float(gains[best]), float(values[best]), iterations, converged,
                     bool(gains[best] == GAIN_HI))


def find_crossing(f, target: float, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Abscissa where f crosses target on [lo, hi], to within tol."""
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
