"""Single-mode truncated Fock-space linear algebra.

States are complex amplitude arrays over photon numbers 0..N-1: shape (N,)
for one bosonic mode, or (rows, N) for a mode paired with a discrete index
(one row per index value).  Every operation acts on the last (Fock) axis.  All
values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.

Conventions:
  - photon subtraction (annihilation a):   amp[n] <- sqrt(n+1) * amp[n+1]
  - photon addition (creation a-dagger):   amp[n] <- sqrt(n)   * amp[n-1]
Creation widens the vector by one and annihilation keeps its width, so a
ladder step never drops a component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError

ADD = "add"
SUBTRACT = "subtract"

#: default certified tail mass for automatically chosen truncations
TAIL_EPS = 1e-14

#: ln m! at index m, from ``math.lgamma``; ``log_factorial`` doubles it on demand
_LOG_FACT = np.zeros(1)


def log_factorial(m) -> np.ndarray:
    """ln m! for an array of integers m >= 0 (integral floats are accepted).

    The values come from one table: an m past its end extends it by doubling,
    and an entry never changes, so threads that extend it at once only
    repeat work.
    """
    global _LOG_FACT
    m = np.asarray(m, dtype=np.intp)
    table, top = _LOG_FACT, int(m.max(initial=0))
    if top >= table.size:
        size = table.size
        while size <= top:
            size *= 2
        new = [math.lgamma(i + 1.0) for i in range(table.size, size)]
        _LOG_FACT = table = np.concatenate((table, new))
    return table[m]


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitudes over photon numbers 0..trunc-1, shape (trunc,) or (rows, trunc)."""

    amps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amps, dtype=complex)  # always a copy of its own
        if arr.ndim not in (1, 2) or arr.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-D vector or 2-D row stack")
        # a finite sum of |a|^2 means finite elements (a dot product sets no floating-point
        # warning); huge finite elements overflow it, so only then check them one by one
        if not math.isfinite(np.vdot(arr, arr).real) and not np.isfinite(arr).all():
            raise ValueError("amplitudes must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    @property
    def trunc(self) -> int:
        return self.amps.shape[-1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probs(self) -> np.ndarray:
        """Photon-number probabilities, summed over rows (not normalized here)."""
        return (np.abs(self.amps) ** 2).reshape(-1, self.trunc).sum(axis=0)


def basis(n: int, trunc: int) -> FockVector:
    """Number state |n> on a trunc-dimensional space."""
    if not 0 <= n < trunc:
        raise ValueError(f"need 0 <= n < trunc, got n={n}, trunc={trunc}")
    amps = np.zeros(trunc, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps)


def coherent_amps(z: complex, trunc: int) -> np.ndarray:
    """Amplitudes of |z>: exp(-|z|^2/2) z^n / sqrt(n!), via ln n!."""
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    if z == 0:
        amps = np.zeros(trunc, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(trunc)
    r = abs(z)
    phase = z / r
    log_mod = -0.5 * r * r + n * np.log(r) - 0.5 * log_factorial(n)
    return np.exp(log_mod) * phase**n


def coherent(alpha: float, trunc: int) -> FockVector:
    """Coherent state |alpha> with real amplitude alpha >= 0.

    The vector is not renormalized after truncation; the discarded tail mass
    is available through ``coherent_tail``.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0; build phased states via coherent_amps")
    return FockVector(coherent_amps(alpha, trunc))


def _log_poisson(n: int, lam: float) -> float:
    """ln of the Poisson(lam) probability of n, lam > 0."""
    return n * math.log(lam) - lam - math.lgamma(n + 1.0)


def coherent_tail(alpha: float, trunc: int) -> float:
    """Probability mass of |alpha> on photon numbers >= trunc (Poisson upper tail).

    Past the mean it is the series of the tail itself, summed up from trunc;
    below, 1 minus the lower series, summed down from trunc - 1.  Either way
    every term is positive and the terms fall away from where the sum starts.
    """
    lam = alpha * alpha
    if trunc <= 0:
        return 1.0
    if lam == 0.0:
        return 0.0
    if trunc > lam:
        n, term, acc = trunc, math.exp(_log_poisson(trunc, lam)), 0.0
        while term > 1e-17 * acc:
            acc += term
            n += 1
            term *= lam / n
        return acc
    n, term, acc = trunc - 1, math.exp(_log_poisson(trunc - 1, lam)), 0.0
    while term > 1e-17 * acc:  # the term of n = -1 is 0
        acc += term
        term *= n / lam
        n -= 1
    return 1.0 - acc


def ladder(v: FockVector, kind: str) -> FockVector:
    """Apply the annihilation (subtract) or creation (add) operator.

    Creation widens the vector by one, annihilation keeps its width.
    """
    a = v.amps
    n = v.trunc
    if kind == SUBTRACT:
        out = np.zeros_like(a)
        out[..., : n - 1] = np.sqrt(np.arange(1.0, n)) * a[..., 1:]
        return FockVector(out)
    if kind == ADD:
        out = np.zeros(a.shape[:-1] + (n + 1,), dtype=complex)
        out[..., 1:] = np.sqrt(np.arange(1.0, n + 1)) * a
        return FockVector(out)
    raise ValueError(f"kind must be '{ADD}' or '{SUBTRACT}', got {kind!r}")


def inner(u: FockVector, v: FockVector) -> complex:
    """<u|v>, conjugate-linear in the first argument, over the common prefix of
    photon numbers (past it one side is zero).

    Row stacks must have equally many rows; their inner product sums over rows.
    """
    if u.amps.shape[:-1] != v.amps.shape[:-1]:
        raise ValueError("states have different row counts")
    n = min(u.trunc, v.trunc)
    return complex(np.vdot(u.amps[..., :n], v.amps[..., :n]))


def normalize(v: FockVector) -> tuple[FockVector, float]:
    """Return (unit vector, pre-normalization 2-norm)."""
    nrm = v.norm()
    if nrm <= 0.0 or not np.isfinite(nrm):
        raise DegenerateStateError("cannot normalize a zero (or non-finite) vector")
    return FockVector(v.amps / nrm), nrm


def _require_normalized(v: FockVector, what: str) -> None:
    if abs(v.norm() ** 2 - 1.0) > 1e-10:
        raise ValueError(f"{what} requires a normalized vector (|norm^2 - 1| > 1e-10)")


def moments(v: FockVector) -> tuple[float, float]:
    """(mean, variance) of the photon number of a normalized state (rows traced out)."""
    _require_normalized(v, "moments")
    p = v.probs()
    n = np.arange(v.trunc)
    mean = float(p @ n)
    return mean, float(p @ (n - mean) ** 2)  # centered, so it cannot cancel below 0


def quadrature_expect(v: FockVector, lam: float) -> float:
    """<a e^{i lam} + a-dagger e^{-i lam}> of a normalized state (real by construction)."""
    _require_normalized(v, "quadrature_expect")
    a = v.amps
    a_expect = np.vdot(a[..., :-1], np.sqrt(np.arange(1.0, v.trunc)) * a[..., 1:])
    return float(2.0 * np.real(np.exp(1j * lam) * a_expect))


def min_trunc(alpha_max: float, epsilon: float) -> int:
    """Smallest N with Poisson(alpha_max^2) tail mass below epsilon.

    The tail is summed downward, one term per N, from well past it: from
    lam + 40 + 12 sqrt(lam) (lam = alpha_max^2), or lower where that term is
    not a normal double.  Callers enlarge the result by the number of photon
    additions in their pipeline (plus slack) before building states.
    """
    if alpha_max < 0:
        raise ValueError("alpha_max must be >= 0")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    lam = alpha_max * alpha_max
    if lam == 0.0:
        return 1
    n = int(lam + 40.0 + 12.0 * math.sqrt(lam))
    log_term = _log_poisson(n, lam)
    while log_term < -700.0:  # what lies above n is then below e^-700 too
        log_term += math.log(n / lam)
        n -= 1
    term, tail = math.exp(log_term), 0.0
    while True:
        tail += term  # the tail mass on photon numbers >= n
        if tail >= epsilon or n == 0:
            return n + 1
        term *= n / lam
        n -= 1


def auto_trunc(alpha_max: float, additions: int = 0, epsilon: float = TAIL_EPS) -> int:
    """Truncation policy: certified tail below epsilon plus headroom for additions."""
    return min_trunc(alpha_max, epsilon) + additions + 2
