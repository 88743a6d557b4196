"""Shared brute-force oracles, independent of the library's own code paths.

Everything here is built from dense matrices and explicit series so the
library can be checked against a second route: destroy/create are literal
tridiagonal matrices, coherent amplitudes come straight from the defining
series, and cat states are assembled as explicit sums of coherent vectors
(the library builds them on their photon-number support instead).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln


def destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def create(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), -1)


def coherent_column(z: complex, n: int) -> np.ndarray:
    """exp(-|z|^2/2) z^m / sqrt(m!) via per-term log evaluation."""
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        if z == 0:
            out[m] = 1.0 if m == 0 else 0.0
        else:
            lg = -0.5 * abs(z) ** 2 + m * math.log(abs(z)) - 0.5 * math.lgamma(m + 1)
            out[m] = math.exp(lg) * (z / abs(z)) ** m
    return out


def cat_column(alpha: float, d: int, k: int, n: int) -> np.ndarray:
    """Normalized cat-state qudit as an explicit phased sum of coherent vectors."""
    w = np.exp(2j * np.pi / d)
    acc = np.zeros(n, dtype=complex)
    for m in range(d):
        acc += w ** (-k * m) * coherent_column(alpha * w**m, n)
    return acc / np.linalg.norm(acc)


def hybrid_matrix(alpha: float, d: int, k: int, n: int) -> np.ndarray:
    """Hybrid qudit rows (discrete index) by Fock columns, unit norm up to tail."""
    w = np.exp(2j * np.pi / d)
    rows = np.zeros((d, n), dtype=complex)
    for m in range(d):
        rows[m] = w ** (-k * m) * coherent_column(alpha * w**m, n) / math.sqrt(d)
    return rows


def poisson_tail(alpha: float, n: int) -> float:
    """Mass of Poisson(alpha^2) on outcomes >= n, by direct summation."""
    lam = alpha * alpha
    total = 0.0
    log_pmf = -lam
    for m in range(n):
        total += math.exp(log_pmf)
        log_pmf += math.log(lam) - math.log(m + 1)
    return max(0.0, 1.0 - total)


def series_scs_fidelity(alpha: float, g, d: int, k: int, scheme: str) -> np.ndarray:
    """Cat-state fidelity from positive residue-class series.

    With p_m = x^m / m! over m = k (mod d): a a-dagger gives
    F = [sum (m+1) p_m(g a^2)]^2 / ([sum (m+1)^2 p_m(a^2)] [sum p_m(g^2 a^2)]), and
    a-dagger^2 gives F = (g a)^4 [sum p_m(g a^2)]^2 / ([sum (m+1)(m+2) p_m(a^2)]
    [sum over m = k+2 (mod d) of p_m(g^2 a^2)]).  No root-of-unity sums, so no
    cancellation at any amplitude.  Each class sum is p_c times the ratios p_m / p_c,
    products of x / (m + 1) walked out from the class member c nearest x, so each
    weight is a few roundings from exact.  The powers x^c = g^(i c) a^(2c) of the
    three sums meet as integer exponents of g and a^2, and their ln c! as floats,
    before any log is scaled: where every class peaks at its lowest member (tiny x)
    they cancel exactly.  Where the classes differ, g and a^2 are raised to those
    exponents correctly rounded by ``np.power``, not as exp(n ln g), whose rounding
    grows with n |ln g|; only where a power or the rest leaves the normal doubles
    do they all meet in one exponent.
    """
    g = np.atleast_1d(np.asarray(g, dtype=float))
    a2 = alpha * alpha

    def class_sum(j, i, weight):
        """(c, ln sum weight(m) p_m / p_c) over m = j (mod d) at x = g^i a^2."""
        j %= d
        x = (g**i * a2)[..., None]
        c = j + d * np.maximum(np.rint((x - j) / d), 0.0)
        reach = d * math.ceil((12.0 * math.sqrt(float(x.max())) + 60.0) / d)
        t = np.arange(1, reach + 1)
        up = np.cumprod(x / (c + t), axis=-1)  # p_{c+t} / p_c
        u = c + 1 - t  # p_{c-t} / p_c = prod of u / x over u = c..c-t+1, only down to m = j
        down = np.cumprod(np.where(u > j, u, 0.0) / x, axis=-1)
        ratio = np.concatenate((down[..., ::-1], np.ones_like(x), up), axis=-1)[..., ::d]
        m = c + d * np.arange(-(reach // d), reach // d + 1)
        return c[..., 0], np.log((weight(m) * ratio).sum(axis=-1))

    if scheme == "aadag":
        power, sums = (0, 0), ((2, 1, k, lambda m: m + 1.0), (-1, 0, k, lambda m: (m + 1.0) ** 2),
                               (-1, 2, k, np.ones_like))
    else:  # (g a)^4 = g^4 (a^2)^2
        power, sums = (4, 2), ((2, 1, k, np.ones_like), (-1, 0, k, lambda m: (m + 1.0) * (m + 2.0)),
                               (-1, 2, k + 2, np.ones_like))
    (power_g, power_a), log_fact, log_ratio = power, 0.0, 0.0
    for coef, i, j, weight in sums:
        c, log_sum = class_sum(j, i, weight)
        power_g = power_g + coef * i * c
        power_a = power_a + coef * c
        log_fact = log_fact + coef * gammaln(c + 1.0)
        log_ratio = log_ratio + coef * log_sum
    rest = log_ratio - log_fact
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        parts = np.power(g, power_g), np.power(a2, power_a), np.exp(rest)
        normal = np.logical_and.reduce([(p >= tiny) & (p <= huge) for p in parts])
        return np.where(normal, parts[0] * parts[1] * parts[2],
                        np.exp(power_g * np.log(g) + power_a * math.log(a2) + rest))


def mp_scs_fidelity(alpha: float, g: float, d: int, k: int, scheme: str) -> float:
    """``series_scs_fidelity`` at one gain from 50-digit class sums, where no
    x^m / m! underflows or rounds at any x > 0, however tiny g is."""
    with mp.workdps(50):
        a2 = mp.mpf(alpha) ** 2
        y, z = mp.mpf(g) * a2, mp.mpf(g) ** 2 * a2

        def class_sum(j, x, weight):
            total, m = mp.mpf(0), j % d
            while True:
                term = weight(m) * x**m / mp.factorial(m)
                total += term
                if m > x and term < mp.mpf(10) ** -60 * total:
                    return total
                m += d

        if scheme == "aadag":
            f = class_sum(k, y, lambda m: m + 1) ** 2 / (
                class_sum(k, a2, lambda m: (m + 1) ** 2) * class_sum(k, z, lambda m: 1))
        else:
            f = z**2 * class_sum(k, y, lambda m: 1) ** 2 / (
                class_sum(k, a2, lambda m: (m + 1) * (m + 2)) * class_sum(k + 2, z, lambda m: 1))
        return float(f)


def coherent_fidelity(alpha: float, g: float, scheme: str) -> float:
    """Amplified coherent-state (hybrid) fidelity, the hand-expanded polynomials:
    a a-dagger gives (g^2 a^4 + 2 g a^2 + 1) / (a^4 + 3 a^2 + 1) and a-dagger^2
    gives g^4 a^4 / (a^4 + 4 a^2 + 2), each times exp[-a^2 (g - 1)^2]."""
    a2 = alpha * alpha
    env = math.exp(-a2 * (g - 1.0) ** 2)
    if scheme == "aadag":
        return (g * g * a2 * a2 + 2 * g * a2 + 1.0) / (a2 * a2 + 3 * a2 + 1.0) * env
    return g**4 * a2 * a2 / (a2 * a2 + 4 * a2 + 2.0) * env


def coherent_qfi(alpha: float, scheme: str) -> float:
    """4 Var(n) of an amplified coherent state, the hand-expanded polynomials."""
    a2 = alpha * alpha
    if scheme == "aadag":
        return 4 * a2 * (a2**4 + 6 * a2**3 + 14 * a2**2 + 10 * a2 + 4) / (a2**2 + 3 * a2 + 1) ** 2
    return 4 * a2 * (a2**4 + 8 * a2**3 + 24 * a2**2 + 24 * a2 + 12) / (a2**2 + 4 * a2 + 2) ** 2


def series_scs_qfi(alpha: float, d: int, k: int, scheme: str | None = None) -> float:
    """4 Var(n) of a bare or amplified cat state from its residue-class series, at 50 digits.

    Photon numbers m = k (mod d) carry weights c(m) x^m / m!, x = alpha^2, with
    c = 1 for the bare state, (m+1)^2 for a a-dagger and (m+1)(m+2) for
    a-dagger^2 (whose shift of every m by 2 leaves the variance unchanged).
    """
    c = {None: lambda m: 1, "aadag": lambda m: (m + 1) ** 2,
         "adag2": lambda m: (m + 1) * (m + 2)}[scheme]
    with mp.workdps(50):
        x = mp.mpf(alpha) ** 2
        ms = range(k, int(x + 40 * mp.sqrt(x)) + 200, d)
        w = [c(m) * x**m / mp.factorial(m) for m in ms]
        total = mp.fsum(w)
        mean = mp.fsum(wi * m for wi, m in zip(w, ms)) / total
        return float(4 * mp.fsum(wi * (m - mean) ** 2 for wi, m in zip(w, ms)) / total)


def var4(column: np.ndarray) -> float:
    """4 Var(n) of a normalized Fock column (flattens hybrid matrices)."""
    if column.ndim == 2:
        p = (np.abs(column) ** 2).sum(axis=0)
    else:
        p = np.abs(column) ** 2
    idx = np.arange(p.size)
    mean = float(p @ idx)
    return 4.0 * float(p @ (idx - mean) ** 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
