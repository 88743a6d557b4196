"""Test oracles and helpers that the library does not ship.

``bs_apply`` is the whole two-mode beam-splitter unitary, the oracle the tests
hold ``channel.heralded_op`` to.  Its sector eigensystems are its own, so it
shares no cache with the stage it checks; the dense-``expm`` tests pin it.
``kraus_stage`` is a heralded stage composed from the ladder operators, the
oracle that pins the bits of ``channel.kraus_apply``.  ``root_sum`` is the
paper's root-of-unity form of a class sum, which the positive series
``states.class_sum`` is held to where it does not cancel.
"""

import functools
import math

import numpy as np

from catamp import amplify, fock


@functools.cache
def _sector_eig(total: int, ns_lo: int, ns_hi: int):
    """Read-only eigensystem of a-dagger b + a b-dagger on |ns, total - ns>, ns = ns_hi..ns_lo."""
    ns = np.arange(ns_hi, ns_lo, -1, dtype=float)
    off = np.sqrt(ns * (total - ns + 1.0))
    lam, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    lam.flags.writeable = vec.flags.writeable = False
    return lam, vec


def bs_apply(amps, gamma: float) -> np.ndarray:
    """exp[i theta (a-dagger b + a b-dagger)], theta = arcsin sqrt(gamma), applied to
    amplitudes over |n_system, n_ancilla> on the last two axes (a matrix, or a stack
    of them), exactly on every photon-number sector of the grid that holds one."""
    amps = np.asarray(amps, dtype=complex)
    ns_dim, na_dim = amps.shape[-2:]
    theta = math.asin(math.sqrt(gamma))
    out = np.zeros_like(amps)
    nz = np.nonzero(amps)
    for total in np.unique(nz[-2] + nz[-1]).tolist():
        ns_hi, ns_lo = min(total, ns_dim - 1), max(0, total - na_dim + 1)
        rows = np.arange(ns_hi, ns_lo - 1, -1)
        lam, vec = _sector_eig(total, ns_lo, ns_hi)
        block = amps[..., rows, total - rows]
        out[..., rows, total - rows] = ((block @ vec) * np.exp(1j * theta * lam)) @ vec.T
    return out


def norm_factor(spec, word) -> float:
    """1/sqrt(d class_poly(offsets, alpha^2, k, d)): the norm factor of ``word`` applied to
    the bare superposition sum_n w^{-kn} |alpha w^n>; at d = 1 the coherent state's."""
    a, d, k = spec.alpha, spec.d, spec.k
    return 1.0 / math.sqrt(d * amplify.class_poly(amplify.rises(word)[1], a * a, k, d))


def root_sum(j: int, x, d: int):
    """S_j(x) = sum_{n<d} w^{-jn} exp[-x (1 - w^n)], w = exp(2 pi i / d), at a float or
    an array x: d e^-x times the Taylor mass of e^x on m = j (mod d), as the real
    part of each of the d terms, exp[-x (1 - cos theta_n)] cos(x sin theta_n -
    theta_{jn mod d}) with theta_q = 2 pi q / d.  No term is skipped and nothing
    replaces a value that cancels: that value is off by about eps sum_n |E_n|,
    E_n(x) = exp[-x (1 - w^n)], far above eps S_j at small x and high j."""
    x = np.asarray(x, dtype=float)
    theta = 2.0 * np.pi * np.arange(d) / d
    out = np.zeros(x.shape)
    for n in sorted(range(1, d), key=lambda n: abs(d - 2 * n)):  # smallest terms first
        out = out + np.exp(-x * (1.0 - np.cos(theta[n]))) * np.cos(x * np.sin(theta[n]) - theta[j * n % d])
    return out + 1.0  # the n = 0 term


def kraus_stage(v, gamma: float, kind: str) -> np.ndarray:
    """sqrt(gamma) (1-gamma)^{n'/2} times a or a-dagger of ``v``, with n' the photon
    number of the input component (0 for the empty output |0> of an addition)."""
    lo = int(kind == fock.ADD)
    w = fock.ladder(v, kind)
    weight = (1.0 - gamma) ** (np.maximum(np.arange(w.trunc) - lo, 0) / 2.0)
    return np.sqrt(gamma) * weight * w.amps
