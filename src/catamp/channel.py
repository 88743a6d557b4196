"""Heralded linear-optics realization of the amplification schemes.

A beam splitter with tap probability gamma couples the system mode to an
ancilla mode through U = exp[i theta (a-dagger b + a b-dagger)] with
theta = arcsin(sqrt(gamma)), so a lone photon hops between the modes with
probability gamma and stays put with probability 1 - gamma.

Heralded elementary operations (ideal detectors distinguishing vacuum from a
single photon):

  subtract:  ancilla in |0>, herald on |1>   ->  K_sub = sqrt(g) (1-g)^{n/2} a
  add:       ancilla in |1>, herald on |0>   ->  K_add = sqrt(g) (1-g)^{(n-1)/2} a-dagger

These closed forms are exact for the circuit (up to a global phase), so the
full two-mode simulation and the operator route agree to machine precision.
The scheme circuits cascade two such stages sharing one gamma.

The generator conserves n_system + n_ancilla.  Its eigensystem on each
photon-number sector is gamma-free, so it is cached once per sector as
read-only arrays.  On sector N the generator is 2 J_x of spin N/2, so its
spectrum is the integers N, N - 2, ..., -N: theta enters through one phase
vector exp(i theta j) over those integers, times the first-order factor
1 + i theta delta for the residual delta of each computed eigenvalue.

A heralded stage starts from |v> (x) |anc_in> and keeps ancilla |anc_out>, so
each sector holds one input amplitude and contributes one output amplitude:
the stage needs one element <n_out, anc_out| U |n_in, anc_in> per sector, not
the sector's full unitary.  U is symmetric, so an addition from n - 1 and a
subtraction from n take the same element of sector n.  The weights of those
elements in the eigenbasis form one gamma-free table that grows with the
widest input so far; every stage reads a prefix of it.  The tests check the
stage against the whole two-mode unitary, built from eigensystems of their own.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import states
from .analytic import scheme_word
from .errors import DegenerateStateError
from .fock import ADD, SUBTRACT, FockVector


def _stage_lo(gamma: float, kind: str) -> int:
    """Validate one stage's (gamma, kind); 1 for an addition, which widens the vector by one."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    if kind not in (ADD, SUBTRACT):
        raise ValueError(f"kind must be '{ADD}' or '{SUBTRACT}', got {kind!r}")
    return int(kind == ADD)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: they are cached and shared."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sector_eig(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem (lam, vec) of a-dagger b + a b-dagger on |ns, total - ns>, ns = total..0.

    The generator is real, symmetric and tridiagonal there; ``_herald_table``,
    which only grows, diagonalizes each sector once and keeps rows 0 and 1.
    """
    ns = np.arange(total, 0, -1, dtype=float)
    off = np.sqrt(ns * (total - ns + 1.0))
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


#: the largest |lambda - rint(lambda)| a sector eigensystem may carry into the table
_RESIDUAL_MAX = 1e-9

#: (spectrum, idx, w, wd, starts) of `_herald_table`, for sectors 1..starts.size; it only grows
_HERALD = _frozen(np.zeros(1), *(np.empty(0, t) for t in (np.intp, float, float, np.intp)))


def _herald_table(sectors: int) -> tuple[np.ndarray, ...]:
    """Gamma-free eigenbasis terms of <total, 0| U |total - 1, 1>, total = 1..sectors.

    Sector `total` is the segment of (idx, w, wd) from starts[total - 1]; its
    element is sum_i w_i exp(i theta j_i) (1 + i theta delta_i), with
    lambda_i = j_i + delta_i, j_i = spectrum[idx_i] and wd_i = w_i delta_i.  w
    is the product of eigenvector rows 0 and 1 (the row of |n, total - n> is
    total - n).  `spectrum` lists the integers by modulus, 0, 1, -1, 2, -2, ...,
    so every returned array is a prefix of the table's.  The table grows to the
    widest stage so far (threads that grow it at once only repeat work) and
    raises ``ArithmeticError`` on a residual above ``_RESIDUAL_MAX``.  Returns
    read-only (spectrum, idx, w, wd, starts).
    """
    global _HERALD
    spectrum, idx, w, wd, starts = _HERALD
    if sectors > starts.size:
        eigs = [_sector_eig(total) for total in range(starts.size + 1, sectors + 1)]
        lam = np.concatenate([lam for lam, _ in eigs])
        j = np.rint(lam)
        if not np.abs(lam - j).max() <= _RESIDUAL_MAX:
            raise ArithmeticError(f"a sector eigenvalue is over {_RESIDUAL_MAX:g} off its integer")
        w_new = np.concatenate([vec[0] * vec[1] for _, vec in eigs])
        pos, totals = np.arange(2 * sectors + 1), np.arange(sectors)
        _HERALD = spectrum, idx, w, wd, starts = _frozen(
            np.where(pos % 2, (pos + 1) // 2, -(pos // 2)).astype(float),
            np.concatenate((idx, np.where(j > 0, 2 * j - 1, -2 * j).astype(np.intp))),
            np.concatenate((w, w_new)), np.concatenate((wd, w_new * (lam - j))),
            totals * (totals + 3) // 2)  # sector total starts at (total - 1)(total + 2) / 2
    size = sectors * (sectors + 3) // 2
    return spectrum[:2 * sectors + 1], idx[:size], w[:size], wd[:size], starts[:sectors]


def heralded_op(v: FockVector, gamma: float, kind: str) -> FockVector:
    """One heralded stage of the circuit; returns its raw (unnormalized) branch.

    Sector t maps the input amplitude v[t - lo] to u_t v[t - lo] at photon
    number t - 1 + lo (lo = 1 for an addition), with u_t its unitary element:
    one phase vector exp(i theta j) over the integer spectrum, gathered per
    term of `_herald_table`.  Every row of a row stack shares those elements.
    The sectors are complete, so the stage is exact rather than
    truncation-limited; like ``kraus_apply``, an addition widens the vector by
    one.  The herald is global, so its probability is the squared norm of the
    branch, summed over rows.
    """
    lo = _stage_lo(gamma, kind)
    sectors = v.trunc - 1 + lo
    spectrum, idx, w, wd, starts = _herald_table(sectors)
    theta = math.asin(math.sqrt(gamma))
    terms = (1j * theta) * wd
    terms += w
    terms *= np.exp((1j * theta) * spectrum)[idx]
    branch = np.zeros(v.amps.shape[:-1] + (v.trunc + lo,), dtype=complex)
    branch[..., lo:lo + sectors] = np.add.reduceat(terms, starts) * v.amps[..., 1 - lo:]
    return FockVector(branch)


@functools.cache
def _kraus_factors(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gamma-free factors m / 2 and sqrt(m + 1) of ``kraus_apply``, m < width."""
    m = np.arange(width)
    return _frozen(m / 2.0, np.sqrt(m + 1.0))


def kraus_apply(v: FockVector, gamma: float, kind: str) -> FockVector:
    """Closed-form conditional operator for one heralded stage (unnormalized output).

    With c_m = sqrt(g) (1-g)^{m/2} sqrt(m+1), output m of a subtraction is
    c_m v[m+1] and output m + 1 of an addition is c_m v[m], in one array pass.
    An addition widens the vector by one, so it drops nothing.  The squared
    norm of the result equals the herald probability of the corresponding
    circuit stage.
    """
    lo = _stage_lo(gamma, kind)  # the output photon number of factor m is m + lo
    src = v.amps[..., 1 - lo:]
    half, root = _kraus_factors(src.shape[-1])
    out = np.zeros(v.amps.shape[:-1] + (v.trunc + lo,), dtype=complex)
    out[..., lo:lo + half.size] = math.sqrt(gamma) * (1.0 - gamma) ** half * (root * src)
    return FockVector(out)


def _cascade(v: FockVector, s, gamma: float, stage) -> FockVector:
    """The raw branch of scheme ``s``: one ``stage(v, gamma, kind)`` per letter, rightmost first."""
    for kind in reversed(scheme_word(s)):
        v = stage(v, gamma, kind)
    return v


def scheme_success_prob(state: FockVector, s, gamma: float) -> float:
    """Joint herald probability of a scheme circuit on a normalized input."""
    return float(np.linalg.norm(_cascade(state, s, gamma, kraus_apply).amps) ** 2)


def compare_sim_vs_kraus(spec, s, gamma: float, trunc: int) -> tuple[float, float, float]:
    """Full circuit simulation versus closed-form operators on one input state.

    Returns (p_sim, p_kraus, squared overlap of the two normalized outputs).
    Accepts a cat-state or hybrid spec; for hybrid states the circuit acts on
    the bosonic mode of every discrete block with global heralding.  Raises
    ``DegenerateStateError`` where either branch has a zero or non-finite norm.
    """
    v = states.build(spec, trunc)
    sim, kr = (_cascade(v, s, gamma, stage).amps for stage in (heralded_op, kraus_apply))
    n_sim, n_kr = float(np.linalg.norm(sim)), float(np.linalg.norm(kr))
    if not (0.0 < n_sim < math.inf and 0.0 < n_kr < math.inf):
        raise DegenerateStateError("cannot normalize a zero (or non-finite) vector")
    return n_sim**2, n_kr**2, abs(complex(np.vdot(sim / n_sim, kr / n_kr))) ** 2
