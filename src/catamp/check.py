"""Self-check suites: every closed form against its truncated-Fock oracle, and the invariants.

The oracles compute F, G and QFI from Fock vectors alone (build, amplify, then
overlap, slope or moments); each takes a spec and a word, ``()`` for the bare state.

A ``Pair`` row of ``CHECKS`` holds a closed form to its oracle on every cell
(spec, at, word) that ``cells(grids)`` yields: entry by entry on the last axis,
|closed - oracle| <= tol min(|closed|, |oracle|).  ``at`` is the cell's gains,
the optimum for the gain row, or None.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import amplify, analytic, channel, fock, optimize, states
from .analytic import Scheme
from .errors import OptimizationError
from .states import HesSpec, ScsSpec


def _grids(level: str):
    if level == "quick":
        return dict(alphas=(0.5, 1.5, 2.5), gains=(0.8, 1.4, 2.0), dims=(1, 2, 3),
                    gammas=(0.01,), bell_alphas=(0.5, 1.0), circuit_alphas=(0.5, 1.0))
    return dict(alphas=tuple(np.arange(0.3, 3.01, 0.3)), gains=tuple(np.arange(0.8, 2.01, 0.2)),
                dims=tuple(range(1, 9)), gammas=(0.001, 0.01, 0.1), bell_alphas=(0.5, 1.0, 2.0),
                circuit_alphas=(0.5, 1.0, 2.0, 5.0))


def _amplified(spec, word, g: float):
    """W psi, normalized, at a truncation that holds targets up to gain g, counted from k:
    as (k + n)! >= k! n!, the class tail past k + N weighs at most e^x times the
    Poisson tail past N that auto_trunc bounds, per first member."""
    trunc = spec.k + spec.d + fock.auto_trunc(max(1.0, g) * spec.alpha, additions=2)
    return amplify.apply_word(states.build(spec, trunc), analytic.scheme_word(word))[0]


def fidelity(spec, gains, word):
    """|<target(g alpha)|W psi>|^2 at each gain (a scalar gives a scalar), psi an
    ``ScsSpec`` or ``HesSpec`` state; W psi is built once for all the gains."""
    gains = np.asarray(gains, dtype=float)
    tk = analytic.target_index(spec.k, spec.d, word)
    amped = _amplified(spec, word, gains.max())
    out = [abs(fock.inner(states.build(type(spec)(g * spec.alpha, spec.d, tk), amped.trunc),
                          amped)) ** 2 for g in gains.flat]
    return np.reshape(out, gains.shape)[()]


def slope(spec: ScsSpec, word, hi: float):
    """The Fock-side slope of the cat-state fidelity, as g -> (D, dD/dg) for
    gains up to hi.

    With psi the amplified state and t the gain-g target, both real and
    non-negative on the target class m = tk (mod d), d ln F/dg = (2/g) D with
    D = <e>_u - <e>_{t^2}, u_m = t_m psi_m and e = m - tk the excess over the
    class's lowest photon number; dD/dg = (Var_u - 2 Var_{t^2}) / g.
    """
    d, tk = spec.d, analytic.target_index(spec.k, spec.d, word)
    amped = _amplified(spec, word, hi)
    psi = amped.amps.real[tk::d]
    e = d * np.arange(psi.size)

    def moments(w):  # mean and centered variance of e over the weights w
        mean = (w * e).sum() / w.sum()
        return mean, (w * (e - mean) ** 2).sum() / w.sum()

    def step(g):
        t = states.scs_state(ScsSpec(g * spec.alpha, d, tk), amped.trunc).amps.real[tk::d]
        (mu, vu), (mt, vt) = (moments(w) for w in (t * psi, t * t))
        return mu - mt, (vu - 2.0 * vt) / g

    return step


def gain(spec: ScsSpec, word, lo: float, hi: float) -> float:
    """Stationary gain of the cat-state fidelity in [lo, hi], from Fock vectors
    alone: the root of ``slope``'s D, which must change sign on [lo, hi], by
    safeguarded Newton steps."""
    step = slope(spec, word, hi)
    fa, fb = step(lo)[0], step(hi)[0]
    if not fa > 0 >= fb:
        raise ValueError(f"the Fock slope does not fall through 0 on [{lo}, {hi}]")
    root, _, converged, _ = optimize._newton(step, lo, hi, fa, fb, optimize.ROOT_XTOL)
    if not converged:
        raise OptimizationError(f"Fock slope root not converged on [{lo}, {hi}]")
    return root


def qfi(spec: ScsSpec, word) -> float:
    """4 Var(n) of the amplified cat state."""
    return 4.0 * fock.moments(_amplified(spec, word, 1.0))[1]


class Pair(NamedTuple):
    """A closed form and its Fock oracle, compared entry by entry on every cell."""

    tol: float
    cells: Callable
    closed: Callable
    oracle: Callable

    def __call__(self, grids):
        for spec, at, word in self.cells(grids):
            want, got = np.broadcast_arrays(self.closed(spec, at, word),
                                            self.oracle(spec, at, word))
            ok = np.abs(want - got) <= self.tol * np.minimum(np.abs(want), np.abs(got))
            if ok.all():
                continue
            bad = ~ok.reshape(-1, ok.shape[-1]).all(axis=0) if ok.ndim else ~ok
            if isinstance(at, np.ndarray):  # the cell's gains
                where = f"g={at[bad]}"
            else:  # the entries of an optimum, or the one Fisher information
                where = " ".join(np.compress(bad, ("G", "F_opt"))) if at is not None else ""
            raise AssertionError(f"a={spec.alpha} d={spec.d} k={spec.k} {word} {where}: "
                                 f"closed {want[..., bad]} vs Fock {got[..., bad]}")


def _cat_cells(g, at, words=tuple(Scheme)):
    specs = (ScsSpec(alpha, d, k) for d in g["dims"] for k in range(d) for alpha in g["alphas"])
    return ((spec, at(spec, word), word) for spec in specs for word in words)


def _fock_optimum(spec, res, word):
    # G against the root of the Fock slope near it; an edge G is the Fock optimum
    # on the search range only where that slope still rises there
    G = res.argmax
    if res.boundary_hit:
        root = G if slope(spec, word, G)(G)[0] > 0 else math.nan
    else:
        root = gain(spec, word, G * (1 - 1e-3), G * (1 + 1e-3))
    return root, fidelity(spec, G, word)


def _check_ladder_algebra(g):
    n = 24
    for m in range(n - 1):
        v = fock.basis(m, n)
        up_down = fock.ladder(fock.ladder(v, "add"), "subtract")
        assert abs(fock.inner(v, up_down) - (m + 1)) < 1e-12, f"a a-dagger |{m}>"
        down_up = fock.ladder(fock.ladder(v, "subtract"), "add")
        assert abs(fock.inner(v, down_up) - m) < 1e-12, f"a-dagger a |{m}>"


def _check_gram_identities(g):
    for d in g["dims"]:
        if d < 2:
            continue
        for alpha in g["bell_alphas"]:
            trunc = fock.auto_trunc(alpha)
            for family in (ScsSpec, HesSpec):
                vs = [states.build(family(alpha, d, k), trunc) for k in range(d)]
                gram = np.array([[fock.inner(u, v) for v in vs] for u in vs])
                assert np.abs(gram - np.eye(d)).max() < 1e-10, (
                    f"{family.__name__} gram d={d} alpha={alpha}")


def _check_pseudo_number(g):
    for d in g["dims"]:
        if d < 2:
            continue
        for alpha in g["bell_alphas"]:
            for k in range(d):
                v = states.scs_state(ScsSpec(alpha, d, k), fock.auto_trunc(alpha))
                p = states.photon_distribution(v)
                off = sum(p[m] for m in range(p.size) if (m - k) % d != 0)
                assert off <= 1e-20, f"pseudo-number d={d} k={k}"


def _check_scheme_ordering(g):
    for alpha in g["alphas"]:
        ga = analytic.hes_gain(alpha, Scheme.AADAG)
        g2 = analytic.hes_gain(alpha, Scheme.ADAG2)
        assert g2 > ga, f"gain ordering at alpha={alpha}"
        fa = analytic.hes_fidelity(alpha, ga, Scheme.AADAG)
        f2 = analytic.hes_fidelity(alpha, g2, Scheme.ADAG2)
        assert fa > f2, f"fidelity ordering at alpha={alpha}"
        assert analytic.hes_qfi(alpha, Scheme.AADAG) >= analytic.hes_qfi(alpha) - 1e-12
        assert analytic.hes_qfi(alpha, Scheme.ADAG2) >= analytic.hes_qfi(alpha) - 1e-12


def _check_normal_ordering(g):
    report = analytic.verify_normal_ordering_identities(24)
    for name, dev in report.items():
        assert dev <= 1e-9, f"normal ordering {name}: {dev}"


def _check_proposition_oracles(g):
    rng = np.random.default_rng(7)
    for d in g["dims"]:
        for k in range(d):
            alpha = float(rng.uniform(0.3, 1.8))
            word = tuple(rng.permutation(["add", "subtract"] * 2))
            x_h, x_c = amplify.coherent_pair(alpha, alpha, d, k, word)
            assert abs(x_h - x_c) < 1e-10, f"balanced-word oracle d={d} k={k}"
            beta = float(rng.uniform(0.3, 1.8))
            imb = tuple(["add"] * 2 + ["subtract"])
            x_h, x_c = amplify.coherent_pair(alpha, beta, d, k, imb)
            assert abs(x_h - x_c) < 1e-10, f"imbalanced-word oracle d={d} k={k}"


def _check_channel_agreement(g):
    for gamma in g["gammas"]:
        for d in (2, 3):
            for alpha in g["circuit_alphas"]:
                trunc = max(30, fock.auto_trunc(alpha, additions=2))
                for scheme in Scheme:
                    for spec in (ScsSpec(alpha, d, 0), HesSpec(alpha, d, d - 1)):
                        p_sim, p_kraus, fid = channel.compare_sim_vs_kraus(
                            spec, scheme, gamma, trunc
                        )
                        assert abs(p_sim - p_kraus) <= 1e-8 * p_kraus, "herald probability"
                        assert fid >= 1.0 - 1e-10, "output state overlap"


def _check_hes_success_uniformity(g):
    for alpha in g["bell_alphas"]:
        for scheme in Scheme:
            probs = [
                channel.scheme_success_prob(
                    states.hes_state(HesSpec(alpha, 3, k), 30), scheme, 0.01
                )
                for k in range(3)
            ]
            assert max(probs) - min(probs) <= 1e-12, "hybrid success probability uniformity"


def _check_optimizer_gains(g):
    for alpha in g["bell_alphas"]:
        for scheme in Scheme:
            res = optimize.scs_gain(ScsSpec(alpha, 1, 0), scheme)
            exact = analytic.hes_gain(alpha, scheme)
            assert abs(res.argmax - exact) <= 1e-12 * exact, f"d=1 gain at alpha={alpha}"
            f = analytic.hes_fidelity(alpha, exact, scheme)
            assert abs(res.value - f) <= 1e-13 * f, f"d=1 fidelity at alpha={alpha}"


def _check_quadrature_zero(g):
    lams = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for d in (2, 3, 4):
        for k in range(d):
            for family in (ScsSpec, HesSpec):
                v = states.build(family(1.0, d, k), fock.auto_trunc(1.0))
                for lam in lams:
                    assert abs(fock.quadrature_expect(v, lam)) <= 1e-10


CHECKS = (
    ("fock.ladder_algebra", _check_ladder_algebra),
    ("states.gram_identities", _check_gram_identities),
    ("states.pseudo_number_support", _check_pseudo_number),
    ("states.quadrature_zero", _check_quadrature_zero),
    ("amplify.proposition_oracles", _check_proposition_oracles),
    ("analytic.hes_fidelity_equivalence", Pair(  # hybrid qudits of d = 2, 3: the coherent form
        1e-12, lambda g: ((HesSpec(a, d, k), np.array(g["gains"]), word) for a in g["alphas"]
                          for word in Scheme for d, k in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2))),
        lambda spec, gains, word: [analytic.hes_fidelity(spec.alpha, g, word) for g in gains],
        fidelity)),
    ("analytic.scs_fidelity_equivalence", Pair(  # the array route and the scalar one
        1e-12, lambda g: _cat_cells(g, lambda *_: np.array(g["gains"])),
        lambda spec, gains, word: (
            analytic.scs_fidelity(spec.alpha, gains, spec.d, spec.k, word),
            [analytic.scs_fidelity(spec.alpha, float(g), spec.d, spec.k, word) for g in gains]),
        fidelity)),
    ("analytic.qfi_equivalence", Pair(
        1e-10, lambda g: _cat_cells(g, lambda *_: None, ((), *Scheme)),
        lambda spec, _, word: analytic.scs_qfi(spec.alpha, spec.d, spec.k, word),
        lambda spec, _, word: qfi(spec, word))),
    ("analytic.scheme_ordering", _check_scheme_ordering),
    ("analytic.normal_ordering_identities", _check_normal_ordering),
    ("optimize.gain_closed_forms", _check_optimizer_gains),
    ("optimize.gain_fock_oracle", Pair(
        1e-12, lambda g: _cat_cells(g, optimize.scs_gain),
        lambda spec, res, word: (res.argmax, res.value), _fock_optimum)),
    ("channel.sim_vs_kraus", _check_channel_agreement),
    ("channel.hes_success_uniformity", _check_hes_success_uniformity),
)


def check_suite(level: str, stream=None) -> int:
    """Run every invariant suite; returns 0 iff all pass."""
    stream = stream or sys.stdout
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    grids = _grids(level)
    failures = 0
    for name, fn in CHECKS:
        try:
            fn(grids)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=stream)
        else:
            print(f"PASS {name}", file=stream)
    return 0 if failures == 0 else 1
