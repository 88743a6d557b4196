"""The three benchmark workloads: inputs, cells and correctness checks.

A workload is run in passes.  A pass is a fixed-composition batch of cells
whose free parameters are drawn from ``numpy.random.default_rng((seed, pass))``
(their order from ``default_rng(pass)``, see ``_strata``), so the same seed
always yields the same inputs and every pass costs about the same.  A cell is
one unit of work (one request):

    sweeps       one CSV row produced by ``cli.run_sweep``
    cross-check  one (alpha, d, k, scheme, grid) gain scan plus its Fock checks
    circuit      one circuit-vs-Kraus comparison plus its success probability

Each cell ends in one outcome: ``ok``; ``error`` when the library reported
an explicit failure; ``wrong`` when it reported success but a tolerance check
failed; ``mismatch`` when a row of a committed figure differs from its
reference CSV.  Every outcome but ``ok`` counts as a failed cell, and the run
goes on.  A ``mismatch`` also makes the run incorrect: the committed figures
are the one output that must never change.

Inputs are drawn only where the library passes its own checks, so that every
failed cell means a change.  The three places where it fails today are left
out of the draws and probed once per run instead (``known_defects``).
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from catamp import amplify, analytic, channel, cli, fock, optimize, states
from catamp.errors import CatampError
from catamp.states import HesSpec, ScsSpec

OK, ERROR, WRONG, MISMATCH = "ok", "error", "wrong", "mismatch"

#: exceptions through which the library reports a failed computation; the
#: RuntimeError is fock.min_trunc's "tail summation failed to converge" (see
#: TAIL_ALPHAS)
LIBRARY_ERRORS = (CatampError, ValueError, ArithmeticError, RuntimeError)

# the library's own tolerances (cli.check_suite and the acceptance tests)
FIDELITY_TOL = 1e-8
QFI_REL_TOL = 1e-8
PROB_REL_TOL = 1e-8
OVERLAP_TOL = 1e-10

SCHEMES = ("aadag", "adag2")

# Where the library fails at this commit; the draws below stay clear of it.
#: analytic.qfi_ratio raises ZeroDivisionError below about alpha 0.36 at d = 8
#: (0.24 at d = 7, 0.14 at d = 6), so generated sweeps start at this alpha
SWEEP_ALPHA_MIN = 0.4
#: (d, k, alpha_lo, alpha_hi): the closed-form scs_qfi of the bare state is off
#: by more than 1e-8 from 4 Var(n) there, so cross-check draws another k
QFI_DEFECT = (8, 7, 0.68, 0.88)
#: fock.min_trunc raises "tail summation failed to converge" for some alpha
#: from 5.42 on, so the circuit tail stops below that
TAIL_ALPHAS = (4.2, 5.2)


def _raises(exc: type, fn, *args) -> bool:
    try:
        fn(*args)
    except exc:
        return True
    return False


def known_defects() -> dict:
    """Probe each failure left out of the draws: True while it is still there."""
    d, k, _, _ = QFI_DEFECT
    bare = states.scs_state(ScsSpec(0.8, d, k), fock.auto_trunc(0.8, additions=2))
    return {
        "qfi_ratio ZeroDivisionError at alpha 0.05, d 8, k 0":
            _raises(ZeroDivisionError, analytic.qfi_ratio, 0.05, 8, 0),
        f"scs_qfi off from 4 Var(n) at alpha 0.8, d {d}, k {k}":
            not _qfi_agrees(analytic.scs_qfi(0.8, d, k), bare),
        "min_trunc RuntimeError at alpha 5.568":
            _raises(RuntimeError, fock.min_trunc, 5.568, fock.TAIL_EPS),
    }


def _rngs(seed: int, index: int) -> tuple:
    """The generators of pass ``index``: one for the values, one for the order."""
    return np.random.default_rng((seed, index)), np.random.default_rng(index)


def _strata(rng: np.random.Generator, order: np.random.Generator, lo: float, hi: float,
            n: int) -> list:
    """n draws from [lo, hi), one in each of n equal strata, in a shuffled order.

    Stratified draws cover the range evenly in every pass.  The order, which
    stratum goes with which d, spec or scheme, comes from the pass index
    alone, so pass i has the same cost mix under every seed and the seed moves
    each value only within its stratum: with the order drawn from the seed
    too, the latency quantiles spread by up to 0.15 from seed to seed.
    """
    strata, offsets = order.permutation(n), rng.random(n)
    return [float(lo + (hi - lo) * (i + u) / n) for i, u in zip(strata, offsets)]


# ---------------------------------------------------------------------------
# machine speed

#: seconds the probe kernel takes on the reference machine; run.py scales the
#: measured times to a machine this fast
PROBE_REF_S = 1e-3
_PROBE_X = np.linspace(0.0, 1.0, 4000)
_PROBE_A = np.random.default_rng(0).random((40, 40))
_PROBE_A = _PROBE_A + _PROBE_A.T


def _probe_kernel() -> float:
    """Fixed work that does not use catamp: scalar Python math, numpy vector
    operations and one small eigh, in about equal shares."""
    s = 0.0
    for i in range(1500):
        s += math.exp(-i * 1e-4) * math.cos(i)
    for _ in range(5):
        s += float(np.sum(np.exp(-_PROBE_X) * np.cos(3.0 * _PROBE_X)))
    return s + float(np.linalg.eigh(_PROBE_A)[0][0])


class SpeedProbe:
    """Times a fixed kernel before each cell, to follow the machine's speed.

    On a shared host the speed of one core drifts by tens of percent within
    seconds to minutes (other tenants).  The kernel, run between cells, slows
    down with the cells around it, so dividing cell times by its slowdown
    removes most of that drift from the metrics.  The kernel runs twice and
    only the second, warm call is timed, so the cache state a cell leaves
    behind does not enter the measure.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds inside the probe, both calls

    def __call__(self) -> None:
        t0 = time.perf_counter()
        _probe_kernel()
        t1 = time.perf_counter()
        _probe_kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def slowdown(self) -> float:
        """Mean probe time over the reference time: > 1 on a slower machine."""
        return statistics.fmean(self.samples) / PROBE_REF_S


def _timed_cells(cell, cells: list, probe: SpeedProbe | None) -> list:
    out = []
    for args in cells:
        if probe:
            probe()
        t0 = time.perf_counter()
        outcome = cell(*args)
        out.append((time.perf_counter() - t0, outcome))
    return out


# ---------------------------------------------------------------------------
# sweeps


def load_sweep_config(path: Path) -> cli.SweepConfig:
    """Build a SweepConfig from a committed config file, as the reference test does."""
    entries = cli._load_config(str(path))
    d = int(entries["d"])
    return cli.SweepConfig(
        family=entries["family"],
        d=d,
        k_list=cli._parse_k_list(entries.get("k", "all"), d),
        scheme=entries.get("scheme", "aadag"),
        alpha_min=float(entries["alpha_min"]),
        alpha_max=float(entries["alpha_max"]),
        steps=int(entries["steps"]),
        gamma=float(entries["gamma"]) if "gamma" in entries else None,
        trunc=int(entries["trunc"]) if "trunc" in entries else None,
    )


def _row_outcome(line: str) -> str:
    """Bounds check of one generated (unreferenced) scs sweep row."""
    f = line.split(",")
    if f[11] != "ok":
        return ERROR
    F, G, qfi_in, qfi_out, ratio = (float(x) for x in f[4:9])
    if not all(np.isfinite([F, G, qfi_in, qfi_out, ratio])):
        return WRONG
    if not (-FIDELITY_TOL <= F <= 1.0 + FIDELITY_TOL and 0.0 < G <= optimize.GAIN_HI):
        return WRONG
    if qfi_in < -QFI_REL_TOL or qfi_out < -QFI_REL_TOL:
        return WRONG
    return OK


def sweep_job(cfg: cli.SweepConfig, reference: str | None) -> list:
    """Run one sweep and return one outcome per CSV row.

    Rows of a committed config must match its reference CSV byte for byte.
    """
    text = cli.format_csv(cli.run_sweep(cfg))
    lines = text.splitlines()
    if reference is None:
        return [_row_outcome(ln) for ln in lines[1:]]
    ref = reference.splitlines()
    same_shape = text.endswith("\n") and len(lines) == len(ref) and lines[0] == ref[0]
    return [OK if same_shape and lines[i] == ref[i] else MISMATCH for i in range(1, len(lines))]


class Sweeps:
    name = "sweeps"

    def __init__(self, root: Path, seed: int, tiny: bool = False):
        self.seed, self.tiny = seed, tiny
        names = sorted(p.name for p in (root / "configs").glob("*.cfg"))
        if tiny:
            names = [n for n in names if n.startswith("fig1")]
        self.committed = [
            (load_sweep_config(root / "configs" / n),
             (root / "configs" / "reference" / (Path(n).stem + ".csv")).read_text())
            for n in names
        ]
        if len(self.committed) != (2 if tiny else 4):
            raise FileNotFoundError("expected the four committed configs under configs/")

    def make_pass(self, index: int) -> list:
        """The committed configs, then one seeded scs sweep per d in 2..8."""
        rng, order = _rngs(self.seed, index)
        dims = (3,) if self.tiny else range(2, 9)
        lows = _strata(rng, order, SWEEP_ALPHA_MIN, 1.5, len(dims))
        highs = _strata(rng, order, 1.5, 3.0, len(dims))
        jobs = list(self.committed)
        for d, lo, hi in zip(dims, lows, highs):
            cfg = cli.SweepConfig(
                family="scs", d=d, k_list=tuple(range(d)), scheme=SCHEMES[(d + index) % 2],
                alpha_min=lo, alpha_max=hi, steps=2 if self.tiny else 3,
            )
            jobs.append((cfg, None))
        return jobs

    def warm_up(self) -> None:
        """One hes and one scs sweep, so first-call costs land in set-up."""
        scs = cli.SweepConfig(family="scs", d=2, k_list=(0,), scheme="aadag",
                              alpha_min=0.5, alpha_max=1.0, steps=2)
        self.run_pass([self.committed[0], (scs, None)])

    def run_pass(self, jobs: list, probe: SpeedProbe | None = None) -> list:
        """Row latencies come from timing each call of ``cli._run_cell``, the
        per-row function of ``cli.run_sweep``; ``probe`` runs before each."""
        original = cli._run_cell
        times = []

        def timed_cell(*args, **kwargs):
            if probe:
                probe()
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        cli._run_cell = timed_cell
        try:
            outcomes = [o for cfg, ref in jobs for o in sweep_job(cfg, ref)]
        finally:
            cli._run_cell = original
        if len(times) != len(outcomes):
            raise RuntimeError("cli.run_sweep no longer makes one cli._run_cell call per row")
        return list(zip(times, outcomes))


# ---------------------------------------------------------------------------
# cross-check


def brute_fidelity(alpha: float, g: float, d: int, k: int, scheme: str) -> float:
    """|<target(g alpha)| amplified(alpha)>|^2 built in truncated Fock space."""
    trunc = fock.auto_trunc(max(alpha, g * alpha), additions=2)
    amped, _ = amplify.scs_amplified(ScsSpec(alpha, d, k), analytic.scheme_word(scheme), trunc)
    target = states.scs_state(ScsSpec(g * alpha, d, analytic.target_index(k, d, scheme)),
                              amped.trunc)
    return abs(fock.inner(target, amped)) ** 2


def _draw_k(rng: np.random.Generator, alpha: float, d: int) -> int:
    """k uniform over 0..d-1, drawn again while (d, k, alpha) is in QFI_DEFECT."""
    dd, kk, lo, hi = QFI_DEFECT
    while True:
        k = int(rng.integers(d))
        if (d, k) != (dd, kk) or not lo <= alpha <= hi:
            return k


def _qfi_agrees(closed: float, v) -> bool:
    _, var = fock.moments(v)
    return abs(closed - 4.0 * var) <= QFI_REL_TOL * max(1.0, closed)


def cross_check_cell(alpha: float, d: int, k: int, scheme: str, points: int) -> str:
    """Dense gain scan, then brute-force fidelity and QFI checks at its argmax."""
    try:
        gains = np.linspace(optimize.GAIN_HI / points, optimize.GAIN_HI, points)
        scan = analytic.scs_fidelity(alpha, gains, d, k, scheme)
        i = int(np.argmax(scan))
        g_star = float(gains[i])
        scalar = analytic.scs_fidelity(alpha, g_star, d, k, scheme)
        brute = brute_fidelity(alpha, g_star, d, k, scheme)
        spec = ScsSpec(alpha, d, k)
        trunc = fock.auto_trunc(alpha, additions=2)
        qfi_ok = _qfi_agrees(analytic.scs_qfi(alpha, d, k), states.scs_state(spec, trunc))
        amped, _ = amplify.scs_amplified(spec, analytic.scheme_word(scheme), trunc)
        qfi_ok &= _qfi_agrees(analytic.scs_qfi(alpha, d, k, scheme), amped)
    except LIBRARY_ERRORS:
        return ERROR
    fid_ok = abs(scan[i] - brute) <= FIDELITY_TOL and abs(scalar - brute) <= FIDELITY_TOL
    return OK if fid_ok and qfi_ok else WRONG


class CrossCheck:
    name = "cross-check"
    #: gain-grid sizes; their complex intermediates (0.3 and 3 MB) straddle a 2 MiB L2
    GRIDS = (20_000, 200_000)

    def __init__(self, root: Path, seed: int, tiny: bool = False):
        self.seed, self.tiny = seed, tiny

    def make_pass(self, index: int) -> list:
        """Every d in 2..8 x both schemes x grids (2e4, 2e4, 2e4, 2e5); alpha and k drawn.

        Three small grids per large one keep the median cell inside the
        small-grid population and the 90th percentile inside the large one,
        away from the gap between them.
        """
        rng, order = _rngs(self.seed, index)
        dims = (2,) if self.tiny else range(2, 9)
        schemes = SCHEMES[:1] if self.tiny else SCHEMES
        grids = self.GRIDS if self.tiny else (self.GRIDS[0],) * 3 + self.GRIDS[1:]
        combos = [(d, s, n) for d in dims for s in schemes for n in grids]
        alphas = _strata(rng, order, 0.05, 3.0, len(combos))
        return [(a, d, _draw_k(rng, a, d), s, n) for a, (d, s, n) in zip(alphas, combos)]

    def warm_up(self) -> None:
        cross_check_cell(1.0, 2, 0, "aadag", 1000)

    def run_pass(self, cells: list, probe: SpeedProbe | None = None) -> list:
        return _timed_cells(cross_check_cell, cells, probe)


# ---------------------------------------------------------------------------
# circuit


def circuit_cell(kind: str, alpha: float, d: int, k: int, scheme: str, gamma: float) -> str:
    """Full two-mode circuit versus Kraus operators, plus the success probability."""
    try:
        trunc = max(30, fock.auto_trunc(alpha, additions=2))
        if kind == "scs":
            spec = ScsSpec(alpha, d, k)
            state = states.scs_state(spec, trunc)
        else:
            spec = HesSpec(alpha, d, k)
            state = states.hes_state(spec, trunc)
        p_sim, p_kraus, overlap = channel.compare_sim_vs_kraus(spec, scheme, gamma, trunc)
        p = channel.scheme_success_prob(state, scheme, gamma)
    except LIBRARY_ERRORS:
        return ERROR
    ok = (abs(p_sim - p_kraus) <= PROB_REL_TOL * p_kraus
          and abs(p - p_kraus) <= PROB_REL_TOL * p_kraus
          and overlap >= 1.0 - OVERLAP_TOL)
    return OK if ok else WRONG


class Circuit:
    name = "circuit"
    GAMMAS = (1e-3, 1e-2, 1e-1)

    def __init__(self, root: Path, seed: int, tiny: bool = False):
        self.seed, self.tiny = seed, tiny
        self.tail_offset = float(np.random.default_rng(seed).random())

    def make_pass(self, index: int) -> list:
        """Per spec x d x scheme x gamma, one cell at N = 30 (alpha 0.3..1.8) and
        one at N 30..60 (alpha 1.8..4); plus two tail cells at N 63..81
        (alpha 4.2..5.2), one per spec family, so the tail is 2 of 50 cells."""
        rng, order = _rngs(self.seed, index)
        if self.tiny:
            return [("scs", 1.0, 2, 0, "aadag", 1e-2), ("hes", 1.0, 2, 1, "adag2", 1e-2)]
        combos = [(kind, d, s, g) for kind in ("scs", "hes") for d in (2, 3)
                  for s in SCHEMES for g in self.GAMMAS]
        cells = [
            (kind, a, d, int(rng.integers(d)), s, g)
            for lo, hi in ((0.3, 1.8), (1.8, 4.0))
            for a, (kind, d, s, g) in zip(_strata(rng, order, lo, hi, len(combos)), combos)
        ]
        # tail alphas follow a golden-ratio sequence, so a few passes cover TAIL_ALPHAS
        lo, hi = TAIL_ALPHAS
        for shift, kind in ((0.0, "scs"), (0.5, "hes")):
            alpha = lo + (hi - lo) * ((self.tail_offset + shift + 0.6180339887 * index) % 1.0)
            d = 2 + (index % 2)
            cells.append((kind, alpha, d, int(rng.integers(d)),
                          SCHEMES[int(rng.integers(2))], self.GAMMAS[int(rng.integers(3))]))
        return cells

    def warm_up(self) -> None:
        circuit_cell("scs", 1.0, 2, 0, "aadag", 1e-2)

    def run_pass(self, cells: list, probe: SpeedProbe | None = None) -> list:
        return _timed_cells(circuit_cell, cells, probe)


WORKLOADS = {w.name: w for w in (Sweeps, CrossCheck, Circuit)}

