"""Sweep runner, CSV emitter and self-check command.

Subcommands:
    hes-sweep    closed-form fidelity/gain/Fisher sweep for hybrid qudits
    scs-sweep    optimizer-driven sweep for cat-state qudits
    prob-sweep   heralded success probabilities (requires --gamma)
    crossing     locate the Fisher-ratio unit crossing and its minimum
    check        run the invariant suites (quick|full)

Configs are flat key=value files; command-line flags override file entries.
An unknown key, or a family that contradicts the subcommand, is a usage error.
Exit codes: 0 success, 1 check failure, 2 usage error, 3 numeric/truncation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import amplify, analytic, channel, fock, optimize, states
from .analytic import Scheme
from .errors import CatampError, OptimizationError
from .states import HesSpec, ScsSpec

CSV_HEADER = "alpha,d,k,scheme,F_opt,G,qfi_in,qfi_out,qfi_ratio,p_success,trunc_used,status"


@dataclass
class SweepConfig:
    family: str  # "hes" | "scs"
    d: int
    k_list: tuple[int, ...]
    scheme: str  # "aadag" | "adag2"
    alpha_min: float
    alpha_max: float
    steps: int
    gamma: float | None = None
    trunc: int | None = None  # fixed truncation; None selects the tail policy
    out: str | None = None

    def __post_init__(self):
        if self.family not in ("hes", "scs"):
            raise ValueError("family must be 'hes' or 'scs'")
        analytic.as_scheme(self.scheme)
        if not math.isfinite(self.alpha_max):
            raise ValueError("alpha_max must be finite")
        if not 0 <= self.alpha_min < self.alpha_max:
            raise ValueError("alpha_min must satisfy 0 <= alpha_min < alpha_max")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if any(not 0 <= k < self.d for k in self.k_list):
            raise ValueError("every k must satisfy 0 <= k < d")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be a finite number strictly between 0 and 1")


@dataclass
class SweepRecord:
    alpha: float
    d: int
    k: int
    scheme: str
    F_opt: float | None = None
    G: float | None = None
    qfi_in: float | None = None
    qfi_out: float | None = None
    qfi_ratio: float | None = None
    p_success: float | None = None
    trunc_used: int = 0
    status: str = "ok"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.12g}"


def _run_cell(cfg: SweepConfig, alpha: float, k: int) -> SweepRecord:
    scheme = analytic.as_scheme(cfg.scheme)
    rec = SweepRecord(alpha=alpha, d=cfg.d, k=k, scheme=scheme.value)
    hybrid = cfg.family == "hes"
    # a hybrid qudit amplifies as a coherent state does: the d = 1 cat row
    d, kk = (1, 0) if hybrid else (cfg.d, k)
    try:
        rec.trunc_used = (cfg.trunc if cfg.trunc is not None
                          else max(30, fock.auto_trunc(alpha, additions=2)))
        if hybrid:
            rec.G = analytic.hes_gain(alpha, scheme)
            rec.F_opt = analytic.scs_fidelity(alpha, rec.G, d, kk, scheme)
        else:
            opt = optimize.scs_gain(ScsSpec(alpha, d, kk), scheme)
            rec.G, rec.F_opt = opt.argmax, opt.value
            if opt.boundary_hit:  # the slope certifies a maximum at the edge
                rec.status = "ok;gain-at-edge"
        rec.qfi_in = analytic.scs_qfi(alpha, d, kk)
        qfi = {s: analytic.scs_qfi(alpha, d, kk, s) for s in Scheme}
        rec.qfi_out = qfi[scheme]
        if alpha <= 0:  # as analytic.qfi_ratio: the ratio is 0/0 there
            raise ValueError("alpha must be > 0")
        rec.qfi_ratio = qfi[Scheme.AADAG] / qfi[Scheme.ADAG2]
        if cfg.gamma is not None:
            build = states.hes_state if hybrid else states.scs_state
            v = build((HesSpec if hybrid else ScsSpec)(alpha, cfg.d, k), rec.trunc_used)
            rec.p_success = channel.scheme_success_prob(v, scheme, cfg.gamma)
    except (CatampError, ValueError, ArithmeticError) as exc:
        rec.status = f"error: {type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
    return rec


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """One record per (k, alpha), ordered by (k, alpha); cell errors land in the row."""
    alphas = np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.steps)
    return [_run_cell(cfg, float(a), k) for k in sorted(cfg.k_list) for a in alphas]


def format_csv(records: list[SweepRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    _fmt(r.alpha), str(r.d), str(r.k), r.scheme,
                    _fmt(r.F_opt), _fmt(r.G), _fmt(r.qfi_in), _fmt(r.qfi_out),
                    _fmt(r.qfi_ratio), _fmt(r.p_success), str(r.trunc_used), r.status,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def emit_csv(records: list[SweepRecord], path: str) -> None:
    """Write records deterministically: fixed header, 12 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(format_csv(records))


def parse_csv(path: str) -> list[SweepRecord]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")

    def opt_float(s: str) -> float | None:
        return None if s == "" else float(s)

    out = []
    for ln in lines[1:]:
        if not ln:
            continue
        f = ln.split(",")
        out.append(
            SweepRecord(
                alpha=float(f[0]), d=int(f[1]), k=int(f[2]), scheme=f[3],
                F_opt=opt_float(f[4]), G=opt_float(f[5]), qfi_in=opt_float(f[6]),
                qfi_out=opt_float(f[7]), qfi_ratio=opt_float(f[8]),
                p_success=opt_float(f[9]), trunc_used=int(f[10]), status=f[11],
            )
        )
    return out


# ---------------------------------------------------------------------------
# self-check suites


def _grids(level: str):
    if level == "quick":
        return dict(alphas=(0.5, 1.5, 2.5), gains=(0.8, 1.4, 2.0), dims=(1, 2, 3),
                    gammas=(0.01,), bell_alphas=(0.5, 1.0), circuit_alphas=(0.5, 1.0))
    return dict(alphas=tuple(np.arange(0.3, 3.01, 0.3)), gains=tuple(np.arange(0.8, 2.01, 0.2)),
                dims=tuple(range(1, 9)), gammas=(0.001, 0.01, 0.1), bell_alphas=(0.5, 1.0, 2.0),
                circuit_alphas=(0.5, 1.0, 2.0, 5.0))


def brute_scs_fidelity(alpha, g, d, k, scheme, hybrid: bool = False) -> float:
    """Truncated-Fock route: build, amplify, overlap; no closed forms involved.
    With ``hybrid`` the qudits are hybrid ones."""
    spec, build = (HesSpec, states.hes_state) if hybrid else (ScsSpec, states.scs_state)
    tk = analytic.target_index(k, d, scheme)
    trunc = fock.auto_trunc(max(alpha, g * alpha), additions=2)
    amped, _ = amplify.apply_word(build(spec(alpha, d, k), trunc), analytic.scheme_word(scheme))
    target = build(spec(g * alpha, d, tk), amped.trunc)
    return abs(fock.inner(target, amped)) ** 2


def brute_scs_slope(alpha, d, k, scheme, hi):
    """The Fock-side slope of the cat-state fidelity, as g -> (D, dD/dg) for
    gains up to hi, from Fock vectors alone.

    With psi the amplified state and t the gain-g target, both real and
    non-negative on the target class m = tk (mod d), d ln F/dg = (2/g) D with
    D = <e>_u - <e>_{t^2}, u_m = t_m psi_m and e = m - tk the excess over the
    class's lowest photon number; dD/dg = (Var_u - 2 Var_{t^2}) / g.  The
    truncation counts from k, as in ``brute_scs_qfi``, and holds the target up
    to 1.01 hi.
    """
    tk = analytic.target_index(k, d, scheme)
    trunc = k + d + fock.auto_trunc(1.01 * hi * alpha, additions=2)
    amped, _ = amplify.scs_amplified(ScsSpec(alpha, d, k), analytic.scheme_word(scheme), trunc)
    psi = amped.amps.real[tk::d]
    e = d * np.arange(psi.size)

    def step(g):
        t = states.scs_state(ScsSpec(g * alpha, d, tk), amped.trunc).amps.real[tk::d]
        (mu, vu), (mt, vt) = (analytic._moments(w, e, var=True) for w in (t * psi, t * t))
        return mu - mt, (vu - 2.0 * vt) / g

    return step


def brute_scs_gain(alpha, d, k, scheme, lo, hi) -> float:
    """Stationary gain of the cat-state fidelity in [lo, hi], from Fock vectors
    alone: the root of ``brute_scs_slope``'s D, which must change sign on
    [lo, hi], by safeguarded Newton steps."""
    step = brute_scs_slope(alpha, d, k, scheme, hi)
    fa, fb = step(lo)[0], step(hi)[0]
    if not fa > 0 >= fb:
        raise ValueError(f"the Fock slope does not fall through 0 on [{lo}, {hi}]")
    root, _, converged, _ = optimize._newton(step, lo, hi, fa, fb, optimize.ROOT_XTOL)
    if not converged:
        raise OptimizationError(f"Fock slope root not converged on [{lo}, {hi}]")
    return root


def brute_scs_qfi(alpha, d, k, scheme) -> float:
    """4 Var(n) of the bare (scheme None) or amplified cat state, from Fock arithmetic."""
    # counted from k: as (k + n)! >= k! n!, the class tail past k + N weighs at
    # most e^x times the Poisson tail past N that auto_trunc bounds, per first member
    trunc = k + fock.auto_trunc(alpha, additions=2)
    spec = ScsSpec(alpha, d, k)
    if scheme is None:
        v = states.scs_state(spec, trunc)
    else:
        v, _ = amplify.scs_amplified(spec, analytic.scheme_word(scheme), trunc)
    _, var = fock.moments(v)
    return 4.0 * var


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
            vs = [states.scs_state(ScsSpec(alpha, d, k), trunc) for k in range(d)]
            for i in range(d):
                for j in range(d):
                    want = 1.0 if i == j else 0.0
                    got = fock.inner(vs[i], vs[j])
                    assert abs(got - want) < 1e-10, f"scs gram d={d} alpha={alpha}"
            hs = [states.hes_state(HesSpec(alpha, d, k), trunc) for k in range(d)]
            for i in range(d):
                for j in range(d):
                    want = 1.0 if i == j else 0.0
                    got = fock.inner(hs[i], hs[j])
                    assert abs(got - want) < 1e-10, f"hes gram d={d} alpha={alpha}"


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


def _check_hes_fidelity_equivalence(g):
    # amplified hybrid qudits of d = 2, 3 against the coherent closed form
    for alpha in g["alphas"]:
        for gain in g["gains"]:
            for scheme in Scheme:
                closed = analytic.hes_fidelity(alpha, gain, scheme)
                for d, k in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
                    brute = brute_scs_fidelity(alpha, gain, d, k, scheme, hybrid=True)
                    assert abs(closed - brute) <= 1e-12 * closed, (
                        f"hes fidelity equivalence alpha={alpha} g={gain} d={d} k={k} {scheme}")


def _check_scs_fidelity_equivalence(g):
    gains = np.array(g["gains"])
    for d in g["dims"]:
        for k in range(d):
            for alpha in g["alphas"]:
                for scheme in Scheme:
                    closed = analytic.scs_fidelity(alpha, gains, d, k, scheme)
                    brute = np.array([brute_scs_fidelity(alpha, gain, d, k, scheme)
                                      for gain in gains])
                    ok = np.abs(closed - brute) <= 1e-12 * closed
                    assert ok.all(), (
                        f"scs fidelity equivalence a={alpha} g={gains[~ok]} d={d} k={k} {scheme}"
                    )


def _check_qfi_equivalence(g):
    for d in g["dims"]:
        for k in range(d):
            for alpha in g["alphas"]:
                for scheme in (None, *Scheme):
                    closed = analytic.scs_qfi(alpha, d, k, scheme)
                    brute = brute_scs_qfi(alpha, d, k, scheme)
                    assert abs(closed - brute) <= 1e-10 * closed, (
                        f"qfi equivalence a={alpha} d={d} k={k} {scheme}"
                    )


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
            x_h, x_c = amplify.prop1_pair(HesSpec(alpha, d, k), ((1.0, word),))
            assert abs(x_h - x_c) < 1e-10, f"balanced-word oracle d={d} k={k}"
            beta = float(rng.uniform(0.3, 1.8))
            imb = tuple(["add"] * 2 + ["subtract"])
            x_h, x_c = amplify.prop2_pair(alpha, beta, d, k, ((1.0, imb),))
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


def _check_optimizer_fock_oracle(g):
    # G against the root of the Fock-side slope (at the edge: that slope still
    # rises at GAIN_HI), and F_opt against the Fock fidelity at G
    for d in g["dims"]:
        for k in range(d):
            for alpha in g["alphas"]:
                for scheme in Scheme:
                    res = optimize.scs_gain(ScsSpec(alpha, d, k), scheme)
                    G, at = res.argmax, f"a={alpha} d={d} k={k} {scheme}"
                    if res.boundary_hit:
                        rising = brute_scs_slope(alpha, d, k, scheme, G)(G)[0] > 0
                        assert rising, f"gain at the edge without a rising Fock slope {at}"
                    else:
                        brute = brute_scs_gain(alpha, d, k, scheme, G * (1 - 1e-3), G * (1 + 1e-3))
                        assert abs(G - brute) <= 1e-12 * brute, f"gain vs Fock slope root {at}"
                    f = brute_scs_fidelity(alpha, G, d, k, scheme)
                    assert abs(res.value - f) <= 1e-12 * f, f"F_opt vs Fock fidelity {at}"


def _check_quadrature_zero(g):
    lams = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for d in (2, 3, 4):
        for k in range(d):
            trunc = fock.auto_trunc(1.0)
            v = states.scs_state(ScsSpec(1.0, d, k), trunc)
            h = states.hes_state(HesSpec(1.0, d, k), trunc)
            for lam in lams:
                assert abs(fock.quadrature_expect(v, lam)) <= 1e-10
                assert abs(fock.quadrature_expect(h, lam)) <= 1e-10


CHECKS = (
    ("fock.ladder_algebra", _check_ladder_algebra),
    ("states.gram_identities", _check_gram_identities),
    ("states.pseudo_number_support", _check_pseudo_number),
    ("states.quadrature_zero", _check_quadrature_zero),
    ("amplify.proposition_oracles", _check_proposition_oracles),
    ("analytic.hes_fidelity_equivalence", _check_hes_fidelity_equivalence),
    ("analytic.scs_fidelity_equivalence", _check_scs_fidelity_equivalence),
    ("analytic.qfi_equivalence", _check_qfi_equivalence),
    ("analytic.scheme_ordering", _check_scheme_ordering),
    ("analytic.normal_ordering_identities", _check_normal_ordering),
    ("optimize.gain_closed_forms", _check_optimizer_gains),
    ("optimize.gain_fock_oracle", _check_optimizer_fock_oracle),
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


# ---------------------------------------------------------------------------
# command line


#: the keys a sweep config file may set
_CONFIG_KEYS = frozenset(
    ("family", "d", "k", "scheme", "alpha_min", "alpha_max", "steps", "gamma", "trunc", "out")
)


def _load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _parse_k_list(text: str, d: int) -> tuple[int, ...]:
    text = text.strip()
    if text == "":
        return ()
    if text == "all":
        return tuple(range(d))
    return tuple(int(t) for t in text.split(","))


def _sweep_config(args) -> SweepConfig:
    file_cfg = _load_config(args.config) if args.config else {}
    unknown = sorted(file_cfg.keys() - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")

    def pick(flag, key, cast, default=None):
        if flag is not None:
            return flag
        if key in file_cfg:
            return cast(file_cfg[key])
        return default

    family = {"hes-sweep": "hes", "scs-sweep": "scs"}.get(args.command)
    if family is None:  # prob-sweep: --family, else the file's, else scs
        family = pick(args.family, "family", str, "scs")
    elif file_cfg.get("family", family) != family:
        raise ValueError(f"config family = {file_cfg['family']} contradicts {args.command}")
    d = pick(args.d, "d", int, 2)
    k_text = args.k if args.k is not None else file_cfg.get("k", "all")
    return SweepConfig(
        family=family,
        d=d,
        k_list=_parse_k_list(str(k_text), d),
        scheme=pick(args.scheme, "scheme", str, "aadag"),
        alpha_min=pick(args.alpha_min, "alpha_min", float, 0.1),
        alpha_max=pick(args.alpha_max, "alpha_max", float, 3.0),
        steps=pick(args.steps, "steps", int, 30),
        gamma=pick(args.gamma, "gamma", float, None),
        trunc=pick(args.trunc, "trunc", int, None),
        out=pick(args.out, "out", str, None),
    )


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--d", type=int)
    p.add_argument("--k", help="comma-separated indices, or 'all'")
    p.add_argument("--scheme", choices=["aadag", "adag2"])
    p.add_argument("--alpha-min", dest="alpha_min", type=float)
    p.add_argument("--alpha-max", dest="alpha_max", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--trunc", type=int)
    p.add_argument("--out", help="output CSV path (default stdout)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="catamp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("hes-sweep", "scs-sweep"):
        _add_sweep_flags(sub.add_parser(name))
    prob = sub.add_parser("prob-sweep")
    _add_sweep_flags(prob)
    prob.add_argument("--family", choices=["hes", "scs"],
                      help="default: the config's family, else scs")
    crossing = sub.add_parser("crossing")
    crossing.add_argument("--lo", type=float, default=0.5)
    crossing.add_argument("--hi", type=float, default=1.2)
    check = sub.add_parser("check")
    check.add_argument("level", choices=["quick", "full"])
    args = parser.parse_args(argv)

    try:
        if args.command == "check":
            return check_suite(args.level)
        if args.command == "crossing":
            star = optimize.find_crossing(lambda a: analytic.qfi_ratio(a), 1.0, args.lo, args.hi)
            h = 1e-4

            def slope(a):
                return (analytic.qfi_ratio(a + h) - analytic.qfi_ratio(a - h)) / (2 * h)

            amin = optimize.find_crossing(slope, 0.0, 1.0, 2.0)
            print(f"ratio=1 at alpha={star:.6f}")
            print(f"ratio minimum at alpha={amin:.6f} value={analytic.qfi_ratio(amin):.6f}")
            return 0
        cfg = _sweep_config(args)
        if args.command == "prob-sweep" and cfg.gamma is None:
            parser.error("prob-sweep requires --gamma (or gamma= in the config)")
        records = run_sweep(cfg)
        if cfg.out:
            emit_csv(records, cfg.out)
        else:
            sys.stdout.write(format_csv(records))
        return 0
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CatampError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
