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

from . import analytic, channel, check, fock, optimize, states
from .analytic import Scheme
from .errors import CatampError
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
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if any(not 0 <= k < self.d for k in self.k_list):
            raise ValueError("every k must satisfy 0 <= k < d")
        if self.trunc is not None and self.trunc < 1:
            raise ValueError("trunc must be >= 1")
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
                rec.status += ";gain-at-edge"
            if not opt.converged:  # a refinement ran out of its evaluations
                rec.status += ";gain-not-converged"
        rec.qfi_in = analytic.scs_qfi(alpha, d, kk)
        qfi = {s: analytic.scs_qfi(alpha, d, kk, s) for s in Scheme}
        rec.qfi_out = qfi[scheme]
        if alpha <= 0:  # as analytic.qfi_ratio: the ratio is 0/0 there
            raise ValueError("alpha must be > 0")
        rec.qfi_ratio = qfi[Scheme.AADAG] / qfi[Scheme.ADAG2]
        if cfg.gamma is not None:
            v = states.build((HesSpec if hybrid else ScsSpec)(alpha, cfg.d, k), rec.trunc_used)
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
    sub.add_parser("check").add_argument("level", choices=["quick", "full"])
    args = parser.parse_args(argv)

    try:
        if args.command == "check":
            return check.check_suite(args.level)
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
