import csv
import dataclasses
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catamp import analytic, check, cli, optimize
from catamp.cli import SweepConfig
from catamp.errors import TruncationError
from catamp.states import ScsSpec

from conftest import series_scs_qfi

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
README = CONFIG_DIR.parent / "README.md"
SRC = CONFIG_DIR.parent / "src"


def read_csv(path):
    """The rows of a sweep CSV, as dicts of column name to text."""
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        assert rows.fieldnames == cli.CSV_HEADER.split(",")
        return list(rows)


def hes_cfg(**kw):
    base = dict(
        family="hes", d=2, k_list=(0,), scheme="aadag",
        alpha_min=0.05, alpha_max=3.0, steps=12,
    )
    base.update(kw)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        hes_cfg(alpha_min=2.0, alpha_max=1.0)
    with pytest.raises(ValueError):
        hes_cfg(steps=1)
    with pytest.raises(ValueError):
        hes_cfg(k_list=(5,))
    with pytest.raises(ValueError):
        hes_cfg(family="other")


def test_negative_alpha_min_is_a_usage_error(capsys):
    with pytest.raises(ValueError):
        hes_cfg(alpha_min=-1.0, alpha_max=-0.5)
    code = cli.main(["hes-sweep", "--d", "2", "--k", "0", "--alpha-min", "-1",
                     "--alpha-max", "-0.5", "--steps", "2"])
    assert code == 2
    assert "alpha_min" in capsys.readouterr().err


def test_non_finite_alpha_max_is_a_usage_error(capsys):
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha_max"):
            hes_cfg(alpha_min=0.5, alpha_max=bad)
    code = cli.main(["hes-sweep", "--d", "2", "--k", "0", "--alpha-min", "0.5",
                     "--alpha-max", "inf", "--steps", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert "alpha_max" in captured.err
    assert captured.out == ""


def test_dimension_below_one_is_a_usage_error(tmp_path, capsys):
    for bad in (0, -2):
        with pytest.raises(ValueError, match="d must be >= 1"):
            hes_cfg(d=bad, k_list=())
        out = tmp_path / "rows.csv"
        assert cli.main(["scs-sweep", "--d", str(bad), "--out", str(out)]) == 2
        assert "d must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_truncation_below_one_is_a_usage_error(tmp_path, capsys):
    # a fixed trunc below 1 once gave scs-sweep "ok" rows with trunc_used -5, and
    # prob-sweep one error row per cell, both with exit 0
    for bad in (0, -5):
        with pytest.raises(ValueError, match="trunc must be >= 1"):
            hes_cfg(trunc=bad)
        for cmd in (["scs-sweep"], ["prob-sweep", "--gamma", "0.1"]):
            out = tmp_path / "rows.csv"
            assert cli.main([*cmd, "--d", "2", "--k", "0", "--alpha-min", "0.5", "--alpha-max", "1",
                             "--steps", "2", "--trunc", str(bad), "--out", str(out)]) == 2
            assert "trunc must be >= 1" in capsys.readouterr().err
            assert not out.exists()


def test_gamma_outside_the_open_unit_interval_is_a_usage_error(capsys):
    for bad in (0.0, 1.0, 1.5, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma"):
            hes_cfg(gamma=bad)
    for bad in ("1.5", "nan"):
        code = cli.main(["prob-sweep", "--d", "2", "--k", "0", "--alpha-min", "0.5",
                         "--alpha-max", "1", "--steps", "2", "--gamma", bad])
        assert code == 2
        captured = capsys.readouterr()
        assert "gamma" in captured.err
        assert captured.out == ""


def test_hes_sweep_gain_column_matches_closed_form():
    records = cli.run_sweep(hes_cfg(steps=60))
    assert len(records) == 60
    for r in records:
        assert r.status == "ok"
        assert abs(r.G - analytic.hes_gain(r.alpha, "aadag")) < 1e-6
        assert abs(r.F_opt - analytic.hes_fidelity(r.alpha, r.G, "aadag")) < 1e-12


def test_scs_sweep_ratio_band():
    cfg = SweepConfig(
        family="scs", d=5, k_list=(0,), scheme="aadag",
        alpha_min=2.0, alpha_max=2.4, steps=3,
    )
    for r in cli.run_sweep(cfg):
        assert r.status == "ok"
        assert r.qfi_ratio > 1.0


def test_empty_k_list_gives_empty_sweep():
    assert cli.run_sweep(hes_cfg(k_list=())) == []


def test_rows_ordered_by_k_then_alpha():
    cfg = hes_cfg(d=3, k_list=(2, 0), steps=4)
    recs = cli.run_sweep(cfg)
    keys = [(r.k, r.alpha) for r in recs]
    assert keys == sorted(keys)


def test_prob_column_requires_gamma():
    recs = cli.run_sweep(hes_cfg(steps=3))
    assert all(r.p_success is None for r in recs)
    recs = cli.run_sweep(hes_cfg(steps=3, gamma=0.01))
    assert all(r.p_success > 0 for r in recs)


def test_emit_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    cli.emit_csv([], str(path))
    assert path.read_text() == cli.CSV_HEADER + "\n"


def test_emit_deterministic_bytes(tmp_path):
    recs = cli.run_sweep(hes_cfg(steps=5, gamma=0.01))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.emit_csv(recs, str(p1))
    cli.emit_csv(cli.run_sweep(hes_cfg(steps=5, gamma=0.01)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_round_trip(tmp_path):
    recs = cli.run_sweep(hes_cfg(steps=5, gamma=0.01))
    path = tmp_path / "sweep.csv"
    cli.emit_csv(recs, str(path))
    back = read_csv(path)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        for attr in ("d", "k", "scheme", "trunc_used", "status"):
            assert str(getattr(a, attr)) == b[attr]
        for attr in ("alpha", "F_opt", "G", "qfi_in", "qfi_out", "qfi_ratio", "p_success"):
            x, y = getattr(a, attr), b[attr]
            if x is None:
                assert y == ""
            else:
                assert abs(x - float(y)) <= 1e-11 * max(1.0, abs(x))


def test_cell_error_is_recorded_not_raised():
    # double-addition gain diverges at alpha = 0; the row records the failure
    cfg = SweepConfig(
        family="hes", d=2, k_list=(0,), scheme="adag2",
        alpha_min=0.0, alpha_max=1.0, steps=2,
    )
    recs = cli.run_sweep(cfg)
    assert recs[0].status.startswith("error")
    assert recs[1].status == "ok"


def test_truncation_failure_is_recorded_not_raised(monkeypatch):
    def refuse(*args, **kwargs):
        raise TruncationError("no truncation")

    monkeypatch.setattr(cli.fock, "auto_trunc", refuse)
    recs = cli.run_sweep(hes_cfg(steps=2))
    assert [r.status for r in recs] == ["error: TruncationError: no truncation"] * 2


def test_large_amplitude_scs_sweep_completes(capsys):
    code = cli.main(["scs-sweep", "--d", "2", "--k", "0", "--alpha-min", "6.999999999999915",
                     "--alpha-max", "7.5", "--steps", "2"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 2
    assert all(r.endswith(",ok") for r in rows)


def test_edge_optimum_gets_its_own_status():
    cfg = SweepConfig(family="scs", d=3, k_list=(2,), scheme="adag2",
                      alpha_min=0.1, alpha_max=0.3, steps=2)
    edge, inner = cli.run_sweep(cfg)
    assert edge.status == "ok;gain-at-edge" and edge.G == optimize.GAIN_HI
    assert inner.status == "ok" and inner.G < optimize.GAIN_HI


def test_unconverged_gain_gets_its_own_status(monkeypatch):
    # D > 0 and dD/dg = -1e10 everywhere: every refinement runs out of evaluations,
    # and the row read "ok"
    monkeypatch.setattr(analytic, "scs_slope_newton", lambda *a: (1.0, -1e10, 0.0))
    cfg = SweepConfig(family="scs", d=5, k_list=(2,), scheme="aadag",
                      alpha_min=1.0, alpha_max=1.5, steps=2)
    assert [r.status for r in cli.run_sweep(cfg)] == ["ok;gain-not-converged"] * 2


def test_zero_amplitude_scs_row_keeps_its_fidelity():
    cfg = SweepConfig(family="scs", d=3, k_list=(0,), scheme="aadag",
                      alpha_min=0.0, alpha_max=0.5, steps=2)
    zero, rest = cli.run_sweep(cfg)
    assert zero.F_opt == 1.0 and zero.G is None and zero.qfi_in == 0.0
    assert zero.status == "error: ValueError: alpha must be > 0"  # the Fisher ratio is 0/0
    assert rest.status == "ok" and rest.G > 1.0


@pytest.mark.parametrize("family", ["scs", "hes"])
def test_scs_row_takes_each_fisher_information_once(monkeypatch, family):
    # qfi_in, then one scs_qfi per scheme: qfi_out and the ratio share them; a
    # hybrid row is the d = 1 cat row
    calls = []
    real = analytic.scs_qfi
    monkeypatch.setattr(analytic, "scs_qfi", lambda *a: calls.append(a) or real(*a))
    d, k = (3, 1) if family == "scs" else (1, 0)
    for scheme in ("aadag", "adag2"):
        cfg = SweepConfig(family=family, d=3, k_list=(1,), scheme=scheme,
                          alpha_min=0.0, alpha_max=0.8, steps=2)
        calls.clear()
        rec = cli._run_cell(cfg, 0.8, 1)
        assert rec.status == "ok" and len(calls) == 3, calls
        assert rec.qfi_out == real(0.8, d, k, scheme)
        assert rec.qfi_ratio == analytic.qfi_ratio(0.8, d, k)


@pytest.mark.parametrize("scheme", ["aadag", "adag2"])
def test_scs_row_walks_each_rise_set_once_at_alpha_squared(monkeypatch, scheme):
    # the log norm of the gain search and the three Fisher informations take class
    # moments at alpha^2 = 1.69 (d 5: a walk) on three rise sets; the scheme's own
    # is shared by its log norm and its scs_qfi, so each set is walked once
    walks, walk = [], analytic._class_walk
    monkeypatch.setattr(analytic, "_class_walk", lambda *a: walks.append(a) or walk(*a))
    analytic._class_moments.cache_clear()
    cfg = SweepConfig(family="scs", d=5, k_list=(2,), scheme=scheme,
                      alpha_min=0.5, alpha_max=1.3, steps=2)
    assert cli._run_cell(cfg, 1.3, 2).status == "ok"
    at_a2 = sorted(a[3] for a in walks if a[1] == 1.3 * 1.3)
    assert at_a2 == [(), (0, 0), (0, 1)], walks


def test_consecutive_sweep_rows_share_no_memo_entry():
    # every memo hit of a row comes from that row: run in sweep order, each row
    # hits the memo as often as it does on an empty memo (once: its scheme's
    # class moments at alpha^2), for cat and hybrid rows and across two sweeps
    memo = analytic._class_moments

    def hits(cfg, alpha, k):
        before = memo.cache_info().hits
        assert cli._run_cell(cfg, alpha, k).status == "ok"
        return memo.cache_info().hits - before

    rows = [(cfg, float(a), k) for cfg in (
        SweepConfig(family="scs", d=3, k_list=(0, 1, 2), scheme="aadag",
                    alpha_min=0.6, alpha_max=2.4, steps=3),
        SweepConfig(family="scs", d=3, k_list=(0, 1, 2), scheme="adag2",
                    alpha_min=0.6, alpha_max=2.4, steps=3),
        hes_cfg(k_list=(0, 1), steps=3))
        for k in cfg.k_list for a in np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.steps)]
    memo.cache_clear()
    in_turn = [hits(*row) for row in rows]
    alone = []
    for row in rows:
        memo.cache_clear()
        alone.append(hits(*row))
    assert in_turn == alone == [1] * len(rows)


def test_check_quick_passes(capsys):
    assert check.check_suite("quick") == 0
    out = capsys.readouterr().out
    assert "PASS analytic.hes_fidelity_equivalence" in out
    assert "FAIL" not in out


def test_check_names_broken_closed_form(monkeypatch, capsys):
    # wrong exponent sign: the equivalence check must name the culprit
    def broken(alpha, g, s):
        s = analytic.as_scheme(s)
        a2 = alpha * alpha
        env = math.exp(+a2 * (g - 1.0) ** 2)
        if s is analytic.Scheme.AADAG:
            return (g * g * a2 * a2 + 2 * g * a2 + 1.0) / (a2 * a2 + 3 * a2 + 1.0) * env
        return g**4 * a2 * a2 / (a2 * a2 + 4 * a2 + 2.0) * env

    monkeypatch.setattr(analytic, "hes_fidelity", broken)
    assert check.check_suite("quick") == 1
    out = capsys.readouterr().out
    assert "FAIL analytic.hes_fidelity_equivalence" in out


def test_check_names_one_bad_fidelity_gain(monkeypatch, capsys):
    # the check takes each (d, k, alpha, scheme) over all gains in one call, and
    # must still hold every gain to its own bound
    closed = analytic.scs_fidelity
    monkeypatch.setattr(analytic, "scs_fidelity", lambda alpha, g, *a: closed(alpha, g, *a)
                        * np.where(np.equal(g, 1.4), 1.0 + 1e-11, 1.0))
    assert check.check_suite("quick") == 1
    out = capsys.readouterr().out
    assert "FAIL analytic.scs_fidelity_equivalence" in out and "g=[1.4]" in out


def test_check_reports_a_raising_oracle_as_its_failure(monkeypatch, capsys):
    # a Fock slope that never falls makes the gain oracle raise: that is the
    # check's own FAIL and exit 1, not an escaped error the CLI calls a usage error
    monkeypatch.setattr(check, "slope", lambda spec, word, hi: lambda g: (-1.0, 0.0))
    assert check.check_suite("quick") == 1
    out = capsys.readouterr().out
    assert "FAIL optimize.gain_fock_oracle: ValueError: the Fock slope does not fall" in out
    assert "PASS channel.sim_vs_kraus" in out  # the checks after it still run
    assert cli.main(["check", "quick"]) == 1


@pytest.mark.parametrize("alpha,d,k", [(0.3, 7, 6), (0.71, 8, 7)])
def test_brute_qfi_keeps_the_residue_class(alpha, d, k):
    # a truncation counted from 0 kept one member of the class at (0.3, 7, 6)
    # (QFI 0.0) and two at (0.71, 8, 7), where p n^2 - mean^2 also cancelled
    for s in ((), *analytic.Scheme):
        got = check.qfi(ScsSpec(alpha, d, k), s)
        want = series_scs_qfi(alpha, d, k, s.value if s else None)
        assert abs(got - want) <= 1e-10 * want, (s, got, want)


def test_brute_gain_matches_the_closed_form_gain_on_interior_cells():
    # the Fock-side slope root against the closed-form one; the truncation
    # counts from k, or (0.3, 8, 5..7) lose the class's second member
    checked = set()
    for d in (2, 3, 5, 8):
        for k in range(d):
            for s in analytic.Scheme:
                for alpha in (0.3, 0.6, 1.2, 2.1, 3.0):
                    res = optimize.scs_gain(ScsSpec(alpha, d, k), s)
                    if res.boundary_hit:
                        continue
                    g = res.argmax
                    got = check.gain(ScsSpec(alpha, d, k), s, g * (1 - 1e-3), g * (1 + 1e-3))
                    assert abs(got - g) <= 1e-12 * g, (alpha, d, k, s, got, g)
                    checked.add((alpha, d, k))
    assert {(0.3, 8, 5), (0.3, 8, 6), (0.3, 8, 7)} <= checked
    assert len(checked) >= 80


def test_brute_gain_needs_a_falling_slope_in_its_bracket():
    with pytest.raises(ValueError):
        check.gain(ScsSpec(1.0, 1, 0), analytic.Scheme.AADAG, 1.5, 2.0)


def test_gain_fock_oracle_covers_edge_cells(monkeypatch):
    # the check grids hold no edge cell; at alpha = 0.1 two of these do, where
    # the check asks the Fock slope to rise at GAIN_HI instead of a root
    assert optimize.scs_gain(ScsSpec(0.1, 3, 2), analytic.Scheme.ADAG2).boundary_hit
    gain_check = dict(check.CHECKS)["optimize.gain_fock_oracle"]
    gain_check(dict(dims=(3, 4), alphas=(0.1,)))
    # and it sees an F_opt off by 1e-11
    gain = optimize.scs_gain
    monkeypatch.setattr(optimize, "scs_gain", lambda *a: (
        lambda res: dataclasses.replace(res, value=res.value * (1 + 1e-11)))(gain(*a)))
    with pytest.raises(AssertionError, match="F_opt"):
        gain_check(dict(dims=(3,), alphas=(0.1,)))


def test_gain_fock_oracle_needs_a_rising_slope_at_an_edge_gain(monkeypatch):
    # a Fock slope that falls at GAIN_HI and nowhere else fails exactly the edge cell's G
    slope = check.slope
    monkeypatch.setattr(check, "slope", lambda spec, word, hi: lambda g: (
        (-1.0, 0.0) if g == optimize.GAIN_HI else slope(spec, word, hi)(g)))
    edge = r"d=3 k=2 Scheme.ADAG2 G: closed \[20.\] vs Fock \[nan\]"
    with pytest.raises(AssertionError, match=edge):
        dict(check.CHECKS)["optimize.gain_fock_oracle"](dict(dims=(3,), alphas=(0.1,)))


def test_check_runs_where_scipy_cannot_be_imported():
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import catamp.cli\n"
            "sys.exit(catamp.cli.main(['check', 'quick']))")
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAIL" not in done.stdout


#: the checks in the order ``check`` runs and prints them
CHECK_NAMES = [
    "fock.ladder_algebra", "states.gram_identities", "states.pseudo_number_support",
    "states.quadrature_zero", "amplify.proposition_oracles",
    "analytic.hes_fidelity_equivalence", "analytic.scs_fidelity_equivalence",
    "analytic.qfi_equivalence", "analytic.scheme_ordering",
    "analytic.normal_ordering_identities", "optimize.gain_closed_forms",
    "optimize.gain_fock_oracle", "channel.sim_vs_kraus", "channel.hes_success_uniformity",
]


def test_check_full_passes(capsys):
    assert check.check_suite("full") == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [f"PASS {name}" for name in CHECK_NAMES]


PAIRED = [name for name, fn in check.CHECKS if isinstance(fn, check.Pair)]


def test_the_paired_checks_are_the_four_fock_comparisons():
    assert PAIRED == ["analytic.hes_fidelity_equivalence", "analytic.scs_fidelity_equivalence",
                      "analytic.qfi_equivalence", "optimize.gain_fock_oracle"]


@pytest.mark.parametrize("name", PAIRED)
def test_check_fails_a_closed_form_off_by_ten_tolerances(monkeypatch, capsys, name):
    i = [n for n, _ in check.CHECKS].index(name)
    row = check.CHECKS[i][1]
    off = row._replace(closed=lambda *cell: np.multiply(row.closed(*cell), 1.0 + 10.0 * row.tol))
    monkeypatch.setattr(check, "CHECKS", (*check.CHECKS[:i], (name, off), *check.CHECKS[i + 1:]))
    assert check.check_suite("quick") == 1
    out = capsys.readouterr().out
    assert f"FAIL {name}: " in out and out.count("FAIL") == 1


@pytest.mark.parametrize("s", list(analytic.Scheme))
def test_fidelity_oracle_truncation_counts_from_k(s):
    # a truncation of auto_trunc(max(alpha, g alpha)) raised TruncationError at
    # (0.1, 12, 11) and kept one class member at (0.3, 12, 11), where it read 1.0
    for alpha in (0.05, 0.1, 0.3):
        for d in (8, 10, 12):
            for k in range(d):
                closed = analytic.scs_fidelity(alpha, 1.0, d, k, s)
                got = check.fidelity(ScsSpec(alpha, d, k), 1.0, s)
                assert abs(got - closed) <= 1e-12 * closed, (alpha, d, k, got, closed)


def test_check_rejects_unknown_level():
    with pytest.raises(ValueError):
        check.check_suite("bogus")


def test_main_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["unknown-command"])
    assert exc.value.code == 2


def test_main_hes_sweep_stdout(capsys):
    code = cli.main(["hes-sweep", "--d", "2", "--k", "0", "--steps", "3",
                     "--alpha-min", "0.5", "--alpha-max", "1.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(cli.CSV_HEADER)
    assert len(out.strip().splitlines()) == 4


def test_main_crossing(capsys):
    assert cli.main(["crossing"]) == 0
    out = capsys.readouterr().out
    star = float(out.splitlines()[0].split("alpha=")[1])
    assert 0.85 <= star <= 0.95
    amin = float(out.splitlines()[1].split("alpha=")[1].split()[0])
    assert 1.38 <= amin <= 1.48


def test_main_prob_sweep_requires_gamma(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["prob-sweep", "--d", "2", "--k", "0", "--steps", "2"])
    assert exc.value.code == 2


def test_main_unwritable_output_reports_io_error(capsys):
    code = cli.main(["hes-sweep", "--d", "2", "--k", "0", "--steps", "2",
                     "--out", "/nonexistent-dir/sweep.csv"])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 3\nk = all\nscheme = aadag\nalpha_min = 0.5\n"
                   "alpha_max = 1.5\nsteps = 2\n# comment line\n")
    out_path = tmp_path / "out.csv"
    code = cli.main(["hes-sweep", "--config", str(cfg), "--steps", "3",
                     "--out", str(out_path)])
    assert code == 0
    assert len(read_csv(out_path)) == 9  # 3 k values x 3 steps (flag overrides file steps=2)


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("family = hes\nd = 2\nk = 0\nalpha_mx = 9\nschem = adag2\nsteps = 2\n")
    assert cli.main(["hes-sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "alpha_mx" in captured.err and "schem" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, name", [("hes-sweep", "fig5_scs_ratio_d5.cfg"),
                                           ("scs-sweep", "fig1_hes_aadag.cfg")])
def test_config_family_contradicting_the_subcommand_is_a_usage_error(command, name, capsys):
    assert cli.main([command, "--config", str(CONFIG_DIR / name)]) == 2
    captured = capsys.readouterr()
    assert "family" in captured.err
    assert captured.out == ""


def test_prob_sweep_family_from_flag_then_config_then_scs(tmp_path, capsys):
    body = "d = 3\nk = 1\nalpha_min = 0.5\nalpha_max = 1\nsteps = 2\ngamma = 0.01\ntrunc = 30\n"

    def run(family_line, *flags):
        cfg = tmp_path / "prob.cfg"
        cfg.write_text(family_line + body)
        assert cli.main(["prob-sweep", "--config", str(cfg), *flags]) == 0
        return capsys.readouterr().out

    hes, scs = run("", "--family", "hes"), run("")
    assert hes != scs
    assert run("family = hes\n") == hes
    assert run("family = hes\n", "--family", "scs") == scs


def test_readme_sweep_commands_run_without_error_rows(tmp_path, capsys):
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    sweeps = [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("catamp ")]
    sweeps = [argv for argv in sweeps if argv[0].endswith("-sweep")]
    assert len(sweeps) == 3
    for argv in sweeps:
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert cli.main(argv) == 0, argv
        rows = read_csv(argv[out])
        errors = [r for r in rows if r["status"].startswith("error")]
        assert rows and not errors, (argv, len(errors), errors[:1])


@pytest.mark.parametrize("name", [p.name for p in sorted(CONFIG_DIR.glob("*.cfg"))])
def test_reference_csvs_regenerate_byte_identically(name, tmp_path):
    cfg_path = CONFIG_DIR / name
    ref_path = CONFIG_DIR / "reference" / (cfg_path.stem + ".csv")
    file_cfg = cli._load_config(str(cfg_path))
    family = file_cfg.pop("family")
    d = int(file_cfg["d"])
    cfg = SweepConfig(
        family=family,
        d=d,
        k_list=cli._parse_k_list(file_cfg.get("k", "all"), d),
        scheme=file_cfg.get("scheme", "aadag"),
        alpha_min=float(file_cfg["alpha_min"]),
        alpha_max=float(file_cfg["alpha_max"]),
        steps=int(file_cfg["steps"]),
        gamma=float(file_cfg["gamma"]) if "gamma" in file_cfg else None,
        trunc=int(file_cfg["trunc"]) if "trunc" in file_cfg else None,
    )
    out = tmp_path / "regen.csv"
    cli.emit_csv(cli.run_sweep(cfg), str(out))
    assert out.read_bytes() == ref_path.read_bytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=st.floats(1e-3, 8.0), d=st.integers(1, 12), family=st.sampled_from(("scs", "hes")),
       scheme=st.sampled_from(("aadag", "adag2")), data=st.data())
def test_sweep_cell_rows_respect_physical_bounds(alpha, d, family, scheme, data):
    # no exception escapes a cell, and an ok row holds a fidelity and Fisher informations
    k = data.draw(st.integers(0, d - 1))
    cfg = SweepConfig(family=family, d=d, k_list=(k,), scheme=scheme,
                      alpha_min=0.0, alpha_max=8.0, steps=2)
    rec = cli._run_cell(cfg, alpha, k)
    if rec.status.startswith("ok"):
        assert 0.0 <= rec.F_opt <= 1.0 + 1e-13, rec
        assert rec.qfi_in >= 0.0 and rec.qfi_out >= 0.0, rec
