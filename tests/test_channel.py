import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catamp import channel, fock, states
from catamp.analytic import Scheme
from catamp.errors import DegenerateStateError
from catamp.states import HesSpec, ScsSpec

from conftest import coherent_column
from oracles import bs_apply, kraus_stage

#: |1, 0> on a 4 x 4 two-mode grid
ONE_PHOTON = np.outer(np.eye(4)[1], np.eye(4)[0])

#: a herald table of no sectors, as `channel._HERALD` starts
EMPTY_TABLE = (np.zeros(1), *(np.empty(0, int),) * 4)


def test_stages_validate_gamma_and_kind():
    v = fock.basis(1, 4)
    for stage in (channel.heralded_op, channel.kraus_apply):
        for gamma in (0.0, 1.0):
            with pytest.raises(ValueError):
                stage(v, gamma, "add")
        with pytest.raises(ValueError):
            stage(v, 0.1, "swap")


def test_tiny_gamma_is_nearly_identity():
    out = bs_apply(ONE_PHOTON, 1e-14)
    assert abs(out[1, 0] - 1.0) < 1e-6


def test_near_unit_gamma_swaps_modes():
    out = bs_apply(ONE_PHOTON, 1.0 - 1e-12)
    # |1,0> -> i |0,1> up to a residual cosine
    assert abs(out[0, 1] - 1j) < 1e-5


def test_single_photon_tap_probability_is_gamma():
    for gamma in (0.01, 0.25, 0.8):
        out = bs_apply(ONE_PHOTON, gamma)
        assert abs(abs(out[0, 1]) ** 2 - gamma) < 1e-12
        assert abs(abs(out[1, 0]) ** 2 - (1.0 - gamma)) < 1e-12


def test_bs_preserves_norm_and_photon_blocks(rng):
    n = 9
    amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    st = amps / np.linalg.norm(amps)
    out = bs_apply(st, 0.37)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    for total in range(2 * n - 1):
        mass_in = sum(
            abs(st[i, total - i]) ** 2
            for i in range(max(0, total - n + 1), min(total, n - 1) + 1)
        )
        mass_out = sum(
            abs(out[i, total - i]) ** 2
            for i in range(max(0, total - n + 1), min(total, n - 1) + 1)
        )
        assert abs(mass_in - mass_out) < 1e-12


def test_heralded_subtract_on_vacuum_is_degenerate():
    # on one component a subtraction has no sector to herald from: an empty table
    for trunc in (1, 6):
        out = channel.heralded_op(fock.basis(0, trunc), 0.01, "subtract")
        assert out.trunc == trunc and not out.amps.any()
        with pytest.raises(DegenerateStateError):
            fock.normalize(out)


def test_heralded_add_on_vacuum():
    for trunc in (1, 6):
        for gamma in (1e-3, 0.01, 0.1, 0.6):
            out = channel.heralded_op(fock.basis(0, trunc), gamma, "add")
            assert out.trunc == trunc + 1 and abs(abs(out.amps[1]) ** 2 - gamma) <= 1e-15
            assert not np.delete(out.amps, 1).any()


def test_heralded_subtract_on_coherent():
    gamma, alpha = 0.01, 1.0
    v = fock.coherent(alpha, 40)
    prob = channel.heralded_op(v, gamma, "subtract").norm() ** 2
    want = gamma * alpha * alpha * math.exp(-gamma * alpha * alpha)
    assert abs(prob - want) < 1e-12


def test_kraus_subtract_on_one():
    out = channel.kraus_apply(fock.basis(1, 5), 0.2, "subtract")
    assert abs(out.amps[0] - math.sqrt(0.2)) < 1e-15
    assert abs(np.linalg.norm(out.amps) ** 2 - 0.2) < 1e-15


def test_kraus_add_on_vacuum():
    out = channel.kraus_apply(fock.basis(0, 5), 0.2, "add")
    assert abs(out.amps[1] - math.sqrt(0.2)) < 1e-15


def test_kraus_small_gamma_approaches_ladder():
    v, _ = fock.normalize(fock.FockVector(coherent_column(1.2, 30)))
    for kind in ("add", "subtract"):
        k = channel.kraus_apply(v, 1e-6, kind)
        ideal = fock.ladder(v, kind)
        assert k.trunc == ideal.trunc
        diff = k.amps / math.sqrt(1e-6) - ideal.amps
        assert np.max(np.abs(diff)) < 1e-4


def test_kraus_norm_equals_herald_probability(rng):
    for gamma in (0.001, 0.01, 0.1):
        for _ in range(4):
            amps = rng.normal(size=18) + 1j * rng.normal(size=18)
            v, _ = fock.normalize(fock.FockVector(amps))
            for kind in ("add", "subtract"):
                prob = channel.heralded_op(v, gamma, kind).norm() ** 2
                kr = channel.kraus_apply(v, gamma, kind)
                assert abs(prob - np.linalg.norm(kr.amps) ** 2) < 1e-10


@pytest.mark.parametrize("spec", [ScsSpec(0.3, 1, 0), ScsSpec(2.0, 3, 1), ScsSpec(4.5, 4, 3),
                                  HesSpec(1.0, 3, 1), HesSpec(3.5, 2, 0)])
def test_heralded_branch_has_the_kraus_width_and_norm(spec):
    # one contract for both stages: the raw branch, an addition one wider; gamma over the
    # circuit benchmark's range (at gamma >= 0.3 and alpha >= 4.5 the sector sums of the
    # circuit stage lose digits, up to 3e-13 relative in p)
    n = max(30, fock.auto_trunc(spec.alpha, additions=2))
    v = states.build(spec, n)
    for gamma in (1e-3, 0.01, 0.1):
        for kind in ("add", "subtract"):
            out = channel.heralded_op(v, gamma, kind)
            kr = channel.kraus_apply(v, gamma, kind)
            assert out.amps.shape == kr.amps.shape == v.amps.shape[:-1] + (n + (kind == "add"),)
            p_kraus = np.linalg.norm(kr.amps) ** 2
            assert abs(np.linalg.norm(out.amps) ** 2 - p_kraus) <= 1e-14 * p_kraus


def test_kraus_apply_acts_row_by_row():
    stack = fock.FockVector(np.array([[0.6, 0.0, 0.8j], [0.0, 1.0, 2.0]]))
    for kind in ("add", "subtract"):
        out = channel.kraus_apply(stack, 0.1, kind)
        for n in range(2):
            row = fock.FockVector(stack.amps[n])
            assert np.array_equal(out.amps[n], channel.kraus_apply(row, 0.1, kind).amps)


@pytest.mark.parametrize("gamma", [1e-3, 0.1, 0.6])
@pytest.mark.parametrize("kind", ["add", "subtract"])
def test_kraus_apply_is_bit_identical_to_the_ladder_stage(rng, kind, gamma):
    for shape in ((1,), (2,), (17,), (80,), (2, 1), (2, 30), (3, 7), (3, 81)):
        v = fock.FockVector(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        out = channel.kraus_apply(v, gamma, kind)
        assert np.array_equal(out.amps, kraus_stage(v, gamma, kind)), shape


def test_bs_apply_on_row_stack_matches_per_row(rng):
    amps = rng.normal(size=(3, 9, 7)) + 1j * rng.normal(size=(3, 9, 7))
    amps /= np.linalg.norm(amps)
    out = bs_apply(amps, 0.3)
    assert out.shape == (3, 9, 7)
    for r in range(3):
        assert np.max(np.abs(out[r] - bs_apply(amps[r], 0.3))) <= 1e-14


def test_heralded_op_heralds_hybrid_rows_globally():
    # oracle: each row through its own beam splitter, then one herald over all rows
    n, gamma = 24, 0.05
    h = states.hes_state(HesSpec(1.0, 3, 1), n)
    for kind, anc_in, anc_out in (("add", 1, 0), ("subtract", 0, 1)):
        branches = []
        for r in h.amps:
            joint = np.zeros((n + 2, n + 2), complex)
            joint[:n, anc_in] = r
            branches.append(bs_apply(joint, gamma)[:, anc_out])
        want = np.array(branches)
        want_p = np.linalg.norm(want) ** 2
        out = channel.heralded_op(h, gamma, kind)
        assert not want[:, out.trunc:].any()
        assert abs(out.norm() ** 2 - want_p) <= 1e-14 * want_p
        assert np.max(np.abs(out.amps - want[:, : out.trunc])) < 1e-14 * math.sqrt(want_p)
        assert abs(out.norm() ** 2 - np.linalg.norm(channel.kraus_apply(h, gamma, kind).amps) ** 2) < 1e-12


def _bs_apply_stage(v, gamma, kind):
    # oracle: the full two-mode unitary on a grid two wider, then the herald on one ancilla
    # column; the raw branch, cut to the stage's width (past it the oracle is exactly 0)
    dim = v.trunc + 2
    anc_in, anc_out = (1, 0) if kind == "add" else (0, 1)
    joint = np.zeros(v.amps.shape[:-1] + (dim, dim), complex)
    joint[..., : v.trunc, anc_in] = v.amps
    branch = bs_apply(joint, gamma)[..., anc_out]
    width = v.trunc + anc_in
    assert not branch[..., width:].any()
    return branch[..., :width]


@pytest.mark.parametrize("n, alpha", [(6, 0.1), (30, 2.0), (81, 5.0), (140, 5.0)])
def test_heralded_op_matches_bs_apply_branch(n, alpha, rng):
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    inputs = (
        fock.normalize(fock.FockVector(amps))[0],
        states.scs_state(ScsSpec(alpha, 3, 1), n),  # two sectors in three empty
        states.hes_state(HesSpec(alpha, 3, 1), n),  # a row stack
    )
    for v in inputs:
        for gamma in (1e-3, 0.05, 0.61):
            for kind in ("add", "subtract"):
                want = _bs_apply_stage(v, gamma, kind)
                want_p = np.linalg.norm(want) ** 2
                out = channel.heralded_op(v, gamma, kind)
                assert out.amps.shape == want.shape
                assert np.max(np.abs(out.amps - want)) <= 1e-13 * math.sqrt(want_p)
                assert abs(out.norm() ** 2 - want_p) <= 1e-13 * want_p


def test_herald_table_is_read_only():
    for anc_in, anc_out in ((1, 0), (0, 1)):
        for a in channel._herald_table(7 + anc_in):  # the sectors of a stage on 8 components
            with pytest.raises(ValueError):
                a[0] = 1


@pytest.mark.parametrize("n, alpha", [(30, 2.0), (81, 3.0)])
def test_heralded_op_matches_bs_apply_branch_at_large_theta(n, alpha, rng):
    # theta near pi/2, where the first-order factor 1 + i theta delta of each term is largest;
    # alpha is kept where p is not tiny, since at alpha 5 both routes lose digits to cancellation
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    inputs = (fock.normalize(fock.FockVector(amps))[0], states.scs_state(ScsSpec(alpha, 3, 1), n),
              states.hes_state(HesSpec(alpha, 3, 1), n))
    for v in inputs:
        for gamma in (0.9, 0.99):
            for kind in ("add", "subtract"):
                want = _bs_apply_stage(v, gamma, kind)
                want_p = np.linalg.norm(want) ** 2
                out = channel.heralded_op(v, gamma, kind)
                assert np.max(np.abs(out.amps - want)) <= 1e-13 * math.sqrt(want_p)
                assert abs(out.norm() ** 2 - want_p) <= 1e-13 * want_p


def test_sector_spectrum_is_the_integers():
    # on sector N the generator is 2 J_x of spin N/2: eigenvalues N, N - 2, ..., -N
    for total in range(161):
        lam, _ = channel._sector_eig(total)
        assert np.max(np.abs(lam - np.arange(-total, total + 1, 2))) <= 1e-12, total


@pytest.mark.parametrize("shift, raises", [(5e-10, False), (2e-9, True)])
def test_herald_table_guards_the_eigenvalue_residual(monkeypatch, shift, raises):
    # an eigensystem whose spectrum is off the integers by more than 1e-9 is refused
    exact = channel._sector_eig

    def perturbed(total):
        lam, vec = exact(total)
        return lam + shift * (total == 5), vec

    monkeypatch.setattr(channel, "_sector_eig", perturbed)
    monkeypatch.setattr(channel, "_HERALD", EMPTY_TABLE)
    v = fock.coherent(1.0, 8)
    if raises:
        with pytest.raises(ArithmeticError):
            channel.heralded_op(v, 0.1, "add")
    else:
        channel.heralded_op(v, 0.1, "add")


def test_narrow_stage_reads_a_prefix_of_the_grown_table(monkeypatch, rng):
    inputs = [fock.FockVector(rng.normal(size=shape) + 1j * rng.normal(size=shape))
              for shape in ((1,), (2,), (30,), (3, 17))]
    for gamma in (1e-3, 0.3, 0.99):
        for kind in ("add", "subtract"):
            for v in inputs:
                monkeypatch.setattr(channel, "_HERALD", EMPTY_TABLE)
                fresh = channel.heralded_op(v, gamma, kind).amps
                assert channel._HERALD[-1].size == v.trunc - (kind == "subtract")  # this stage's only
                channel.heralded_op(fock.coherent(5.0, 81), 0.1, "add")
                table = channel._HERALD
                served = channel.heralded_op(v, gamma, kind).amps
                assert channel._HERALD is table and table[-1].size == 81
                assert np.array_equal(served, fresh)


def test_heralded_output_matches_kraus_state(rng):
    amps = rng.normal(size=14) + 1j * rng.normal(size=14)
    v, _ = fock.normalize(fock.FockVector(amps))
    for kind in ("add", "subtract"):
        out, _ = fock.normalize(channel.heralded_op(v, 0.05, kind))
        kr, _ = fock.normalize(channel.kraus_apply(v, 0.05, kind))
        assert abs(abs(fock.inner(out, kr)) - 1.0) < 1e-12


def test_double_addition_success_on_vacuum():
    gamma = 0.01
    got = channel.scheme_success_prob(fock.basis(0, 8), Scheme.ADAG2, gamma)
    want = 2.0 * gamma * gamma * (1.0 - gamma)
    assert abs(got - want) < 1e-15
    # and the circuit route reproduces it: the squared norm of the cascaded raw branch
    st = channel.heralded_op(fock.basis(0, 8), gamma, "add")
    st2 = channel.heralded_op(st, gamma, "add")
    assert abs(st2.norm() ** 2 - want) < 1e-15


def test_add_then_subtract_success_on_vacuum():
    gamma = 0.01
    got = channel.scheme_success_prob(fock.basis(0, 8), Scheme.AADAG, gamma)
    assert abs(got - gamma * gamma) < 1e-15


def test_hes_success_independent_of_qudit_index():
    for s in Scheme:
        probs = [
            channel.scheme_success_prob(states.hes_state(HesSpec(1.0, 3, k), 30), s, 0.01)
            for k in range(3)
        ]
        assert max(probs) - min(probs) <= 1e-12


def test_sim_vs_kraus_scs_agreement():
    for d in (2, 3, 4):
        for alpha in (0.5, 1.0, 2.0):
            for s in Scheme:
                p_sim, p_kraus, fid = channel.compare_sim_vs_kraus(
                    ScsSpec(alpha, d, 0), s, 0.01, 30
                )
                assert abs(p_sim - p_kraus) <= 1e-8 * p_kraus
                assert fid >= 1.0 - 1e-10


def test_sim_vs_kraus_hes_agreement():
    for d in (2, 3, 4):
        for s in Scheme:
            p_sim, p_kraus, fid = channel.compare_sim_vs_kraus(
                HesSpec(1.0, d, d - 1), s, 0.01, 30
            )
            assert abs(p_sim - p_kraus) <= 1e-8 * p_kraus
            assert fid >= 1.0 - 1e-10


def test_threads_growing_the_herald_table_get_the_serial_bits(monkeypatch, rng):
    # threads that grow the table at once may repeat work, but each stage must read a whole table;
    # each sector is diagonalized once, so a regrowth costs its table building, not 81 eigh
    cases = [(fock.FockVector(rng.normal(size=n) + 1j * rng.normal(size=n)), kind)
             for n in (1, 5, 17, 30, 45, 60, 81) for kind in ("add", "subtract")]
    want = [channel.heralded_op(v, 0.3, kind).amps for v, kind in cases]
    monkeypatch.setattr(channel, "_sector_eig", functools.cache(channel._sector_eig))
    monkeypatch.setattr(channel, "_HERALD", EMPTY_TABLE)
    bad = []

    def work(seed):
        order = np.random.default_rng(seed).permutation(len(cases))
        for _ in range(200):
            if seed == 0:  # racing growths can leave a narrower table; this is the narrowest
                channel._HERALD = EMPTY_TABLE
            for i in order:
                try:
                    out = channel.heralded_op(cases[i][0], 0.3, cases[i][1]).amps
                except Exception as exc:  # a thread's exception would not reach the test
                    bad.append(exc)
                else:
                    if not np.array_equal(out, want[i]):
                        bad.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not bad


def test_sim_vs_kraus_overlap_is_that_of_the_normalized_branches(rng):
    # oracle: both raw branches through fock.normalize and fock.inner
    for _ in range(20):
        alpha, d, gamma = rng.uniform(0.2, 4.0), int(rng.integers(1, 5)), 10 ** rng.uniform(-3, 0)
        k, s = int(rng.integers(d)), list(Scheme)[int(rng.integers(2))]
        n = max(30, fock.auto_trunc(alpha, additions=2))
        for spec in (ScsSpec(alpha, d, k), HesSpec(alpha, d, k)):
            v = states.build(spec, n)
            sim, kr = (channel._cascade(v, s, gamma, stage)
                       for stage in (channel.heralded_op, channel.kraus_apply))
            (sim_n, n_sim), (kr_n, n_kr) = fock.normalize(sim), fock.normalize(kr)
            p_sim, p_kraus, overlap = channel.compare_sim_vs_kraus(spec, s, gamma, n)
            assert (p_sim, p_kraus) == (n_sim**2, n_kr**2)
            assert abs(overlap - abs(fock.inner(sim_n, kr_n)) ** 2) <= 1e-15


def test_sim_vs_kraus_refuses_a_zero_branch(monkeypatch):
    zero_branch = lambda v, gamma, kind: fock.FockVector(np.zeros(v.trunc + 1))  # noqa: E731
    monkeypatch.setattr(channel, "heralded_op", zero_branch)
    with pytest.raises(DegenerateStateError):
        channel.compare_sim_vs_kraus(ScsSpec(1.0, 2, 0), Scheme.AADAG, 0.01, 20)


def test_small_gamma_output_approaches_ideal_word():
    from catamp import amplify

    spec = ScsSpec(1.0, 4, 0)
    v = states.scs_state(spec, 30)
    sim_state, _ = fock.normalize(channel._cascade(v, Scheme.AADAG, 1e-4, channel.heralded_op))
    ideal, _ = amplify.apply_word(v, amplify.AADAG)
    assert abs(fock.inner(ideal, sim_state)) ** 2 >= 1.0 - 1e-3


def test_success_probability_grows_with_amplitude():
    for s in Scheme:
        for d, k in ((3, 0), (3, 2)):
            probs = [
                channel.scheme_success_prob(
                    states.scs_state(ScsSpec(a, d, k), 40), s, 0.01
                )
                for a in np.arange(1.5, 2.51, 0.25)
            ]
            assert all(b > a for a, b in zip(probs, probs[1:]))
        probs = [
            channel.scheme_success_prob(states.hes_state(HesSpec(a, 3, 1), 40), s, 0.01)
            for a in np.arange(1.5, 2.51, 0.25)
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))


def test_bs_apply_matches_dense_exponential(rng):
    # oracle: exp[i theta (a† b + a b†)] built with np.kron and eigendecomposition
    from conftest import create, destroy

    n = 7
    gamma = 0.23
    theta = math.asin(math.sqrt(gamma))
    g = np.kron(create(n), destroy(n)) + np.kron(destroy(n), create(n))
    lam, vec = np.linalg.eigh(g)
    u = (vec * np.exp(1j * theta * lam)) @ vec.conj().T
    amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    amps /= np.linalg.norm(amps)
    dense_out = (u @ amps.reshape(-1)).reshape(n, n)
    sector_out = bs_apply(amps, gamma)
    # sectors with total photon number beyond the square grid differ from the
    # untruncated unitary; compare only the complete ones
    mask = np.add.outer(np.arange(n), np.arange(n)) <= n - 1
    assert np.max(np.abs((dense_out - sector_out)[mask])) < 1e-12


def test_bs_apply_matches_dense_exponential_on_every_sector(rng):
    # oracle: expm of the truncated kron generator, which is block-diagonal by
    # photon number on the grid, incomplete sectors included
    from scipy.linalg import expm

    import oracles
    from conftest import create, destroy

    ns, na, gamma = 6, 4, 0.23
    theta = math.asin(math.sqrt(gamma))
    g = np.kron(create(ns), destroy(na)) + np.kron(destroy(ns), create(na))
    u = expm(1j * theta * g)
    amps = np.zeros((2, ns, na), complex)
    amps[:, :, :2] = rng.normal(size=(2, ns, 2)) + 1j * rng.normal(size=(2, ns, 2))
    amps[:, 2:4, :] = 0.0  # sector 3 empty; sectors 7 and 8 empty as well
    out = bs_apply(amps, gamma)
    for r in range(2):
        want = (u @ amps[r].reshape(-1)).reshape(ns, na)
        assert np.max(np.abs(out[r] - want)) < 1e-12
    # the cache is gamma-free: a refill at another gamma gives the same bits
    oracles._sector_eig.cache_clear()
    bs_apply(amps, 0.61)
    assert np.array_equal(bs_apply(amps, gamma), out)
    lam, vec = oracles._sector_eig(3, 0, 3)
    with pytest.raises(ValueError):
        lam[0] = 1.0
    with pytest.raises(ValueError):
        vec[0, 0] = 1.0


def test_large_amplitude_circuit_touches_only_complete_sectors(monkeypatch):
    # alpha = 7 at N = 140; a heralded stage fills ancilla column 0 or 1 only,
    # so every sector it reaches is complete, and the growing herald table
    # diagonalizes each photon number once
    built = []
    exact = channel._sector_eig

    def spy(total):
        built.append(total)
        return exact(total)

    monkeypatch.setattr(channel, "_HERALD", EMPTY_TABLE)  # a grown table would hide its sectors
    monkeypatch.setattr(channel, "_sector_eig", spy)
    for spec in (ScsSpec(7.0, 2, 0), HesSpec(7.0, 3, 1)):
        for s in Scheme:
            p_sim, p_kraus, fid = channel.compare_sim_vs_kraus(spec, s, 0.01, 140)
            assert abs(p_sim - p_kraus) <= 1e-8 * p_kraus
            assert fid >= 1.0 - 1e-10
    assert sorted(built) == list(range(1, max(built) + 1))
    assert all(exact(total)[0].size == total + 1 for total in built)


def test_hybrid_circuit_matches_three_index_tensor():
    # oracle: simulate DV x CV x ancilla as one flat tensor with dense kron ops
    from conftest import create, destroy

    d, alpha, gamma = 3, 1.0, 0.01
    n = 24
    spec = HesSpec(alpha, d, 1)
    h = states.hes_state(spec, n)
    theta = math.asin(math.sqrt(gamma))
    g = np.kron(create(n), destroy(n)) + np.kron(destroy(n), create(n))
    lam, vec = np.linalg.eigh(g)
    u = (vec * np.exp(1j * theta * lam)) @ vec.conj().T

    def stage(rows, kind):
        anc_in = 1 if kind == "add" else 0
        anc_out = 0 if kind == "add" else 1
        outs = []
        for r in rows:
            joint = np.zeros((n, n), complex)
            joint[:, anc_in] = r
            mixed = (u @ joint.reshape(-1)).reshape(n, n)
            outs.append(mixed[:, anc_out])
        p = sum(np.linalg.norm(o) ** 2 for o in outs)
        return [o / math.sqrt(p) for o in outs], p

    for s, kinds in ((Scheme.AADAG, ("add", "subtract")), (Scheme.ADAG2, ("add", "add"))):
        rows = [h.amps[i] for i in range(d)]
        rows, p1 = stage(rows, kinds[0])
        rows, p2 = stage(rows, kinds[1])
        p_sim, p_kraus, fid = channel.compare_sim_vs_kraus(spec, s, gamma, n)
        assert abs(p_sim - p1 * p2) <= 1e-12 * p_sim
        assert abs(p_kraus - p1 * p2) <= 1e-10 * p_kraus
        # output state from the tensor oracle vs the library's kraus route
        lib_rows = [channel._cascade(fock.FockVector(h.amps[i]), s, gamma, channel.kraus_apply)
                    for i in range(d)]
        width = max(r.trunc for r in lib_rows)
        lib = np.zeros((d, width), complex)
        for i, r in enumerate(lib_rows):
            lib[i, : r.trunc] = r.amps
        lib /= np.linalg.norm(lib)
        orc = np.zeros((d, width), complex)
        for i, r in enumerate(rows):
            orc[i, : len(r)] = r
        assert abs(np.vdot(orc, lib)) ** 2 >= 1.0 - 1e-10


def test_qudit_index_spread_shrinks_with_amplitude():
    def spread(alpha, s):
        probs = [
            channel.scheme_success_prob(
                states.scs_state(ScsSpec(alpha, 4, k), 40), s, 0.01
            )
            for k in range(4)
        ]
        return max(probs) - min(probs)

    for s in Scheme:
        assert spread(0.2, s) >= 5.0 * spread(2.0, s)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(alpha=st.floats(1e-3, 8.0), d=st.integers(1, 12),
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       hybrid=st.booleans(), s=st.sampled_from(list(Scheme)), data=st.data())
def test_success_probability_is_a_probability(alpha, d, gamma, hybrid, s, data):
    # cat and hybrid inputs on the sweep's own truncation, gamma across (0, 1)
    k = data.draw(st.integers(0, d - 1))
    trunc = max(30, fock.auto_trunc(alpha, additions=2))
    v = (states.hes_state(HesSpec(alpha, d, k), trunc) if hybrid
         else states.scs_state(ScsSpec(alpha, d, k), trunc))
    p = channel.scheme_success_prob(v, s, gamma)
    assert 0.0 <= p <= 1.0, (alpha, d, k, gamma, hybrid, s, p)
