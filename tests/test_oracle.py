import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from antires import oracle as oracle_module
from antires.network import Mode, ModeNetwork, closed_form_two_mode, steady_state_batch
from antires.oracle import (
    CutoffConvergenceError,
    GSquaredUndefinedError,
    JCParams,
    lindblad_steady_state,
    linear_limit_check,
    steady_density_matrix,
)
from helpers import random_network

REF = dict(gamma=3.0, kappa=1.5, g=16.0)


def photon_number_from_diag(rho, cutoff):
    """Independent <n>: populations weighted by the photon ladder.

    Basis ordering is emitter (2) tensor resonator (cutoff+1), photon index
    fastest. Computing this from the raw diagonal cross-checks the module's
    own operator algebra.
    """
    nf = cutoff + 1
    pops = np.real(np.diag(rho))
    ladder = np.tile(np.arange(nf, dtype=float), 2)
    assert pops.size == 2 * nf
    return float(pops @ ladder)


# --------------------------------------------------------------- validation


def test_params_validation():
    with pytest.raises(ValueError):
        JCParams(gamma=0.0, kappa=1.5, g=16.0)
    with pytest.raises(ValueError):
        JCParams(gamma=3.0, kappa=-1.0, g=16.0)
    with pytest.raises(ValueError):
        JCParams(gamma=3.0, kappa=1.5, g=16.0, eta=-0.1)
    for cutoff in (0, 2.5, 4.0, True):
        with pytest.raises(ValueError):
            JCParams(gamma=3.0, kappa=1.5, g=16.0, cutoff=cutoff)
    for gamma in (True, "3", None):
        with pytest.raises(ValueError, match="gamma"):
            JCParams(gamma=gamma, kappa=1.5, g=16.0)
    for eta in (False, "0.1"):
        with pytest.raises(ValueError, match="eta"):
            JCParams(gamma=3.0, kappa=1.5, g=16.0, eta=eta)


@pytest.mark.parametrize("field", ["gamma", "kappa", "g", "delta_pe", "delta_pr", "eta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1.0"])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        JCParams(**{"gamma": 3.0, "kappa": 1.5, "g": 16.0, field: value})


def test_density_matrix_validity_invariants():
    # hermitian, unit trace, positive semidefinite at every solve
    for eta in (0.015, 0.45, 1.5):
        for d in (0.0, 3.0, -16.0):
            rho = steady_density_matrix(
                JCParams(delta_pe=d, delta_pr=d, eta=eta, **REF).network, cutoff=6
            )
            assert np.allclose(rho, rho.conj().T, atol=1e-10)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            eigs = np.linalg.eigvalsh(rho)
            assert eigs.min() > -1e-10


def test_hermiticity_check_tests_the_solved_middle_block(monkeypatch):
    # D < 0 is mirrored from D > 0, but the D = 0 block is written as solved:
    # an anti-Hermitian error there keeps the trace and the spectrum and must
    # still be caught
    network = JCParams(delta_pe=3.0, eta=0.45, **REF).network
    layout = oracle_module._block_layout(("emitter", "resonator"), 6)
    p = int(np.flatnonzero(layout.mirror0 != np.arange(layout.mirror0.size))[0])
    solve = np.linalg.solve

    def skewed_solve(a, b):
        x = solve(a, b)
        if b.ndim == 1:  # the D = 0 Schur complement; the folds solve for matrices
            x[p] += 1e-6
            x[layout.mirror0[p]] -= 1e-6
        return x

    monkeypatch.setattr(oracle_module.np.linalg, "solve", skewed_solve)
    with pytest.raises(oracle_module.DensityMatrixError,
                       match=r"hermiticity defect 2\.00e-06, trace defect \S+e-1[0-9]"):
        steady_density_matrix(network, 6)
    monkeypatch.undo()
    steady_density_matrix(network, 6)


def kron_reference_density_matrix(params, cutoff):
    """Steady state from the textbook column-stacking Liouvillian.

    Built with ``np.kron`` from vec(A X B) = (B^T (x) A) vec(X), independent
    of the module's operators; basis emitter (2, lowering 1 -> 0) tensor
    resonator (cutoff+1), with the trace constraint replacing the first row.
    """
    nf = cutoff + 1
    a = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, nf)), k=1))
    sm = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(nf))
    ad, sp = a.T, sm.T
    h = (
        -params.delta_pr * ad @ a
        - params.delta_pe * sp @ sm
        + params.g * (ad @ sm + a @ sp)
        + params.eta * (a + ad)
    )
    dim = 2 * nf
    eye = np.eye(dim)
    lv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, c in ((params.kappa, a), (params.gamma, sm)):
        c = math.sqrt(2.0 * rate) * c
        cdc = c.conj().T @ c
        lv = lv + np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye)
    lv[0, :] = 0.0
    lv[0, :: dim + 1] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(lv, rhs).reshape(dim, dim, order="F")


def test_block_solve_matches_kron_reference():
    rng = np.random.default_rng(5)
    for cutoff in range(1, 13):
        draws = [
            dict(g=0.0, delta_pe=rng.uniform(-20, 20), delta_pr=rng.uniform(-20, 20), eta=1.0),
            dict(g=rng.uniform(-20, 20), delta_pe=2.0, delta_pr=-1.0, eta=0.0),
        ] + [
            dict(g=rng.uniform(-20, 20), delta_pe=rng.uniform(-20, 20),
                 delta_pr=rng.uniform(-20, 20), eta=rng.uniform(0.0, 3.0))
            for _ in range(3)
        ]
        if cutoff == 12:  # strong drive: eta/kappa = 5 fills every D block
            draws.append(dict(g=16.0, delta_pe=rng.uniform(-20, 20),
                              delta_pr=rng.uniform(-20, 20), eta=7.5, kappa=1.5))
        for kw in draws:
            kw = dict(gamma=rng.uniform(0.5, 4.0), kappa=rng.uniform(0.5, 4.0)) | kw
            params = JCParams(**kw)
            np.testing.assert_allclose(
                steady_density_matrix(params.network, cutoff),
                kron_reference_density_matrix(params, cutoff),
                rtol=0.0, atol=1e-12,
            )


def test_block_solve_never_forms_the_dense_liouvillian():
    # at cutoff 20 the dense (dim^2)^2 complex Liouvillian alone is 47.5 MiB;
    # the blocks and their continued fraction stay far below that
    params = JCParams(delta_pe=3.0, delta_pr=0.0, eta=1.5, **REF)
    cutoff = 20
    steady_density_matrix(params.network, cutoff)  # warm-up
    tracemalloc.start()
    try:
        steady_density_matrix(params.network, cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


# -------------------------------------------------------- linear weak drive


def test_decoupled_resonator_is_a_coherent_state():
    # g = 0: exact coherent steady state, <a> = eta/(d_pr + i kappa), g2 = 1
    params = JCParams(gamma=3.0, kappa=1.5, g=0.0, delta_pr=2.0, eta=0.05, cutoff=6)
    res = lindblad_steady_state(params)
    want = 0.05 / (2.0 + 1.5j)
    assert res.mean_field == pytest.approx(want, rel=1e-9)
    assert res.g2 == pytest.approx(1.0, abs=1e-8)
    assert res.mean_dipole == pytest.approx(0.0, abs=1e-12)
    assert res.mean_photons == pytest.approx(abs(want) ** 2, rel=1e-9)


def test_weak_drive_approaches_coupled_mode_theory():
    base = JCParams(delta_pe=3.0, delta_pr=0.0, **REF)
    report = linear_limit_check(base)
    assert report.monotone
    assert report.deviations[-1] < 1e-3  # at eta/kappa = 1e-2
    assert report.max_deviation == max(report.deviations)
    # deviation at each step shrinks roughly linearly with the drive
    ratios = [a / b for a, b in zip(report.deviations, report.deviations[1:])]
    assert all(r > 2.0 for r in ratios)


def test_monotonicity_is_judged_by_drive_strength_not_list_order():
    base = JCParams(delta_pe=3.0, delta_pr=0.0, **REF)
    ladder = (0.03, 0.3, 0.01, 0.1)
    report = linear_limit_check(base, ladder)
    assert report.monotone
    # the deviations stay in input order
    assert report.eta_over_kappa == ladder
    reference = linear_limit_check(base)
    by_ratio = dict(zip(reference.eta_over_kappa, reference.deviations))
    assert report.deviations == tuple(by_ratio[r] for r in ladder)


def test_deviation_growing_as_the_drive_weakens_is_not_monotone(monkeypatch):
    def off_by_one_over_eta(params):
        linear = closed_form_two_mode(
            params.delta_pe, params.delta_pr, params.gamma, params.kappa, params.g, params.eta
        )
        return SimpleNamespace(mean_field=linear * (1.0 + 1e-3 / params.eta))

    monkeypatch.setattr(oracle_module, "lindblad_steady_state", off_by_one_over_eta)
    base = JCParams(**REF)
    assert not linear_limit_check(base, (0.3, 0.1, 0.03, 0.01)).monotone
    assert not linear_limit_check(base, (0.01, 0.03, 0.1, 0.3)).monotone


def test_strong_drive_deviates_materially():
    base = JCParams(delta_pe=3.0, delta_pr=0.0, **REF)
    report = linear_limit_check(base, eta_over_kappa=(3.0, 0.01))
    assert report.deviations[0] > 0.5  # saturation breaks the linear model
    assert report.deviations[-1] < 1e-3


def test_mean_field_scales_linearly_at_weak_drive():
    fields = []
    for eta in (0.015, 0.0075):
        res = lindblad_steady_state(JCParams(delta_pe=3.0, delta_pr=0.0, eta=eta, **REF))
        fields.append(res.mean_field / eta)
    assert fields[0] == pytest.approx(fields[1], rel=1e-3)


def test_mean_field_matches_closed_form_to_a_percent():
    eta = 0.01 * 1.5
    res = lindblad_steady_state(JCParams(delta_pe=3.0, delta_pr=0.0, eta=eta, **REF))
    want = closed_form_two_mode(3.0, 0.0, 3.0, 1.5, 16.0, eta)
    assert abs(res.mean_field - want) / abs(want) < 0.01


def test_detuning_reflection_symmetry():
    # flipping both detunings mirrors the field: <a>(-d) = -conj(<a>(+d))
    for d in (2.0, 7.5):
        plus = lindblad_steady_state(
            JCParams(delta_pe=d, delta_pr=d - 3.0, eta=0.75, **REF)
        )
        minus = lindblad_steady_state(
            JCParams(delta_pe=-d, delta_pr=-(d - 3.0), eta=0.75, **REF)
        )
        assert minus.mean_field == pytest.approx(
            -np.conj(plus.mean_field), rel=1e-10, abs=1e-12
        )
        assert minus.mean_photons == pytest.approx(plus.mean_photons, rel=1e-10)


# ----------------------------------------------------------- cutoff control


def test_cutoff_escalates_until_converged():
    res = lindblad_steady_state(
        JCParams(delta_pe=0.0, delta_pr=0.0, eta=0.015, cutoff=1, **REF), rel_tol=1e-6
    )
    assert res.cutoff_used > 1
    assert res.cutoff_delta < 1e-6


def test_cutoff_error_shrinks_monotonically():
    # strong drive keeps the truncation error above float noise through the
    # whole cutoff range, where shrinkage must be strictly monotone
    params = JCParams(delta_pe=0.0, delta_pr=0.0, eta=4.5, **REF)
    ref = photon_number_from_diag(steady_density_matrix(params.network, 22), 22)
    errs = [
        abs(photon_number_from_diag(steady_density_matrix(params.network, c), c) - ref)
        for c in range(2, 11)
    ]
    for a, b in zip(errs, errs[1:]):
        assert b < a
    assert errs[-1] < 0.05 * errs[0]


def _rungs(monkeypatch):
    """Record the cutoff of every density-matrix solve the oracle makes."""
    rungs = []
    solve = oracle_module.steady_density_matrix

    def recorded(network, cutoff):
        rungs.append(cutoff)
        return solve(network, cutoff)

    monkeypatch.setattr(oracle_module, "steady_density_matrix", recorded)
    return rungs


def test_each_rung_is_one_solve_growing_by_half_up_to_max_cutoff(monkeypatch):
    rungs = _rungs(monkeypatch)
    # weak drive: the tail at the starting cutoff is already 1e-17
    res = lindblad_steady_state(JCParams(delta_pe=0.0, delta_pr=0.0, eta=0.015, **REF))
    assert rungs == [4]
    assert res.cutoff_used == 4

    rungs.clear()
    # the tail is 8e-2 at cutoff 2 and 4e-4 at 3, and falls below 1e-4 at 5
    res = lindblad_steady_state(
        JCParams(delta_pe=0.0, delta_pr=0.0, eta=1.0, cutoff=2, **REF), max_cutoff=5
    )
    assert rungs == [2, 3, 5]
    assert res.cutoff_used == 5
    assert res.cutoff_delta < 1e-4


def test_cutoff_convergence_failure_raises(monkeypatch):
    rungs = _rungs(monkeypatch)
    strong = JCParams(delta_pe=0.0, delta_pr=0.0, eta=4.5, cutoff=2, **REF)
    with pytest.raises(CutoffConvergenceError, match="tail .* at cutoff 5"):
        lindblad_steady_state(strong, max_cutoff=5)
    assert rungs == [2, 3, 5]
    with pytest.raises(ValueError):
        lindblad_steady_state(JCParams(cutoff=40, **REF), max_cutoff=40)


@pytest.mark.parametrize("ratio", [3.0, 3.5])
def test_strong_drive_moments_match_a_cutoff_40_solve(ratio):
    # the worst errors the one-photon ladder (stop on a 1e-3 change of <n>)
    # made against cutoff 40 over eta/kappa 0.3..3.5 and probes -20..20 MHz
    worst_n, worst_a = 9.1e-4, 5.8e-4
    lowering = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, 41.0)), 1))
    for probe in (-20.0, -10.0, 0.0, 10.0, 20.0):
        params = JCParams(delta_pe=probe, delta_pr=probe, eta=ratio * 1.5, **REF)
        res = lindblad_steady_state(params)
        assert res.cutoff_delta < 1e-4
        rho = steady_density_matrix(params.network, 40)
        n_ref = photon_number_from_diag(rho, 40)
        a_ref = np.trace(rho @ lowering)
        assert abs(res.mean_photons - n_ref) <= worst_n * n_ref
        assert abs(res.mean_field - a_ref) <= worst_a * abs(a_ref)


@pytest.mark.parametrize("rel_tol", [math.nan, -1.0, 0.0, math.inf, "1e-3"])
def test_rel_tol_is_refused_before_any_escalation(rel_tol, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before checking rel_tol")

    monkeypatch.setattr(oracle_module, "_moments", no_solve)
    params = JCParams(delta_pe=0.0, delta_pr=0.0, eta=0.015, cutoff=4, **REF)
    with pytest.raises(ValueError, match="rel_tol"):
        lindblad_steady_state(params, rel_tol=rel_tol)


@pytest.mark.parametrize("ratio", [math.nan, math.inf, -0.1, 0.0])
def test_linear_limit_check_refuses_a_bad_drive_ratio(ratio):
    with pytest.raises(ValueError, match="eta/kappa ratios") as info:
        linear_limit_check(JCParams(**REF), (0.1, ratio))
    assert repr(ratio) in str(info.value)


@pytest.mark.parametrize("max_cutoff", [True, 7.5, "9", 4])
def test_max_cutoff_must_be_an_integer_above_the_start(max_cutoff):
    params = JCParams(delta_pe=0.0, delta_pr=0.0, eta=0.015, cutoff=4, **REF)
    with pytest.raises(ValueError, match="max_cutoff"):
        lindblad_steady_state(params, max_cutoff=max_cutoff)


def test_numpy_integer_cutoffs_are_stored_and_reported_as_int():
    params = JCParams(delta_pe=0.0, delta_pr=0.0, eta=0.015, cutoff=np.int64(2), **REF)
    assert type(params.cutoff) is int
    result = lindblad_steady_state(params, max_cutoff=np.int64(12))
    assert type(result.cutoff_used) is int
    json.dumps(result.to_report())


def test_undriven_state_has_no_g2():
    with pytest.raises(GSquaredUndefinedError):
        lindblad_steady_state(JCParams(delta_pe=0.0, delta_pr=0.0, eta=0.0, **REF))
    # <n> ~ 1e-278 is positive, but <n>^2 underflows to zero
    with pytest.raises(GSquaredUndefinedError):
        lindblad_steady_state(JCParams(delta_pe=0.0, delta_pr=0.0, eta=9e-138, **REF))


# -------------------------------------------------------- photon statistics


def test_moment_inequalities():
    for eta in (0.015, 0.45):
        for d in (0.0, 15.0):
            res = lindblad_steady_state(JCParams(delta_pe=d, delta_pr=d, eta=eta, **REF))
            assert res.mean_photons >= abs(res.mean_field) ** 2 - 1e-12
            assert res.g2 >= 0.0


def test_g2_regression_values():
    """Frozen photon statistics at the dip and at a normal mode.

    The emitter blockades the resonator at the antiresonance: transmitted
    light there is strongly bunched, while the hybridised modes stay close
    to coherent statistics.
    """
    eta = 0.01 * 1.5
    dip = lindblad_steady_state(
        JCParams(delta_pe=0.0, delta_pr=0.0, eta=eta, **REF)
    )
    assert dip.cutoff_used == 4
    assert dip.g2 == pytest.approx(713.5596202425027, rel=1e-6)

    split = math.sqrt(16.0**2 - ((3.0 - 1.5) / 2.0) ** 2)
    for sign in (+1.0, -1.0):
        mode = lindblad_steady_state(
            JCParams(delta_pe=sign * split, delta_pr=sign * split, eta=eta, **REF)
        )
        assert mode.g2 == pytest.approx(0.5832256330237964, rel=1e-6)
        assert dip.g2 >= 10.0 * mode.g2

    rep = dip.to_report()
    assert set(rep) >= {"mean_field_re", "mean_field_im", "mean_photons", "g2", "cutoff_used"}


# ------------------------------------------------------------ any network


def fock_states(network, cutoff):
    """The basis rule spelled out: emitters 0 or 1, resonators 0..cutoff, at
    most cutoff + (number of emitters) in all, first mode slowest."""
    kinds = [m.kind for m in network.modes]
    top = cutoff + kinds.count("emitter")
    levels = [range(2) if kind == "emitter" else range(cutoff + 1) for kind in kinds]
    return [s for s in itertools.product(*levels) if sum(s) <= top]


def lowering_operators(network, cutoff):
    """Dense a_j on the truncated basis, built by looking up each lowered state."""
    states = fock_states(network, cutoff)
    index = {s: i for i, s in enumerate(states)}
    ops = np.zeros((len(network), len(states), len(states)))
    for i, s in enumerate(states):
        for j, n in enumerate(s):
            if n:
                ops[j, index[s[:j] + (n - 1,) + s[j + 1:]], i] = math.sqrt(n)
    return ops


def dense_reference_density_matrix(network, cutoff):
    """Column-stacking Liouvillian of K = -i(sum A_jk a_j^dag a_k + d a^dag +
    conj(d) a) and collapse sqrt(2 decay_j) a_j, with the trace row first."""
    ops = lowering_operators(network, cutoff)
    a = np.diag(network.frequencies - 1j * network.decays) + network.couplings
    k = -1j * (
        np.einsum("jk,jrs,kst->rt", a, ops.transpose(0, 2, 1), ops)
        + np.einsum("j,jsr->rs", network.drive, ops)
        + np.einsum("j,jrs->rs", network.drive.conj(), ops)
    )
    dim = k.shape[0]
    eye = np.eye(dim)
    lv = np.kron(eye, k) + np.kron(k.conj(), eye)
    for decay, c in zip(network.decays, ops):
        lv += 2.0 * decay * np.kron(c, c)
    lv[0, :] = 0.0
    lv[0, :: dim + 1] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(lv, rhs).reshape(dim, dim, order="F")


def mean_fields(rho, network, cutoff):
    """<a_j> = tr(rho a_j) for every mode."""
    return np.einsum("ij,kji->k", rho, lowering_operators(network, cutoff))


def emitter_pair_network(eta):
    """One resonator coupled to two emitters, driven with ``eta`` on the resonator."""
    modes = (
        Mode("cavity", "resonator", 0.0, 1.5),
        Mode("atom1", "emitter", -3.0, 3.0),
        Mode("atom2", "emitter", 4.0, 2.0),
    )
    couplings = np.array([[0.0, 16.0, 10.0], [16.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    return ModeNetwork(modes, couplings, np.array([eta, 0.0, 0.0]))


# seeds whose 3-mode random_network holds at least one emitter
EMITTER_SEEDS = (1, 2, 3, 5, 6, 7)


def seeded_network(seed, eta):
    net = random_network(np.random.default_rng(seed), 3)
    assert net.emitter_mask.any()
    return replace(net, drive=net.drive * eta)


@pytest.mark.parametrize("seed", EMITTER_SEEDS)
def test_weak_drive_fields_match_the_linear_core_on_any_network(seed):
    for net in (seeded_network(seed, 1e-3), emitter_pair_network(1e-3)):
        fields = mean_fields(steady_density_matrix(net, 2), net, 2)
        np.testing.assert_allclose(fields, steady_state_batch(net, [0.0])[0], rtol=1e-6)


@pytest.mark.parametrize("seed", EMITTER_SEEDS)
def test_block_solve_matches_dense_reference_on_any_network(seed):
    # drives of order the decays, far from the linear regime; one complex
    for net, cutoff in ((seeded_network(seed, 1.0), 3),
                        (emitter_pair_network(2.0 * np.exp(0.7j)), 3)):
        rho = steady_density_matrix(net, cutoff)
        assert rho.shape[0] == len(fock_states(net, cutoff))
        np.testing.assert_allclose(
            rho, dense_reference_density_matrix(net, cutoff), rtol=0.0, atol=1e-12
        )


def test_pair_network_is_atom_then_cavity_at_minus_the_detunings():
    net = JCParams(delta_pe=2.0, delta_pr=-1.0, eta=0.5, **REF).network
    assert net.labels == ("atom", "cavity")
    assert [m.kind for m in net.modes] == ["emitter", "resonator"]
    assert list(net.frequencies) == [-2.0, 1.0]
    assert list(net.decays) == [REF["gamma"], REF["kappa"]]
    assert list(net.drive) == [0.0, 0.5]
    assert net.couplings[0, 1] == net.couplings[1, 0] == REF["g"]


BLOCK_CASES = [
    (("emitter", "resonator"), 40), (("resonator", "emitter", "emitter"), 3),
    (("resonator", "resonator", "emitter"), 2), (("emitter",) * 3, 2),
]


@pytest.mark.parametrize("kinds, cutoff", BLOCK_CASES)
def test_block_sides_count_the_listed_states(kinds, cutoff):
    modes = tuple(Mode(f"m{i}", kind, 0.0, 1.0) for i, kind in enumerate(kinds))
    net = ModeNetwork(modes, np.zeros((len(kinds), len(kinds))), np.zeros(len(kinds)))
    totals = np.array([sum(s) for s in fock_states(net, cutoff)])
    diffs = (totals[:, None] - totals[None, :]).ravel()
    want = np.bincount(diffs - diffs.min())
    np.testing.assert_array_equal(oracle_module._block_sides(kinds, cutoff), want)
    if kinds == ("emitter", "resonator"):
        assert want.max() == 162


@pytest.mark.parametrize("kinds, cutoff", BLOCK_CASES)
def test_block_layout_stores_only_the_rows_of_the_nonnegative_blocks(kinds, cutoff):
    sides = oracle_module._block_sides(kinds, cutoff)
    top = sides.size // 2  # sides lists D = -M..M
    n = np.concatenate([sides, [0]])[top - 1 :]  # n_D for D = -1..M + 1
    layout = oracle_module._block_layout(kinds, cutoff)
    assert layout.n_stored == int(n[1:-1] @ (n[:-2] + n[1:-1] + n[2:]))
    mirror0, mirror1 = layout.mirror0, layout.mirror1
    assert mirror0.size == sides[top] and mirror1.size == sides[top - 1]
    np.testing.assert_array_equal(mirror0[mirror0], np.arange(mirror0.size))
    np.testing.assert_array_equal(np.sort(mirror1), np.arange(mirror1.size))
    # the mirrored position holds the transpose
    row, col = np.divmod(layout.order[: mirror0.size], layout.dim)
    np.testing.assert_array_equal(row[mirror0], col)


def chain_of_resonators(n_modes):
    modes = tuple(Mode(f"r{i}", "resonator", 2.0 * i, 1.0) for i in range(n_modes))
    couplings = np.diag(np.full(n_modes - 1, 5.0), 1)
    return ModeNetwork(modes, couplings + couplings.T, np.eye(n_modes)[0])


@pytest.mark.parametrize(
    "n_modes, cutoff, message",
    [
        (5, 40, "2048 entries a side"),  # C(45, 5) = 1.2 million states
        (1, 10**9, "2048 entries a side"),  # one photon ladder of 10^9 levels
        (1, 2000, "block entries"),  # 2001 a side at most, 1.6e10 entries in all
    ],
)
def test_size_guard_refuses_before_listing_states(n_modes, cutoff, message):
    net = chain_of_resonators(n_modes)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            steady_density_matrix(net, cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_density_matrix_inputs_are_checked():
    with pytest.raises(TypeError, match="ModeNetwork"):
        steady_density_matrix(JCParams(**REF), 4)
    for cutoff in (0, 2.0, True):
        with pytest.raises(ValueError, match="cutoff"):
            steady_density_matrix(JCParams(**REF).network, cutoff)
