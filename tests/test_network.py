import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antires import network as network_module
from antires.network import (
    MODE_KINDS,
    InvalidNetworkError,
    Mode,
    ModeNetwork,
    ProbeGrid,
    SingularResponseError,
    _count,
    closed_form_two_mode,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
    steady_state,
    steady_state_batch,
    steady_state_family,
)
from antires.presets import emitter_resonator, five_node_demo
from antires.spectra import MotionEnsemble

from helpers import dense_mode_matrix, random_network, traced_peak, two_mode_network


# ---------------------------------------------------------------- matrices


def response_matrix(net, probe):
    """``M(probe) = probe*I - A``, the matrix every steady-state solve inverts."""
    return probe * np.eye(len(net)) - net.matrix


def test_single_mode_matrix_on_resonance():
    net = ModeNetwork(
        modes=(Mode("c", "resonator", 0.0, 1.5),),
        couplings=np.zeros((1, 1)),
        drive=np.array([1.0 + 0j]),
    )
    m = response_matrix(net, 0.0)
    assert m.shape == (1, 1)
    assert m[0, 0] == 0.0 + 1.5j


def test_two_mode_matrix_entries():
    net = two_mode_network(delta_er=-3.0, coupling=16.0)
    m = response_matrix(net, 0.0)
    # probe - frequency on the diagonal real part, decay on the imaginary
    assert m[0, 0] == pytest.approx(0.0 + 1.5j)
    assert m[1, 1] == pytest.approx(3.0 + 3.0j)
    assert m[0, 1] == m[1, 0] == -16.0


def test_matrix_determinant_matches_closed_form_denominator():
    # det(M) should equal (dpa + i*gamma)(dpc + i*kappa) - g^2 for the
    # two-mode case; this check exercises the sign conventions end to end.
    rng = np.random.default_rng(7)
    for _ in range(10):
        f_a, f_c = rng.uniform(-30, 30, size=2)
        gam, kap = rng.uniform(0.2, 5.0, size=2)
        g = rng.uniform(0.5, 40.0)
        probe = rng.uniform(-50, 50)
        net = ModeNetwork(
            modes=(
                Mode("cavity", "resonator", float(f_c), float(kap)),
                Mode("atom", "emitter", float(f_a), float(gam)),
            ),
            couplings=np.array([[0.0, g], [g, 0.0]]),
            drive=np.array([1.0 + 0j, 0.0 + 0j]),
        )
        m = response_matrix(net, probe)
        dpa = probe - f_a
        dpc = probe - f_c
        expected = (dpa + 1j * gam) * (dpc + 1j * kap) - g * g
        assert np.linalg.det(m) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("build", [
    emitter_resonator,
    five_node_demo,
    *[pytest.param(lambda n=n: random_network(np.random.default_rng(n), n_modes=n),
                   id=f"random-{n}-modes") for n in range(1, 8)],
])
def test_stored_mode_matrix_is_bit_equal_to_an_independent_build(build):
    net = build()
    a = net.matrix
    assert a.dtype == complex and a.tobytes() == dense_mode_matrix(net).tobytes()
    assert net.frequencies.tobytes() == np.array([m.frequency for m in net.modes]).tobytes()
    assert net.decays.tobytes() == np.array([m.decay for m in net.modes]).tobytes()
    assert net.labels == tuple(m.label for m in net.modes)


# ------------------------------------------------------------ steady state


def test_empty_resonator_amplitude():
    net = two_mode_network(coupling=0.0)
    state = steady_state(net, probe=0.0)
    # a = eta / (dpc + i*kappa) = 1 / (1.5i)
    assert state.amplitude("cavity") == pytest.approx(-1j / 1.5, abs=1e-15)


def test_resonant_coupled_amplitude():
    net = two_mode_network(delta_er=0.0)
    state = steady_state(net, probe=0.0)
    # a = (0 + 3i) / ((3i)(1.5i) - 256) = 3i / (-260.5)
    assert state.amplitude("cavity") == pytest.approx(3j / -260.5, abs=1e-15)
    assert abs(state.amplitude("cavity")) < abs(-1j / 1.5) / 50


def test_decoupled_equals_empty_resonator_everywhere():
    probes = np.linspace(-40.0, 40.0, 801)
    coupled_off = steady_state_batch(two_mode_network(coupling=0.0), probes)
    for k, probe in enumerate(probes):
        bare = 1.0 / (probe + 1.5j)
        assert coupled_off[k, 0] == pytest.approx(bare, rel=1e-14)
        assert coupled_off[k, 1] == 0.0


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(0.1, 10.0),
    kappa=st.floats(0.1, 10.0),
    g=st.floats(0.0, 50.0, exclude_min=True),
    delta_pe=st.floats(-50.0, 50.0),
    delta_pr=st.floats(-50.0, 50.0),
)
def test_two_mode_solver_matches_closed_form(gamma, kappa, g, delta_pe, delta_pr):
    net = ModeNetwork(
        modes=(
            Mode("cavity", "resonator", -delta_pr, kappa),
            Mode("atom", "emitter", -delta_pe, gamma),
        ),
        couplings=np.array([[0.0, g], [g, 0.0]]),
        drive=np.array([1.0 + 0j, 0.0 + 0j]),
    )
    got = steady_state(net, probe=0.0).amplitude("cavity")
    want = closed_form_two_mode(delta_pe, delta_pr, gamma, kappa, g, 1.0)
    assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    # a subnormal drive cannot carry the 12 digits rtol asks for (IEEE, not a
    # solver defect); tiny normal drives stay covered
    re=st.floats(-4.0, 4.0, allow_subnormal=False),
    im=st.floats(-4.0, 4.0, allow_subnormal=False),
    probe=st.floats(-30.0, 30.0),
)
@example(re=0.0, im=1e-300, probe=4.0)
def test_response_linear_in_drive(re, im, probe):
    c = complex(re, im)
    if c == 0:
        c = 1.0 + 0.5j
    base = steady_state(two_mode_network(eta=1.0), probe=probe)
    scaled = steady_state(two_mode_network(eta=c), probe=probe)
    np.testing.assert_allclose(scaled.amplitudes, c * base.amplitudes, rtol=1e-12)


def test_reciprocity_of_transmission():
    """Driving j and reading k equals driving k and reading j (symmetric M)."""
    rng = np.random.default_rng(11)
    from helpers import random_network

    for _ in range(8):
        net = random_network(rng)
        n = len(net.modes)
        j, k = rng.choice(n, size=2, replace=False)
        a_jk = steady_state(net.with_drive_on(net.modes[j].label), 4.2).amplitudes[k]
        a_kj = steady_state(net.with_drive_on(net.modes[k].label), 4.2).amplitudes[j]
        assert a_jk == pytest.approx(a_kj, rel=1e-12)


def test_coupling_sign_flip_leaves_driven_mode_unchanged():
    probes = np.linspace(-25.0, 25.0, 301)
    plus = steady_state_batch(two_mode_network(coupling=16.0), probes)
    minus = steady_state_batch(two_mode_network(coupling=-16.0), probes)
    np.testing.assert_allclose(minus[:, 0], plus[:, 0], rtol=1e-14)
    np.testing.assert_allclose(minus[:, 1], -plus[:, 1], rtol=1e-14)


def test_mirror_symmetry_when_degenerate():
    # with both modes at the same frequency, |a(+d)| = |a(-d)|
    net = two_mode_network(delta_er=0.0)
    up = steady_state(net, probe=7.3).amplitude("cavity")
    down = steady_state(net, probe=-7.3).amplitude("cavity")
    assert abs(up) == pytest.approx(abs(down), rel=1e-13)
    assert up == pytest.approx(-np.conj(down), rel=1e-13)


def test_batch_matches_loop_of_single_solves():
    net = two_mode_network()
    probes = np.linspace(-20.0, 20.0, 41)
    batch = steady_state_batch(net, probes)
    for k, probe in enumerate(probes):
        single = steady_state(net, probe=probe)
        np.testing.assert_array_equal(batch[k], single.amplitudes)


@st.composite
def _network_and_probes(draw):
    """A random 1-7-mode network and probes that include mode 0's frequency and
    one far from it.  At two modes ``|g|`` beats ``|re| + |im|`` of ``M[0, 0]``
    (the decay) at the first, so ``g**2`` outweighs the diagonal's product in
    ``det(M)`` there, and not at the second.

    Hypothesis picks the structure (mode count, kinds, which couplings and drive
    amplitudes are zero); the values come from a seeded generator, so products
    round (small round numbers multiply exactly and would hide a rounding slip).
    """
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(MODE_KINDS), min_size=n, max_size=n))
    freqs = rng.uniform(-30.0, 30.0, n)
    decays = rng.uniform(0.05, 10.0, n)
    c = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            if (j, k) == (0, 1):  # g**2 outweighs det(M)'s diagonal product at mode 0
                c[j, k] = rng.choice((-1.0, 1.0)) * (decays[0] + rng.uniform(0.5, 40.0))
            elif draw(st.booleans()):
                c[j, k] = rng.uniform(-40.0, 40.0)
            c[k, j] = c[j, k]
    driven = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    driven[draw(st.integers(0, n - 1))] = True
    drive = np.where(driven, rng.normal(size=n) + 1j * rng.normal(size=n), 0.0)
    net = ModeNetwork(tuple(Mode(f"m{j}", kind, float(f), float(d)) for j, (kind, f, d)
                            in enumerate(zip(kinds, freqs, decays))), c, drive)
    far = freqs[0] + abs(c[0, 1]) + 1.0 if n > 1 else freqs[0] + 1.0
    return net, np.concatenate([[freqs[0], far], rng.uniform(-60.0, 60.0, 12)])


@settings(max_examples=150, deadline=None)
@given(_network_and_probes())
def test_single_solve_bit_equals_its_batch_row(case):
    # the adjugate up to two modes, the Hessenberg elimination above: either way one
    # system alone and in a batch chunk of (units, probes) arrays give the same bits
    net, probes = case
    if len(net) == 2:
        coupling_wins = [abs(net.couplings[0, 1]) > abs(p - net.frequencies[0]) + net.decays[0]
                         for p in probes[:2]]
        assert coupling_wins == [True, False]
    batch = steady_state_batch(net, probes)
    for k, probe in enumerate(probes):
        assert steady_state(net, probe).amplitudes.tobytes() == batch[k].tobytes()


@pytest.mark.parametrize("g", [0.0, -0.0])
@pytest.mark.parametrize("frequencies", [(0.0, 0.0), (1.0, -2.0)])
def test_a_decoupled_emitter_pair_gives_its_single_solves_signed_zeros(g, frequencies):
    # the undriven mode's amplitude is exactly zero; its sign comes from the coupling
    # entry, which a batch must build as the single solve does, -A[0, 1]
    modes = tuple(Mode(label, kind, f, 1.0) for label, kind, f
                  in zip(("cavity", "atom"), ("resonator", "emitter"), frequencies))
    net = ModeNetwork(modes, np.array([[0.0, g], [g, 0.0]]), np.array([-0.5j, 0.0]))
    probes = np.array([0.5, -2.0, 0.0])
    batch = steady_state_batch(net, probes)
    for k, probe in enumerate(probes):
        assert steady_state(net, probe).amplitudes.tobytes() == batch[k].tobytes()


@pytest.mark.parametrize("drive", ["cavity", "atom"])
def test_two_mode_solve_is_accurate_through_the_exceptional_point(drive):
    # equal frequencies and g = |gamma - kappa|/2 merge the two poles (an
    # exceptional point), where a solve through the eigenbasis loses digits;
    # the adjugate must match LAPACK there and beside it
    gamma, kappa = 3.0, 1.5
    g_ep = abs(gamma - kappa) / 2
    probes = np.linspace(-10.0, 10.0, 4001)
    for g in g_ep * np.array([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]):
        net = two_mode_network(delta_er=0.0, coupling=g, gamma=gamma, kappa=kappa, drive=drive)
        m = np.zeros((probes.size, 2, 2), dtype=complex)
        m[:, 0, 0] = probes + 1j * kappa
        m[:, 1, 1] = probes + 1j * gamma
        m[:, 0, 1] = m[:, 1, 0] = -g
        rhs = np.broadcast_to(net.drive, (probes.size, 2))[..., None]
        reference = np.linalg.solve(m, rhs)[..., 0]
        got = steady_state_batch(net, probes)
        error = np.linalg.norm(got - reference, axis=1) / np.linalg.norm(reference, axis=1)
        assert error.max() <= 1e-13
        residual = np.linalg.norm(np.einsum("sij,sj->si", m, got) - net.drive, axis=1)
        scale = np.linalg.norm(m, ord=2, axis=(1, 2)) * np.linalg.norm(got, axis=1)
        assert (residual / scale).max() <= 1e-15


# Exact complex arithmetic on (re, im) pairs of Fractions: the reference below
# rounds nothing, whatever the magnitudes.

def _exact(z):
    return Fraction(z.real), Fraction(z.imag)


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _div(a, b):
    size = b[0] ** 2 + b[1] ** 2
    return (a[0] * b[0] + a[1] * b[1]) / size, (a[1] * b[0] - a[0] * b[1]) / size


def _size(z):
    """``|re| + |im|``: a norm on the complex numbers, within sqrt(2) of the modulus."""
    return abs(z[0]) + abs(z[1])


@st.composite
def _two_mode_systems(draw):
    """A two-mode network whose frequencies, decays and coupling lie between 1e-100
    and 1e100 MHz -- near one scale or each at its own -- and probes on its poles'
    real parts, at the emitter's frequency and a few ulps and a decay beside them.
    One time in three the modes share a frequency and ``g = |gamma - kappa|/2``:
    the exceptional point, where the two poles merge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.floats(-97.0, 97.0))
    own = draw(st.booleans())

    def size():
        return 10.0 ** (rng.uniform(-100.0, 100.0) if own else base + rng.uniform(-3.0, 3.0))

    kappa, gamma, g = size(), size(), size()
    f_cavity, f_atom = rng.choice((-1.0, 1.0), 2) * [size(), size()]
    if draw(st.integers(0, 2)) == 0:
        f_cavity, g = f_atom, abs(gamma - kappa) / 2
    net = ModeNetwork((Mode("cavity", "resonator", float(f_cavity), kappa),
                       Mode("atom", "emitter", float(f_atom), gamma)),
                      np.array([[0.0, g], [g, 0.0]]),
                      draw(st.sampled_from([[1.0, 0.0j], [0.0, 1.0], [0.3 - 2.0j, 1.5 + 0.25j]])))
    centres = [*np.linalg.eigvals(net.matrix).real, f_atom]
    probes = [np.nextafter(c, side) for c in centres for side in (-np.inf, np.inf)]
    probes += [c + d for c in centres for d in (-gamma, 0.0, gamma)]
    return net, np.array(probes, dtype=float)


@settings(max_examples=200, deadline=None)
@given(_two_mode_systems())
def test_two_mode_solve_is_within_its_error_bound_of_the_exact_solution(case):
    # Cramer's rule is forward stable for 2x2 systems (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., 2002, section 1.10.1).  The
    # rounding of M's diagonal, six products, three differences and two
    # divisions, each within a few units of eps/2 of its exact value, perturb
    # x by at most about 15 (eps/2) kappa |x| in the modulus, so by b = 16 eps
    # kappa in the |re| + |im| norm, where kappa = ||M|| ||M^-1|| is M's
    # infinity-norm condition number.  That first-order bound holds as
    # b / (1 - b) while b < 1/2; beyond it the rounded M may be singular and
    # there is no bound, only the bits to compare
    net, probes = case
    a, b = net.matrix, [_exact(z) for z in net.drive]
    batch = steady_state_batch(net, probes)
    for probe, got in zip(probes, batch):
        assert steady_state(net, probe).amplitudes.tobytes() == got.tobytes()
        (p, q), (r, s) = [[_sub((Fraction(probe) if j == k else 0, 0), _exact(a[j, k]))
                           for k in range(2)] for j in range(2)]
        det = _sub(_mul(p, s), _mul(q, r))
        inverse = [[_div(s, det), _div(_sub((0, 0), q), det)],
                   [_div(_sub((0, 0), r), det), _div(p, det)]]
        x = [_div(_sub(_mul(s, b[0]), _mul(q, b[1])), det),
             _div(_sub(_mul(p, b[1]), _mul(r, b[0])), det)]
        kappa = (max(_size(p) + _size(q), _size(r) + _size(s))
                 * max(_size(row[0]) + _size(row[1]) for row in inverse))
        bound = 16 * Fraction(np.finfo(float).eps) * kappa
        if bound < Fraction(1, 2):
            error = max(_size(_sub(_exact(z), want)) for z, want in zip(got, x))
            assert error <= bound / (1 - bound) * max(map(_size, x))


@pytest.mark.filterwarnings("error")
def test_an_overflowing_solve_raises_naming_the_probe():
    # a decay of 5e-324 MHz passes validation, but at the mode's own frequency
    # the response overflows: the adjugate (one mode) and the Hessenberg
    # elimination (three) refuse it, single solve or batch, without a numpy warning
    one = ModeNetwork((Mode("c", "resonator", 0.0, 5e-324),), np.zeros((1, 1)),
                      np.array([1.0 + 0j]))
    three = ModeNetwork(
        tuple(Mode(f"m{j}", "resonator", 10.0 * j, d) for j, d in enumerate((5e-324, 1.0, 1.0))),
        np.zeros((3, 3)), np.array([1.0, 1.0, 0.0j]))
    for net in (one, three):
        assert np.isfinite(steady_state_batch(net, [-1.0, 1.0])).all()
        with pytest.raises(SingularResponseError, match=r"probe=0\.0$"):
            steady_state(net, 0.0)
        with pytest.raises(SingularResponseError, match=r"probe=0\.0$"):
            steady_state_batch(net, [-1.0, 0.0, 1.0])
    # two modes: couplings of 1e200 overflow g**2 in det(M) at every probe, and
    # decays of 1e-170 underflow the diagonal's product on resonance, so det(M)
    # is -inf and the adjugate alone would give a silent 0.  Decays of 1e-154
    # and no coupling leave det(M) = -1e-308, subnormal, which divides to a
    # finite but inexact solution: refused too
    nets = [ModeNetwork((Mode("c", "resonator", 0.0, decay), Mode("a", "emitter", 0.0, decay)),
                        np.array([[0.0, g], [g, 0.0]]), np.array([1.0, 0.5j]))
            for g, decay in ((1e200, 1e-170), (1.01e200, 3e-170), (0.0, 1e-154))]
    # |det(M)| that overflows only as a modulus, its real and imaginary parts and
    # the solution finite: M = 1.5e308 (1 + 1j) at one mode, det(M) about that at
    # two.  One rule refuses it in a single solve, a batch and a family alike
    nets += [ModeNetwork((Mode("c", "resonator", -1.5e308, 1.5e308),), np.zeros((1, 1)),
                         np.array([1.0 + 0j])),
             ModeNetwork((Mode("c", "resonator", -1e154, 1e154),
                          Mode("a", "emitter", -1.5e154, 1.0)), np.zeros((2, 2)),
                         np.array([1.0, 0.5j]))]
    # three modes at +-1e308 MHz, all pairs coupled: the Hessenberg reduction's sums
    # overflow at every probe, and what they leave is refused without a warning
    nets.append(ModeNetwork(tuple(Mode(f"m{j}", "resonator", f, 1.0)
                                  for j, f in enumerate((1e308, -1e308, 0.0))),
                            np.ones((3, 3)) - np.eye(3), np.array([1.0, 0.5j, 0.0])))
    for net in nets:
        with pytest.raises(SingularResponseError, match=r"probe=0\.0$"):
            steady_state(net, 0.0)
        with pytest.raises(SingularResponseError, match=r"probe=0\.0$"):
            steady_state_batch(net, [0.0, 1.0])
        with pytest.raises(SingularResponseError, match=r"probe=0\.0$"):
            steady_state_family(net, np.zeros((2, 3, len(net))), np.ones((2, 3)), [0.0])


def _lapack_solve(net, probes):
    """The reference: one LAPACK solve of ``M(probe) @ x = drive`` per probe."""
    probes = np.asarray(probes, dtype=float)
    m = probes[:, None, None] * np.eye(len(net)) - net.matrix
    rhs = np.broadcast_to(net.drive, (probes.size, len(net)))[..., None]
    return np.linalg.solve(m, rhs)[..., 0]


def _relative_errors(got, reference):
    """Per probe, in the max norm of moduli, which neither squares nor underflows."""
    return np.abs(got - reference).max(axis=1) / np.abs(reference).max(axis=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g", [1e200, 1e150, 1e-200])
def test_three_mode_solve_survives_extreme_couplings(g):
    # every pair coupled by g: the Householder column below the diagonal squares to
    # 1e400 or 1e-400 unless it is scaled first; LAPACK solves these networks, and
    # so must the reduction, to |x| of about 5e-201 at 1e200, without a warning
    c = np.full((3, 3), g)
    np.fill_diagonal(c, 0.0)
    net = ModeNetwork(tuple(Mode(f"m{j}", kind, 2.0 * j, 1.0) for j, kind in
                            enumerate(("resonator", "emitter", "resonator"))),
                      c, np.array([1.0, 0.5j, 0.0]))
    probes = np.array([-1.0, 0.0, 0.5, 2.0, 7.0])
    got = steady_state_batch(net, probes)
    assert np.isfinite(got).all()
    assert _relative_errors(got, _lapack_solve(net, probes)).max() <= 1e-13
    for k, probe in enumerate(probes):
        assert steady_state(net, probe).amplitudes.tobytes() == got[k].tobytes()
    family = steady_state_family(net, np.zeros((3, 1, 3)), np.ones((3, 1)), probes)
    assert (family == got).all()


def _backward_error(net, probe, x):
    """``||b - M x|| / (||M||_F ||x|| + ||b||)`` with the residual in exact arithmetic:
    the smallest relative perturbation of ``M`` and ``b`` that ``x`` solves exactly."""
    n = len(net)
    xs = [_exact(z) for z in x]
    residual = []
    for j in range(n):
        acc = _exact(net.drive[j])
        for k in range(n):
            entry = _sub((Fraction(probe) if j == k else 0, 0), _exact(net.matrix[j, k]))
            acc = _sub(acc, _mul(entry, xs[k]))
        residual.append(complex(float(acc[0]), float(acc[1])))
    scale = np.linalg.norm(response_matrix(net, probe)) * np.linalg.norm(x)
    return np.linalg.norm(residual) / (scale + np.linalg.norm(net.drive))


@st.composite
def _many_mode_systems(draw):
    """A random 3-8-mode network, decays from 1e-6 to 10 MHz, and probes on its
    poles' real parts, an ulp and a half-width beside them, on its modes'
    frequencies, and a few anywhere.  At a narrow mode's frequency its diagonal
    entry is far below its couplings, so an elimination that did not pivot would
    grow.  Hypothesis picks the structure (mode count, kinds, which couplings and
    drive amplitudes are zero); the values come from a seeded generator, as in
    ``_network_and_probes``."""
    n = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(MODE_KINDS), min_size=n, max_size=n))
    c = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            if draw(st.booleans()):
                c[j, k] = c[k, j] = rng.uniform(-40.0, 40.0)
    driven = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    driven[draw(st.integers(0, n - 1))] = True
    drive = np.where(driven, rng.normal(size=n) + 1j * rng.normal(size=n), 0.0)
    net = ModeNetwork(tuple(Mode(f"m{j}", kind, float(f), float(d)) for j, (kind, f, d) in
                            enumerate(zip(kinds, rng.uniform(-30.0, 30.0, n),
                                          10.0 ** rng.uniform(-6.0, 1.0, n)))), c, drive)
    poles = np.linalg.eigvals(net.matrix)
    probes = [p.real + d for p in poles for d in (-p.imag, 0.0, p.imag)]
    probes += [np.nextafter(p.real, side) for p in poles for side in (-np.inf, np.inf)]
    return net, np.array(probes + list(net.frequencies) + list(rng.uniform(-60.0, 60.0, 4)))


@settings(max_examples=60, deadline=None)
@given(_many_mode_systems())
def test_many_mode_solve_is_backward_stable(case):
    # The bound is set from eps, n and the growth factor before any error is seen.
    # In units of u = eps/2 (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., 2002): the reduction and the transforms by Q, n - 2 complex
    # Householder reflections, perturb M by a small multiple of n^2 u ||M||_F
    # (chapter 19), taken here as 8 n^2; elimination that pivots between two rows
    # rounds each entry of the Hessenberg matrix at most twice, and back
    # substitution at most n times, on a triangle grown by at most rho = n (chapter
    # 9): at most n^2 rho more.  LAPACK's partial pivoting on these small matrices is
    # held to the same bound, and the two solutions then agree to within twice the
    # condition number kappa_F(M) times it
    net, probes = case
    n = len(net)
    bound = (8 * n * n + n * n * n) * np.finfo(float).eps / 2
    got, reference = steady_state_batch(net, probes), _lapack_solve(net, probes)
    for probe, x, want in zip(probes, got, reference):
        assert _backward_error(net, probe, x) <= bound
        assert _backward_error(net, probe, want) <= bound
        m = response_matrix(net, probe)
        kb = np.linalg.norm(m) * np.linalg.norm(np.linalg.inv(m)) * bound
        if kb < 0.25:
            assert np.linalg.norm(x - want) <= 2 * kb / (1 - 2 * kb) * np.linalg.norm(want)


@pytest.mark.parametrize("drive", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
@pytest.mark.parametrize("g3", [0.0, 2.0])
def test_three_mode_solve_is_accurate_through_the_exceptional_point(drive, g3):
    # the cavity-atom pair of the two-mode test at and beside its exceptional
    # point, with a third mode 20 MHz away: uncoupled (the 3 x 3 matrix is then
    # itself defective) or coupled to the cavity.  A solve through the eigenbasis
    # loses digits here; the Hessenberg elimination must match LAPACK
    gamma, kappa = 3.0, 1.5
    g_ep = abs(gamma - kappa) / 2
    probes = np.linspace(-10.0, 10.0, 4001)
    for g in g_ep * np.array([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]):
        net = ModeNetwork((Mode("cavity", "resonator", 0.0, kappa),
                           Mode("atom", "emitter", 0.0, gamma),
                           Mode("far", "resonator", 20.0, 1.0)),
                          np.array([[0.0, g, g3], [g, 0.0, 0.0], [g3, 0.0, 0.0]]),
                          np.array(drive, dtype=complex))
        got = steady_state_batch(net, probes)
        assert _relative_errors(got, _lapack_solve(net, probes)).max() <= 1e-13


def test_pivot_row_flips_across_a_probe_grid():
    # The first elimination step compares |p - A[0, 0]| with |H[1, 0]|, which is
    # ||A[1:, 0]|| = 2.5 whatever the reflector's phase: the pivot stays on row 0
    # outside a disc of radius 2.5 about A[0, 0] = -1e-9j and moves to row 1 inside
    # it.  The grid crosses the disc's edge, lies an ulp either side of it, and
    # passes through mode a's frequency, where the unpivoted multiplier would be
    # 2.5e9
    net = ModeNetwork((Mode("a", "resonator", 0.0, 1e-9), Mode("b", "emitter", 3.0, 1.0),
                       Mode("c", "resonator", -4.0, 2.0)),
                      np.array([[0.0, 2.0, 1.5], [2.0, 0.0, 1.0], [1.5, 1.0, 0.0]]),
                      np.array([1.0, 0.0, 0.5j]))
    a = net.matrix
    radius = np.linalg.norm(a[1:, 0])
    edges = [a[0, 0].real + side * math.sqrt(radius**2 - a[0, 0].imag ** 2) for side in (-1, 1)]
    probes = np.concatenate([np.linspace(-6.0, 6.0, 241), edges,
                             [np.nextafter(e, side) for e in edges for side in (-np.inf, np.inf)]])
    inside = np.abs(probes - a[0, 0]) < radius
    assert 50 < inside.sum() < probes.size - 50
    got = steady_state_batch(net, probes)
    assert _relative_errors(got, _lapack_solve(net, probes)).max() <= 1e-13
    for k in np.flatnonzero(np.diff(inside)):  # either side of each crossing
        for i in (k, k + 1):
            assert steady_state(net, probes[i]).amplitudes.tobytes() == got[i].tobytes()


@pytest.mark.parametrize("build", [two_mode_network, five_node_demo])
@pytest.mark.parametrize("probe", [np.nan, np.inf, -np.inf])
def test_a_non_finite_probe_is_refused_naming_it(build, probe):
    # one mode pair by the adjugate, five nodes by the Hessenberg elimination:
    # refused before either solve, not reported as a singular matrix after numpy warns
    net = build()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^probe must be a finite number, got {probe!r}$"):
            steady_state(net, probe)
        with pytest.raises(ValueError, match=rf"^probe must be a finite number, got {probe!r}$"):
            steady_state_batch(net, [0.0, 1.0, probe, np.nan])
        with pytest.raises(ValueError, match="probe"):
            steady_state_family(net, np.zeros((2, 3, len(net))), np.ones((2, 3)), [probe])


# ------------------------------------------------------------ family solve


def _one_emitter_five_node():
    net = five_node_demo()
    modes = tuple(replace(m, kind="emitter") if m.label == "n2" else m for m in net.modes)
    return replace(net, modes=modes)


def _one_mode():
    return ModeNetwork((Mode("e", "emitter", 0.5, 2.0),), np.zeros((1, 1)), np.array([1.0 + 0j]))


def _two_resonators():
    net = emitter_resonator()
    return replace(net, modes=tuple(replace(m, kind="resonator") for m in net.modes))


def _two_emitter_four_node():
    # every kind of coupling entry: emitter-emitter (e0-e1), resonator-resonator
    # (r2-r3), emitter-resonator (e0-r2) and emitter couplings of 0 (e1-r2, e1-r3)
    modes = (Mode("e0", "emitter", 1.0, 1.5), Mode("e1", "emitter", -2.0, 0.8),
             Mode("r2", "resonator", 0.0, 3.0), Mode("r3", "resonator", 4.0, 2.0))
    c = np.zeros((4, 4))
    for j, k, g in ((0, 1, 2.5), (2, 3, 5.0), (0, 2, 7.0)):
        c[j, k] = c[k, j] = g
    return ModeNetwork(modes, c, np.array([0.0, 0.0, 1.0, 0.3j]))


FAMILY_NETWORKS = {
    "one-mode": _one_mode,
    "two-mode": emitter_resonator,
    "two-resonators": _two_resonators,
    "four-node-two-emitters": _two_emitter_four_node,
    "five-node-one-emitter": _one_emitter_five_node,
    "no-emitter": five_node_demo,
}


def _perturbed_by_hand(net, shifts, scale):
    """Member network built mode by mode: the reference for the family core."""
    n = len(net)
    emitter = [m.kind == "emitter" for m in net.modes]
    c = np.array(
        [
            [scale * net.couplings[j, k] if emitter[j] or emitter[k] else net.couplings[j, k]
             for k in range(n)]
            for j in range(n)
        ]
    )
    modes = tuple(replace(m, frequency=m.frequency + float(s)) for m, s in zip(net.modes, shifts))
    return ModeNetwork(modes, c, net.drive)


def _family_inputs(net, copies, members, seed=11):
    rng = np.random.default_rng(seed)
    shifts = rng.normal(0.0, 2.0, size=(copies, members, len(net)))
    scales = rng.uniform(0.5, 1.0, size=(copies, members))
    return shifts, scales


def _member_mean_by_hand(net, shifts, scales, probes):
    """Per-copy means of per-member batch solves, members added in order (np.mean
    sums a contiguous member axis pairwise)."""
    means = []
    for copy_shifts, copy_scales in zip(shifts, scales):
        total = 0
        for k, (s, c) in enumerate(zip(copy_shifts, copy_scales)):
            solved = steady_state_batch(_perturbed_by_hand(net, s, c), probes)
            total = solved if k == 0 else total + solved
        means.append(total / len(copy_scales))
    return np.array(means)


@pytest.mark.parametrize("name", sorted(FAMILY_NETWORKS))
def test_family_is_bit_identical_to_per_member_networks(name):
    net = FAMILY_NETWORKS[name]()
    probes = np.linspace(-30.0, 30.0, 61)
    # nine one-member copies: each result is its network's own solution
    shifts, scales = _family_inputs(net, 9, 1)
    family = steady_state_family(net, shifts, scales, probes)
    assert family.shape == (9, probes.size, len(net))
    for b in range(9):
        member = _perturbed_by_hand(net, shifts[b, 0], scales[b, 0])
        np.testing.assert_array_equal(family[b], steady_state_batch(member, probes))
        np.testing.assert_array_equal(family[b, 17], steady_state(member, probes[17]).amplitudes)
    # the same nine as the members of one copy: their mean
    mean = steady_state_family(net, shifts.swapaxes(0, 1), scales.T, probes)
    assert mean.shape == (1, probes.size, len(net))
    np.testing.assert_array_equal(mean, np.mean(family, axis=0, keepdims=True))


@pytest.mark.parametrize("name", ["one-mode", "two-mode", "five-node-one-emitter",
                                  "four-node-two-emitters"])
def test_family_chunking_does_not_change_results(monkeypatch, name):
    net = FAMILY_NETWORKS[name]()
    n = len(net)
    default = network_module._CHUNK_BYTES // network_module._system_bytes(n)
    # 41 probes, 2 copies: a unit holds 41 systems and a member two units; chunks
    # of 7 and 40 split a unit's probes, 41 is one unit, 100 two units (one
    # member), 125 three units, which end part-way through a member.  One probe,
    # 3 copies, the Stark scan's shape: chunks of 4 and 7 units end part-way
    # through most members
    for probes, copies, members, chunks in ((np.linspace(-30.0, 30.0, 41), 2, 3,
                                             (7, 40, 41, 100, 125)),
                                            (np.array([0.5]), 3, 5, (1, 4, 7))):
        shifts, scales = _family_inputs(net, copies, members)
        reference = _member_mean_by_hand(net, shifts, scales, probes)
        for systems in (default, *chunks):
            monkeypatch.setattr(network_module, "_CHUNK_BYTES",
                                systems * network_module._system_bytes(n))
            np.testing.assert_array_equal(
                steady_state_family(net, shifts, scales, probes), reference
            )


def test_family_of_no_probes_or_no_copies_is_empty():
    net = five_node_demo()
    n = len(net)
    shifts, scales = _family_inputs(net, 4, 3)
    assert steady_state_family(net, shifts, scales, []).shape == (4, 0, n)
    empty = steady_state_family(
        net, np.zeros((0, 3, n)), np.ones((0, 3)), np.linspace(-5.0, 5.0, 7)
    )
    assert empty.shape == (0, 7, n)


def test_family_working_set_is_bounded_over_probes():
    # one member whose systems alone exceed the bound: its probes are chunked too,
    # into the adjugate's work arrays at two modes and the Hessenberg elimination's
    # rows from three
    probes = np.linspace(-40.0, 40.0, 100_001)
    rng = np.random.default_rng(7)
    for net in (emitter_resonator(), five_node_demo(), random_network(rng, 7),
                random_network(rng, 12)):
        n = len(net)
        assert network_module._system_bytes(n) * probes.size > network_module._CHUNK_BYTES
        steady_state_batch(net, probes[:10])  # first-call allocations are not the solve's
        result, peak = traced_peak(lambda: steady_state_batch(net, probes))
        # slack: numpy's casting buffers, 0.2 MiB whatever the bound
        assert peak <= result.nbytes + network_module._CHUNK_BYTES + 2**19


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_family_of_many_units_holds_its_reductions_to_the_bound(monkeypatch, n):
    # every unit is reduced once, a block of units at a time: one-probe units for
    # four blocks, 300 copies of two members of three probes and 64 units of 301
    # need fewer, in chunks of units.  At two modes the Stark scan's family too: the
    # preset pair, 61 copies of MotionEnsemble()'s 512 members and one probe, whose
    # copies share the member scales as a broadcast view.  Every block gives the bits
    # of one block of all units
    net = {1: _one_mode, 2: emitter_resonator}.get(
        n, lambda: random_network(np.random.default_rng(n), n))()
    many = 4 * network_module._CHUNK_BYTES // network_module._unit_bytes(n)[0]
    families = [(*_family_inputs(net, copies, members), np.linspace(-5.0, 5.0, points))
                for copies, members, points in ((many, 1, 1), (300, 2, 3), (64, 1, 301))]
    if n == 2:
        scales, shifts = MotionEnsemble().members(net)
        offsets = np.zeros((61, n))
        offsets[:, net.index("atom")] = np.linspace(-20.0, 20.0, 61)
        families.append((offsets[:, None] + shifts[None], np.broadcast_to(scales, (61, 512)),
                         np.array([0.0])))
    for shifts, scales, probes in families:
        steady_state_family(net, shifts[:2], scales[:2], probes)  # first-call allocations
        result, peak = traced_peak(lambda: steady_state_family(net, shifts, scales, probes))
        assert peak <= result.nbytes + network_module._CHUNK_BYTES + 2**19
        with monkeypatch.context() as patch:
            patch.setattr(network_module, "_CHUNK_BYTES", 2**40)
            np.testing.assert_array_equal(result, steady_state_family(net, shifts, scales, probes))


def test_family_rejects_mismatched_member_arrays():
    net = emitter_resonator()
    with pytest.raises(ValueError):
        steady_state_family(net, np.zeros((1, 3, 3)), np.ones((1, 3)), [0.0])
    with pytest.raises(ValueError):
        steady_state_family(net, np.zeros((1, 3, 2)), np.ones((1, 2)), [0.0])
    with pytest.raises(ValueError):
        steady_state_family(net, np.zeros((3, 2)), np.ones(3), [0.0])
    with pytest.raises(ValueError, match="members"):  # a copy's mean needs a member
        steady_state_family(net, np.zeros((2, 0, 2)), np.ones((2, 0)), [0.0])


def test_probe_grid_step_and_frequencies():
    grid = ProbeGrid(-25.0, 25.0, 1001)
    assert grid.step == pytest.approx(0.05)
    freqs = grid.frequencies()
    assert freqs[0] == -25.0 and freqs[-1] == 25.0 and freqs.size == 1001
    with pytest.raises(ValueError):
        ProbeGrid(-5.0, -5.0, 11)
    with pytest.raises(ValueError):
        ProbeGrid(-5.0, 5.0, 1)
    for points in (2.5, 11.0, True, "11", np.int64(1)):
        with pytest.raises(ValueError, match="grid.points"):
            ProbeGrid(0.0, 1.0, points)
    grid = ProbeGrid(0.0, 1.0, np.int64(11))  # a numpy count is stored as an int
    assert type(grid.points) is int and grid.points == 11
    for bad in (True, "a", np.nan, np.inf, 10**400):
        with pytest.raises(ValueError, match="start"):
            ProbeGrid(bad, 2.0, 3)
        with pytest.raises(ValueError, match="stop"):
            ProbeGrid(-2.0, bad, 3)


@pytest.mark.parametrize("start, stop, points", [
    (-1e308, 1e308, 5),  # the span overflows: an infinite step, NaN probes
    (0.0, 5e-324, 3),  # the step underflows to 0: repeated probes
])
def test_probe_grid_refuses_a_step_that_is_not_finite_and_positive(start, stop, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^grid step must be a finite positive number"):
            ProbeGrid(start, stop, points)
    ProbeGrid(0.0, 1e-323, 3)  # two subnormal steps still make a grid


@pytest.mark.parametrize("start, stop, points", [
    (1.0, 1.0000000000000002, 3),  # half a float spacing: np.linspace repeats 1.0
    # 1.25 float spacings a step, but 1000 products' roundings repeat probes
    (-3.252244170522583e-307, -3.2522441705220913e-307, 1000),
    (0.0, 1.7976931348623157e308, 4),  # the last product overflows before stop replaces it
])
def test_probe_grid_refuses_a_step_within_float_rounding(start, stop, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^grid step .* strictly increasing"):
            ProbeGrid(start, stop, points)


_FLOATS = st.floats(-1e300, 1e300, allow_subnormal=True)


@st.composite
def _grid_ends(draw):
    """Grid ends a few float spacings apart as often as far apart."""
    start = draw(_FLOATS)
    points = draw(st.integers(2, 400))
    if draw(st.booleans()):
        return start, draw(_FLOATS), points
    spacings = draw(st.integers(0, 12 * points))
    return start, start + spacings * math.ulp(start), points


@settings(max_examples=400, deadline=None)
@given(_grid_ends())
@example((1.0, 1.0000000000000002, 3))
@example((0.0, 1e-323, 3))
def test_every_accepted_grid_has_strictly_increasing_probes(ends):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = ProbeGrid(*ends)
        except ValueError:
            return
        assert (np.diff(grid.frequencies()) > 0).all()


# -------------------------------------------------------------- validation


def test_mode_rejects_bad_inputs():
    with pytest.raises(InvalidNetworkError):
        Mode("x", "qubit", 0.0, 1.0)  # unknown kind
    with pytest.raises(InvalidNetworkError):
        Mode("x", "emitter", 0.0, 0.0)  # decay must be positive
    with pytest.raises(InvalidNetworkError):
        Mode("x", "emitter", np.nan, 1.0)
    with pytest.raises(InvalidNetworkError):
        Mode("", "emitter", 0.0, 1.0)
    for label in (5, None, ["x"], True):
        with pytest.raises(InvalidNetworkError):
            Mode(label, "emitter", 0.0, 1.0)
    for bad in ("a", "1", True, False, None, [1.0], 1 + 0j, 10**400):
        with pytest.raises(InvalidNetworkError, match="frequency"):
            Mode("x", "emitter", bad, 1.0)
        with pytest.raises(InvalidNetworkError, match="decay"):
            Mode("x", "emitter", 0.0, bad)
    # ints and numpy scalars are numbers
    Mode("x", "emitter", 0, 1)
    Mode("x", "emitter", np.float32(0.5), np.int64(2))


def _modes2():
    return (Mode("a", "resonator", 0.0, 1.0), Mode("b", "emitter", 1.0, 1.0))


def test_network_rejects_asymmetric_couplings():
    with pytest.raises(InvalidNetworkError):
        ModeNetwork(_modes2(), np.array([[0.0, 2.0], [3.0, 0.0]]), np.array([1.0 + 0j, 0j]))


def test_network_symmetry_compares_values_not_bits():
    # 0.0 and -0.0 differ in bits but are equal couplings
    couplings = np.array([[0.0, -0.0, 2.0], [0.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    modes = _modes2() + (Mode("c", "resonator", 2.0, 1.0),)
    net = ModeNetwork(modes, couplings, np.array([1.0 + 0j, 0j, 0j]))
    assert net.couplings.tobytes() == couplings.tobytes()


def test_network_rejects_non_finite_numbers():
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidNetworkError, match="couplings must be finite"):
            ModeNetwork(_modes2(), np.array([[0.0, bad], [bad, 0.0]]), np.array([1.0, 0.0]))
    for bad in (np.array([np.nan, 1.0]), np.array([1.0, complex(0.0, np.inf)])):
        with pytest.raises(InvalidNetworkError, match="drive amplitudes must be finite"):
            ModeNetwork(_modes2(), np.zeros((2, 2)), bad)


def test_network_rejects_nonzero_diagonal():
    with pytest.raises(InvalidNetworkError):
        ModeNetwork(_modes2(), np.array([[1.0, 2.0], [2.0, 0.0]]), np.array([1.0 + 0j, 0j]))


def test_network_rejects_shape_mismatch_and_duplicates():
    with pytest.raises(InvalidNetworkError):
        ModeNetwork(_modes2(), np.zeros((3, 3)), np.array([1.0 + 0j, 0j]))
    with pytest.raises(InvalidNetworkError):
        ModeNetwork(_modes2(), np.zeros((2, 2)), np.array([1.0 + 0j]))
    dup = (Mode("a", "resonator", 0.0, 1.0), Mode("a", "emitter", 1.0, 1.0))
    with pytest.raises(InvalidNetworkError):
        ModeNetwork(dup, np.zeros((2, 2)), np.array([1.0 + 0j, 0j]))


def test_network_file_with_duplicate_labels_is_invalid():
    doc = network_to_dict(two_mode_network())
    doc["modes"][1]["label"] = doc["modes"][0]["label"]
    doc["couplings"] = []
    with pytest.raises(InvalidNetworkError, match="duplicate mode labels"):
        network_from_dict(doc)


def test_silent_drive_has_no_driven_label():
    net = ModeNetwork(_modes2(), np.zeros((2, 2)), np.zeros(2, dtype=complex))
    with pytest.raises(InvalidNetworkError):
        net.driven_label()


def test_with_drive_on_unknown_label():
    net = two_mode_network()
    with pytest.raises(KeyError):
        net.with_drive_on("nope")
    moved = net.with_drive_on("atom")
    assert moved.driven_label() == "atom"
    assert net.driven_label() == "cavity"  # original untouched


def test_arrays_are_read_only():
    net = two_mode_network()
    with pytest.raises((ValueError, RuntimeError)):
        net.couplings[0, 1] = 99.0
    with pytest.raises((ValueError, RuntimeError)):
        net.drive[0] = 0.0
    for array in (net.matrix, net.frequencies, net.decays):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    with pytest.raises(AttributeError):  # the attributes themselves are frozen too
        net.matrix = np.zeros((2, 2), dtype=complex)


# ----------------------------------------------------------- serialization


def test_json_round_trip(tmp_path):
    net = two_mode_network(delta_er=-3.0)
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert [m.label for m in back.modes] == [m.label for m in net.modes]
    assert [m.kind for m in back.modes] == [m.kind for m in net.modes]
    np.testing.assert_array_equal(back.couplings, net.couplings)
    np.testing.assert_array_equal(back.drive, net.drive)
    np.testing.assert_array_equal(back.frequencies, net.frequencies)
    np.testing.assert_array_equal(back.decays, net.decays)


def test_round_trip_preserves_floats_exactly(tmp_path):
    # awkward binary fractions must survive the text format
    net = two_mode_network(delta_er=-1.0 / 3.0, coupling=np.pi, eta=0.1 + 0.7j)
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.modes[1].frequency == net.modes[1].frequency
    assert back.couplings[0, 1] == net.couplings[0, 1]
    assert back.drive[0] == net.drive[0]


def test_dict_schema_rejects_bad_couplings():
    doc = network_to_dict(two_mode_network())
    bad = json.loads(json.dumps(doc))
    bad["couplings"].append({"a": "cavity", "b": "cavity", "g_mhz": 1.0})
    with pytest.raises(InvalidNetworkError):
        network_from_dict(bad)

    bad = json.loads(json.dumps(doc))
    bad["couplings"].append({"a": "atom", "b": "cavity", "g_mhz": 2.0})
    with pytest.raises(InvalidNetworkError):
        network_from_dict(bad)  # duplicate pair

    bad = json.loads(json.dumps(doc))
    bad["couplings"][0]["b"] = "ghost"
    with pytest.raises(InvalidNetworkError):
        network_from_dict(bad)

    for endpoint in (["cavity"], 5, None):
        bad = json.loads(json.dumps(doc))
        bad["couplings"][0]["a"] = endpoint
        with pytest.raises(InvalidNetworkError):
            network_from_dict(bad)

    for couplings in (None, 5, "cavity", {"a": "cavity", "b": "atom", "g_mhz": 1.0}):
        bad = json.loads(json.dumps(doc))
        bad["couplings"] = couplings
        with pytest.raises(InvalidNetworkError):
            network_from_dict(bad)

    for g in ("16", True, None, [16.0], 10**400):
        bad = json.loads(json.dumps(doc))
        bad["couplings"][0]["g_mhz"] = g
        with pytest.raises(InvalidNetworkError, match="g_mhz must be"):
            network_from_dict(bad)


def test_dict_schema_rejects_unknown_drive_label():
    doc = network_to_dict(two_mode_network())
    doc["drive"][0]["label"] = "ghost"
    with pytest.raises(InvalidNetworkError):
        network_from_dict(doc)

    doc["drive"][0]["label"] = ["cavity"]
    with pytest.raises(InvalidNetworkError):
        network_from_dict(doc)

    for key in ("re", "im"):
        for value in ("1", True, None, 10**400):
            bad = network_to_dict(two_mode_network())
            bad["drive"][0][key] = value
            with pytest.raises(InvalidNetworkError, match=rf"\b{key} must be"):
                network_from_dict(bad)

    for drive in (None, 7, {"label": "cavity"}):
        doc["drive"] = drive
        with pytest.raises(InvalidNetworkError):
            network_from_dict(doc)


def test_dict_schema_rejects_non_string_mode_labels():
    doc = network_to_dict(two_mode_network())
    for label in (["cavity"], 5, None, ""):
        bad = json.loads(json.dumps(doc))
        bad["modes"][0]["label"] = label
        with pytest.raises(InvalidNetworkError):
            network_from_dict(bad)

    for key, value in (("frequency_mhz", "0"), ("frequency_mhz", True), ("decay_mhz", True),
                       ("decay_mhz", "1.5"), ("decay_mhz", None), ("frequency_mhz", 10**400)):
        bad = json.loads(json.dumps(doc))
        bad["modes"][0][key] = value
        with pytest.raises(InvalidNetworkError, match=rf"{key} must be"):
            network_from_dict(bad)


# ------------------------------------------------------------------ counts


@pytest.mark.parametrize("value, low, high, ok", [
    (3, 1, None, True),
    (1, 1, 5, True),
    (5, 1, 5, True),
    (10**30, 1, None, True),
    (np.int64(4), 1, None, True),  # numpy integers are counts, returned as int
    (np.uint8(2), 2, 2, True),
    (True, 0, None, False),
    (False, 0, None, False),
    (np.bool_(True), 0, None, False),
    (2.0, 1, None, False),
    (2.5, 1, None, False),
    (np.float64(3.0), 1, None, False),
    ("3", 1, None, False),
    (None, 1, None, False),
    (0, 1, None, False),
    (-3, 1, None, False),
    (6, 1, 5, False),
    (np.int64(6), 1, 5, False),
])
def test_count_accepts_integers_in_range_only(value, low, high, ok):
    if ok:
        got = _count("n", value, low, high)
        assert type(got) is int and got == value
    else:
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            _count("n", value, low, high)
