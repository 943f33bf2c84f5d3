import itertools
import math

import numpy as np
import pytest

from antires import network as network_module
from antires import spectra as spectra_module
from antires.network import Mode, ModeNetwork, ProbeGrid, steady_state_batch
from antires.presets import emitter_resonator, five_node_demo
from antires.spectra import (
    AmbiguityError,
    ComplexSpectrum,
    MotionEnsemble,
    _nearest_hits,
    _prominent_peaks,
    antiresonances,
    cancel_pole_zero_pairs,
    detect_antiresonances_numeric,
    ensemble_mean_family,
    lossy_component_identify,
    poles_zeros_report,
    read_spectrum_csv,
    resonances,
    sweep,
    write_spectrum_csv,
)

from helpers import (
    dense_mode_matrix,
    quadratic_eigs,
    random_network,
    traced_peak,
    two_mode_network,
)

GRID = ProbeGrid(-25.0, 25.0, 1001)


# ------------------------------------------------------------------- poles


def test_degenerate_pair_pole_positions():
    # delta_er = 0, g = 16, gamma = 3, kappa = 1.5:
    # eigenvalues -(gamma+kappa)/2 i +/- sqrt(g^2 - (gamma-kappa)^2/4)
    net = emitter_resonator(delta_er=0.0)
    poles = sorted(resonances(net), key=lambda p: p.center)
    split = math.sqrt(16.0**2 - ((3.0 - 1.5) / 2.0) ** 2)
    assert len(poles) == 2
    assert poles[0].center == pytest.approx(-split, abs=1e-9)
    assert poles[1].center == pytest.approx(+split, abs=1e-9)
    for p in poles:
        assert p.half_width == pytest.approx((3.0 + 1.5) / 2.0, abs=1e-9)


def test_detuned_pole_positions_match_quadratic_formula():
    net = emitter_resonator(delta_er=-3.0)
    lo, hi = quadratic_eigs(0.0, 1.5, -3.0, 3.0, 16.0)
    want = sorted([lo, hi], key=lambda z: z.real)
    got = sorted(resonances(net), key=lambda p: p.center)
    for p, z in zip(got, want):
        assert p.center == pytest.approx(z.real, abs=1e-10)
        assert p.half_width == pytest.approx(-z.imag, abs=1e-10)


def test_uncoupled_poles_are_the_bare_modes():
    net = emitter_resonator(coupling=0.0)
    got = sorted(resonances(net), key=lambda p: p.center)
    assert got[0].center == pytest.approx(-3.0) and got[0].half_width == pytest.approx(3.0)
    assert got[1].center == pytest.approx(0.0) and got[1].half_width == pytest.approx(1.5)


def test_poles_do_not_depend_on_drive_port():
    net = five_node_demo()
    tables = []
    for label in net.labels:
        ps = resonances(net.with_drive_on(label))
        tables.append([(p.center, p.half_width, p.multiplicity) for p in ps])
    for other in tables[1:]:
        assert other == tables[0]


def test_degenerate_eigenvalues_are_merged():
    # two identical uncoupled modes -> one pole with multiplicity 2
    modes = (
        Mode("r1", "resonator", 5.0, 1.0),
        Mode("r2", "resonator", 5.0, 1.0),
    )
    net = ModeNetwork(modes, np.zeros((2, 2)), np.array([1.0 + 0j, 0j]))
    poles = resonances(net)
    assert len(poles) == 1
    assert poles[0].multiplicity == 2
    assert poles[0].center == pytest.approx(5.0)


def _repeated_mode_networks():
    """(modes, couplings, driven label) with repeated complex frequencies."""
    bare = [Mode(f"r{k}", "resonator", 0.0, d) for k, d in enumerate((1.0, 2.0, 1.0))]
    yield bare, np.zeros((3, 3)), "r1"
    # a cavity coupled alike to two identical emitters leaves a dark state on
    # their frequency, which an uncoupled emitter repeats; two more uncoupled
    # emitters repeat the cavity and share the dark state's center
    modes = [
        Mode("c", "resonator", 0.0, 1.5),
        Mode("e1", "emitter", -3.0, 3.0),
        Mode("e2", "emitter", -3.0, 3.0),
        Mode("e3", "emitter", 0.0, 1.5),
        Mode("e4", "emitter", -3.0, 3.0),
        Mode("e5", "emitter", -3.0, 1.0),
    ]
    g = np.zeros((6, 6))
    g[0, 1] = g[1, 0] = g[0, 2] = g[2, 0] = 16.0
    yield modes, g, "c"


def _pole_zero_tables(modes, couplings, driven, order):
    net = ModeNetwork(
        tuple(modes[i] for i in order),
        couplings[np.ix_(order, order)],
        np.array([1.0 + 0j if modes[i].label == driven else 0j for i in order]),
    )
    poles, zeros = resonances(net), antiresonances(net, driven)

    def table(items):
        return sorted(
            (round(x.center, 9) + 0.0, round(x.half_width, 9) + 0.0, getattr(x, "multiplicity", 1))
            for x in items
        )

    kept_p, kept_z = cancel_pole_zero_pairs(poles, zeros)
    return table(poles), table(zeros), table(kept_p), table(kept_z)


@pytest.mark.parametrize("case", range(2))
def test_multiplicities_do_not_depend_on_mode_order(case):
    modes, couplings, driven = list(_repeated_mode_networks())[case]
    want = _pole_zero_tables(modes, couplings, driven, list(range(len(modes))))
    for order in itertools.permutations(range(len(modes))):
        assert _pole_zero_tables(modes, couplings, driven, list(order)) == want, order
    assert sum(m for *_, m in want[0]) == len(modes) > len(want[0])  # some pole repeats


def test_random_network_poles_match_raw_eigvals():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = random_network(rng)
        vals = np.linalg.eigvals(dense_mode_matrix(net))
        got = resonances(net)
        assert sum(p.multiplicity for p in got) == len(net.modes)
        centers = sorted(v.real for v in vals)
        assert centers == pytest.approx(
            sorted(c for p in got for c in [p.center] * p.multiplicity), abs=1e-8
        )


# ------------------------------------------------------------------- zeros


def test_resonator_driven_zero_sits_on_the_emitter():
    for g in (1.5, 5.0, 16.0, 30.0, 49.5):
        net = emitter_resonator(delta_er=-3.0, coupling=g)
        zeros = antiresonances(net, "cavity")
        assert len(zeros) == 1
        assert zeros[0].center == pytest.approx(-3.0, abs=1e-12)
        assert zeros[0].half_width == pytest.approx(3.0, abs=1e-12)


def test_emitter_driven_zero_sits_on_the_resonator():
    net = emitter_resonator(delta_er=-3.0, drive="atom")
    zeros = antiresonances(net, "atom")
    assert len(zeros) == 1
    assert zeros[0].center == pytest.approx(0.0, abs=1e-12)
    assert zeros[0].half_width == pytest.approx(1.5, abs=1e-12)


def test_single_mode_has_no_zeros():
    net = ModeNetwork(
        (Mode("c", "resonator", 0.0, 1.5),), np.zeros((1, 1)), np.array([1.0 + 0j])
    )
    assert antiresonances(net, "c") == []


def test_three_mode_zeros_match_quadratic_formula():
    # chain m0 - m1 - m2 driven on m0: zeros are the eigenvalues of the
    # (m1, m2) submatrix, which is 2x2 and solvable by hand.
    modes = (
        Mode("m0", "resonator", 0.0, 1.0),
        Mode("m1", "emitter", -7.0, 2.0),
        Mode("m2", "emitter", 9.0, 0.5),
    )
    c = np.zeros((3, 3))
    c[0, 1] = c[1, 0] = 4.0
    c[1, 2] = c[2, 1] = 6.0
    net = ModeNetwork(modes, c, np.array([1.0 + 0j, 0j, 0j]))
    lo, hi = quadratic_eigs(-7.0, 2.0, 9.0, 0.5, 6.0)
    want = sorted([lo, hi], key=lambda z: z.real)
    got = sorted(antiresonances(net, "m0"), key=lambda z: z.center)
    for z, w in zip(got, want):
        assert z.center == pytest.approx(w.real, abs=1e-10)
        assert z.half_width == pytest.approx(-w.imag, abs=1e-10)


def test_zero_count_is_modes_minus_one():
    rng = np.random.default_rng(17)
    for _ in range(6):
        net = random_network(rng)
        zs = antiresonances(net, net.driven_label())
        assert len(zs) == len(net.modes) - 1


def test_pole_zero_cancellation_for_decoupled_emitter():
    net = emitter_resonator(coupling=0.0)
    poles = resonances(net)
    zeros = antiresonances(net, "cavity")
    kept_p, kept_z = cancel_pole_zero_pairs(poles, zeros)
    assert kept_z == []
    assert len(kept_p) == 1
    assert kept_p[0].center == pytest.approx(0.0)
    assert kept_p[0].half_width == pytest.approx(1.5)


def test_no_cancellation_when_coupled():
    net = emitter_resonator()
    poles = resonances(net)
    zeros = antiresonances(net, "cavity")
    kept_p, kept_z = cancel_pole_zero_pairs(poles, zeros)
    assert len(kept_p) == 2 and len(kept_z) == 1


# --------------------------------------------------------------- sweeps


def test_sweep_columns_and_excitation():
    spec = sweep(emitter_resonator(), GRID)
    col = spec.column("cavity")
    assert col.shape == (1001,)
    np.testing.assert_allclose(spec.magnitude("cavity"), np.abs(col), rtol=0, atol=0)
    np.testing.assert_allclose(spec.excitation("cavity"), np.abs(col) ** 2, rtol=1e-15)


def test_unwrapped_phase_differs_from_wrapped_by_full_turns():
    spec = sweep(emitter_resonator(), GRID)
    wrapped = np.angle(spec.column("cavity"))
    unwrapped = spec.phase_unwrapped("cavity")
    turns = (unwrapped - wrapped) / (2.0 * np.pi)
    np.testing.assert_allclose(turns, np.round(turns), atol=1e-9)


def test_empty_resonator_phase_rises_by_pi():
    spec = sweep(emitter_resonator(coupling=0.0), ProbeGrid(-60.0, 60.0, 2001))
    phase = spec.phase_unwrapped("cavity")
    assert phase[-1] - phase[0] == pytest.approx(np.pi, abs=0.06)
    assert np.all(np.diff(phase) > 0)  # monotone rise through resonance


def test_phase_swing_quantized_in_units_of_pi():
    """Isolated features move the phase by an integer multiple of pi.

    Narrow decays keep the two poles and the zero mutually separated by
    >= 15 half-widths, so each window sees one feature plus small tails.
    """
    net = emitter_resonator(delta_er=0.0, coupling=16.0, gamma=0.3, kappa=0.15)
    grid = ProbeGrid(-40.0, 40.0, 8001)
    spec = sweep(net, grid)
    phase = spec.phase_unwrapped("cavity")
    probes = spec.probes
    split = math.sqrt(16.0**2 - ((0.3 - 0.15) / 2.0) ** 2)

    def swing(lo, hi):
        sel = (probes >= lo) & (probes <= hi)
        seg = phase[sel]
        return seg[-1] - seg[0]

    for window, expected in [
        ((-4.5, 4.5), -1),           # the antiresonance
        ((-split - 4.5, -split + 4.5), +1),  # lower pole
        ((split - 4.5, split + 4.5), +1),    # upper pole
    ]:
        s = swing(*window) / np.pi
        assert round(s) == expected
        assert abs(s - expected) < 0.1
    # whole-grid excursion: two poles up, one zero down -> net +pi
    assert (phase[-1] - phase[0]) == pytest.approx(np.pi, abs=0.1)


def test_zero_centers_are_magnitude_minima_for_random_networks():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(50):
        net = random_network(rng)
        label = net.driven_label()
        col = net.index(label)
        zs = antiresonances(net, label)
        ps = resonances(net)
        for z in zs:
            w = max(z.half_width, 1e-3)
            # a zero nearly on top of a pole is cancelled to an invisible
            # wiggle and need not show its own minimum
            clear_of_poles = all(
                abs(z.center - p.center) >= 0.5 * (w + p.half_width) for p in ps
            )
            clear_of_zeros = all(
                z is other or abs(z.center - other.center) >= 2.0 * (w + other.half_width)
                for other in zs
            )
            if not (clear_of_poles and clear_of_zeros):
                continue
            local = np.linspace(z.center - 3 * w, z.center + 3 * w, 121)
            mags = np.abs(steady_state_batch(net, local)[:, col])
            k = int(np.argmin(mags))
            assert 0 < k < len(local) - 1, "dip must be interior"
            assert abs(local[k] - z.center) <= w
            checked += 1
    assert checked >= 40


# ------------------------------------------------------------ dip detection


@pytest.mark.parametrize("x, prominence, expected", [
    pytest.param([0, 1, 2, 2, 2, 1, 0], 0.0, [3], id="odd-plateau-middle"),
    pytest.param([0, 2, 2, 2, 2, 0], 0.0, [2], id="even-plateau-middle-rounded-down"),
    pytest.param([0, 1, 1, 0], 0.0, [1], id="two-sample-plateau"),
    pytest.param([3, 1, 2, 1, 3], 0.0, [2], id="maxima-at-both-ends-are-no-peaks"),
    pytest.param([2, 2, 1, 2, 0], 0.0, [3], id="plateau-at-left-end-is-no-peak"),
    pytest.param([0, 1, 2, 2], 0.0, [], id="plateau-at-right-end-is-no-peak"),
    pytest.param([], 0.0, [], id="length-0"),
    pytest.param([1], 0.0, [], id="length-1"),
    pytest.param([1, 2], 0.0, [], id="length-2"),
    pytest.param([0, 1, 0], 0.0, [1], id="length-3-peak"),
    pytest.param([1, 0, 1], 0.0, [], id="length-3-valley"),
    pytest.param([1, 1, 1, 1, 1], 0.0, [], id="flat"),
    # the peak at 1 has bases 0 and 1 (the walk right stops at the 3)
    pytest.param([0, 2, 1, 3, 0], 1.0, [1, 3], id="prominence-equal-to-threshold-is-kept"),
    pytest.param([0, 2, 1, 3, 0], np.nextafter(1.0, 2.0), [3], id="just-above-threshold"),
    pytest.param([0, 1.5, 1.0, 3, 0], 0.5, [1, 3], id="fractional-prominence-equal"),
    # an equal peak is not strictly higher, so each walk passes it and
    # reaches the far end: both prominences are 3 - 0.5, not 3 - 1
    pytest.param([0.5, 3, 1, 3, 0], 2.5, [1, 3], id="equal-peaks-walk-past-each-other"),
    pytest.param([0.5, 3, 1, 3, 0], np.nextafter(2.5, 3.0), [], id="equal-peaks-above-threshold"),
])
def test_prominent_peaks_pins_the_peak_rule(x, prominence, expected):
    peaks = _prominent_peaks(np.array(x, dtype=float), prominence)
    assert peaks.dtype == np.intp
    assert peaks.tolist() == expected


def _nearest_hits_by_walk(mask, i):
    """Reference: step out from ``i`` one sample at a time until the mask holds."""
    left = -1
    for j in range(i - 1, -1, -1):
        if mask[j]:
            left = j
            break
    right = mask.size
    for j in range(i + 1, mask.size):
        if mask[j]:
            right = j
            break
    return left, right


def test_nearest_hits_matches_a_per_sample_walk():
    rng = np.random.default_rng(11)
    masks = [
        np.zeros(9, dtype=bool),  # no hits
        np.ones(9, dtype=bool),  # a hit at every i, itself included
        np.r_[True, np.zeros(7, dtype=bool), True],  # hits at both ends only
        np.array([True]),
    ]
    masks += [rng.random(int(rng.integers(1, 40))) < p for p in rng.uniform(0.0, 1.0, 200)]
    for mask in masks:
        for i in range(mask.size):
            assert _nearest_hits(mask, i) == _nearest_hits_by_walk(mask, i)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_detected_zeros_do_not_depend_on_the_width_seed(monkeypatch, factor):
    # the iterated rational fit re-sizes its own window, so a seed off by 2x
    # in either direction must walk onto the same zero
    cases = [(emitter_resonator(), 1e-9), (five_node_demo(), 1e-3)]
    runs = [(sweep(net, GRID), net.driven_label(), tol) for net, tol in cases]
    expected = [detect_antiresonances_numeric(spec, lab) for spec, lab, _ in runs]
    seed = spectra_module._doubling_halfwidth
    monkeypatch.setattr(spectra_module, "_doubling_halfwidth", lambda *a: factor * seed(*a))
    for (spec, lab, tol), zeros in zip(runs, expected):
        found = detect_antiresonances_numeric(spec, lab)
        assert zeros and len(found) == len(zeros)
        for got, want in zip(found, zeros):
            assert abs(got.center - want.center) <= tol * want.half_width
            assert abs(got.half_width - want.half_width) <= tol * want.half_width


def test_detect_recovers_the_algebraic_zero():
    spec = sweep(emitter_resonator(), GRID)
    found = detect_antiresonances_numeric(spec, "cavity")
    assert len(found) == 1
    z = found[0]
    assert not z.at_boundary
    assert z.center == pytest.approx(-3.0, abs=1e-6)
    assert z.half_width == pytest.approx(3.0, rel=1e-4)


def test_detect_follows_the_emitter_frequency():
    for f in (-12.0, 5.0, 14.0):
        spec = sweep(emitter_resonator(delta_er=f), GRID)
        found = detect_antiresonances_numeric(spec, "cavity")
        assert len(found) == 1
        assert found[0].center == pytest.approx(f, abs=GRID.step)


def test_detect_on_empty_resonator_finds_nothing():
    spec = sweep(emitter_resonator(coupling=0.0), GRID)
    assert detect_antiresonances_numeric(spec, "cavity") == []


def test_detect_flags_truncated_dip_at_grid_edge():
    # the dip at -3 MHz lies just beyond the right edge of this grid
    spec = sweep(emitter_resonator(), ProbeGrid(-25.0, -3.4, 500))
    found = detect_antiresonances_numeric(spec, "cavity")
    assert len(found) == 1
    assert found[0].at_boundary
    assert math.isnan(found[0].half_width)


def test_detect_does_not_flag_plain_rolloff():
    # an empty resonator line also decays towards the grid edges, but the
    # edge is not a zero: no boundary flag may appear
    spec = sweep(emitter_resonator(coupling=0.0), ProbeGrid(2.0, 30.0, 400))
    assert detect_antiresonances_numeric(spec, "cavity") == []


def _random_star(rng):
    """Hub-driven star: zeros are exactly the bare outer modes, poles are
    strongly repelled, so every dip is deep and resolvable."""
    n_outer = int(rng.integers(2, 4))
    freqs = np.cumsum(rng.uniform(9.0, 16.0, size=n_outer + 1))
    freqs -= freqs.mean()
    order = rng.permutation(n_outer + 1)
    modes = tuple(
        Mode(f"s{i}", "resonator", float(freqs[order[i]]), float(rng.uniform(0.4, 2.0)))
        for i in range(n_outer + 1)
    )
    c = np.zeros((n_outer + 1, n_outer + 1))
    for j in range(1, n_outer + 1):
        g = float(rng.uniform(8.0, 14.0))
        c[0, j] = c[j, 0] = g
    drive = np.zeros(n_outer + 1, dtype=complex)
    drive[0] = 1.0
    return ModeNetwork(modes, c, drive)


def test_detected_centers_within_one_grid_step_of_algebra():
    rng = np.random.default_rng(99)
    matched = 0
    for _ in range(10):
        net = _random_star(rng)
        label = net.driven_label()
        zs = antiresonances(net, label)
        lo = min(m.frequency for m in net.modes) - 10.0
        hi = max(m.frequency for m in net.modes) + 10.0
        step = min(z.half_width for z in zs) / 20.0
        step = max(step, 1e-3)
        grid = ProbeGrid(lo, hi, int((hi - lo) / step) + 1)
        found = detect_antiresonances_numeric(sweep(net, grid), label)
        assert len(found) == len(zs), "every bare-mode dip should be detected"
        for z in found:
            assert not z.at_boundary
            nearest = min(zs, key=lambda t: abs(t.center - z.center))
            assert abs(z.center - nearest.center) <= grid.step
            assert z.half_width == pytest.approx(nearest.half_width, rel=0.05)
            matched += 1
    assert matched >= 20


def test_emitter_column_shows_no_dip_at_its_own_frequency():
    spec = sweep(emitter_resonator(), GRID)
    mag = spec.magnitude("atom")
    probes = spec.probes
    sel = np.abs(probes + 3.0) < 1.0
    inner = mag[sel]
    # the undriven-mode response peaks between the normal modes instead of
    # dipping: no interior local minimum near the emitter frequency
    assert inner.min() > 0.5 * inner.max()


# ------------------------------------------------------------------ motion


def test_ensemble_draw_is_deterministic():
    ens = MotionEnsemble(samples=8, seed=5)
    net = emitter_resonator()
    a = sweep(net, GRID, ens).amplitudes
    b = sweep(net, GRID, ens).amplitudes
    np.testing.assert_array_equal(a, b)
    other = MotionEnsemble(samples=8, seed=6)
    c = sweep(net, GRID, other).amplitudes
    assert not np.array_equal(a, c)


def test_zero_variance_ensemble_equals_plain_sweep():
    ens = MotionEnsemble(
        scale_mean=1.0, scale_sigma=0.0, frequency_jitter=0.0, samples=4, seed=1
    )
    net = emitter_resonator()
    averaged = sweep(net, GRID, ens)
    plain = sweep(net, GRID)
    np.testing.assert_array_equal(averaged.amplitudes, plain.amplitudes)


def test_no_ensemble_is_the_still_member_of_each_copy():
    # ensemble=None: each copy is its one unperturbed member, bit for bit the
    # network built with that emitter frequency
    detunings = [-7.5, 0.0, 12.5]
    base = emitter_resonator(delta_er=0.0)
    still = ensemble_mean_family(base, [[0.0, d] for d in detunings], GRID.frequencies(), None)
    assert still.shape == (3, GRID.points, 2)
    for k, d in enumerate(detunings):
        net = emitter_resonator(delta_er=d)
        assert still[k].tobytes() == sweep(net, GRID).amplitudes.tobytes()


def test_ensemble_scale_only_touches_emitter_couplings():
    ens = MotionEnsemble(scale_mean=0.5, scale_sigma=0.0, frequency_jitter=0.0, samples=1)
    net = five_node_demo()
    drawn = ens.draw(net, 0)
    kinds = [m.kind for m in net.modes]
    for i in range(len(net.modes)):
        for j in range(len(net.modes)):
            factor = 0.5 if "emitter" in (kinds[i], kinds[j]) else 1.0
            assert drawn.couplings[i, j] == pytest.approx(net.couplings[i, j] * factor)
    # resonator frequencies untouched
    for m0, m1 in zip(net.modes, drawn.modes):
        if m0.kind == "resonator":
            assert m0.frequency == m1.frequency


def test_scale_bounds_validation():
    with pytest.raises(ValueError):
        MotionEnsemble(scale_bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        MotionEnsemble(scale_bounds=(0.8, 0.6))
    with pytest.raises(ValueError):
        MotionEnsemble(scale_bounds=(0.7, 1.2))
    with pytest.raises(ValueError):
        MotionEnsemble(scale_sigma=-0.1)
    with pytest.raises(ValueError):
        MotionEnsemble(samples=0)
    for samples in (2.5, 8.0, True, "8", np.int64(0)):
        with pytest.raises(ValueError, match="samples"):
            MotionEnsemble(samples=samples)
    ens = MotionEnsemble(samples=np.int64(3))  # a numpy count is stored as an int
    assert type(ens.samples) is int and ens.samples == 3
    for field in ("scale_mean", "scale_sigma", "frequency_jitter"):
        for value in (True, "x", math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                MotionEnsemble(**{field: value})
    for bounds in ((True, 1.0), (0.5, "1"), (math.nan, 1.0), (0.5, math.inf), (0.5, 0.7, 0.9)):
        with pytest.raises(ValueError, match="scale_bounds"):
            MotionEnsemble(scale_bounds=bounds)
    for seed in (True, "3", -1, 2.0):
        with pytest.raises(ValueError, match="seed"):
            MotionEnsemble(seed=seed)


def test_a_list_of_scale_bounds_is_stored_as_a_hashable_tuple():
    ens = MotionEnsemble(scale_bounds=[0.6, 0.9])
    assert ens.scale_bounds == (0.6, 0.9) and type(ens.scale_bounds) is tuple
    assert hash(ens) == hash(MotionEnsemble(scale_bounds=(0.6, 0.9)))
    assert ens == MotionEnsemble(scale_bounds=(0.6, 0.9))


def test_a_zero_jitter_member_has_exactly_positive_zero_shifts():
    net = emitter_resonator()
    _, shifts = MotionEnsemble(frequency_jitter=0.0, samples=64, seed=5).members(net)
    assert not shifts.any() and not np.signbit(shifts).any()


def test_draw_is_member_k_of_the_family_arrays():
    net = emitter_resonator()
    ens = MotionEnsemble(samples=16, seed=9)
    scales, shifts = ens.members(net)
    assert scales.shape == (16,) and shifts.shape == (16, 2)
    assert np.all(shifts[:, 0] == 0.0)  # the resonator never moves
    for k in (0, 5, 15):
        # member k's stream: the scale by rejection first, then the emitter shift
        rng = np.random.default_rng(np.random.SeedSequence((9, k)))
        scale = rng.normal(0.8, 0.12)
        while not 0.5 < scale <= 1.0:
            scale = rng.normal(0.8, 0.12)
        assert (scales[k], shifts[k, 1]) == (scale, rng.normal(0.0, 1.0))
        drawn = ens.draw(net, k)
        assert drawn.couplings[0, 1] == scales[k] * net.couplings[0, 1]
        np.testing.assert_array_equal(drawn.frequencies, net.frequencies + shifts[k])


def test_ensemble_mean_is_bit_identical_to_averaging_drawn_networks(monkeypatch):
    net = emitter_resonator()
    ens = MotionEnsemble(samples=11, seed=4)
    grid = ProbeGrid(-10.0, 10.0, 51)
    probes = grid.frequencies()
    reference = np.mean([steady_state_batch(ens.draw(net, k), probes) for k in range(11)], axis=0)
    np.testing.assert_array_equal(sweep(net, grid, ens).amplitudes, reference)
    # four members per chunk: 11 members leave a partial last chunk
    monkeypatch.setattr(network_module, "_CHUNK_BYTES",
                        4 * probes.size * network_module._system_bytes(len(net)))
    np.testing.assert_array_equal(sweep(net, grid, ens).amplitudes, reference)


def test_ensemble_mean_working_set_is_bounded():
    net = emitter_resonator()
    ens = MotionEnsemble(samples=512)
    probes = np.linspace(-25.0, 25.0, 1001)
    # first-call allocations (generator set-up) are not the solve's
    still = np.zeros((1, len(net)))
    ensemble_mean_family(net, still, probes[:3], MotionEnsemble(samples=2))
    _, peak = traced_peak(lambda: ensemble_mean_family(net, still, probes, ens))
    assert peak <= 2 * network_module._CHUNK_BYTES


def test_unreachable_truncation_window_is_rejected():
    # N(0.1, 0.01) essentially never lands in (0.5, 1]: rejection sampling would spin forever
    with pytest.raises(ValueError, match="unreachable"):
        MotionEnsemble(scale_mean=0.1, scale_sigma=0.01, scale_bounds=(0.5, 1.0))
    with pytest.raises(ValueError, match="scale_mean"):
        MotionEnsemble(scale_mean=math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        MotionEnsemble(scale_sigma=math.nan)
    with pytest.raises(ValueError, match="frequency_jitter"):
        MotionEnsemble(frequency_jitter=math.inf)
    # a narrow window that is still reachable keeps the rejection sampler
    MotionEnsemble(scale_mean=0.3, scale_sigma=0.05, scale_bounds=(0.5, 1.0))
    MotionEnsemble(scale_mean=0.1, scale_sigma=0.0, scale_bounds=(0.5, 1.0))  # clamped


# -------------------------------------------------------- loss localisation


def _three_node(decays):
    modes = tuple(
        Mode(f"n{i+1}", "resonator", f, d)
        for i, (f, d) in enumerate(zip((-8.0, 0.0, 9.0), decays))
    )
    c = np.zeros((3, 3))
    c[0, 1] = c[1, 0] = 5.0
    c[1, 2] = c[2, 1] = 6.0
    net = ModeNetwork(modes, c, np.array([1.0 + 0j, 0j, 0j]))
    return net


def test_lossy_mode_is_found_by_width_minimum():
    net = _three_node((0.5, 5.0, 0.5))
    verdict = lossy_component_identify(net)
    assert verdict.label == "n2"
    # mean width under the lossy drive equals the mean of the *other* decays
    assert verdict.mean_widths["n2"] == pytest.approx(0.5, rel=1e-9)
    assert verdict.mean_widths["n1"] == pytest.approx((5.0 + 0.5) / 2.0, rel=1e-9)


def test_uniform_decay_is_ambiguous():
    net = _three_node((0.7, 0.7, 0.7))
    with pytest.raises(AmbiguityError) as err:
        lossy_component_identify(net)
    assert set(err.value.candidates) >= {"n1", "n2"}
    # a negative tolerance would tie nothing and name a mode; it is refused
    for rel_tol in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="rel_tol"):
            lossy_component_identify(net, rel_tol=rel_tol)


def test_identification_from_measured_spectra():
    net = five_node_demo(lossy="n4")
    grid = ProbeGrid(-45.0, 45.0, 9001)
    spectra = {lab: sweep(net.with_drive_on(lab), grid) for lab in net.labels}
    verdict = lossy_component_identify(net, spectra=spectra)
    assert verdict.label == "n4"


def test_candidate_subset_restricts_the_verdict():
    net = five_node_demo(lossy="n3")
    verdict = lossy_component_identify(net, candidates=("n1", "n3"))
    assert verdict.label == "n3"
    assert set(verdict.mean_widths) == {"n1", "n3"}


# ------------------------------------------------------------------- files


def test_spectrum_csv_round_trip(tmp_path):
    spec = sweep(emitter_resonator(), ProbeGrid(-20.0, 20.0, 201))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    back = read_spectrum_csv(path)
    assert back.labels == spec.labels
    np.testing.assert_array_equal(back.probes, spec.probes)
    np.testing.assert_array_equal(back.amplitudes, spec.amplitudes)


def _one_channel_csv(path, probes):
    """A spectrum CSV of one unit-amplitude channel, with the probe column as given."""
    rows = [f"{p},1,0,1,1,0" for p in probes]
    path.write_text("\n".join(["probe_mhz,c_re,c_im,c_magnitude,c_excitation,"
                                "c_phase_unwrapped_rad", *rows, ""]))
    return path


@pytest.mark.parametrize("probes", [
    pytest.param([-5.0, -4.9, 0.0, 2.5, 5.0], id="off-grid"),
    pytest.param([-5.0, -2.5, math.nan, 2.5, 5.0], id="nan-probe"),
    pytest.param([], id="header-only"),
    pytest.param([1.0], id="one-row"),
])
def test_spectrum_csv_reader_refuses_a_probe_column_off_its_grid(tmp_path, probes):
    with pytest.raises(ValueError, match="probe_mhz"):
        read_spectrum_csv(_one_channel_csv(tmp_path / "spec.csv", probes))


@pytest.mark.parametrize("bad_row", [
    pytest.param("0.5,1,0", id="short"),
    pytest.param("0.5,1,0,1,1,0,7", id="long"),
])
def test_spectrum_csv_reader_refuses_a_row_unlike_its_header(tmp_path, bad_row):
    path = _one_channel_csv(tmp_path / "spec.csv", [0.0, 0.5, 1.0])
    lines = path.read_text().split("\n")
    lines[2] = bad_row  # the second data row, line 3 of the file
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="line 3 holds"):
        read_spectrum_csv(path)


@pytest.mark.parametrize("header", [
    pytest.param("probe_mhz,x_im,x_re,x_magnitude,x_excitation,x_phase_unwrapped_rad",
                 id="re-im-swapped"),
    pytest.param("probe_mhz,a,b,c,d,e", id="unnamed-channels"),
    pytest.param("probe_mhz,_re,_im,_magnitude,_excitation,_phase_unwrapped_rad",
                 id="empty-label"),
    pytest.param("probe_mhz,x_re,x_im,x_magnitude,x_excitation,y_phase_unwrapped_rad",
                 id="two-labels-in-one-group"),
    pytest.param("time_s,x_re,x_im,x_magnitude,x_excitation,x_phase_unwrapped_rad",
                 id="no-probe-column"),
])
def test_spectrum_csv_reader_refuses_a_header_its_writer_does_not_write(tmp_path, header):
    path = _one_channel_csv(tmp_path / "spec.csv", [0.0, 0.5, 1.0])
    lines = path.read_text().split("\n")
    path.write_text("\n".join([header, *lines[1:]]))
    with pytest.raises(ValueError, match="header"):
        read_spectrum_csv(path)


def test_spectrum_csv_reader_refuses_an_empty_file(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        read_spectrum_csv(path)


def test_spectrum_csv_reader_takes_probes_rounded_to_twelve_digits(tmp_path):
    grid = ProbeGrid(0.0, 1.0, 7)  # steps of 1/6: no short decimal form
    path = _one_channel_csv(tmp_path / "spec.csv", [f"{p:.12g}" for p in grid.frequencies()])
    back = read_spectrum_csv(path)
    np.testing.assert_array_equal(back.probes, grid.frequencies())


@pytest.mark.parametrize("prominence", [-5.0, math.nan, math.inf])
def test_detection_rejects_bad_prominence(prominence):
    spectrum = sweep(emitter_resonator(), GRID)
    with pytest.raises(ValueError, match="prominence_db"):
        detect_antiresonances_numeric(spectrum, "cavity", prominence)


def test_spectrum_csv_format_is_pinned(tmp_path):
    # labels that csv must quote, a -0.0 probe, and amplitudes whose 17-digit
    # text must read back bit for bit
    grid = ProbeGrid(-1.0, -0.0, 3)
    amps = np.array([
        [1.0 / 3.0 + 1e-300j, np.pi - np.e * 1j],
        [-2.5e-17 + 7.0j, 0.1 + 0.2j],
        [12345.678901234567 - 1e150j, -1.0 + 0.0j],
    ])
    spec = ComplexSpectrum(grid=grid, labels=("cav,ity", 'at"om'), amplitudes=amps)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    raw = path.read_bytes()
    lines = raw.split(b"\r\n")
    assert lines[-1] == b"" and len(lines) == 1 + 3 + 1
    assert all(b"\n" not in line and b"\r" not in line for line in lines)
    channels = ("re", "im", "magnitude", "excitation", "phase_unwrapped_rad")
    assert lines[0].decode() == ",".join(
        ["probe_mhz"]
        + [f'"cav,ity_{c}"' for c in channels]
        + [f'"at""om_{c}"' for c in channels]
    )
    last = lines[3].decode().split(",")
    assert last[0] == "-0"
    assert last[1] == "12345.678901234567"
    back = read_spectrum_csv(path)
    assert back.labels == ("cav,ity", 'at"om')
    assert np.array_equal(back.probes.view(np.uint64), spec.probes.view(np.uint64))
    assert np.array_equal(back.amplitudes.view(np.uint64), amps.view(np.uint64))


def test_poles_zeros_report_shape():
    net = emitter_resonator()
    rep = poles_zeros_report(resonances(net), antiresonances(net, "cavity"))
    assert {p["center_mhz"] for p in rep["poles"]}
    assert rep["antiresonances"][0]["drive_label"] == "cavity"
    assert rep["antiresonances"][0]["at_boundary"] is False
