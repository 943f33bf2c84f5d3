"""Acceptance gate: every headline guarantee of the toolkit, one test each.

Each test prints a single ``[PASS]``/``[FAIL]`` line carrying the measured
numbers before asserting, so ``pytest -v tests/test_acceptance.py`` doubles
as a human-readable scorecard.  Tolerances and runtime budgets are stated
inline; none of them are tuned to the implementation.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np

from antires.cli import main
from antires.fitting import stark_calibration
from antires.heterodyne import BeatNoteConfig, demodulate, synthesize
from antires.network import (
    Mode,
    ModeNetwork,
    ProbeGrid,
    closed_form_two_mode,
    steady_state,
)
from antires.oracle import (
    JCParams,
    lindblad_steady_state,
    linear_limit_check,
    steady_density_matrix,
)
from antires.presets import STARK_CALIBRATION_POINTS, emitter_resonator, five_node_demo
from antires.spectra import antiresonances, lossy_component_identify, resonances, sweep


def check(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def quiet_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code


# -------------------------------------------------------------------------


def test_01_general_solver_matches_closed_form():
    """10^4 random two-mode systems: matrix solve vs closed form, < 1e-12."""
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        dpe, dpr = rng.uniform(-50.0, 50.0, size=2)
        gamma, kappa = rng.uniform(0.1, 10.0, size=2)
        g = rng.uniform(0.0, 50.0)
        eta = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        modes = (
            Mode("res", "resonator", 0.0, kappa),
            Mode("em", "emitter", dpr - dpe, gamma),
        )
        couplings = np.array([[0.0, g], [g, 0.0]])
        net = ModeNetwork(modes, couplings, np.array([eta, 0.0j]))
        got = steady_state(net, dpr).amplitudes[0]
        want = closed_form_two_mode(dpe, dpr, gamma, kappa, g, eta)
        worst = max(worst, abs(got - want) / abs(want))
    dt = time.perf_counter() - t0
    check(
        "01 solver-equivalence",
        worst < 1e-12 and dt < 1.0,
        f"worst relative error {worst:.3e} (< 1e-12), runtime {dt:.2f} s (< 1 s)",
    )


def test_02_antiresonance_sits_on_undriven_mode():
    """Zero of the driven port = bare frequency and half-width of the other."""
    worst = 0.0
    for g in np.linspace(1.05, 49.95, 33):
        for delta_er in (-3.0, 4.7):
            net = emitter_resonator(delta_er=delta_er, coupling=float(g))
            (zc,) = antiresonances(net, "cavity")
            (za,) = antiresonances(net.with_drive_on("atom"), "atom")
            worst = max(
                worst,
                abs(zc.center - delta_er),
                abs(zc.half_width - 3.0),
                abs(za.center - 0.0),
                abs(za.half_width - 1.5),
            )
    check(
        "02 antiresonance-identity",
        worst < 1e-9,
        f"max |zero - bare undriven mode| {worst:.3e} over g in (1, 50) "
        "(cavity-driven -> atom line, atom-driven -> cavity line)",
    )


def test_03_phase_profile_with_and_without_motion(tmp_path):
    """Stark scan: motionless span 150 +/- 1 deg and width 3.0 MHz +/- 2%;

    with the default motion ensemble span in [135, 145] deg and width in
    [2.9, 3.5] MHz.  Runtime < 10 s for both runs.
    """
    t0 = time.perf_counter()
    cfg_off = tmp_path / "off.json"
    cfg_off.write_text(json.dumps({"motion": {"enabled": False}}))
    assert quiet_cli("stark-scan", "--config", str(cfg_off), "--out", str(tmp_path / "off")) == 0
    off = json.loads((tmp_path / "off" / "stark_fit.json").read_text())

    assert quiet_cli("stark-scan", "--out", str(tmp_path / "on")) == 0
    on = json.loads((tmp_path / "on" / "stark_fit.json").read_text())
    dt = time.perf_counter() - t0

    span_off, width_off = off["span_deg"], off["parameters"]["width"]
    span_on, width_on = on["span_deg"], on["parameters"]["width"]
    ok = (
        abs(span_off - 150.0) <= 1.0
        and abs(width_off - 3.0) <= 0.06
        and 135.0 <= span_on <= 145.0
        and 2.9 <= width_on <= 3.5
        and dt < 10.0
    )
    check(
        "03 phase-profile",
        ok,
        f"motionless span {span_off:.2f} deg / width {width_off:.4f} MHz; "
        f"motional span {span_on:.2f} deg / width {width_on:.4f} MHz; "
        f"runtime {dt:.1f} s (< 10 s)",
    )


def test_04_antiresonance_tracks_emitter_detuning(tmp_path):
    """Scan rows at detunings +12, -5, -14 MHz put the zero at -12, +5, +14."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"detuning": {"values": [12.0, -5.0, -14.0]}}))
    assert quiet_cli("scan2d", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "scan2d_report.json").read_text())
    step = (report["grid"]["stop"] - report["grid"]["start"]) / (report["grid"]["points"] - 1)
    rows = {r["detuning_mhz"]: r["zero_center_mhz"] for r in report["rows"]}
    devs = {d: abs(rows[d] - (-d)) for d in (12.0, -5.0, -14.0)}
    ok = report["all_within_one_step"] and all(v <= step for v in devs.values())
    check(
        "04 zero-tracking",
        ok,
        f"zero centers {rows[12.0]:+.3f}, {rows[-5.0]:+.3f}, {rows[-14.0]:+.3f} MHz "
        f"for detunings +12, -5, -14; max deviation {max(devs.values()):.3f} "
        f"<= one grid step ({step:.3f} MHz)",
    )


def test_05_power_calibration_intercept():
    """Affine power->detuning fit extrapolates to -40 +/- 2 MHz at zero power."""
    cal = stark_calibration(STARK_CALIBRATION_POINTS)
    ok = abs(cal.intercept - (-40.0)) <= 2.0
    check(
        "05 power-calibration",
        ok,
        f"intercept {cal.intercept:+.3f} MHz (target -40 +/- 2), "
        f"slope {cal.slope:.5f} MHz/nW",
    )


def test_06_quantum_oracle_converges_to_linear_model():
    """Weak-drive deviations fall monotonically and reach < 1e-3 at eta/kappa
    = 0.01; every steady-state density matrix is Hermitian, unit-trace, PSD.
    Runtime < 5 s.
    """
    t0 = time.perf_counter()
    base = JCParams(gamma=3.0, kappa=1.5, g=16.0, cutoff=4)
    ratios = (0.3, 0.1, 0.03, 0.01)
    limit = linear_limit_check(base, ratios)

    valid = True
    for ratio in ratios:
        for cutoff in (4, 6):
            rho = steady_density_matrix(replace(base, eta=ratio * base.kappa).network, cutoff)
            herm = np.max(np.abs(rho - rho.conj().T))
            trace = abs(np.trace(rho) - 1.0)
            lowest = np.linalg.eigvalsh(rho)[0]
            valid &= herm < 1e-12 and trace < 1e-12 and lowest > -1e-12
    dt = time.perf_counter() - t0

    weakest = limit.deviations[-1]
    ok = limit.monotone and weakest < 1e-3 and valid and dt < 5.0
    devs = ", ".join(f"{d:.2e}" for d in limit.deviations)
    check(
        "06 oracle-linear-limit",
        ok,
        f"deviations [{devs}] monotone={limit.monotone}, weakest {weakest:.2e} "
        f"(< 1e-3), density matrices valid={valid}, runtime {dt:.2f} s (< 5 s)",
    )


def test_07_intensity_fluctuations_at_the_antiresonance():
    """g2 at the antiresonance >= 10x g2 at either normal mode; values pinned."""
    base = JCParams(gamma=3.0, kappa=1.5, g=16.0, cutoff=4, eta=0.01 * 1.5)
    anti = lindblad_steady_state(replace(base, delta_pe=0.0, delta_pr=0.0))
    split = math.sqrt(16.0**2 - ((3.0 - 1.5) / 2.0) ** 2)
    modes = [
        lindblad_steady_state(replace(base, delta_pe=c, delta_pr=c))
        for c in (-split, +split)
    ]
    g2_modes = [m.g2 for m in modes]
    contrast = anti.g2 / max(g2_modes)

    pin_anti = 713.5596202425027
    pin_mode = 0.5832256330237964
    ok = (
        abs(anti.g2 - pin_anti) / pin_anti < 1e-6
        and all(abs(g - pin_mode) / pin_mode < 1e-6 for g in g2_modes)
        and contrast >= 10.0
    )
    check(
        "07 intensity-fluctuations",
        ok,
        f"g2(antiresonance) {anti.g2:.4f} (pin {pin_anti:.4f}), "
        f"g2(normal modes) {g2_modes[0]:.6f}/{g2_modes[1]:.6f} (pin {pin_mode:.6f}), "
        f"contrast {contrast:.0f}x (>= 10x)",
    )


def test_08_lossy_component_identification():
    """100 random 5-node networks, one decay 10x baseline: 100% identified."""
    correct = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        baseline = rng.uniform(0.3, 0.9)
        lossy = int(rng.integers(5))
        freqs = np.sort(rng.uniform(-20.0, 20.0, size=5))
        modes = tuple(
            Mode(
                f"n{i}",
                "resonator",
                float(freqs[i]),
                baseline * (10.0 if i == lossy else 1.0),
            )
            for i in range(5)
        )
        couplings = np.zeros((5, 5))
        for i in range(5):
            j = (i + 1) % 5
            couplings[i, j] = couplings[j, i] = rng.uniform(5.0, 12.0)
        a, b = rng.choice(5, size=2, replace=False)
        couplings[a, b] = couplings[b, a] = rng.uniform(2.0, 6.0)
        net = ModeNetwork(modes, couplings, np.zeros(5, dtype=complex))
        verdict = lossy_component_identify(net)
        correct += verdict.label == f"n{lossy}"
    check(
        "08 lossy-identification",
        correct == 100,
        f"{correct}/100 networks identified via narrowest mean antiresonance width",
    )


def test_09_heterodyne_phase_roundtrip():
    """Noiseless recovery < 1e-6 rad over a 20x36 grid; at SNR 10 the phase
    noise is within 20% of 1/SNR rad."""
    cfg = BeatNoteConfig()
    worst = 0.0
    for amp in np.linspace(0.1, 2.0, 20):
        for deg in range(-175, 185, 10):
            field = amp * np.exp(1j * math.radians(deg))
            trace = synthesize(field, cfg)
            _, phases = demodulate(trace, cfg)
            err = abs(math.remainder(phases[0] - math.radians(deg), math.tau))
            worst = max(worst, err)

    noisy = BeatNoteConfig(snr_per_window=10.0, seed=42)
    trace = synthesize(1.0 + 0.0j, noisy, windows=10_000)
    _, phases = demodulate(trace, noisy)
    resid = np.angle(np.exp(1j * phases))
    std = float(np.sqrt(np.mean(resid**2)))
    ok = worst < 1e-6 and abs(std - 0.1) <= 0.02
    check(
        "09 heterodyne-roundtrip",
        ok,
        f"noiseless worst error {worst:.2e} rad (< 1e-6) over 20 amplitudes x "
        f"36 phases; SNR-10 phase noise {std:.4f} rad (1/SNR = 0.1 +/- 20%)",
    )


def test_10_pole_invariance_and_empty_resonator_phase_step():
    """Pole table identical for every drive port (bitwise); a bare driven
    resonator's unwrapped phase climbs monotonically by the finite-window
    arctan budget of a single pole."""
    net = five_node_demo()
    tables = [
        tuple((p.center, p.half_width, p.multiplicity) for p in resonances(net.with_drive_on(lab)))
        for lab in net.labels
    ]
    poles_ok = all(t == tables[0] for t in tables)

    kappa, half = 1.5, 25.0
    bare = ModeNetwork(
        (Mode("res", "resonator", 0.0, kappa),),
        np.zeros((1, 1)),
        np.array([1.0 + 0.0j]),
    )
    spectrum = sweep(bare, ProbeGrid(-half, half, 1001))
    phase = np.unwrap(np.angle(spectrum.amplitudes[:, 0]))
    rise = phase[-1] - phase[0]
    expected = math.pi - 2.0 * math.atan(kappa / half)
    monotone = bool(np.all(np.diff(phase) > 0.0))
    ok = poles_ok and monotone and abs(rise - expected) < 1e-9
    check(
        "10 pole-invariance",
        ok,
        f"pole tables bitwise identical across {len(net)} drive ports: {poles_ok}; "
        f"bare-resonator phase rise {rise:.9f} rad vs {expected:.9f} expected, "
        f"monotone={monotone}",
    )
