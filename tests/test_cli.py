import copy
import csv
import inspect
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import antires
from antires import cli as cli_module
from antires import oracle as oracle_module
from antires.cli import DEFAULTS, main
from antires.fitting import fit_arctan_phase
from antires.heterodyne import BeatNoteConfig, accumulate_histogram
from antires.network import (
    Mode,
    ModeNetwork,
    ProbeGrid,
    closed_form_two_mode,
    save_network,
    steady_state,
)
from antires.oracle import CutoffConvergenceError, DensityMatrixError, JCParams, linear_limit_check
from antires.presets import NETWORK_PRESETS, emitter_resonator
from antires.spectra import (
    MotionEnsemble,
    detect_antiresonances_numeric,
    ensemble_mean_family,
    lossy_component_identify,
    read_spectrum_csv,
    sweep,
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buf.getvalue()


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------- spectrum


def test_spectrum_default_run(tmp_path):
    out = tmp_path / "run"
    code, text = run_cli("spectrum", "--out", str(out))
    assert code == 0
    report = json.loads((out / "spectrum_report.json").read_text())
    assert (out / "spectrum.csv").exists()
    zero = report["antiresonances"][0]
    assert zero["center_mhz"] == pytest.approx(-3.0, abs=1e-9)
    assert zero["half_width_mhz"] == pytest.approx(3.0, abs=1e-9)
    centers = sorted(p["center_mhz"] for p in report["poles"])
    assert centers[0] == pytest.approx(-17.5528007331, abs=1e-6)
    assert centers[1] == pytest.approx(14.5528007331, abs=1e-6)
    det = report["detected"]
    assert len(det) == 1 and det[0]["at_boundary"] is False
    assert det[0]["center_mhz"] == pytest.approx(-3.0, abs=1e-6)
    assert "observable antiresonances" in text


def test_spectrum_csv_matches_library_sweep(tmp_path):
    out = tmp_path / "run"
    assert run_cli("spectrum", "--out", str(out))[0] == 0
    back = read_spectrum_csv(out / "spectrum.csv")
    direct = sweep(emitter_resonator(), ProbeGrid(-25.0, 25.0, 1001))
    np.testing.assert_array_equal(back.amplitudes, direct.amplitudes)
    np.testing.assert_array_equal(back.probes, direct.probes)


def test_spectrum_decoupled_network(tmp_path):
    cfg = write_config(tmp_path, {"network_params": {"coupling": 0.0}})
    out = tmp_path / "run"
    code, _ = run_cli("spectrum", "--config", cfg, "--out", str(out))
    assert code == 0
    report = json.loads((out / "spectrum_report.json").read_text())
    # the decoupled emitter cancels against its own zero: one observable pole
    assert report["antiresonances"] == []
    assert report["detected"] == []
    assert len(report["poles"]) == 1
    assert report["poles"][0]["center_mhz"] == pytest.approx(0.0)
    assert report["poles"][0]["half_width_mhz"] == pytest.approx(1.5)


def test_spectrum_runs_are_deterministic(tmp_path):
    cfg = write_config(
        tmp_path,
        {"motion": {"enabled": True, "samples": 32}, "grid": {"points": 201}},
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("spectrum", "--config", cfg, "--out", str(a), "--seed", "7")[0] == 0
    assert run_cli("spectrum", "--config", cfg, "--out", str(b), "--seed", "7")[0] == 0
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
    assert (a / "spectrum_report.json").read_bytes() == (b / "spectrum_report.json").read_bytes()
    c = tmp_path / "c"
    assert run_cli("spectrum", "--config", cfg, "--out", str(c), "--seed", "8")[0] == 0
    assert (a / "spectrum.csv").read_bytes() != (c / "spectrum.csv").read_bytes()


# ------------------------------------------------------------------ scan2d


def test_scan2d_tracks_reference_detunings(tmp_path):
    cfg = write_config(tmp_path, {"detuning": {"values": [12.0, -5.0, -14.0]}})
    out = tmp_path / "run"
    code, _ = run_cli("scan2d", "--config", cfg, "--out", str(out))
    assert code == 0
    report = json.loads((out / "scan2d_report.json").read_text())
    assert report["all_within_one_step"] is True
    assert report["phase_bounded"] is True
    got = {r["detuning_mhz"]: r["zero_center_mhz"] for r in report["rows"]}
    step = (30.0 - -30.0) / 100
    assert got[12.0] == pytest.approx(-12.0, abs=step)
    assert got[-5.0] == pytest.approx(5.0, abs=step)
    assert got[-14.0] == pytest.approx(14.0, abs=step)
    header = (out / "scan2d.csv").read_text().splitlines()[0]
    assert header == "detuning_mhz,probe_mhz,phase_deg,magnitude"


def run_cli_stderr(*argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def test_spectrum_of_a_network_that_overflows_exits_2_naming_the_probe(tmp_path):
    # a decay of 5e-324 MHz passes validation, but the solve at the mode's own
    # frequency overflows: refused, not written as NaN
    net = ModeNetwork((Mode("c", "resonator", 0.0, 5e-324),), np.zeros((1, 1)),
                      np.array([1.0 + 0j]))
    save_network(net, tmp_path / "net.json")
    cfg = write_config(tmp_path, {"network": str(tmp_path / "net.json"),
                                  "grid": {"start": -1.0, "stop": 1.0, "points": 3}})
    out = tmp_path / "x"
    code, err = run_cli_stderr("spectrum", "--config", cfg, "--out", str(out))
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and "probe=0.0" in err
    assert not (out / "spectrum.csv").exists()


@pytest.mark.parametrize("grid", [
    {"start": -1e308, "stop": 1e308, "points": 5},  # the span overflows
    {"start": 0.0, "stop": 5e-324, "points": 3},  # the step underflows to 0
])
def test_spectrum_of_a_grid_with_no_finite_positive_step_exits_2(tmp_path, grid):
    cfg = write_config(tmp_path, {"grid": grid})
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns about the probes
        code, err = run_cli_stderr("spectrum", "--config", cfg, "--out", str(out))
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("error: grid step must be a finite positive number, got ")
    assert not (out / "spectrum.csv").exists()


@pytest.mark.parametrize("command, config, key", [
    ("spectrum", {"grid": {"start": 1.0, "stop": 1.0000000000000002, "points": 3}}, "grid step"),
    ("scan2d", {"detuning": {"start": -1e308, "stop": 1e308, "points": 3}}, "'detuning'"),
    ("scan2d", {"detuning": {"start": -1e308, "stop": 1e308, "points": 1}}, "'detuning'"),
    ("stark-scan", {"powers": {"start_nw": -1e308, "stop_nw": 1e308, "points": 61},
                    "motion": {"enabled": False}}, "'powers'"),
])
def test_a_range_with_no_float_probes_exits_2_naming_its_key(tmp_path, command, config, key):
    # half a float spacing a step repeats a probe; a span that overflows makes NaN
    # rows: each is refused before any solve, not reported as a singular matrix
    cfg = write_config(tmp_path, config)
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code, err = run_cli_stderr(command, "--config", cfg, "--out", str(out))
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and key in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("command, config", [
    ("scan2d", {"grid": {"points": 41}, "detuning": {"start": 3.0, "stop": -1e308, "points": 1}}),
    ("scan2d", {"grid": {"points": 41}, "detuning": {"values": [1e300, -4.0]}}),
    ("scan2d", {"grid": {"points": 41}, "detuning": {"start": 0, "stop": 10**20, "points": 3}}),
    ("spectrum", {"grid": {"start": 0, "stop": 10**20, "points": 3}}),  # ints past int64
    ("stark-scan", {"powers": {"points": 6}, "motion": {"enabled": False}}),
])
def test_ranges_that_do_not_overflow_run(tmp_path, command, config):
    out = tmp_path / "run"
    assert run_cli(command, "--config", write_config(tmp_path, config), "--out", str(out))[0] == 0


def test_scan2d_refuses_an_empty_detuning_list(tmp_path):
    cfg = write_config(tmp_path, {"detuning": {"values": []}})
    out = tmp_path / "x"
    code, err = run_cli_stderr("scan2d", "--config", cfg, "--out", str(out))
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and "detuning.values" in err
    assert not (out / "scan2d.csv").exists()


def test_scan2d_null_detuning_list_runs_the_range(tmp_path):
    cfg = write_config(tmp_path, {"grid": {"points": 41},
                                  "detuning": {"values": None, "points": 3}})
    out = tmp_path / "run"
    assert run_cli("scan2d", "--config", cfg, "--out", str(out))[0] == 0
    report = json.loads((out / "scan2d_report.json").read_text())
    assert [r["detuning_mhz"] for r in report["rows"]] == [-20.0, 0.0, 20.0]


def test_scan2d_rejects_delta_er_override(tmp_path):
    cfg = write_config(tmp_path, {"network_params": {"delta_er": 4.0}})
    code, err = run_cli_stderr("scan2d", "--config", cfg, "--out", str(tmp_path / "x"))
    assert code == 2
    assert "delta_er" in err


# -------------------------------------------------------------- stark-scan


def test_stark_scan_rejects_delta_er_override(tmp_path):
    cfg = write_config(tmp_path, {"network_params": {"delta_er": 4.0}})
    code, err = run_cli_stderr("stark-scan", "--config", cfg, "--out", str(tmp_path / "x"))
    assert code == 2
    assert "delta_er" in err


@pytest.mark.parametrize("payload", [
    pytest.param({"calibration_points": [[1000.0, 0.0], [1000.0, 5.0]]},
                 id="calibration-at-one-power"),
    pytest.param({"network_params": {"coupling": 0.0}, "motion": {"enabled": False}},
                 id="flat-phase"),
])
def test_stark_scan_rank_deficient_fit_exits_1_without_traceback(tmp_path, payload):
    # a fit parameter the data cannot determine is a failed check, not a crash;
    # only a fresh interpreter shows whether a traceback reaches stderr
    cfg = write_config(tmp_path, payload)
    src = os.path.dirname(os.path.dirname(antires.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "antires.cli", "stark-scan", "--config", cfg,
         "--out", str(tmp_path / "x")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("motion", [False, True])
def test_stark_scan_range_whose_fit_overflows_exits_2_naming_its_keys(tmp_path, motion):
    # finite powers that calibrate to detunings near 1e307 MHz: the arctangent
    # fit's slopes and normal equations overflow, which is a refused config
    cfg = write_config(tmp_path, {"powers": {"start_nw": 1e306, "stop_nw": 1.7e308, "points": 61},
                                  "motion": {"enabled": motion, "samples": 8}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_cli_stderr("stark-scan", "--config", cfg, "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error: ") and "'powers'" in err and "'calibration_points'" in err


@pytest.mark.parametrize("powers, codes", [
    ({"start_nw": -2000.0, "stop_nw": 5000.0, "points": 401}, {0}),  # -115 to +146 MHz
    ({"start_nw": 1e100, "stop_nw": 1e101, "points": 61}, {1}),  # a flat phase: rank deficient
])
def test_stark_scan_wide_ranges_that_fit_without_overflow_are_accepted(tmp_path, powers, codes):
    cfg = write_config(tmp_path, {"powers": powers, "motion": {"enabled": False}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_cli_stderr("stark-scan", "--config", cfg, "--out", str(tmp_path / "x"))
    assert code in codes
    assert "powers" not in err


def test_stark_scan_motionless(tmp_path):
    cfg = write_config(
        tmp_path,
        {"motion": {"enabled": False}, "powers": {"points": 41}},
    )
    out = tmp_path / "run"
    code, text = run_cli("stark-scan", "--config", cfg, "--out", str(out))
    assert code == 0
    report = json.loads((out / "stark_fit.json").read_text())
    assert report["model"] == "arctan_phase"
    assert report["parameters"]["width"] == pytest.approx(3.0, rel=0.02)
    assert report["span_deg"] == pytest.approx(150.0, abs=1.0)
    assert report["calibration"]["intercept_mhz"] == pytest.approx(-40.0, abs=2.0)
    assert report["motion_enabled"] is False
    assert "arctan fit" in text
    rows = (out / "stark_scan.csv").read_text().splitlines()
    assert rows[0] == "power_nw,induced_detuning_mhz,phase_deg"
    assert len(rows) == 42


def test_stark_scan_with_motion(tmp_path):
    cfg = write_config(
        tmp_path,
        {"motion": {"samples": 96}, "powers": {"points": 31}},
    )
    out = tmp_path / "run"
    code, _ = run_cli("stark-scan", "--config", cfg, "--out", str(out))
    assert code == 0
    report = json.loads((out / "stark_fit.json").read_text())
    # motional blur compresses the observable contrast below the
    # motionless 150 degrees
    assert report["span_deg"] < 148.0
    assert report["span_deg"] > 125.0
    assert report["motion_enabled"] is True


@pytest.mark.parametrize("motion", [True, False])
def test_stark_scan_matches_per_power_solves(tmp_path, motion):
    cfg = write_config(
        tmp_path, {"motion": {"enabled": motion, "samples": 24}, "powers": {"points": 9}}
    )
    out = tmp_path / "run"
    code, _ = run_cli("stark-scan", "--config", cfg, "--out", str(out), "--seed", "7")
    assert code == 0
    rows = [line.split(",") for line in (out / "stark_scan.csv").read_text().splitlines()[1:]]
    ensemble = MotionEnsemble(samples=24, seed=7)
    amps = []
    for _, detuning, _ in rows:
        net = emitter_resonator(delta_er=-float(detuning))
        if motion:
            amps.append(ensemble_mean_family(net, np.zeros((1, 2)), [0.0], ensemble)[0, 0, 0])
        else:
            amps.append(steady_state(net, 0.0).amplitude("cavity"))
    phase = np.degrees(np.unwrap(np.angle(np.asarray(amps))))
    assert [r[2] for r in rows] == [f"{v:.17g}" for v in phase]


def test_scan2d_matches_per_row_sweeps(tmp_path):
    rows = [-20.0, -7.5, 0.0, 12.5]
    grid = ProbeGrid(-30.0, 30.0, 601)
    cfg = write_config(tmp_path, {"grid": {"start": grid.start, "stop": grid.stop,
                                           "points": grid.points},
                                  "detuning": {"values": rows}})
    out = tmp_path / "run"
    assert run_cli("scan2d", "--config", cfg, "--out", str(out))[0] == 0
    csv_rows = [line.split(",") for line in (out / "scan2d.csv").read_text().splitlines()[1:]]
    report = json.loads((out / "scan2d_report.json").read_text())
    assert len(csv_rows) == len(rows) * grid.points
    for k, d in enumerate(rows):
        spectrum = sweep(emitter_resonator(delta_er=-d), grid)
        col = spectrum.amplitudes[:, spectrum.labels.index("cavity")]
        phase = np.degrees(np.unwrap(np.angle(col)))
        block = csv_rows[k * grid.points:(k + 1) * grid.points]
        assert [r[0] for r in block] == [f"{d:.17g}"] * grid.points
        assert [r[1] for r in block] == [f"{v:.17g}" for v in grid.frequencies()]
        assert [r[2] for r in block] == [f"{v:.17g}" for v in phase]
        assert [r[3] for r in block] == [f"{v:.17g}" for v in np.abs(col)]
        (zero,) = [z for z in detect_antiresonances_numeric(spectrum, "cavity")
                   if not z.at_boundary]
        assert report["rows"][k]["zero_center_mhz"] == zero.center
        assert report["rows"][k]["zero_half_width_mhz"] == zero.half_width


def test_stark_scan_unreachable_motion_window_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"motion": {"scale_mean": 0.1, "scale_sigma": 0.01}})
    code, _ = run_cli("stark-scan", "--config", cfg, "--out", str(tmp_path / "run"))
    assert code == 2


# ------------------------------------------------------------ characterize


def test_characterize_five_node_demo(tmp_path):
    out = tmp_path / "run"
    code, text = run_cli("characterize", "--out", str(out))
    assert code == 0
    report = json.loads((out / "characterize_report.json").read_text())
    assert report["verdict"]["lossiest"] == "n3"
    assert report["pole_tables_drive_independent"] is True
    widths = report["verdict"]["mean_half_widths_mhz"]
    assert widths["n3"] == pytest.approx(0.6, rel=1e-9)
    assert min(widths, key=widths.get) == "n3"
    assert "lossiest" in text


def test_characterize_two_mode_zero_tables(tmp_path):
    cfg = write_config(tmp_path, {"network": "emitter-resonator"})
    out = tmp_path / "run"
    code, _ = run_cli("characterize", "--config", cfg, "--out", str(out))
    assert code == 0
    report = json.loads((out / "characterize_report.json").read_text())
    by_drive = report["antiresonances_by_drive"]
    assert by_drive["cavity"][0]["center_mhz"] == pytest.approx(-3.0)
    assert by_drive["cavity"][0]["half_width_mhz"] == pytest.approx(3.0)
    assert by_drive["atom"][0]["center_mhz"] == pytest.approx(0.0)
    assert by_drive["atom"][0]["half_width_mhz"] == pytest.approx(1.5)


def test_characterize_ambiguous_network_exits_3(tmp_path):
    modes = tuple(Mode(f"r{i}", "resonator", f, 0.9) for i, f in enumerate((-9.0, 0.0, 8.0)))
    c = np.zeros((3, 3))
    c[0, 1] = c[1, 0] = 5.0
    c[1, 2] = c[2, 1] = 5.0
    net = ModeNetwork(modes, c, np.array([1.0 + 0j, 0j, 0j]))
    net_path = tmp_path / "uniform.json"
    save_network(net, net_path)
    cfg = write_config(tmp_path, {"network": str(net_path)})
    out = tmp_path / "run"
    code, text = run_cli("characterize", "--config", cfg, "--out", str(out))
    assert code == 3
    assert "AMBIGUOUS" in text
    report = json.loads((out / "characterize_report.json").read_text())
    assert len(report["ambiguous_candidates"]) >= 2
    assert "verdict" not in report


def test_a_motion_section_builds_the_ensemble_its_keywords_build(tmp_path, monkeypatch):
    section = {"enabled": True, "scale_mean": 0.7, "scale_sigma": 0.1,
               "scale_bounds": [0.55, 0.95], "frequency_jitter": 0.5, "samples": 3}
    defaults = DEFAULTS["spectrum"]["motion"]
    assert set(section) == set(defaults)
    assert all(section[key] != defaults[key] for key in section)
    built = []

    def recorded(net, grid, ensemble):
        built.append(ensemble)
        return sweep(net, grid, ensemble)

    monkeypatch.setattr(cli_module, "sweep", recorded)
    cfg = write_config(tmp_path, {"grid": {"points": 201}, "motion": section})
    code, _ = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "x"), "--seed", "11")
    assert code == 0
    assert built == [MotionEnsemble(scale_mean=0.7, scale_sigma=0.1, scale_bounds=(0.55, 0.95),
                                    frequency_jitter=0.5, samples=3, seed=11)]


# ------------------------------------------------------------ oracle-check


def test_oracle_check_passes(tmp_path):
    out = tmp_path / "run"
    code, text = run_cli("oracle-check", "--out", str(out))
    assert code == 0
    assert text.strip().endswith("PASS")
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["pass"] is True
    assert report["linear_limit"]["monotone_decreasing"] is True
    assert report["linear_limit"]["min_deviation"] < 1e-3
    assert report["g2"]["contrast"] >= 10.0
    assert report["params"]["g_mhz"] == 16.0


def test_oracle_check_passes_an_ascending_drive_ladder(tmp_path):
    ladder = [0.01, 0.03, 0.1, 0.3]
    cfg = write_config(tmp_path, {"eta_over_kappa": ladder})
    out = tmp_path / "run"
    code, text = run_cli("oracle-check", "--config", cfg, "--out", str(out))
    assert code == 0
    assert text.strip().endswith("PASS")
    limit = json.loads((out / "oracle_report.json").read_text())["linear_limit"]
    assert limit["monotone_decreasing"] is True
    assert limit["eta_over_kappa"] == ladder
    assert limit["relative_deviations"] == sorted(limit["relative_deviations"])


def test_oracle_check_can_fail(tmp_path):
    # an absurd contrast requirement must flip the exit code to 1
    cfg = write_config(tmp_path, {"g2_contrast_min": 1e9})
    code, text = run_cli("oracle-check", "--config", cfg, "--out", str(tmp_path / "x"))
    assert code == 1
    assert text.strip().endswith("FAIL")


@pytest.mark.parametrize("key, value", [
    ("deviation_limit", 0.0),  # no deviation is below 0: always FAIL
    ("deviation_limit", -1e-3),
    ("g2_contrast_min", 0.0),  # every contrast passes: the check is off
    ("g2_contrast_min", -1.0),
])
def test_oracle_check_thresholds_that_cannot_be_met_exit_2_before_any_solve(
        tmp_path, monkeypatch, key, value):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the thresholds")

    monkeypatch.setattr(cli_module, "linear_limit_check", no_solve)
    monkeypatch.setattr(cli_module, "lindblad_steady_state", no_solve)
    cfg = write_config(tmp_path, {key: value, "g": 0.5})
    out = tmp_path / "x"
    code, err = run_cli_stderr("oracle-check", "--config", cfg, "--out", str(out))
    assert code == 2
    assert err == f"error: {key} must be a finite positive number, got {value!r}\n"
    assert not (out / "oracle_report.json").exists()


def test_oracle_check_strong_drive_climbs_to_cutoff_40(tmp_path):
    # eta/kappa = 5 saturates the emitter: the g2 contrast check fails, and
    # the antiresonance's photon tail is cut short enough only at cutoff 40,
    # the last rung of 4, 6, 9, 14, 21, 32, 40
    cfg = write_config(tmp_path, {"g2_eta_over_kappa": 5})
    out = tmp_path / "run"
    code, text = run_cli("oracle-check", "--config", cfg, "--out", str(out))
    assert code == 1
    assert text.strip().endswith("FAIL")
    anti = json.loads((out / "oracle_report.json").read_text())["g2"]["antiresonance"]
    assert anti["cutoff_used"] == 40
    assert anti["cutoff_delta"] < 1e-3


@pytest.mark.parametrize("error", [CutoffConvergenceError, DensityMatrixError])
def test_oracle_failure_exits_1_without_traceback(tmp_path, monkeypatch, error):
    def fail(params, cutoff):
        raise error("oracle failed")

    monkeypatch.setattr(oracle_module, "steady_density_matrix", fail)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["oracle-check", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "Traceback" not in err.getvalue()
    assert err.getvalue() == "error: oracle failed\n"


# --------------------------------------------------------- heterodyne-demo


def test_heterodyne_demo_small(tmp_path):
    cfg = write_config(
        tmp_path,
        {"probe_points": [-6.0, 0.0, 6.0], "windows": 80},
    )
    out = tmp_path / "run"
    code, _ = run_cli("heterodyne-demo", "--config", cfg, "--out", str(out))
    assert code == 0
    report = json.loads((out / "heterodyne_report.json").read_text())
    assert report["all_within_bound"] is True
    assert len(report["points"]) == 3
    hist_rows = (out / "heterodyne_histograms.csv").read_text().splitlines()
    assert len(hist_rows) == 1 + 3 * 72
    assert (out / "trace_example.csv").exists()
    assert (out / "heterodyne_points.csv").exists()


def test_heterodyne_demo_with_no_probe_points(tmp_path):
    # a family solve over zero probes
    cfg = write_config(tmp_path, {"probe_points": []})
    out = tmp_path / "run"
    code, _ = run_cli("heterodyne-demo", "--config", cfg, "--out", str(out))
    assert code == 0
    report = json.loads((out / "heterodyne_report.json").read_text())
    assert report["points"] == []
    assert report["z_bound"] == pytest.approx(3.0, abs=1e-3)  # the bound for one probe


def test_heterodyne_model_phase_matches_closed_form(tmp_path):
    delta_er, g = 2.5, 11.0
    probes = [-9.0, -2.0, 2.5, 7.0, 15.0]
    cfg = write_config(tmp_path, {"network_params": {"delta_er": delta_er, "coupling": g},
                                  "probe_points": probes, "windows": 20})
    out = tmp_path / "run"
    code, _ = run_cli("heterodyne-demo", "--config", cfg, "--out", str(out))
    assert code in (0, 1)
    points = json.loads((out / "heterodyne_report.json").read_text())["points"]
    p = np.array(probes)
    system = closed_form_two_mode(p - delta_er, p, 3.0, 1.5, g)
    empty = 1.0 / (p + 1.5j)
    want = np.degrees((np.angle(system) - np.angle(empty) + np.pi) % (2 * np.pi) - np.pi)
    assert [q["probe_mhz"] for q in points] == probes
    np.testing.assert_allclose([q["model_phase_deg"] for q in points], want, rtol=0, atol=1e-9)


def test_heterodyne_demo_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"probe_points": [0.0, 6.0], "windows": 40})
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("heterodyne-demo", "--config", cfg, "--out", str(a), "--seed", "5")[0] == 0
    assert run_cli("heterodyne-demo", "--config", cfg, "--out", str(b), "--seed", "5")[0] == 0
    for name in ("heterodyne_points.csv", "heterodyne_histograms.csv",
                 "heterodyne_report.json", "trace_example.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _bias_system_channel(monkeypatch, bias_deg, probes=None):
    """Rotate the system field by ``bias_deg`` before its windows are drawn.

    heterodyne-demo draws probe k's system windows and then its reference
    windows, so draw 2k is probe k's system channel.  ``probes`` limits the
    bias to those probe indices (all when None).
    """
    draws = itertools.count()
    original = cli_module.iq_law_windows

    def biased(field, config, windows, rng):
        k, channel = divmod(next(draws), 2)
        if channel == 0 and (probes is None or k in probes):
            field *= np.exp(1j * math.radians(bias_deg))
        return original(field, config, windows, rng)

    monkeypatch.setattr(cli_module, "iq_law_windows", biased)


def test_heterodyne_points_csv_writes_booleans_as_words(tmp_path, monkeypatch):
    # a 5 degree bias on the third probe only is about 50 standard errors
    _bias_system_channel(monkeypatch, 5.0, probes={2})
    cfg = write_config(tmp_path, {"probe_points": [-20.0, -16.0, -10.0]})
    out = tmp_path / "run"
    code, _ = run_cli("heterodyne-demo", "--config", cfg, "--out", str(out), "--seed", "5")
    assert code == 1
    raw = (out / "heterodyne_points.csv").read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n") == 4
    rows = [line.split(",") for line in raw.decode().split("\r\n")[1:-1]]
    assert [r[-1] for r in rows] == ["True", "True", "False"]
    report = json.loads((out / "heterodyne_report.json").read_text())
    assert [p["within_bound"] for p in report["points"]] == [True, True, False]
    assert report["all_within_bound"] is False


def test_heterodyne_demo_fails_a_one_degree_bias(tmp_path, monkeypatch):
    _bias_system_channel(monkeypatch, 1.0)
    out = tmp_path / "run"
    code, text = run_cli("heterodyne-demo", "--out", str(out))
    assert code == 1
    assert "MISS" in text
    report = json.loads((out / "heterodyne_report.json").read_text())
    assert not report["all_within_bound"]


@pytest.mark.parametrize("seed", [0, 1, 2, 23, 2024])
def test_heterodyne_demo_passes_3_sigma_at_4000_windows(tmp_path, seed):
    # the default probes at the window count the benchmark runs; each run
    # draws its windows from their exact law, so it takes milliseconds
    cfg = write_config(tmp_path, {"windows": 4000})
    code, _ = run_cli("heterodyne-demo", "--config", cfg, "--out", str(tmp_path / "run"),
                      "--seed", str(seed))
    assert code == 0


@pytest.mark.parametrize("windows, snr", [(400, 50.0), (400, 5.0), (200, 50.0), (200, 5.0)])
def test_heterodyne_standard_errors_are_calibrated(tmp_path, windows, snr):
    # (mean - model) / error is a unit normal when the error bar is right; the
    # RMS of 900 of them (100 seeds of 9 probes) is 1 with a spread of 2.4%
    cfg = write_config(tmp_path, {"windows": windows, "snr_per_window": snr})
    z = []
    for seed in range(100):
        out = tmp_path / str(seed)
        assert run_cli("heterodyne-demo", "--config", cfg, "--out", str(out),
                       "--seed", str(seed))[0] in (0, 1)
        report = json.loads((out / "heterodyne_report.json").read_text())
        z += [((p["fitted_mean_deg"] - p["model_phase_deg"] + 180.0) % 360.0 - 180.0)
              / p["mean_err_deg"] for p in report["points"]]
    assert len(z) == 900
    assert math.sqrt(np.mean(np.square(z))) == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("probes, z_bound", [(1, 3.000), (3, 3.320), (9, 3.615)])
def test_heterodyne_bound_shares_a_3_sigma_miss_rate_over_the_probes(tmp_path, probes, z_bound):
    cfg = write_config(tmp_path, {"probe_points": list(np.linspace(-20.0, 20.0, probes)),
                                  "windows": 10})
    out = tmp_path / "run"
    run_cli("heterodyne-demo", "--config", cfg, "--out", str(out))
    z = json.loads((out / "heterodyne_report.json").read_text())["z_bound"]
    assert z == pytest.approx(z_bound, abs=5e-4)
    miss_one = math.erfc(z / math.sqrt(2.0))  # two-sided tail of a unit normal
    assert 1.0 - (1.0 - miss_one) ** probes == pytest.approx(0.0027, rel=1e-9)


@pytest.mark.parametrize("snr, codes", [(1e300, {0}), (1e-300, {0, 1})])
def test_heterodyne_demo_at_extreme_snr_runs_without_warnings(tmp_path, snr, codes):
    # 1e300 is the noise-free limit, where a standard error rounds to 0 and
    # only its floor keeps rounding from failing the verdict; at 1e-300 the
    # windows are pure noise and carry no phase, so either verdict is chance
    cfg = write_config(tmp_path, {"snr_per_window": snr})
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli("heterodyne-demo", "--config", cfg, "--out", str(out))
    assert code in codes
    points = json.loads((out / "heterodyne_report.json").read_text())["points"]
    assert all(math.isfinite(p["mean_err_deg"]) and p["mean_err_deg"] > 0.0 for p in points)


# ----------------------------------------------------------- error handling


def test_cli_raises_the_package_config_error():
    assert cli_module.ConfigError is antires.ConfigError


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = write_config(tmp_path, {"gird": {"points": 11}})
    code, _ = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "x"))
    assert code == 2


def test_malformed_config_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli("spectrum", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 2
    path2 = tmp_path / "list.json"
    path2.write_text("[1, 2]")
    code, _ = run_cli("spectrum", "--config", str(path2), "--out", str(tmp_path / "x"))
    assert code == 2


def test_a_config_that_cannot_be_read_exits_2_naming_it(tmp_path):
    code, err = run_cli_stderr("spectrum", "--config", str(tmp_path), "--out",
                               str(tmp_path / "x"))
    assert code == 2 and str(tmp_path) in err and "Traceback" not in err


def test_an_out_path_that_is_a_file_exits_2_naming_it(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "below"):
        code, err = run_cli_stderr("spectrum", "--out", str(out))
        assert code == 2 and str(out) in err
    assert taken.read_text() == ""


def test_a_network_file_that_cannot_be_read_exits_2_naming_it(tmp_path, monkeypatch):
    # as root every regular file is readable, so the read itself is made to fail
    path = tmp_path / "net.json"
    save_network(emitter_resonator(), path)

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli_module, "load_network", denied)
    cfg = write_config(tmp_path, {"network": str(path)})
    code, err = run_cli_stderr("spectrum", "--config", cfg, "--out", str(tmp_path / "x"))
    assert code == 2 and str(path) in err and "Permission denied" in err


@pytest.mark.parametrize("command, text, field", [
    ("spectrum", '{"grid": {"points": 101.5}}', "points"),
    ("spectrum", '{"grid": {"start": "a"}}', "start"),
    ("spectrum", '{"grid": [1, 2]}', "grid"),
    ("spectrum", '{"motion": {"enabled": 1}}', "enabled"),
    ("stark-scan", '{"calibration_points": [[1400.0, "12"]]}', "calibration_points"),
    ("spectrum", '{"prominence_db": -5}', "prominence_db"),
    ("oracle-check", '{"gamma": NaN}', "gamma"),
    ("oracle-check", '{"g2_eta_over_kappa": 0.0}', "eta"),
    ("oracle-check", '{"eta_over_kappa": []}', "eta_over_kappa"),
    ("scan2d", '{"network_params": {"bogus": 1.0}}', "network_params"),
    ("heterodyne-demo", '{"network_params": {"delta_er": "a"}}', "network_params"),
    ("stark-scan", '{"powers": {"points": 0}}', "points"),
    ("stark-scan", '{"powers": {"points": -3}}', "powers.points"),
    ("stark-scan", '{"powers": {"points": 5}}', "powers.points"),
    ("scan2d", '{"detuning": {"points": 0}}', "detuning.points"),
    ("scan2d", '{"detuning": {"points": -3}}', "detuning.points"),
    ("stark-scan", '{"motion": {"frequency_jitter": Infinity}}', "frequency_jitter"),
    ("heterodyne-demo", '{"beat": {"sample_rate_msps": Infinity}}', "sample_rate_msps"),
    ("heterodyne-demo", '{"beat": {"window_us": 1000000.0}, "windows": 20}', "window_us"),
    ("heterodyne-demo", '{"beat": {"window_us": 1e300, "sample_rate_msps": 1e300}}',
     "window_us"),
    ("heterodyne-demo", '{"windows": 1000001}', "windows"),
    ("heterodyne-demo", '{"windows": 0}', "windows"),
    ("heterodyne-demo", '{"windows": 9}', "windows"),
    ("heterodyne-demo", '{"bins": 3601}', "bins"),
    ("heterodyne-demo", '{"probe_points": [], "windows": 1000001}', "windows"),
    ("heterodyne-demo", '{"probe_points": [], "windows": 0}', "windows"),
    ("heterodyne-demo", '{"probe_points": [], "windows": 5}', "windows"),
    ("heterodyne-demo", '{"probe_points": [], "bins": 3601}', "bins"),
    ("heterodyne-demo", '{"snr_per_window": 1e-308}', "snr_per_window"),
    ("heterodyne-demo", '{"probe_points": [], "snr_per_window": 5e-324}', "snr_per_window"),
    ("stark-scan", '{"powers": {"start_nw": 1e306, "stop_nw": 1.7e308, "points": 61}, '
                   '"motion": {"enabled": false}}', "powers"),
    ("characterize", '{"rel_tol": NaN}', "rel_tol"),
    ("characterize", '{"network_params": {"decay_scale": 1.0}, "rel_tol": -0.5}', "rel_tol"),
    ("oracle-check", '{"deviation_limit": NaN}', "deviation_limit"),
    ("spectrum", '{"motion": {"enabled": true, "scale_mean": NaN, "scale_sigma": 0.0}}',
     "scale_mean"),
    ("oracle-check", '{"eta_over_kappa": [NaN]}', "eta_over_kappa"),
    # preset parameters: numpy took "1" and "1+2j" as complex numbers and a bool as
    # 1.0, and an unknown drive label was a KeyError with a traceback
    *[(command, '{"network_params": {"drive": "nobody"}}', "no mode labelled 'nobody'")
      for command in ("spectrum", "scan2d", "stark-scan", "heterodyne-demo")],
    ("spectrum", '{"network_params": {"eta": "1"}}', "drive amplitude on 'cavity'"),
    ("spectrum", '{"network_params": {"eta": "1+2j"}}', "got '1+2j'"),
    ("spectrum", '{"network_params": {"eta": true}}', "drive amplitude on 'cavity'"),
    ("spectrum", '{"network_params": {"eta": "x"}}', "got 'x'"),
    ("spectrum", '{"network_params": {"coupling": true}}', "coupling"),
    ("characterize", '{"network_params": {"decay_scale": true}}', "decay_scale"),
    ("oracle-check", '{"cutoff": 40}', "cutoff 40 must be below max_cutoff 40"),
    ("oracle-check", '{"cutoff": 1000}', "cutoff 1000 must be below max_cutoff 40"),
    pytest.param("spectrum", '{"grid": {"start": 1%s}}' % ("0" * 400), "start",
                 id="spectrum-401-digit-start"),
    pytest.param("spectrum", '{"network": "bad_network.json"}', "couplings",
                 id="spectrum-network-file-couplings-not-a-list"),
    pytest.param("spectrum", '{"network": "string_g_network.json"}', "g_mhz",
                 id="spectrum-network-file-string-coupling"),
])
def test_bad_config_values_exit_2_naming_the_field(tmp_path, monkeypatch, command, text, field):
    # the network files the table refers to: valid modes with "couplings": 5,
    # and a coupling whose rate is the string "16"
    monkeypatch.chdir(tmp_path)
    modes = [{"label": "cavity", "kind": "resonator", "frequency_mhz": 0.0, "decay_mhz": 1.5},
             {"label": "atom", "kind": "emitter", "frequency_mhz": 0.0, "decay_mhz": 3.0}]
    (tmp_path / "bad_network.json").write_text(json.dumps({
        "modes": modes[:1],
        "couplings": 5,
    }))
    (tmp_path / "string_g_network.json").write_text(json.dumps({
        "modes": modes,
        "couplings": [{"a": "cavity", "b": "atom", "g_mhz": "16"}],
        "drive": [{"label": "cavity", "re": 1.0}],
    }))
    path = tmp_path / "cfg.json"
    path.write_text(text)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert field in err.getvalue()
    assert not list((tmp_path / "x").glob("*.csv"))  # refused before any table is written
    assert [str(w.message) for w in caught] == []  # refused, not reported after numpy warns


def _leaves(tree, path=()):
    if isinstance(tree, dict) and tree:
        for key, value in tree.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path


# Small versions of each subcommand's run, so one example costs milliseconds.
# Numbers stay within [-1, 1]: a stronger oracle drive escalates the photon
# cutoff for minutes, and a larger size only costs time.
_SMALL_RUNS = {
    "spectrum": {"grid": {"points": 201}, "motion": {"samples": 8}},
    "scan2d": {"grid": {"points": 41}, "detuning": {"points": 5}},
    "stark-scan": {"powers": {"points": 12}, "motion": {"samples": 8}},
    "characterize": {},
    "oracle-check": {"eta_over_kappa": [0.1, 0.01]},
    "heterodyne-demo": {"probe_points": [0.0, 6.0], "windows": 40},
}


def _preset_leaves(command):
    """A ``network_params`` leaf for each parameter of the preset ``command`` builds;
    scan2d and stark-scan set ``delta_er`` themselves and refuse it by design."""
    options = DEFAULTS[command]
    if "network_params" not in options:
        return []
    preset = NETWORK_PRESETS[options.get("network", "emitter-resonator")]
    refused = ("delta_er",) if command in ("scan2d", "stark-scan") else ()
    return [("network_params", name) for name in inspect.signature(preset).parameters
            if name not in refused]


_CONFIG_LEAVES = list(dict.fromkeys(  # heterodyne-demo's delta_er is a default leaf too
    (command, path) for command in DEFAULTS
    for path in [*_leaves(DEFAULTS[command]), *_preset_leaves(command)]))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 1) | st.floats(-1.0, 1.0)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(leaf=st.sampled_from(_CONFIG_LEAVES), value=_JSON_VALUES)
@example(leaf=("spectrum", ("network_params", "drive")), value="")  # an unknown drive label
def test_any_json_value_in_any_config_leaf_ends_in_an_exit_code(tmp_path, leaf, value):
    command, path = leaf
    config = copy.deepcopy(_SMALL_RUNS[command])
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code in (0, 1, 2, 3)


def _library_default(callable_, name):
    """The default of ``callable_``'s parameter or dataclass field ``name``."""
    return inspect.signature(callable_).parameters[name].default


def _restated(options, callable_, names=None):
    """``options`` (lists as tuples, ``enabled`` dropped) and ``callable_``'s
    defaults for the same keys, or for ``names`` where they differ."""
    cli = {k: tuple(v) if isinstance(v, list) else v for k, v in options.items() if k != "enabled"}
    return cli, {k: _library_default(callable_, names.get(k, k) if names else k) for k in cli}


_ORACLE, _HETERODYNE = DEFAULTS["oracle-check"], DEFAULTS["heterodyne-demo"]
# Each CLI default that restates a library default, as (CLI values, library values).
_RESTATED_DEFAULTS = {
    "spectrum motion": _restated(DEFAULTS["spectrum"]["motion"], MotionEnsemble),
    "stark-scan motion": _restated(DEFAULTS["stark-scan"]["motion"], MotionEnsemble),
    "heterodyne-demo beat": _restated(_HETERODYNE["beat"], BeatNoteConfig),
    "spectrum prominence_db": _restated(
        {"prominence_db": DEFAULTS["spectrum"]["prominence_db"]}, detect_antiresonances_numeric),
    "scan2d prominence_db": _restated(
        {"prominence_db": DEFAULTS["scan2d"]["prominence_db"]}, detect_antiresonances_numeric),
    "characterize rel_tol": _restated(
        {"rel_tol": DEFAULTS["characterize"]["rel_tol"]}, lossy_component_identify),
    "heterodyne-demo bins": _restated({"bins": _HETERODYNE["bins"]}, accumulate_histogram),
    "oracle-check eta_over_kappa": _restated(
        {"eta_over_kappa": _ORACLE["eta_over_kappa"]}, linear_limit_check),
    "oracle-check rates": _restated(
        {k: _ORACLE[k] for k in ("gamma", "kappa", "g")}, emitter_resonator, {"g": "coupling"}),
    "oracle-check cutoff": _restated({"cutoff": _ORACLE["cutoff"]}, JCParams),
    "heterodyne-demo delta_er": _restated(_HETERODYNE["network_params"], emitter_resonator),
}


@pytest.mark.parametrize("name", sorted(_RESTATED_DEFAULTS))
def test_cli_defaults_equal_the_library_defaults_they_restate(name):
    cli_value, library_value = _RESTATED_DEFAULTS[name]
    assert cli_value == library_value


def test_stark_scan_fit_background_differs_from_the_library_on_purpose():
    # a Stark scan spans only a few tens of zero widths, so the CLI fits the
    # tilt that neighbouring features put on the phase; the library fits none
    assert DEFAULTS["stark-scan"]["fit"]["background"] == "linear"
    assert _library_default(fit_arctan_phase, "background") == "none"


def test_missing_network_file_is_rejected(tmp_path):
    for network in (str(tmp_path / "nope.json"), str(tmp_path), ""):
        cfg = write_config(tmp_path, {"network": network})
        code, _ = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "x"))
        assert code == 2


def test_bad_seed_is_rejected(tmp_path):
    code, _ = run_cli("spectrum", "--out", str(tmp_path / "x"), "--seed", "-1")
    assert code == 2


def test_version_flag():
    buf = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stdout(buf):
        main(["--version"])
    assert exc.value.code == 0
    assert buf.getvalue().startswith("antires ")


def test_spectrum_and_scan2d_never_import_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy may still be installed
    # (the benchmark uses it), so only a fresh interpreter can tell
    spectrum = write_config(tmp_path, {"grid": {"points": 201}}, "spectrum.json")
    scan2d = write_config(tmp_path, {"grid": {"points": 41}, "detuning": {"points": 5}},
                          "scan2d.json")
    script = (
        "import sys\n"
        "from antires.cli import main\n"
        f"assert main(['spectrum', '--config', {spectrum!r}, '--out', {str(tmp_path / 's')!r}]) == 0\n"
        f"assert main(['scan2d', '--config', {scan2d!r}, '--out', {str(tmp_path / 'm')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = os.path.dirname(os.path.dirname(antires.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _under_the_c_locale(*argv):
    """``antires *argv`` in a fresh interpreter whose locale encoding is ASCII."""
    src = os.path.dirname(os.path.dirname(antires.__file__))
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0"}
    return subprocess.run([sys.executable, "-m", "antires.cli", *argv], capture_output=True,
                          env=env, timeout=120)


def test_non_ascii_labels_are_read_and_written_as_utf8_under_the_c_locale(tmp_path):
    network = {
        "modes": [
            {"label": "κ-cavity", "kind": "resonator", "frequency_mhz": 0.0, "decay_mhz": 1.5},
            {"label": "atom", "kind": "emitter", "frequency_mhz": -3.0, "decay_mhz": 3.0},
        ],
        "couplings": [{"a": "κ-cavity", "b": "atom", "g_mhz": 16.0}],
        "drive": [{"label": "κ-cavity", "re": 1.0, "im": 0.0}],
    }
    net = tmp_path / "net.json"
    net.write_bytes(json.dumps(network, ensure_ascii=False).encode("utf-8"))
    out = tmp_path / "run"
    proc = _under_the_c_locale("spectrum", "--out", str(out), "--config",
                               write_config(tmp_path, {"network": str(net),
                                                       "grid": {"points": 201}}))
    assert proc.returncode == 0, proc.stderr
    header = (out / "spectrum.csv").read_bytes().split(b"\r\n")[0]
    assert header.startswith(b"probe_mhz,\xce\xba-cavity_re,\xce\xba-cavity_im,")
    # the config file is read as UTF-8 too: its unknown key is named, not undecodable
    cfg = tmp_path / "bad.json"
    cfg.write_bytes('{"κ": 1}'.encode("utf-8"))
    proc = _under_the_c_locale("spectrum", "--out", str(out), "--config", str(cfg))
    assert proc.returncode == 2
    assert b"unknown config keys" in proc.stderr


def _rerendered(raw):
    """``raw``'s header line, then every row re-joined from its parsed cells: a
    cell that reads as a float as ``'%.17g'`` of it, any other as written."""
    head, _, body = raw.partition(b"\r\n")
    lines = []
    for row in csv.reader(io.StringIO(body.decode("utf-8"), newline="")):
        cells = []
        for cell in row:
            try:
                cells.append("%.17g" % float(cell))
            except ValueError:
                cells.append(cell)
        lines.append(",".join(cells) + "\r\n")
    return head + b"\r\n" + "".join(lines).encode("utf-8")


@pytest.mark.parametrize("command, options", [
    *[(command, None) for command in DEFAULTS],
    pytest.param("heterodyne-demo", {"probe_points": []}, id="heterodyne-demo-no-points"),
])
def test_every_cli_csv_is_its_own_17_digit_rerendering(tmp_path, command, options):
    argv = [command, "--out", str(tmp_path / "run")]
    if options is not None:
        argv += ["--config", write_config(tmp_path, options)]
    assert run_cli(*argv)[0] == 0
    paths = sorted((tmp_path / "run").glob("*.csv"))
    assert paths or command in ("characterize", "oracle-check")
    for path in paths:
        raw = path.read_bytes()
        assert raw.endswith(b"\r\n") and raw == _rerendered(raw), path.name
    if options is not None:  # no points: a table of no columns, its header alone
        assert (tmp_path / "run" / "heterodyne_points.csv").read_bytes().count(b"\r\n") == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        ["antires", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("antires ")
