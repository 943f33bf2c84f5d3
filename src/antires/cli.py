"""Command line front end.

Every subcommand reads an optional JSON config (merged over its defaults),
writes its outputs into ``--out`` (created if needed), and prints a short
summary.  All randomness is seeded, so identical config + seed reproduces
byte-identical output files.

Exit codes: 0 success, 1 a requested check failed, 2 bad usage or config,
3 ambiguous loss localisation.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .fitting import (
    MIN_ARCTAN_POINTS,
    FitConvergenceError,
    RankDeficiencyError,
    fit_arctan_phase,
    stark_calibration,
)
from .heterodyne import (
    MAX_BINS,
    MAX_WINDOWS,
    MIN_WINDOWS,
    BeatNoteConfig,
    ConfigError,
    accumulate_histogram,
    circular_mean,
    iq_law_windows,
    synthesize,
    write_trace_csv,
)
from .network import (
    InvalidNetworkError,
    ModeNetwork,
    ProbeGrid,
    SingularResponseError,
    _count,
    _finite_real,
    _real,
    load_network,
    network_to_dict,
    steady_state_family,
)
from .output import write_csv, write_json
from .oracle import (
    CutoffConvergenceError,
    DensityMatrixError,
    GSquaredUndefinedError,
    JCParams,
    linear_limit_check,
    lindblad_steady_state,
)
# emitter_resonator stays bound here: the bench tracer's tests check that it rewraps
# this module's binding too
from .presets import NETWORK_PRESETS, STARK_CALIBRATION_POINTS, emitter_resonator  # noqa: F401
from .spectra import (
    AmbiguityError,
    ComplexSpectrum,
    MotionEnsemble,
    antiresonances,
    cancel_pole_zero_pairs,
    detect_antiresonances_numeric,
    ensemble_mean_family,
    lossy_component_identify,
    poles_zeros_report,
    resonances,
    sweep,
    write_spectrum_csv,
)


_ENSEMBLE_DEFAULTS = {
    "enabled": False,
    "scale_mean": 0.80,
    "scale_sigma": 0.12,
    "scale_bounds": [0.5, 1.0],
    "frequency_jitter": 1.0,
    "samples": 512,
}

DEFAULTS: dict[str, dict[str, Any]] = {
    "spectrum": {
        "network": "emitter-resonator",
        "network_params": {},
        "grid": {"start": -25.0, "stop": 25.0, "points": 1001},
        "motion": dict(_ENSEMBLE_DEFAULTS),
        "prominence_db": 3.0,
    },
    "scan2d": {
        "network_params": {},
        "grid": {"start": -30.0, "stop": 30.0, "points": 101},
        "detuning": {"start": -20.0, "stop": 20.0, "points": 41, "values": None},
        "prominence_db": 3.0,
    },
    "stark-scan": {
        "network_params": {},
        "calibration_points": [list(p) for p in STARK_CALIBRATION_POINTS],
        "powers": {"start_nw": 450.0, "stop_nw": 1700.0, "points": 61},
        "motion": {**_ENSEMBLE_DEFAULTS, "enabled": True},
        "fit": {"background": "linear"},
    },
    "characterize": {
        "network": "five-node-demo",
        "network_params": {},
        "rel_tol": 1e-3,
    },
    "oracle-check": {
        "gamma": 3.0,
        "kappa": 1.5,
        "g": 16.0,
        "cutoff": 4,
        "eta_over_kappa": [0.3, 0.1, 0.03, 0.01],
        "g2_eta_over_kappa": 0.01,
        "deviation_limit": 1e-3,
        "g2_contrast_min": 10.0,
    },
    "heterodyne-demo": {
        "network_params": {"delta_er": -3.0},
        "probe_points": [-20.0, -16.0, -10.0, -6.0, 0.0, 6.0, 10.0, 16.0, 20.0],
        "beat": {"if_freq_mhz": 1.0, "sample_rate_msps": 50.0, "window_us": 10.0},
        "snr_per_window": 50.0,
        "windows": 400,
        "bins": 72,
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A resolved run request: merged options, output dir, seed."""

    options: dict
    out_dir: Path
    seed: int


# Keys whose legal contents depend on runtime choices elsewhere in the
# config (preset signatures), so they cannot be checked against DEFAULTS.
_PASSTHROUGH_KEYS = frozenset({"network_params"})


def _accepts(default: Any, value: Any) -> bool:
    """Whether ``value`` has the JSON type of ``default``.

    An int needs an int and a float takes a finite float or an int within
    float range, never a bool; a list's items are checked against the
    default's first item.  The one null default (scan2d's detuning
    ``values``) takes null or a list of numbers.
    """
    if default is None:
        return value is None or _accepts([0.0], value)
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, float):
        return _finite_real(value)
    if isinstance(default, list):
        return isinstance(value, list) and all(_accepts(default[0], v) for v in value)
    return isinstance(value, type(default))


def _merge(base: Any, override: Any, key: str = "config") -> Any:
    """``override`` merged over ``base``; each value must match its default's type."""
    if isinstance(base, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"config key {key!r} must hold a JSON object")
        unknown = set(override) - set(base)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)} (known: {sorted(base)})")
        merged = {}
        for k in base:
            if k not in override:
                merged[k] = base[k]
            elif k in _PASSTHROUGH_KEYS:
                if not isinstance(override[k], dict):
                    raise ConfigError(f"config key {k!r} must hold a JSON object")
                merged[k] = {**base[k], **override[k]}
            else:
                merged[k] = _merge(base[k], override[k], k)
        return merged
    if not _accepts(base, override):
        raise ConfigError(
            f"config key {key!r} must match the type of its default {base!r}, got {override!r}"
        )
    return override


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    options = DEFAULTS[args.command]
    if args.config is not None:
        try:
            user = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        options = _merge(options, user)
    seed = 2024 if args.seed is None else _count("--seed", args.seed, 0, 2**64 - 1)  # a uint64
    return ScenarioConfig(options=options, out_dir=Path(args.out), seed=seed)


def _preset(name: str, params: dict) -> ModeNetwork:
    try:
        return NETWORK_PRESETS[name](**params)
    except (TypeError, InvalidNetworkError) as exc:
        raise ConfigError(f"bad network_params for preset {name!r}: {exc}")


def _resolve_network(options: dict) -> ModeNetwork:
    name = options.get("network", "emitter-resonator")
    params = options.get("network_params", {})
    if name in NETWORK_PRESETS:
        return _preset(name, params)
    path = Path(name)
    if path.is_file():
        if params:
            raise ConfigError("network_params only apply to presets, not network files")
        return load_network(path)
    raise ConfigError(
        f"network {name!r} is neither a preset ({sorted(NETWORK_PRESETS)}) nor a file"
    )


def _ensemble_from(options: dict, seed: int) -> MotionEnsemble | None:
    """The config's motion ensemble, or None (a still emitter) when it is disabled."""
    if not options["enabled"]:
        return None
    return MotionEnsemble(
        scale_mean=options["scale_mean"],
        scale_sigma=options["scale_sigma"],
        scale_bounds=tuple(options["scale_bounds"]),
        frequency_jitter=options["frequency_jitter"],
        samples=options["samples"],
        seed=seed,
    )


def _config_range(key: str, start: float, stop: float, points: int) -> np.ndarray:
    """``np.linspace`` over the config range ``key``, refused if it overflows."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            return np.linspace(float(start), float(stop), points)  # ints past int64 too
        except FloatingPointError:
            raise ConfigError(f"config range {key!r} overflows: [{start}, {stop}] x {points}")


def _emitter_scan(
    command: str,
    opts: dict,
    detunings,
    probes,
    ensemble: MotionEnsemble | None = None,
) -> np.ndarray:
    """Driven-mode amplitudes of the emitter-resonator preset with its emitter
    put at ``-detuning``, shape ``(len(detunings), len(probes))``: one family
    solve, averaged over ``ensemble`` when one is given."""
    if "delta_er" in opts["network_params"]:
        raise ConfigError(f"{command} sets the emitter frequency itself; drop delta_er")
    base = _preset("emitter-resonator", {"delta_er": 0.0, **opts["network_params"]})
    offsets = np.zeros((len(detunings), len(base)))
    offsets[:, base.emitter_mask] = -np.asarray(detunings, dtype=float)[:, None]
    amps = ensemble_mean_family(base, offsets, probes, ensemble)
    return amps[..., base.index(base.driven_label())]


def _fmt_zero(z) -> str:
    width = "n/a (boundary)" if math.isnan(z.half_width) else f"{z.half_width:9.4f}"
    return f"  center {z.center:10.4f} MHz   half-width {width} MHz"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: ScenarioConfig) -> int:
    opts = cfg.options
    net = _resolve_network(opts)
    grid = ProbeGrid(**opts["grid"])
    spectrum = sweep(net, grid, _ensemble_from(opts["motion"], cfg.seed))

    drive_label = net.driven_label()
    poles, zeros = cancel_pole_zero_pairs(resonances(net), antiresonances(net, drive_label))
    detected = detect_antiresonances_numeric(spectrum, drive_label, opts["prominence_db"])

    write_spectrum_csv(spectrum, cfg.out_dir / "spectrum.csv")
    report = poles_zeros_report(poles, zeros)
    report["detected"] = poles_zeros_report([], detected)["antiresonances"]
    report["network"] = network_to_dict(net)
    report["grid"] = opts["grid"]
    report["motion_enabled"] = bool(opts["motion"]["enabled"])
    write_json(report, cfg.out_dir / "spectrum_report.json")

    print(f"spectrum: {len(net)} modes, drive on {drive_label!r}, grid "
          f"[{grid.start}, {grid.stop}] x {grid.points}")
    print(f"observable poles ({len(poles)}):")
    for p in poles:
        print(f"  center {p.center:10.4f} MHz   half-width {p.half_width:9.4f} MHz"
              + (f"   x{p.multiplicity}" if p.multiplicity > 1 else ""))
    print(f"observable antiresonances ({len(zeros)}):")
    for z in zeros:
        print(_fmt_zero(z))
    print(f"numerically detected antiresonances ({len(detected)}):")
    for z in detected:
        print(_fmt_zero(z))
    print(f"wrote {cfg.out_dir / 'spectrum.csv'} and {cfg.out_dir / 'spectrum_report.json'}")
    return 0


def cmd_scan2d(cfg: ScenarioConfig) -> int:
    opts = cfg.options
    grid = ProbeGrid(**opts["grid"])
    det = opts["detuning"]
    if det["values"] is None:
        points = _count("detuning.points", det["points"], 1)
        rows = _config_range("detuning", det["start"], det["stop"], points).tolist()
    elif det["values"]:
        rows = [float(v) for v in det["values"]]
    else:
        raise ConfigError("config key 'detuning.values' must list at least one detuning "
                          "(or be null for the start/stop/points range)")

    amps = _emitter_scan("scan2d", opts, rows, grid.frequencies())
    phase_deg = np.degrees(np.unwrap(np.angle(amps), axis=1))
    max_abs_phase = float(np.abs(phase_deg).max(initial=0.0))

    row_reports = []
    for d, row_amps in zip(rows, amps):
        spectrum = ComplexSpectrum(grid=grid, labels=("driven",), amplitudes=row_amps[:, None])
        zeros = [z for z in detect_antiresonances_numeric(spectrum, "driven",
                                                          opts["prominence_db"])
                 if not z.at_boundary]
        if zeros:
            z = min(zeros, key=lambda z: abs(z.center - (-d)))
            deviation = abs(z.center - (-d))
            row_reports.append({
                "detuning_mhz": d,
                "zero_center_mhz": z.center,
                "zero_half_width_mhz": z.half_width,
                "expected_center_mhz": -d,
                "deviation_mhz": deviation,
                "within_one_step": bool(deviation <= grid.step),
            })
        else:
            row_reports.append({
                "detuning_mhz": d,
                "zero_center_mhz": None,
                "expected_center_mhz": -d,
                "within_one_step": False,
            })

    write_csv(
        cfg.out_dir / "scan2d.csv",
        ["detuning_mhz", "probe_mhz", "phase_deg", "magnitude"],
        [np.repeat(rows, grid.points), np.tile(grid.frequencies(), len(rows)),
         phase_deg.ravel(), np.abs(amps).ravel()],
    )

    all_within = all(r["within_one_step"] for r in row_reports)
    report = {
        "grid": opts["grid"],
        "rows": row_reports,
        "all_within_one_step": all_within,
        "max_abs_phase_deg": max_abs_phase,
        "phase_bounded": bool(max_abs_phase <= 180.0 + 1e-6),
    }
    write_json(report, cfg.out_dir / "scan2d_report.json")

    print(f"scan2d: {len(rows)} detuning rows x {grid.points} probe points")
    print(f"zero centers track -detuning within one grid step ({grid.step:.3g} MHz): "
          f"{'yes' if all_within else 'NO'}")
    print(f"max |phase| = {max_abs_phase:.2f} deg (bounded by 180: "
          f"{'yes' if report['phase_bounded'] else 'NO'})")
    print(f"wrote {cfg.out_dir / 'scan2d.csv'} and {cfg.out_dir / 'scan2d_report.json'}")
    return 0


def cmd_stark_scan(cfg: ScenarioConfig) -> int:
    opts = cfg.options
    cal = stark_calibration([tuple(p) for p in opts["calibration_points"]])
    pw = opts["powers"]
    points = _count("powers.points", pw["points"], MIN_ARCTAN_POINTS)
    powers = _config_range("powers", pw["start_nw"], pw["stop_nw"], points)
    detunings = np.asarray(cal.power_to_detuning(powers))

    ensemble = _ensemble_from(opts["motion"], cfg.seed)
    amps = _emitter_scan("stark-scan", opts, detunings, [0.0], ensemble)[:, 0]
    phase_deg = np.degrees(np.unwrap(np.angle(amps)))

    try:  # finite detunings can still be too far apart for the fit's arithmetic
        with np.errstate(over="raise"):
            fit = fit_arctan_phase(detunings, phase_deg, background=opts["fit"]["background"])
    except FloatingPointError:
        raise ConfigError(f"config keys 'powers' and 'calibration_points' give detunings "
                          f"[{detunings[0]:g}, {detunings[-1]:g}] MHz: the phase fit overflows")

    write_csv(cfg.out_dir / "stark_scan.csv", ["power_nw", "induced_detuning_mhz", "phase_deg"],
              [powers, detunings, phase_deg])

    report = fit.to_report()
    report["calibration"] = cal.to_report()
    report["motion_enabled"] = ensemble is not None
    report["n_powers"] = int(powers.size)
    write_json(report, cfg.out_dir / "stark_fit.json")

    print(f"stark-scan: {powers.size} powers "
          f"[{pw['start_nw']:.0f}, {pw['stop_nw']:.0f}] nW -> detunings "
          f"[{detunings[0]:+.2f}, {detunings[-1]:+.2f}] MHz "
          f"(motion {'off' if ensemble is None else 'on'})")
    print(f"calibration: detuning = {cal.slope:.5f} MHz/nW * power {cal.intercept:+.3f} MHz")
    par, err = fit.parameters, fit.standard_errors
    print(f"arctan fit: width {par['width']:.4f} MHz (err {err['width']:.4f}), "
          f"asymptotic swing {par['swing_deg']:.2f} deg")
    print(f"observed phase span across scan: {fit.span_deg:.2f} deg")
    for w in fit.warnings:
        print(f"warning: {w}")
    print(f"wrote {cfg.out_dir / 'stark_scan.csv'} and {cfg.out_dir / 'stark_fit.json'}")
    return 0


def cmd_characterize(cfg: ScenarioConfig) -> int:
    opts = cfg.options
    net = _resolve_network(opts)
    poles = resonances(net)
    per_drive = {lab: antiresonances(net, lab) for lab in net.labels}

    report = {
        "network": network_to_dict(net),
        "poles": poles_zeros_report(poles, [])["poles"],
        # true by construction: poles are eig(A), and the mode matrix A holds no drive
        "pole_tables_drive_independent": True,
        "antiresonances_by_drive": {
            lab: poles_zeros_report([], zs)["antiresonances"] for lab, zs in per_drive.items()
        },
    }

    print(f"characterize: {len(net)} modes; poles are drive-independent: yes")
    print("mean antiresonance half-width by drive port:")
    try:
        verdict = lossy_component_identify(net, rel_tol=opts["rel_tol"])
    except AmbiguityError as exc:
        for lab in sorted(exc.widths, key=exc.widths.get):
            print(f"  drive {lab:>6}: {exc.widths[lab]:8.4f} MHz")
        print(f"AMBIGUOUS: tied candidates {exc.candidates}")
        report["ambiguous_candidates"] = list(exc.candidates)
        report["mean_half_widths_mhz"] = exc.widths
        write_json(report, cfg.out_dir / "characterize_report.json")
        print(f"wrote {cfg.out_dir / 'characterize_report.json'}")
        return 3

    for lab in sorted(verdict.mean_widths, key=verdict.mean_widths.get):
        marker = "  <-- lossiest" if lab == verdict.label else ""
        print(f"  drive {lab:>6}: {verdict.mean_widths[lab]:8.4f} MHz{marker}")
    report["verdict"] = {
        "lossiest": verdict.label,
        "mean_half_widths_mhz": verdict.mean_widths,
    }
    write_json(report, cfg.out_dir / "characterize_report.json")
    print(f"wrote {cfg.out_dir / 'characterize_report.json'}")
    return 0


def cmd_oracle_check(cfg: ScenarioConfig) -> int:
    opts = cfg.options
    # a limit <= 0 cannot be met and a contrast <= 0 checks nothing: refused before any solve
    for key in ("deviation_limit", "g2_contrast_min"):
        _real(key, opts[key], 0.0, strict=True)
    base = JCParams(gamma=opts["gamma"], kappa=opts["kappa"], g=opts["g"], cutoff=opts["cutoff"])
    limit = linear_limit_check(base, tuple(opts["eta_over_kappa"]))

    eta = opts["g2_eta_over_kappa"] * base.kappa
    anti = lindblad_steady_state(replace(base, delta_pe=0.0, delta_pr=0.0, eta=eta))
    mode_centers = sorted(p.center for p in resonances(base.network))
    modes = [
        lindblad_steady_state(replace(base, delta_pe=c, delta_pr=c, eta=eta))
        for c in mode_centers
    ]
    g2_modes = [m.g2 for m in modes]
    contrast = anti.g2 / max(g2_modes)

    weakest = limit.deviations[np.argmin(limit.eta_over_kappa)]
    ok = (
        limit.monotone
        and weakest < opts["deviation_limit"]
        and contrast >= opts["g2_contrast_min"]
    )

    report = {
        "params": {
            "gamma_mhz": base.gamma,
            "kappa_mhz": base.kappa,
            "g_mhz": base.g,
            "starting_cutoff": base.cutoff,
        },
        "linear_limit": limit.to_report(),
        "g2": {
            "eta_over_kappa": opts["g2_eta_over_kappa"],
            "antiresonance": anti.to_report(),
            "normal_modes": [
                {"probe_mhz": c, **m.to_report()} for c, m in zip(mode_centers, modes)
            ],
            "contrast": contrast,
        },
        "pass": bool(ok),
    }
    write_json(report, cfg.out_dir / "oracle_report.json")

    print("oracle-check: exact quantum steady state vs linear coupled-mode model")
    for r, d in zip(limit.eta_over_kappa, limit.deviations):
        print(f"  eta/kappa = {r:5.2f}: relative field deviation {d:.3e}")
    print(f"  deviation decreases monotonically: {'yes' if limit.monotone else 'NO'}")
    print(f"  weakest-drive deviation < {opts['deviation_limit']:g}: "
          f"{'yes' if weakest < opts['deviation_limit'] else 'NO'}")
    print(f"  g2 at antiresonance {anti.g2:.2f} vs normal modes "
          f"{', '.join(f'{g:.3f}' for g in g2_modes)} (contrast {contrast:.0f}x, "
          f"needs >= {opts['g2_contrast_min']:g}x: "
          f"{'yes' if contrast >= opts['g2_contrast_min'] else 'NO'})")
    print(f"wrote {cfg.out_dir / 'oracle_report.json'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


_POINT_COLUMNS = ("probe_mhz", "model_phase_deg", "fitted_mean_deg",
                  "circular_sd_deg", "mean_err_deg", "within_bound")
# Chance that a heterodyne-demo run misses its bound on some probe when every
# estimate is unbiased: the two-sided 3-sigma rate, shared by all probes.
FAMILY_MISS_RATE = 0.0027
# Floor on a phase's standard error in the verdict: a noise-free record's
# error rounds to 0, while its mean still carries rounding of ~1e-13 degrees.
MIN_MEAN_ERR_DEG = 1e-9


def cmd_heterodyne_demo(cfg: ScenarioConfig) -> int:
    opts = cfg.options
    net = _preset("emitter-resonator", opts["network_params"])
    idx = net.index(net.driven_label())
    probe_points = [float(p) for p in opts["probe_points"]]
    # checked up front, so that a bad config fails even with no probe points
    windows = _count("windows", opts["windows"], MIN_WINDOWS, MAX_WINDOWS)
    bins = _count("bins", opts["bins"], 4, MAX_BINS)
    # the SNR is quoted on the reference channel, so each point sets its own
    # reference amplitude; the timing fields are shared
    beat = BeatNoteConfig(**opts["beat"], snr_per_window=opts["snr_per_window"])
    # imported here: statistics pulls in fractions and decimal, about 6 ms
    # of start-up that no other subcommand needs
    from statistics import NormalDist

    # Sidak: each of the K probes misses with chance 1 - (1 - rate)^(1/K)
    per_probe = 1.0 - (1.0 - FAMILY_MISS_RATE) ** (1.0 / max(len(probe_points), 1))
    z_bound = NormalDist().inv_cdf(1.0 - per_probe / 2.0)

    def phases(field: complex, config: BeatNoteConfig, point: int, channel: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, point, channel)))
        iq = iq_law_windows(field, config, windows, rng)
        return np.arctan2(-iq[:, 1], iq[:, 0])

    # copy 0 is the system, copy 1 the empty cavity: its emitter coupling scaled to 0
    fields = steady_state_family(net, np.zeros((2, 1, len(net))), [[1.0], [0.0]], probe_points)
    fields = fields[..., idx]
    point_rows = []
    hists = []
    all_within = True
    for k, (probe, field_sys, field_ref) in enumerate(zip(probe_points, *fields)):
        model_diff = math.degrees(
            (np.angle(field_sys) - np.angle(field_ref) + math.pi) % (2 * math.pi) - math.pi
        )

        point_beat = replace(beat, reference_amplitude=abs(field_ref))
        # channel 0 is the system, channel 1 the empty-cavity reference
        system, reference = phases(field_sys, point_beat, k, 0), phases(field_ref, point_beat, k, 1)
        if k == 0:
            # not one of the estimated windows: a single synthesized window
            # whose seed is drawn from the (seed, 0, 0) stream
            trace_seed = int(np.random.SeedSequence((cfg.seed, 0, 0)).generate_state(1)[0])
            write_trace_csv(synthesize(field_sys, replace(point_beat, seed=trace_seed)), beat,
                            cfg.out_dir / "trace_example.csv")
        est = circular_mean(system, reference)
        err = max(est.mean_err_deg, MIN_MEAN_ERR_DEG)
        resid = abs((est.mean_deg - model_diff + 180.0) % 360.0 - 180.0)
        within = bool(resid <= z_bound * err)
        all_within &= within
        point_rows.append((probe, model_diff, est.mean_deg, est.sd_deg, err, within))
        hists.append(accumulate_histogram(system, reference, bins=bins))

    write_csv(cfg.out_dir / "heterodyne_points.csv", _POINT_COLUMNS, list(zip(*point_rows)))
    write_csv(
        cfg.out_dir / "heterodyne_histograms.csv",
        ["probe_mhz", "bin_center_deg", "count", "normalized"],
        [np.repeat(probe_points, bins), np.ravel([h.centers for h in hists]),
         np.ravel([h.counts for h in hists]), np.ravel([h.normalized() for h in hists])],
    )

    report = {
        "beat": dict(opts["beat"]),
        "snr_per_window": opts["snr_per_window"],
        "windows": windows,
        "bins": bins,
        "z_bound": z_bound,
        "points": [dict(zip(_POINT_COLUMNS, row)) for row in point_rows],
        "all_within_bound": bool(all_within),
    }
    write_json(report, cfg.out_dir / "heterodyne_report.json")

    print(f"heterodyne-demo: {len(probe_points)} probe points, {windows} windows each, "
          f"SNR {opts['snr_per_window']:g} per window on the reference channel")
    print(f"each circular mean must lie within {z_bound:.3f} standard errors of the model "
          f"(a {FAMILY_MISS_RATE:.2%} chance miss over all probes)")
    print(" probe    model      mean  circ-sd    err  bound")
    for p, m, f, s, e, w in point_rows:
        print(f"{p:7.2f} {m:8.2f} {f:9.2f} {s:8.2f} {e:6.3f}  {'ok' if w else 'MISS'}")
    print(f"wrote {cfg.out_dir / 'heterodyne_points.csv'}, "
          f"{cfg.out_dir / 'heterodyne_histograms.csv'}, "
          f"{cfg.out_dir / 'heterodyne_report.json'}")
    return 0 if all_within else 1


COMMANDS: dict[str, Callable[[ScenarioConfig], int]] = {
    "spectrum": cmd_spectrum,
    "scan2d": cmd_scan2d,
    "stark-scan": cmd_stark_scan,
    "characterize": cmd_characterize,
    "oracle-check": cmd_oracle_check,
    "heterodyne-demo": cmd_heterodyne_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antires",
        description="Steady-state spectra and antiresonance analysis of coupled-mode networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "spectrum": "sweep a network and extract poles and antiresonances",
        "scan2d": "probe x detuning phase map with zero tracking",
        "stark-scan": "power-calibrated detuning scan with arctangent phase fit",
        "characterize": "locate the lossiest mode by comparing drive ports",
        "oracle-check": "validate the linear model against the exact quantum solver",
        "heterodyne-demo": "draw heterodyne IQ windows and recover phases by circular means",
    }
    for name, text in help_lines.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default="antires-out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 2024)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if isinstance(sys.stdout, io.TextIOWrapper):
        # a mode label the locale cannot encode is escaped in the summary, not a
        # failed run; the output files are UTF-8 whatever the locale
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        cfg = _load_scenario(args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg)
    # ConfigError and InvalidNetworkError are ValueErrors; a singular response is a
    # network too close to lossless for the probe grid
    except (ValueError, GSquaredUndefinedError, SingularResponseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitConvergenceError, RankDeficiencyError, CutoffConvergenceError,
            DensityMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
