"""Seeded job lists of the antires benchmark, and the checks on their outputs.

A workload is a list of jobs generated from one seed.  A job is either a CLI
call (``antires.cli.main``) or a library call that writes its result as JSON;
either way every output is a file in the job's own directory, so outputs can
be checked, hashed and compared between commits the same way.

Each workload exists at two sizes: ``full`` is what the benchmark times and
``tiny`` is the warm-up pass (and what the benchmark's tests run).  Both pass
the same checks.  The checks recompute what they can without ``antires``
(closed forms, residuals, reference ensembles), so a broken program cannot
vouch for itself.

Library jobs look functions up on their module at call time
(``spectra.sweep`` rather than a bound name), so the tracer's wrappers see
those calls too.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Parameters of the emitter-resonator preset (MHz); the checks use them in
# closed forms, so they are fixed here rather than read back from antires.
GAMMA, KAPPA, G_DEFAULT = 3.0, 1.5, 16.0
DENSE_GRID = (-70.0, 70.0)
LOSSY_MODES = 7


@dataclass(frozen=True)
class Job:
    """One unit of work.

    ``argv`` (CLI job) holds the arguments after ``antires``, without
    ``--out``; ``call`` (library job) takes the output directory and writes
    ``result.json`` there.  Every job is expected to exit with 0.  ``check``
    returns a list of problems, empty when the outputs are right.
    """

    name: str
    check: Callable[[Path], list[str]]
    argv: tuple[str, ...] | None = None
    call: Callable[[Path], None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator, int, Path, str], list[Job]]


# ---------------------------------------------------------------------------
# Small helpers shared by the checks
# ---------------------------------------------------------------------------

def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _config(inputs: Path, name: str, payload: dict) -> str:
    path = inputs / f"{name}.json"
    _write_json(payload, path)
    return str(path)


def _read_spectrum(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _complex_column(header: list[str], data: np.ndarray, label: str) -> np.ndarray:
    return data[:, header.index(f"{label}_re")] + 1j * data[:, header.index(f"{label}_im")]


def _two_mode_cavity(probes, delta_er, g):
    """Closed-form resonator amplitude of the emitter/resonator pair (unit drive)."""
    d_pe = np.asarray(probes) - delta_er
    d_pr = np.asarray(probes)
    return (d_pe + 1j * GAMMA) / ((d_pe + 1j * GAMMA) * (d_pr + 1j * KAPPA) - g * g)


def _wrap_deg(a: float) -> float:
    return (a + 180.0) % 360.0 - 180.0


def _wrap_rad(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def reference_ensemble_mean(probes, delta_er, g, motion: dict, seed: int) -> np.ndarray:
    """Motion-averaged cavity amplitude, drawn independently of antires.

    Member k uses ``default_rng(SeedSequence((seed, k)))``: one coupling
    scale from the truncated Gaussian by rejection, then one emitter
    frequency shift -- the draw order of ``MotionEnsemble.draw``.
    """
    lo, hi = motion["scale_bounds"]
    total = np.zeros(len(probes), dtype=complex)
    for k in range(motion["samples"]):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        while True:
            scale = rng.normal(motion["scale_mean"], motion["scale_sigma"])
            if lo < scale <= hi:
                break
        shift = rng.normal(0.0, motion["frequency_jitter"])
        total += _two_mode_cavity(probes, delta_er + shift, g * scale)
    return total / motion["samples"]


# ---------------------------------------------------------------------------
# motion-ensemble
# ---------------------------------------------------------------------------

def _check_stark(out: Path, span_range, width_range, n_powers) -> list[str]:
    fit = _read_json(out / "stark_fit.json")
    span, width = fit["span_deg"], fit["parameters"]["width"]
    rows = (out / "stark_scan.csv").read_text().count("\n") - 1
    errs = []
    if not span_range[0] <= span <= span_range[1]:
        errs.append(f"phase span {span:.3f} deg outside {span_range}")
    if not width_range[0] <= width <= width_range[1]:
        errs.append(f"width {width:.4f} MHz outside {width_range}")
    if rows != n_powers:
        errs.append(f"stark_scan.csv has {rows} rows, expected {n_powers}")
    return errs


def _check_two_mode_spectrum(out: Path, delta_er, g, motion: dict | None, seed: int,
                             points: int) -> list[str]:
    header, data = _read_spectrum(out / "spectrum.csv")
    if data.shape[0] != points:
        return [f"spectrum.csv has {data.shape[0]} rows, expected {points}"]
    got = _complex_column(header, data, "cavity")
    probes = data[:, 0]
    if motion is None:
        want = _two_mode_cavity(probes, delta_er, g)
        err = float(np.max(np.abs(got - want) / np.abs(want)))
        return [] if err <= 1e-12 else [f"closed-form mismatch {err:.3e} > 1e-12"]
    want = reference_ensemble_mean(probes, delta_er, g, motion, seed)
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return [] if err <= 1e-9 else [f"ensemble mean mismatch {err:.3e} > 1e-9"]


def motion_ensemble_jobs(rng: np.random.Generator, cli_seed: int, inputs: Path,
                         size: str) -> list[Job]:
    full = size == "full"
    powers = 61 if full else 21
    members = 512 if full else 48
    points = 1001 if full else 201
    jobs = []

    stark_on = {"powers": {"points": powers}, "motion": {"samples": members}}
    jobs.append(Job(
        "stark-scan-motion",
        argv=("stark-scan", "--config", _config(inputs, "stark_on", stark_on),
              "--seed", str(cli_seed)),
        check=lambda out: _check_stark(out, (135.0, 145.0), (2.9, 3.5), powers),
    ))
    stark_off = {"powers": {"points": powers}, "motion": {"enabled": False}}
    jobs.append(Job(
        "stark-scan-still",
        argv=("stark-scan", "--config", _config(inputs, "stark_off", stark_off)),
        check=lambda out: _check_stark(out, (149.0, 151.0), (2.94, 3.06), powers),
    ))

    for i in range(3 if full else 1):
        delta_er = float(rng.uniform(-8.0, 8.0))
        g = float(rng.uniform(10.0, 20.0))
        motion = {
            "enabled": True,
            "scale_mean": float(rng.uniform(0.70, 0.90)),
            "scale_sigma": float(rng.uniform(0.08, 0.15)),
            "scale_bounds": [0.5, 1.0],
            "frequency_jitter": float(rng.uniform(0.5, 1.5)),
            "samples": members,
        }
        base = {"network_params": {"delta_er": delta_er, "coupling": g},
                "grid": {"start": -25.0, "stop": 25.0, "points": points}}
        still = {**base, "motion": {"enabled": False}}
        jobs.append(Job(
            f"spectrum-still-{i}",
            argv=("spectrum", "--config", _config(inputs, f"spectrum_still_{i}", still)),
            check=lambda out, d=delta_er, g=g: _check_two_mode_spectrum(
                out, d, g, None, cli_seed, points),
        ))
        jobs.append(Job(
            f"spectrum-motion-{i}",
            argv=("spectrum", "--config", _config(inputs, f"spectrum_motion_{i}",
                                                  {**base, "motion": motion}),
                  "--seed", str(cli_seed)),
            check=lambda out, d=delta_er, g=g, m=motion: _check_two_mode_spectrum(
                out, d, g, m, cli_seed, points),
        ))
    return jobs


# ---------------------------------------------------------------------------
# dense-sweep
# ---------------------------------------------------------------------------

def random_lossy_network(rng: np.random.Generator) -> tuple[dict, str]:
    """A fully coupled resonator network of ``LOSSY_MODES`` modes, one of them lossy.

    The mode count is fixed rather than drawn: the spectrum CSV grows by
    five columns a mode, so a drawn count would move the workload's cost by
    about 15% from seed to seed.

    Every pair of modes is coupled, so each undriven mode acts on every
    drive port directly and few zeros hide under a pole; on sparser graphs
    numeric loss localisation missed too many zeros to be reliable.  Redraws
    until every pole lies well inside the dense grid.  The lossy node's
    decay is ten times the others', which puts its port's mean antiresonance
    width (the mean decay of the other modes) far below every other port's,
    so the verdict is never ambiguous.
    """
    n = LOSSY_MODES
    while True:
        freqs = np.linspace(-24.0, 24.0, n) + rng.uniform(-1.5, 1.5, n)
        decays = rng.uniform(0.5, 0.7, n)
        lossy = int(rng.integers(n))
        decays[lossy] *= 10.0
        pairs = [(j, k, rng.uniform(5.0, 9.0)) for j in range(n) for k in range(j + 1, n)]
        a = np.diag(freqs - 1j * decays)
        for j, k, g in pairs:
            a[j, k] = a[k, j] = g
        if np.max(np.abs(np.linalg.eigvals(a).real)) < 0.8 * DENSE_GRID[1]:
            break
    labels = [f"m{j + 1}" for j in range(n)]
    network = {
        "modes": [{"label": lab, "kind": "resonator", "frequency_mhz": float(f),
                   "decay_mhz": float(d)} for lab, f, d in zip(labels, freqs, decays)],
        "couplings": [{"a": labels[j], "b": labels[k], "g_mhz": float(g)} for j, k, g in pairs],
        "drive": [{"label": labels[int(rng.integers(n))], "re": 1.0, "im": 0.0}],
    }
    return network, labels[lossy]


def _mode_matrices(network: dict, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = [m["label"] for m in network["modes"]]
    n = len(labels)
    c = np.zeros((n, n))
    for pair in network["couplings"]:
        j, k = labels.index(pair["a"]), labels.index(pair["b"])
        c[j, k] = c[k, j] = pair["g_mhz"]
    diag = np.array([1j * m["decay_mhz"] - m["frequency_mhz"] for m in network["modes"]])
    ms = np.broadcast_to(-c.astype(complex), (probes.size, n, n)).copy()
    ms[:, np.arange(n), np.arange(n)] = probes[:, None] + diag[None, :]
    drive = np.zeros(n, dtype=complex)
    for d in network["drive"]:
        drive[labels.index(d["label"])] += d["re"] + 1j * d["im"]
    return ms, drive


def _check_spectrum_residual(out: Path, points: int) -> list[str]:
    """Every probe's amplitudes solve M(probe) a = drive to rounding."""
    network = _read_json(out / "spectrum_report.json")["network"]
    header, data = _read_spectrum(out / "spectrum.csv")
    if data.shape[0] != points:
        return [f"spectrum.csv has {data.shape[0]} rows, expected {points}"]
    labels = [m["label"] for m in network["modes"]]
    amps = np.column_stack([_complex_column(header, data, lab) for lab in labels])
    worst = 0.0
    for lo in range(0, points, 2048):
        ms, drive = _mode_matrices(network, data[lo:lo + 2048, 0])
        a = amps[lo:lo + 2048]
        resid = np.linalg.norm(np.einsum("pij,pj->pi", ms, a) - drive, axis=1)
        scale = np.linalg.norm(ms, axis=(1, 2)) * np.linalg.norm(a, axis=1)
        worst = max(worst, float(np.max(resid / scale)))
    return [] if worst <= 1e-12 else [f"solve residual {worst:.3e} > 1e-12"]


def _check_characterize(out: Path, lossy: str) -> list[str]:
    report = _read_json(out / "characterize_report.json")
    errs = []
    if not report["pole_tables_drive_independent"]:
        errs.append("pole tables depend on the drive port")
    found = report.get("verdict", {}).get("lossiest")
    if found != lossy:
        errs.append(f"lossiest node {found!r}, expected {lossy!r}")
    return errs


def _check_scan2d(out: Path, detunings: np.ndarray, grid: dict) -> list[str]:
    rows = _read_json(out / "scan2d_report.json")["rows"]
    step = (grid["stop"] - grid["start"]) / (grid["points"] - 1)
    if len(rows) != detunings.size:
        return [f"scan2d has {len(rows)} rows, expected {detunings.size}"]
    bad = [r["detuning_mhz"] for r, d in zip(rows, detunings)
           if r["zero_center_mhz"] is None or abs(r["zero_center_mhz"] + d) > step]
    return [] if not bad else [f"zero off the bare emitter by > one step at {bad[:5]}"]


def _check_loss_verdict(out: Path, lossy: str) -> list[str]:
    found = _read_json(out / "result.json")["lossiest"]
    return [] if found == lossy else [f"numeric verdict {found!r}, expected {lossy!r}"]


def _numeric_loss_job(source: str, grid_points: int) -> Callable[[Path], None]:
    """Per-port sweeps of a preset or network file, then numeric loss localisation."""
    def call(out: Path) -> None:
        from antires import network, presets, spectra
        if source in presets.NETWORK_PRESETS:
            net = presets.NETWORK_PRESETS[source]()
        else:
            net = network.load_network(source)
        grid = network.ProbeGrid(*DENSE_GRID, grid_points)
        sweeps = {lab: spectra.sweep(net.with_drive_on(lab), grid) for lab in net.labels}
        verdict = spectra.lossy_component_identify(net, spectra=sweeps)
        _write_json({"lossiest": verdict.label, "mean_widths": verdict.mean_widths},
                    out / "result.json")
    return call


def dense_sweep_jobs(rng: np.random.Generator, cli_seed: int, inputs: Path,
                     size: str) -> list[Job]:
    full = size == "full"
    points = 20001 if full else 2001
    loss_points = 10001 if full else 2001
    network, lossy = random_lossy_network(rng)
    net_path = inputs / "lossy_network.json"
    _write_json(network, net_path)
    grid = {"start": DENSE_GRID[0], "stop": DENSE_GRID[1], "points": points}

    scan_grid = {"start": -30.0, "stop": 30.0, "points": 1001 if full else 201}
    rows = 81 if full else 5
    offset = float(rng.uniform(-2.0, 2.0))
    detunings = np.linspace(-20.0 + offset, 20.0 + offset, rows)

    jobs = [Job(
        "scan2d",
        argv=("scan2d", "--config", _config(inputs, "scan2d", {
            "grid": scan_grid,
            "detuning": {"start": float(detunings[0]), "stop": float(detunings[-1]),
                         "points": rows}})),
        check=lambda out: _check_scan2d(out, detunings, scan_grid),
    )]
    for tag, source, expected in (("five-node", "five-node-demo", "n3"),
                                  ("seeded", str(net_path), lossy)):
        spectrum = {"network": source, "grid": grid}
        jobs += [
            Job(f"spectrum-{tag}",
                argv=("spectrum", "--config", _config(inputs, f"spectrum_{tag}", spectrum)),
                check=lambda out: _check_spectrum_residual(out, points)),
            Job(f"characterize-{tag}",
                argv=("characterize", "--config",
                      _config(inputs, f"characterize_{tag}", {"network": source})),
                check=lambda out, e=expected: _check_characterize(out, e)),
            Job(f"loss-numeric-{tag}",
                call=_numeric_loss_job(source, loss_points),
                check=lambda out, e=expected: _check_loss_verdict(out, e)),
        ]
    return jobs


# ---------------------------------------------------------------------------
# oracle-strong-drive
# ---------------------------------------------------------------------------

def _check_oracle_report(out: Path) -> list[str]:
    report = _read_json(out / "oracle_report.json")
    devs = report["linear_limit"]["relative_deviations"]
    ratios = report["linear_limit"]["eta_over_kappa"]
    errs = []
    by_drive = [d for _, d in sorted(zip(ratios, devs), reverse=True)]
    if any(b > a for a, b in zip(by_drive, by_drive[1:])):
        errs.append(f"deviations do not fall with the drive: {by_drive}")
    if by_drive[-1] >= 1e-3:
        errs.append(f"weakest-drive deviation {by_drive[-1]:.3e} >= 1e-3")
    if not report["pass"]:
        errs.append("oracle-check reports FAIL")
    return errs


def _check_oracle_map(out: Path, n_points: int) -> list[str]:
    points = _read_json(out / "result.json")
    errs = []
    if len(points) != n_points:
        errs.append(f"map has {len(points)} points, expected {n_points}")
    for p in points:
        field = complex(p["mean_field_re"], p["mean_field_im"])
        dipole = complex(p["mean_dipole_re"], p["mean_dipole_im"])
        n = p["mean_photons"]
        where = f"eta/kappa {p['eta_over_kappa']}, probe {p['probe_mhz']:.3f}"
        if not (n > 0.0 and abs(field) ** 2 <= n * (1.0 + 1e-9)):
            errs.append(f"{where}: |<a>|^2 {abs(field) ** 2:.4g} exceeds <n> {n:.4g}")
        if abs(dipole) > 0.5 + 1e-9:
            errs.append(f"{where}: |<sigma>| {abs(dipole):.4g} > 1/2")
        if not (math.isfinite(p["g2"]) and p["g2"] >= 0.0):
            errs.append(f"{where}: g2 {p['g2']} not a finite non-negative number")
        if not p["cutoff_delta"] < 1e-3:
            errs.append(f"{where}: cutoff not converged ({p['cutoff_delta']:.3e})")
    return errs


def oracle_jobs(rng: np.random.Generator, cli_seed: int, inputs: Path, size: str) -> list[Job]:
    full = size == "full"
    ratios = (0.3, 1.0, 2.0, 3.0, 3.5) if full else (0.3, 1.0)
    probes = np.linspace(-20.0, 20.0, 9 if full else 3)
    # The cutoff an escalation reaches, and with it the cost, rises steeply
    # with the drive and towards the antiresonance at probe 0, so the seed
    # permutes the evaluation order and leaves the points where they are.
    grid = [(float(r), float(p)) for r in ratios for p in probes]
    order = rng.permutation(len(grid))

    def strong_drive_map(out: Path) -> None:
        from dataclasses import replace
        from antires import oracle
        base = oracle.JCParams(gamma=GAMMA, kappa=KAPPA, g=G_DEFAULT, cutoff=4)
        points = []
        for i in order:
            ratio, probe = grid[i]
            res = oracle.lindblad_steady_state(
                replace(base, delta_pe=probe, delta_pr=probe, eta=ratio * KAPPA))
            points.append({"eta_over_kappa": ratio, "probe_mhz": probe, **res.to_report()})
        _write_json(points, out / "result.json")

    return [
        Job("oracle-check", argv=("oracle-check",), check=_check_oracle_report),
        Job("strong-drive-map", call=strong_drive_map,
            check=lambda out: _check_oracle_map(out, len(grid))),
    ]


# ---------------------------------------------------------------------------
# heterodyne-chain
# ---------------------------------------------------------------------------

DEFAULT_PROBES = (-20.0, -16.0, -10.0, -6.0, 0.0, 6.0, 10.0, 16.0, 20.0)


def _check_heterodyne(out: Path, probes: list[float], bins: int) -> list[str]:
    report = _read_json(out / "heterodyne_report.json")
    points = report["points"]
    if [p["probe_mhz"] for p in points] != probes:
        return ["heterodyne report covers other probe points"]
    errs = []
    for p in points:
        f = p["probe_mhz"]
        field_sys = _two_mode_cavity(f, -3.0, G_DEFAULT)
        field_ref = 1.0 / (f + 1j * KAPPA)
        model = math.degrees(_wrap_rad(np.angle(field_sys) - np.angle(field_ref)))
        if abs(model - p["model_phase_deg"]) > 1e-9:
            errs.append(f"probe {f:.3f}: model phase {p['model_phase_deg']} != {model}")
        err = max(p["mean_err_deg"], 360.0 / bins / 2.0)
        resid = abs(_wrap_deg(p["fitted_mean_deg"] - model))
        if resid > 3.0 * err:
            errs.append(f"probe {f:.3f}: fitted mean off by {resid:.3f} deg > 3 x {err:.3f}")
    return errs


def heterodyne_jobs(rng: np.random.Generator, cli_seed: int, inputs: Path,
                    size: str) -> list[Job]:
    full = size == "full"
    # The tiny list leaves out the probe at 0 MHz: with 200 windows its fitted
    # mean missed 3 sigma in 2 of 12 seeds (see CHANGES.md); at 4000 windows
    # the worst residual seen was 0.6 sigma.
    chosen = DEFAULT_PROBES if full else (-20.0, -10.0, 10.0, 20.0)
    probes = [round(p + float(rng.uniform(-0.5, 0.5)), 6) for p in chosen]
    bins = 72
    cfg = {"probe_points": probes, "windows": 4000 if full else 200, "bins": bins}
    return [Job(
        "heterodyne-demo",
        argv=("heterodyne-demo", "--config", _config(inputs, "heterodyne", cfg),
              "--seed", str(cli_seed)),
        check=lambda out: _check_heterodyne(out, probes, bins),
    )]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "motion-ensemble",
        "per-member Python: 31,232 ensemble draws each rebuild a network for a one-probe "
        "solve; judges the batched family solve and the per-call overhead cut",
        motion_ensemble_jobs,
    ),
    Workload(
        "dense-sweep",
        "few large batched solves plus 33 MB of CSV per pass, no motion; a chunked solve "
        "or an output change must show its cost here",
        dense_sweep_jobs,
    ),
    Workload(
        "oracle-strong-drive",
        "the only dense-LAPACK, memory-bound path: cutoff escalation up to 20 photons; "
        "judges the sparse Liouvillian in wall_s and peak_rss_mb",
        oracle_jobs,
    ),
    Workload(
        "heterodyne-chain",
        "per-window noise streams and IQ demodulation over 4000 windows a channel; "
        "the only workload that runs the heterodyne layer",
        heterodyne_jobs,
    ),
)}


def run_job(job: Job, out: Path) -> tuple[int, str]:
    """Run one job into ``out``; returns its exit code and what it wrote to stderr."""
    out.mkdir(parents=True, exist_ok=True)
    if job.call is not None:
        job.call(out)
        return 0, ""
    from antires import cli

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main([*job.argv, "--out", str(out)])
    return code, err.getvalue()


def build_jobs(workload: str, seed: int, inputs: Path, size: str = "full") -> list[Job]:
    """The job list of ``workload`` for ``seed``; inputs are written to ``inputs``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x616E7469)))
    cli_seed = int(rng.integers(2**31))
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload].build(rng, cli_seed, inputs, size)
