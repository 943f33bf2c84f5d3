"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import antires  # noqa: E402
from antires import cli, network, presets, spectra  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Job, build_jobs, run_job  # noqa: E402


def truncation_acceptance(mean, sigma, lo, hi):
    """Probability that a N(mean, sigma) draw lands in (lo, hi]."""
    cdf = lambda x: 0.5 * (1.0 + math.erf((x - mean) / (sigma * math.sqrt(2.0))))  # noqa: E731
    return cdf(hi) - cdf(lo)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(workload, tmp_path):
    jobs = build_jobs(workload, 7, tmp_path / "inputs", "tiny")
    for job in jobs:
        code, err = run_job(job, tmp_path / job.name)
        assert code == 0, (job.name, err)
        assert job.check(tmp_path / job.name) == [], job.name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_leaves_outputs_byte_identical(workload, tmp_path):
    jobs = build_jobs(workload, 3, tmp_path / "inputs", "tiny")
    plain = run.run_rep(jobs, tmp_path / "plain")
    traced = run.run_rep(jobs, tmp_path / "traced", Tracer())
    assert not plain["errors"] and not traced["errors"]
    assert plain["jobs"] == traced["jobs"]
    assert all(plain["jobs"].values())


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (network.steady_state_batch, presets.emitter_resonator,
                 network.ModeNetwork.__init__, spectra.MotionEnsemble.draw, cli.main)
    tracer = Tracer()
    with tracer.installed():
        wrapped = network.steady_state_batch
        assert wrapped is not originals[0]
        assert antires.steady_state_batch is wrapped
        assert spectra.steady_state_batch is wrapped
        assert cli.emitter_resonator is presets.emitter_resonator is not originals[1]
        assert presets.NETWORK_PRESETS["emitter-resonator"] is presets.emitter_resonator
        assert network.ModeNetwork.__init__ is not originals[2]
        assert spectra.MotionEnsemble.draw is not originals[3]
        presets.emitter_resonator()
    assert (network.steady_state_batch, presets.emitter_resonator,
            network.ModeNetwork.__init__, spectra.MotionEnsemble.draw, cli.main) == originals
    assert presets.NETWORK_PRESETS["emitter-resonator"] is originals[1]
    assert antires.steady_state_batch is originals[0]
    summary = tracer.summary()
    assert summary["presets.emitter_resonator"]["calls"] == 1
    assert summary["network.ModeNetwork"]["calls"] == 2  # built, then re-driven


def test_tracer_reproduces_known_call_counts(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        for command in ("stark-scan", "oracle-check"):
            with tracer.job(command):
                job = Job(command, check=lambda out: [], argv=(command,))
                code, err = run_job(job, tmp_path / command)
            assert code == 0, err
    assert tracer.calls_in_job("stark-scan", "spectra.MotionEnsemble.draw") == 61 * 512
    assert tracer.calls_in_job("oracle-check", "oracle.lindblad_steady_state") == 7
    assert tracer.calls_in_job("oracle-check", "oracle.steady_density_matrix") == 14
    metrics = tracer.metrics()
    assert metrics["oracle.useful_solve_ratio"][0] == 0.5
    assert 0.0 <= metrics["trace.uncovered_frac"][0] < 0.05


def _inputs(workload, seed, tmp_path):
    folder = tmp_path / f"{workload}-{seed}"
    build_jobs(workload, seed, folder)
    return {p.name: p.read_bytes().replace(str(folder).encode(), b"<inputs>")
            for p in sorted(folder.iterdir())}


@pytest.mark.parametrize("workload", ["motion-ensemble", "dense-sweep", "heterodyne-chain"])
def test_seeds_change_the_generated_inputs(workload, tmp_path):
    first = _inputs(workload, 1, tmp_path)
    assert first == _inputs(workload, 1, tmp_path / "again")
    assert first != _inputs(workload, 2, tmp_path)


@pytest.mark.parametrize("seed", range(1, 6))
def test_generated_inputs_are_valid(seed, tmp_path):
    folder = tmp_path / "inputs"
    motion_jobs = build_jobs("motion-ensemble", seed, folder)
    for job in motion_jobs:
        if job.name.startswith("spectrum-motion"):
            motion = json.loads(Path(job.argv[2]).read_text())["motion"]
            acceptance = truncation_acceptance(
                motion["scale_mean"], motion["scale_sigma"], *motion["scale_bounds"])
            assert acceptance > 0.5, motion

    dense = {job.name: job for job in build_jobs("dense-sweep", seed, folder)}
    net = json.loads((folder / "lossy_network.json").read_text())
    assert len(net["modes"]) == 7
    decays = {m["label"]: m["decay_mhz"] for m in net["modes"]}
    # mean antiresonance width under drive p = mean decay of the other modes
    means = sorted((sum(decays.values()) - d) / (len(decays) - 1) for d in decays.values())
    assert means[1] > 1.5 * means[0]
    job = dense["loss-numeric-seeded"]
    run_job(job, tmp_path / job.name)
    assert job.check(tmp_path / job.name) == []


def test_missing_package_fails_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # restored after the test
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "dense-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
