"""antires benchmark: run one workload end to end, or traced per layer.

    python3 bench/run.py --workload motion-ensemble --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs the workload's jobs one after another (a closed
loop with one client), repeating the job list as many whole times as fit in
``--seconds`` (at least once), and checks every job's outputs.  The last
line of standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See ``bench/README.md`` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median

NPROC = len(os.sched_getaffinity(0))
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports, by file name."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh
                 if "openblas" in line.lower() and ".so" in line.split()[-1]}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas_of(module) -> str:
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{blas['name']} {blas['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "nproc": NPROC,
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas_of(numpy), "scipy": blas_of(scipy)},
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------

def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
        if m and m.group(2) not in times:
            times[m.group(2)] = int(m.group(1)) * 1e-6
    return times


def setup_probe(workload: str, seed: int, workdir: Path, importtime: bool) -> dict:
    """Time one fresh interpreter from start to ready (see ``ready.py``)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "ready.py"), workload, str(seed), str(workdir)]
    workdir.mkdir(parents=True)
    # stderr goes to a file: -X importtime writes more than a pipe buffers
    # before the ready line, which would block the probe.
    with open(workdir / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {stderr[-2000:]}")
    probe = {"setup_s": ready, **json.loads(line)}
    if importtime:
        imports = _import_times(stderr)
        probe["import_s"] = imports.get("antires.cli", 0.0)  # includes the package
        probe["import_scipy_signal_s"] = imports.get("scipy.signal", 0.0)
    return probe


# ---------------------------------------------------------------------------
# Measured repetitions
# ---------------------------------------------------------------------------

def digest_dir(path: Path) -> dict[str, dict]:
    out = {}
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        out[str(f.relative_to(path))] = {
            "sha256": hashlib.sha256(f.read_bytes()).hexdigest(), "bytes": f.stat().st_size}
    return out


def run_rep(jobs, outdir: Path, tracer=None) -> dict:
    """Run the job list once; time each job and hash its outputs."""
    from workloads import run_job

    rep = {"traced": tracer is not None, "wall_s": 0.0, "jobs": {}, "errors": {}}
    with tracer.installed() if tracer else nullcontext():
        for job in jobs:
            out = outdir / job.name
            shutil.rmtree(out, ignore_errors=True)
            start = time.perf_counter()
            try:
                with tracer.job(job.name) if tracer else nullcontext():
                    code, err = run_job(job, out)
                error = None if code == 0 else f"exit {code}: {err.strip()[-500:]}"
            except Exception:  # a job that raises is a failed job, not a failed run
                error = traceback.format_exc(limit=3)
            rep["wall_s"] += time.perf_counter() - start
            rep["jobs"][job.name] = digest_dir(out) if out.exists() else {}
            if error:
                rep["errors"][job.name] = error
    return rep


def check_rep(jobs, outdir: Path, rep: dict, reference: dict | None) -> None:
    """Check the outputs of ``rep``: in full against the job's checks when
    ``reference`` is None, else byte for byte against the reference rep."""
    for job in jobs:
        if job.name in rep["errors"]:
            continue
        if reference is None:
            try:
                problems = job.check(outdir / job.name)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        elif rep["jobs"][job.name] != reference["jobs"][job.name]:
            problems = ["outputs differ from the first repetition"]
        else:
            problems = []
        if problems:
            rep["errors"][job.name] = "; ".join(problems)


def main(argv=None) -> int:
    # BLAS threads are pinned to the CPU count before numpy loads, here and
    # in every child; ANTIRES_THREADS stays unset so ensembles run serially.
    os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)
    os.environ.pop("ANTIRES_THREADS", None)
    args = parse_args(argv)
    if not (SRC / "antires" / "__init__.py").is_file():
        print(f"error: no antires package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import antires.cli  # noqa: F401  (also compiles bytecode before any probe)

    from tracer import Tracer
    from workloads import WORKLOADS, build_jobs

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        # Warm-up in this process first, so the timed repetitions are warm.
        tiny = build_jobs(args.workload, args.seed, workdir / "tiny-inputs", "tiny")
        warm = run_rep(tiny, workdir / "tiny")
        check_rep(tiny, workdir / "tiny", warm, None)

        probes = [setup_probe(args.workload, args.seed, workdir / f"probe{i}", bool(args.trace))
                  for i in range(SETUP_PROBES)]

        jobs = build_jobs(args.workload, args.seed, workdir / "inputs")
        outdir = workdir / "out"
        reps, tracers = [], []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            tracer = Tracer() if traced else None
            rep = run_rep(jobs, outdir, tracer)
            check_rep(jobs, outdir, rep, reps[0] if reps else None)
            reps.append(rep)
            if tracer is not None:
                tracers.append((tracer, rep))
            # stop before a further pass would overrun --seconds
            elapsed = time.perf_counter() - start
            if elapsed * (len(reps) + 1) / len(reps) > args.seconds and (
                    not args.trace or tracers):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_reps = [warm, *reps]
    attempted = sum(len(r["jobs"]) for r in all_reps)
    failures = {f"rep{i}/{name}": e for i, r in enumerate(all_reps)
                for name, e in r["errors"].items()}
    plain = [r["wall_s"] for r in reps if not r["traced"]]

    if args.trace:
        metrics = layer_metrics(probes, tracers, reps, jobs, plain)
    else:
        metrics = {
            "setup_s": (median([p["setup_s"] for p in probes]), "s"),
            "wall_s": (median(plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    record = {
        "workload": args.workload, "why": WORKLOADS[args.workload].why,
        "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_probes": probes,
        "reps": [{"traced": r["traced"], "wall_s": r["wall_s"]} for r in reps],
        "digests": reps[0]["jobs"], "failures": failures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracers:
        (OUT / f"spans-{args.workload}.json").write_text(json.dumps(tracers[-1][0].dump()))

    combined = hashlib.sha256(json.dumps(reps[0]["jobs"], sort_keys=True).encode()).hexdigest()
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"failed_frac {len(failures)}/{attempted} = {len(failures) / attempted:.4g}, "
          f"outputs sha256 {combined}")
    for name, error in sorted(failures.items()):
        print(f"# FAILED {name}: {error.splitlines()[-1] if error else ''}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(probes, tracers, reps, jobs, plain) -> dict:
    """Per-layer metrics: set-up probes, then medians over the traced reps."""
    per_rep = []
    cli_jobs = {j.name for j in jobs if j.argv is not None}
    for tracer, rep in tracers:
        m = tracer.metrics()
        files = [f for name, fs in rep["jobs"].items() if name in cli_jobs for f in fs.values()]
        m["cli.files_written"] = (len(files), "count")
        m["cli.bytes_written"] = (sum(f["bytes"] for f in files), "B")
        per_rep.append(m)
    metrics = {k: (median([m[k][0] for m in per_rep]), per_rep[0][k][1]) for k in per_rep[0]}
    traced_wall = median([rep["wall_s"] for _, rep in tracers])
    metrics["trace.wall_traced_s"] = (traced_wall, "s")
    metrics["trace.wall_untraced_s"] = (median(plain), "s")
    metrics["trace.overhead_s"] = (traced_wall - median(plain), "s")
    for key in ("import_s", "import_scipy_signal_s", "warmup_s"):
        metrics[f"setup.{key}"] = (median([p[key] for p in probes]), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
