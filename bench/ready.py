"""Set-up probe: a fresh interpreter imports the CLI and warms one workload up.

Run by ``run.py`` (``python3 bench/ready.py WORKLOAD SEED DIR``), which
times this process from start to the one JSON line it prints when ready.
The warm-up is the workload's tiny job list, so lazy imports and BLAS
thread start-up are paid here, as every CLI call pays them.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = time.perf_counter()
    import antires.cli  # noqa: F401  (an import statement, so -X importtime logs it)
    t1 = time.perf_counter()
    from workloads import build_jobs, run_job

    for job in build_jobs(workload, seed, workdir / "inputs", "tiny"):
        code, err = run_job(job, workdir / job.name)
        if code != 0:
            print(f"warm-up job {job.name} exited {code}: {err}", file=sys.stderr)
            return 1
    print(json.dumps({"import_s": t1 - t0, "warmup_s": time.perf_counter() - t1}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
