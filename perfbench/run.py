"""granvar benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload transect_hardcore --seed 1 --seconds 26 --trace 0

Workloads and the metrics printed are listed in ``BENCHMARK.json``; the
workload definitions live in ``perfbench/workloads.py``.  The program is
imported from ``src/`` of the checkout and driven in-process by a worker
process (``perfbench/worker.py``) with one granvar thread and one BLAS
thread.

``--trace 0`` prints the end-to-end metrics: the median seconds per
operation and the median set-up time over several fresh processes, both
rescaled to the host's nominal speed (see ``hostref.py``; the medians as
measured are printed on a comment line), and the worker's peak resident
memory.  ``--trace 1`` prints the per-layer metrics of
a traced run instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the run for a human reader.

Exit codes: 0 success, 1 a failed operation or check, 2 bad arguments or no
granvar sources in the current directory, 3 a worker process failed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
WORKLOADS = ("window_cluster", "pairwise_oracle", "transect_hardcore", "null_ensemble")
#: Fresh processes that only set up, sampled in addition to the worker; set-up
#: time is the median of these three samples.
SETUP_PROBES = 2
#: Every process this script starts must end before this many seconds.
DEADLINE_S = 170.0
BLAS_THREADS = "1"


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _spawn(root: Path, env: dict, args: list[str], timeout: float) -> dict:
    """Run the worker with ``args``; return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _context(worker: dict) -> str:
    ctx = worker["context"]
    return (f"# nproc={os.cpu_count()} python={ctx['python']} numpy={ctx['numpy']} "
            f"scipy={ctx['scipy']} blas_threads={BLAS_THREADS} granvar_threads=1")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "granvar" / "__init__.py").is_file():
        return _fail("no granvar sources under src/ in the current directory", 2)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]
    try:
        setups = []
        # the traced run reports no set-up time, so it samples none
        for _ in range(0 if args.trace else SETUP_PROBES):
            left = DEADLINE_S - (time.monotonic() - started)
            setups.append(_spawn(root, env, common + ["--setup-only"], left)["setup_s"])
        left = DEADLINE_S - (time.monotonic() - started)
        worker = _spawn(root, env, common + ["--seconds", str(args.seconds),
                                             "--trace", str(args.trace)], left)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return _fail(f"worker failed: {exc}", 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    setups.append(worker["setup_s"])
    if not worker["run_s"]:
        for message in worker["failures"]:
            print(f"# FAILED: {message.strip()}")
        return _fail("no operation completed", 1)

    if args.trace:
        values = worker["layers"]
    else:
        measured_s = statistics.median(worker["run_s"])
        reference = worker["reference_s"]
        speed = hostref.NOMINAL_S / statistics.median(reference)
        values = {
            "run_s": measured_s * speed,
            "setup_s": statistics.median(setups) * speed,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"no value for metrics {missing}", 3)

    attempted, failed = worker["attempted"], worker["failed"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(_context(worker))
    print(f"# operations={attempted} failed={failed} error_rate={failed / attempted:.6g} "
          f"timed_samples={len(worker['run_s'])} setup_samples={len(setups)}")
    for message in worker["failures"]:
        print(f"# FAILED: {message.strip()}")
    if not args.trace:
        print(f"# as measured: run_s = {measured_s:.6g} s, setup_s = "
              f"{statistics.median(setups):.6g} s; host speed factor = {speed:.4g} "
              f"(reference kernel, median of {len(reference)})")
    for m in wanted:
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
