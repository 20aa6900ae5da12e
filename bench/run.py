"""Benchmark entry point for cyltab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds the cyltab sources under src/.
Each workload runs in fresh interpreters with a pinned environment
(PYTHONHASHSEED fixed, CYLTAB_THREADS removed, PYTHONPATH set to src/).

--trace 0 times set-up SETUP_RUNS times (each in a new interpreter, right
after a reference process), runs the closed loop for about S seconds, and
prints the end-to-end metrics.
--trace 1 runs the workload's fixed prefix of operations twice, untraced
and traced, each in a new interpreter, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment, the output digest, the class mix and the raw timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
REFERENCE = ROOT / "bench" / "reference.py"
WORK_DIR = ROOT / ".bench_work"
SETUP_RUNS = 9
WORKLOADS = ("identity", "bijection", "words", "cli")


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CYLTAB_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:]} timed out after {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited with {proc.returncode}")
    return out


def worker(mode: str, args, tag: str, timeout: float = 150.0) -> dict:
    argv = [
        sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--workdir", str(WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}-{tag}"),
    ]
    return json.loads(run_child(argv, timeout).splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reference_process_s() -> float:
    """Wall time of a fresh interpreter running the reference loop."""
    t0 = time.perf_counter()
    run_child([sys.executable, str(REFERENCE)], timeout=60)
    return time.perf_counter() - t0


def untraced(args) -> tuple[dict, dict]:
    """Set up SETUP_RUNS times, the last time in the measured run.

    A reference process runs right before each set-up, and setup_s is the
    median set-up time in units of the reference process, converted to
    seconds at its nominal speed.
    """
    setups, refs = [], []
    for i in range(SETUP_RUNS - 1):
        refs.append(reference_process_s())
        setups.append(worker("setup", args, f"setup{i}", timeout=60)["setup_s"])
    refs.append(reference_process_s())
    res = worker("run", args, "run")
    if res["wrappers"]:
        raise BenchError(f"the untraced run found {res['wrappers']} trace wrappers installed")
    setups.append(res["setup_s"])
    setup_s = reference.NOMINAL_PROCESS_S * statistics.median(s / r for s, r in zip(setups, refs))
    metrics = {
        "ops_per_kref": metric(res["ops_per_kref"], "1/kref"),
        "op_p50_ref": metric(res["op_p50_ref"], "ref"),
        "op_p90_ref": metric(res["op_p90_ref"], "ref"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    result = {
        "correct": res["failed"] == 0 and res["digest"] is not None,
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    info = {k: res[k] for k in ("digest", "cycles", "classes", "wall_s", "raw")}
    info.update(samples=res["ops"], fail_ratio=res["failed"] / res["ops"], setup_runs_s=setups, setup_refs_s=refs)
    return result, info


def traced(args) -> tuple[dict, dict]:
    base = worker("prefix", args, "prefix")
    res = worker("traced", args, "traced")
    metrics = dict(res["layers"])
    # Operation time per reference time, traced over untraced: each run is
    # scaled by the reference timed in it, so a change of machine speed
    # between the two runs cancels out.
    overhead = (res["op_s"] / res["reference_s"]) / (base["op_s"] / base["reference_s"])
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    same = base["digest"] is not None and base["digest"] == res["digest"]
    result = {
        "correct": same and base["failed"] == 0 and res["failed"] == 0,
        "attempted": base["ops"] + res["ops"],
        "failed": base["failed"] + res["failed"],
        "metrics": metrics,
    }
    info = {
        "digest": res["digest"],
        "untraced_digest": base["digest"],
        "untraced_op_s": base["op_s"],
        "traced_op_s": res["op_s"],
        "untraced_reference_s": base["reference_s"],
        "traced_reference_s": res["reference_s"],
        "wrappers": res["wrappers"],
    }
    return result, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cyltab" / "__init__.py").is_file():
        print(f"bench: no cyltab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run_child([sys.executable, "-m", "compileall", "-q", "src"], timeout=120)
        result, info = (traced if args.trace else untraced)(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
