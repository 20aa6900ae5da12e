"""One benchmark process for one workload, started fresh by run.py.

Modes:
  setup   time the set-up (import cyltab, generate the inputs) and stop;
  run     set up, then run the closed loop untraced for --seconds;
  prefix  set up, then run the workload's fixed prefix of operations untraced;
  traced  set up, install the tracer, run the same prefix, and report the
          per-layer metrics.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 110  # so the 90th percentile keeps at least ten samples beyond it
HARD_STOP_S = 120.0  # a run ends by then even inside a cycle
REFERENCE_EVERY_S = 0.5  # operation time between two timings of the reference
REFERENCE_BURST = 5  # timings of the reference before the first and after the last operation


def closed_loop(wl, seconds: float | None = None, max_ops: int | None = None) -> dict:
    """Issue operations one at a time, timing and checking each.

    With max_ops, run exactly that many.  Otherwise stop at the cycle
    boundary nearest to `seconds`, once there are MIN_OPS samples and the
    digest prefix is covered.  The workload's reference computation is
    timed REFERENCE_BURST times before the first operation and after the
    last, and once after every REFERENCE_EVERY_S of operation time.  The
    digest covers the canonical outputs of the first `wl.prefix`
    operations, so runs of any length can be compared.
    """
    from workloads import CheckFailed  # not at the top: importing it imports cyltab

    clock = time.perf_counter
    samples: list[float] = []
    references: list[float] = []
    failures: list[str] = []
    digest = hashlib.sha256()
    floor = max(MIN_OPS, wl.prefix)

    def time_reference(times: int) -> None:
        for _ in range(times):
            t0 = clock()
            wl.reference()
            references.append(clock() - t0)

    time_reference(REFERENCE_BURST)
    since_reference = 0.0
    start = clock()
    for i, op in enumerate(wl.stream()):
        if max_ops is not None:
            if i >= max_ops:
                break
        elif i % wl.cycle == 0 and i >= floor:
            elapsed = clock() - start
            if elapsed + elapsed / (i / wl.cycle) / 2 >= seconds:
                break
        if clock() - start > HARD_STOP_S:
            break
        t0 = clock()
        try:
            out = wl.run(op)
        except Exception as exc:  # a raising operation is a failed one, never a crash
            samples.append(clock() - t0)
            failures.append(f"{type(exc).__name__}: {exc}")
            chunk = f"raised {type(exc).__name__}".encode()
        else:
            samples.append(clock() - t0)
            try:
                wl.check(op, out)
            except CheckFailed as exc:
                failures.append(str(exc))
            chunk = wl.canon(op, out) if i < wl.prefix else b""
        if i < wl.prefix:
            digest.update(len(chunk).to_bytes(8, "big") + chunk)
        since_reference += samples[-1]
        if since_reference >= REFERENCE_EVERY_S:
            since_reference = 0.0
            time_reference(1)
    wall = clock() - start
    time_reference(REFERENCE_BURST)
    for message in failures[:5]:
        print(f"{wl.name}: failed: {message}", file=sys.stderr)
    return {
        "ops": len(samples),
        "failed": len(failures),
        "samples": samples,
        "op_s": sum(samples),
        "reference_s": statistics.median(references),
        "wall_s": wall,
        "digest": digest.hexdigest() if len(samples) >= wl.prefix else None,
    }


def timing_stats(samples: list[float], ref: float) -> dict:
    """Throughput and percentiles, raw and in units of the reference time.

    The reference computation is timed throughout the run, so it sees the
    same machine speed as the operations; on a shared machine whose speed
    drifts from minute to minute, the ratios move much less than raw times.
    """
    p50 = statistics.median(samples)
    p90 = statistics.quantiles(samples, n=10)[8]
    mean = sum(samples) / len(samples)
    return {
        "ops_per_kref": 1e3 * ref / mean,
        "op_p50_ref": p50 / ref,
        "op_p90_ref": p90 / ref,
        "raw": {"ops_per_s": 1 / mean, "op_p50_ms": p50 * 1e3, "op_p90_ms": p90 * 1e3, "ref_ms": ref * 1e3},
    }


def _peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.child_processes else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def startup_probes(runs: int = 11) -> dict:
    """Wall time of a bare interpreter, and what `import cyltab.cli` adds to it.

    The two commands alternate so that both see the same machine load.
    """
    commands = ([sys.executable, "-c", "pass"], [sys.executable, "-c", "import cyltab.cli"])
    times: tuple[list, list] = ([], [])
    for _ in range(runs):
        for argv, out in zip(commands, times):
            t0 = time.perf_counter()
            subprocess.run(argv, check=True, timeout=60)
            out.append(time.perf_counter() - t0)
    interp, with_import = (statistics.median(t) for t in times)
    return {"cli.interp_s": interp, "cli.import_s": with_import - interp}


def traced_prefix(wl) -> dict:
    import reference
    import tracer

    probes = startup_probes()
    tr = tracer.Tracer()
    tr.install()
    cache = tr.originals["words._sorting_moves"]
    before = cache.cache_info()
    res = closed_loop(wl, max_ops=wl.prefix)
    after = cache.cache_info()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    probes.update(
        {
            "words.sort_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "words.sort_cache.lookups": hits + misses,
            "words.sort_cache.size": after.currsize,
        }
    )
    # Span times are scaled to the nominal speed of the reference loop.
    scale = reference.NOMINAL_LOOP_S / res["reference_s"]
    layers = {}
    for name, unit, source in tracer.PER_LAYER:
        if name == "trace.overhead_ratio":
            continue  # needs the untraced prefix; run.py adds it
        if source == "probe":
            value = probes[name]
        else:
            value = source(tr) * (scale if unit == "s" else 1)
        layers[name] = {"value": value, "unit": unit}
    res["layers"] = layers
    res["wrappers"] = tracer.installed_wrappers()
    return res


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "prefix", "traced"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import cyltab
    import workloads

    source = Path(cyltab.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"cyltab was imported from {source}, not from this checkout's src/")
    args.workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        setup_s = time.perf_counter() - t0
        if args.mode == "setup":
            result = {}
        elif args.mode == "run":
            result = closed_loop(wl, seconds=args.seconds, max_ops=wl.run_ops(args.seconds))
            result.update(timing_stats(result.pop("samples"), result["reference_s"]))
            result.update(
                peak_rss_mb=_peak_rss_mb(wl),
                cycles=result["ops"] / wl.cycle,
                classes=wl.classes(),
            )
            import tracer

            result["wrappers"] = tracer.installed_wrappers()
        else:
            wl.inprocess = True
            result = traced_prefix(wl) if args.mode == "traced" else closed_loop(wl, max_ops=wl.prefix)
            del result["samples"]
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
