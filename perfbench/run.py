#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload chat_prefix|tenant_mix|classify_varlen
        --seed N --seconds S --trace 0|1
        [--placement WORKLOAD=THREADS/ROTATE_MS,...]

Run from the root of a checkout. Builds the library and the perfbench binary from
source into .bench_build (or $CARGO_TARGET_DIR), runs one workload for
about S seconds of serving (with --trace 0 then once more, one episode, as
the memory probe for peak_rss_mb), and prints as its last stdout line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Build output and
diagnostics go to stderr. --placement sets, per workload, the kernel
thread count (OMP_NUM_THREADS; "all" = every CPU) and the period at which
the serving thread is moved to the next CPU (0 = left to the OS); see
"Threads and placement" in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import aggregate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chat_prefix", "tenant_mix", "classify_varlen")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out):
    if not (ROOT / "src" / "genserve").is_dir():
        sys.exit("perfbench: %s has no src/ tree to build" % ROOT)
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def placement(spec, workload):
    """(kernel threads, rotate ms) of `workload` in a spec such as
    "chat_prefix=1/20,classify_varlen=all/0"; every CPU, no rotation when
    the workload is not listed."""
    threads, rotate_ms = "all", "0"
    for item in filter(None, spec.split(",")):
        name, _, value = item.partition("=")
        if name == workload:
            threads, _, rotate_ms = value.partition("/")
    cpus = os.cpu_count() or 1
    return (cpus if threads == "all" else int(threads)), int(rotate_ms or 0)


def check_fingerprint(out, binary, workload, seed, fp):
    """A seed's schedule must repeat exactly from run to run of one build:
    the first run of a seed with this binary records it, later runs of the
    same binary compare. Another build (other code) starts its own record."""
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    store = out / "fingerprints" / build_id / ("%s-%d.json" % (workload, seed))
    if store.exists():
        return json.loads(store.read_text()) == fp
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(fp, sort_keys=True))
    return True


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--placement", default="")
    args = p.parse_args()
    threads, rotate_ms = placement(args.placement, args.workload)

    out = build_dir()
    binary = build(out)
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(threads)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rotate-ms", str(rotate_ms)]

    def serve(extra_args, extra_env, timeout):
        proc = subprocess.run(cmd + extra_args, env=dict(env, **extra_env),
                              stdout=subprocess.PIPE, timeout=timeout,
                              check=True)
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])

    # Both calls together stay under three minutes.
    report = serve([], {}, 115)
    attempted, failed = aggregate.counts(report)
    fp = aggregate.fingerprint(report)
    errors = list(report["errors"])
    if fp is None:
        errors.append("schedule fingerprint differs between episodes")
    elif not check_fingerprint(out, binary, args.workload, args.seed, fp):
        errors.append("schedule fingerprint differs from an earlier run "
                      "of this seed")
    if not args.trace:
        # peak_rss_mb comes from a separate process serving one episode,
        # with glibc's mmap threshold fixed at its initial 128 KiB: large
        # buffers then go back to the OS on free, and the peak follows the
        # live peak rather than the allocation history (which depends on
        # the order of shapes, so on the seed). The timed run above keeps
        # glibc's defaults.
        probe = serve(["--memory-probe", "1"],
                      {"MALLOC_MMAP_THRESHOLD_": "131072"}, 55)
        probe_attempted, probe_failed = aggregate.counts(probe)
        attempted += probe_attempted
        failed += probe_failed
        errors += probe["errors"]
        if aggregate.fingerprint(probe) != fp:
            errors.append("memory probe's schedule fingerprint differs")
    if args.trace:
        metrics = aggregate.per_layer(report)
        units = {n: u for n, u, _ in aggregate.PER_LAYER}
    else:
        metrics = aggregate.end_to_end(report, probe["peak_rss_mb"])
        units = dict(aggregate.END_TO_END)
        missing = sorted(set(units) - set(metrics))
        if missing:
            errors.append("too few samples for " + ", ".join(missing))
    for e in errors:
        print("perfbench: " + e, file=sys.stderr)
    speed = aggregate.per_layer(report)["clock.ref_per_wall"]
    print("perfbench: wall-clock tok_s %.4g; reference/wall time %.4g" %
          (aggregate.wall_tok_s(report), speed), file=sys.stderr)
    print("perfbench: %s seed %d: %d episodes; %d attempted, %d succeeded, "
          "%d failed; fingerprint %s" %
          (args.workload, args.seed, len(report["episodes"]), attempted,
           attempted - failed, failed, json.dumps(fp, sort_keys=True)),
          file=sys.stderr)
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
