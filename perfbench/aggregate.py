"""Aggregation of the perfbench binary's raw per-episode samples into the benchmark's
metrics. Pure functions over the JSON report the perfbench binary prints;
tested by test_aggregate.py.

Rules:
  * Every timing is in reference time (see RefClock in src/harness.h):
    wall time scaled by the machine's measured speed.
  * Rates and percentiles are computed per untraced episode, and the run
    reports the median over its episodes; set-up time is the median over
    every set-up the run timed. A transient slowdown then moves a run's
    value only if it hits most of its episodes.
  * A percentile pN is reported only when at least MIN_BEYOND samples of
    every episode lie beyond it (n * (1 - N/100) >= 10); otherwise it is
    missing and the run is not correct.
  * attempted counts every request served plus every output check; failed
    counts missing responses plus checks whose output did not match.
"""

import statistics

MIN_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("tok_s", "tok/s"),
    ("resp_s", "1/s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("itl_p99_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# name -> (unit, how it is computed from the traced episodes)
#   ("p", sample key, q): percentile of pooled per-call samples
#   ("v", value key):     median over traced episodes of a per-episode value
#   ("r", value key):     a per-run value (kernel probes)
PER_LAYER = [
    ("router.submit_us_p50", "us", ("p", "router.submit_us", 0.5)),
    ("router.denial_fallbacks", "count", ("v", "router.denial_fallbacks")),
    ("router.routed_tight", "count", ("v", "router.routed_tight")),
    ("genserve.step_ms_p50", "ms", ("p", "genserve.step_ms", 0.5)),
    ("genserve.step_ms_p90", "ms", ("p", "genserve.step_ms", 0.9)),
    ("genserve.steps", "count", ("v", "genserve.steps")),
    ("genserve.rows_per_step", "rows", ("v", "genserve.rows_per_step")),
    ("genserve.active_per_step", "seqs", ("v", "genserve.active_per_step")),
    ("phase.decode_ms", "ms", ("v", "phase.decode_ms")),
    ("phase.prefill_ms", "ms", ("v", "phase.prefill_ms")),
    ("phase.schedule_ms", "ms", ("v", "phase.schedule_ms")),
    ("phase.admit_ms", "ms", ("v", "phase.admit_ms")),
    ("kv.radix_hit_rows_frac", "frac", ("v", "kv.radix_hit_rows_frac")),
    ("kv.prefill_rows", "rows", ("v", "kv.prefill_rows")),
    ("kv.preemptions", "count", ("v", "kv.preemptions")),
    ("kv.replayed_rows", "rows", ("v", "kv.replayed_rows")),
    ("kv.peak_device_mb", "MB", ("v", "kv.peak_device_mb")),
    ("kv.resident_over_live", "ratio", ("v", "kv.resident_over_live")),
    ("budget.reclaims", "count", ("v", "budget.reclaims")),
    ("budget.reclaimed_mb", "MB", ("v", "budget.reclaimed_mb")),
    ("serving.schedule_us_p50", "us", ("p", "serving.schedule_us", 0.5)),
    ("serving.batches_per_round", "count", ("v", "serving.batches_per_round")),
    ("serving.pad_frac", "frac", ("v", "serving.pad_frac")),
    ("model.round_ms_minus_schedule", "ms",
     ("p", "model.round_ms_minus_schedule", 0.5)),
    ("memory.planning_us", "us", ("p", "memory.planning_us", 0.5)),
    ("memory.alloc_peak_mb", "MB", ("v", "memory.alloc_peak_mb")),
    ("kernels.gemm_gflops_decode", "GFLOP/s", ("r", "kernels.gemm_gflops_decode")),
    ("kernels.gemm_gflops_encode", "GFLOP/s", ("r", "kernels.gemm_gflops_encode")),
    ("trace.overhead_frac", "frac", ("overhead",)),
    ("clock.ref_per_wall", "ratio", ("speed",)),
]


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, q):
    """Linearly interpolated q-quantile, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(values)
    if n == 0 or round(n * (1.0 - q), 9) < MIN_BEYOND:
        return None
    s = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _rate(episodes, numerator, seconds="ref_s"):
    return median([numerator(e) / e[seconds] for e in episodes])


def end_to_end(report, peak_rss_mb):
    """Every END_TO_END metric from the untraced episodes and the peak RSS
    of the memory probe; a percentile without enough samples is left
    out."""
    eps = [e for e in report["episodes"] if not e["traced"]]
    m = {
        "setup_s": median(report["setup_s"]),
        "tok_s": _rate(eps, lambda e: e["tokens"]),
        "resp_s": _rate(eps, lambda e: e["requests"] - e["failed"]),
        "peak_rss_mb": peak_rss_mb,
    }
    for name, key, q in [
        ("ttft_p50_ms", "ttft_ms", 0.5),
        ("ttft_p90_ms", "ttft_ms", 0.9),
        ("itl_p50_ms", "itl_ms", 0.5),
        ("itl_p99_ms", "itl_ms", 0.99),
        ("latency_p50_ms", "latency_ms", 0.5),
        ("latency_p90_ms", "latency_ms", 0.9),
    ]:
        values = [percentile(e[key], q) for e in eps]
        if values and None not in values:
            m[name] = median(values)
    return m


def per_layer(report):
    """Every PER_LAYER metric from the traced episodes. A layer that does
    not run on the workload reports 0."""
    traced = [e for e in report["episodes"] if e["traced"]]
    plain = [e for e in report["episodes"] if not e["traced"]]
    m = {}
    for name, _, how in PER_LAYER:
        value = 0.0
        if how[0] == "p":
            samples = []
            for e in traced:
                samples.extend(e["layer_samples"].get(how[1], []))
            value = percentile(samples, how[2])
            if value is None:
                value = 0.0
        elif how[0] == "v":
            vals = [e["layer_values"][how[1]] for e in traced
                    if how[1] in e["layer_values"]]
            value = median(vals) if vals else 0.0
        elif how[0] == "r":
            value = report["layer_values"].get(how[1], 0.0)
        elif how[0] == "speed":
            value = median([e["ref_s"] / e["wall_s"]
                            for e in report["episodes"]])
        elif traced and plain:
            value = 1.0 - (_rate(traced, lambda e: e["tokens"]) /
                           _rate(plain, lambda e: e["tokens"]))
        m[name] = value
    return m


def wall_tok_s(report):
    """tok_s in wall-clock time, for the record on stderr."""
    eps = [e for e in report["episodes"] if not e["traced"]]
    return _rate(eps, lambda e: e["tokens"], "wall_s")


def counts(report):
    """(attempted, failed): requests served plus output checks, and the
    missing responses plus mismatching checks among them."""
    attempted = report["checks"]
    failed = report["check_failures"]
    for e in report["episodes"]:
        attempted += e["requests"]
        failed += e["failed"]
    return attempted, failed


def fingerprint(report):
    """The episodes' common schedule fingerprint, or None when two
    episodes of the run disagree."""
    prints = [e["fingerprint"] for e in report["episodes"]]
    if not prints or any(p != prints[0] for p in prints):
        return None
    return prints[0]
