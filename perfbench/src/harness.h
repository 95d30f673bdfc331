// Shared pieces of the serving benchmark binary: run options, the raw
// per-episode record it hands to run.py, client-side stream
// timing, the schedule fingerprint hash, and the placement helpers.
//
// The binary only measures: it calls the library's public front doors and
// reads the counters the library already publishes. Every statistic
// (medians, percentiles, failure counts) is computed by run.py from the
// raw samples printed here, so one tested module owns the aggregation.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Reference time. The machine this benchmark targets is a VM whose vCPUs
// change speed by up to half within seconds, with what the host runs
// beside them. The serving thread therefore keeps a second clock: it
// times a fixed calibration burst (the benchmark's own arithmetic and
// memory sweep, never library code; see burst() in harness.cc) before
// every serving step, and advances reference time by each wall-clock
// interval times kRefBurstMs over the median of the last kRefWindow bursts. Reference milliseconds are the
// milliseconds the same work would take on a machine on which one burst
// takes kRefBurstMs; a slow spell of the host lengthens wall time and the
// burst alike, and cancels. Time spent in bursts is not reference time.
inline constexpr double kRefBurstMs = 1.0;
inline constexpr int kRefWindow = 5;

class RefClock {
 public:
  RefClock();
  // Reference milliseconds since construction.
  double now() const {
    return ref_ms_ + ms_between(anchor_, Clock::now()) * scale_;
  }
  // Runs one calibration burst and folds it into the speed estimate. With
  // span_ms > 0 it runs bursts for at least that long instead, and their
  // mean time replaces the estimate: a span that covers a whole rotation
  // cycle of the serving thread (see AffinityRotator) measures the average
  // of every CPU, as a long serving call sees it.
  void calibrate(double span_ms = 0.0);
  // Wall-clock milliseconds spent in calibration bursts.
  double burst_ms() const { return burst_total_ms_; }

 private:
  Clock::time_point anchor_ = Clock::now();
  double ref_ms_ = 0.0;  // reference time at anchor_
  double scale_ = 1.0;   // kRefBurstMs / median recent burst
  std::vector<double> recent_;
  size_t next_ = 0;
  double burst_total_ms_ = 0.0;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // wall time of episodes per run (they repeat)
  bool trace = false;     // per-layer run: alternate untraced/traced episodes
  // Serve one episode (no output checks) and nothing else, for
  // peak_rss_mb (see run.py).
  bool memory_probe = false;
  // Period at which the serving thread moves to the next CPU (0 = left to
  // the OS).
  int rotate_ms = 0;
};

// Wall time in which the serving thread visits every allowed CPU once
// (0 when it is not rotated).
double rotation_cycle_ms(const Options& options);

// One episode: a fresh server set up, then a fixed closed-loop script
// served to completion. The script is a pure function of the seed, so
// every episode of a run (and every run of a seed) must produce the same
// fingerprint.
struct Episode {
  bool traced = false;
  double setup_s = 0.0;  // build models + server, serve the warm-up
  double ref_s = 0.0;    // first submit -> last response
  double wall_s = 0.0;   // the same interval in wall-clock seconds
  int64_t requests = 0;  // responses expected (one per submitted request)
  int64_t failed = 0;    // missing responses or exceptions
  // Tokens tok_s counts: generated tokens (generation), real (unpadded)
  // prompt tokens (classify).
  int64_t tokens = 0;
  // Timings below and every *_s above except wall_s are reference time.
  std::vector<double> ttft_ms;     // submit -> first output, per request
  std::vector<double> itl_ms;      // gaps between consecutive outputs
  std::vector<double> latency_ms;  // submit -> response, per request
  // Exact schedule counts; any difference between episodes of one seed
  // means a decision was fed by timing.
  std::map<std::string, int64_t> fingerprint;
  // Per-layer samples and values (traced episodes only).
  std::map<std::string, std::vector<double>> layer_samples;
  std::map<std::string, double> layer_values;
};

struct Report {
  std::vector<Episode> episodes;
  // Every set-up timed in the run: the episodes' own plus extra ones
  // before the first episode, so the median rests on several samples.
  std::vector<double> setup_s;
  // Output correctness: sampled requests re-served alone and compared.
  int64_t checks = 0;
  int64_t check_failures = 0;
  std::vector<std::string> errors;
  // Per-run layer values (kernel probes).
  std::map<std::string, double> layer_values;
};

// Serializes the report as one JSON line on stdout.
void print_report(const Options& options, const Report& report);

// FNV-1a over a token stream, folded into a running hash.
inline uint64_t fnv_fold(uint64_t h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr uint64_t kFnvBasis = 14695981039346656037ull;

// Times one episode's serving interval in reference and wall-clock
// seconds (calibration bursts excluded from both).
class ServeTimer {
 public:
  explicit ServeTimer(const RefClock& clock)
      : clock_(clock), ref0_(clock.now()), wall0_(Clock::now()),
        burst0_(clock.burst_ms()) {}
  void stop(Episode* ep) const {
    ep->ref_s = (clock_.now() - ref0_) * 1e-3;
    ep->wall_s = (ms_between(wall0_, Clock::now()) -
                  (clock_.burst_ms() - burst0_)) * 1e-3;
  }

 private:
  const RefClock& clock_;
  double ref0_;
  Clock::time_point wall0_;
  double burst0_;
};

// Client-side stream timing for the generation front door: submit time,
// first output, gaps between a request's consecutive outputs, completion.
class StreamTimer {
 public:
  StreamTimer(Episode* episode, const RefClock* clock)
      : episode_(episode), clock_(clock) {}

  void submitted(int64_t id) { live_[id] = Live{clock_->now(), 0.0, false}; }
  void token(int64_t id) {
    const double now = clock_->now();
    Live& l = live_.at(id);
    if (l.started) {
      episode_->itl_ms.push_back(now - l.last);
    } else {
      episode_->ttft_ms.push_back(now - l.submit);
      l.started = true;
    }
    l.last = now;
  }
  void completed(int64_t id) {
    const auto it = live_.find(id);
    episode_->latency_ms.push_back(clock_->now() - it->second.submit);
    live_.erase(it);
  }

 private:
  struct Live {
    double submit, last;  // reference ms
    bool started = false;
  };
  Episode* episode_;
  const RefClock* clock_;
  std::unordered_map<int64_t, Live> live_;
};

// Pins the calling thread to one CPU and moves it to the next allowed CPU
// every `period_ms`, until destroyed (0 = left to the OS). A vCPU's speed
// depends on what its host siblings run; visiting each in turn makes a run
// see the average of all of them instead of whichever one the scheduler
// happened to pick.
class AffinityRotator {
 public:
  explicit AffinityRotator(int period_ms);
  ~AffinityRotator();
  AffinityRotator(const AffinityRotator&) = delete;
  AffinityRotator& operator=(const AffinityRotator&) = delete;

 private:
  void loop();

  int period_ms_;
  std::vector<int> cpus_;
  unsigned long thread_id_;  // pthread_t of the rotated thread
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

// `n` integers drawn uniformly from [lo, hi], one from each of n equal
// strata, in random order. A workload drawn this way has the same length
// mix under every seed, so runs with different seeds do the same amount
// of work and only the token contents and their order change.
inline std::vector<int> stratified(turbo::Rng& rng, int lo, int hi, int n) {
  std::vector<int> v(static_cast<size_t>(n));
  const double width = static_cast<double>(hi - lo + 1) / n;
  for (int i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] =
        lo + static_cast<int>((i + rng.uniform()) * width);
  }
  for (int i = n - 1; i > 0; --i) {
    std::swap(v[static_cast<size_t>(i)],
              v[static_cast<size_t>(rng.uniform_int(0, i))]);
  }
  return v;
}

// Peak resident set size of this process, MB.
double peak_rss_mb();

// Upper median (0 when empty).
inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

// Kernel probes: kernels::gemm at the FFN shape [rows, hidden] x [hidden,
// intermediate] for a decode-shaped and a prefill/encode-shaped row count,
// as GFLOP/s from the shapes (2*m*n*k flops per call, median call time in
// reference time).
void probe_kernels(int decode_rows, int encode_rows, int hidden,
                   int intermediate, Report* report);

// Set-ups timed before the first episode of every run.
inline constexpr int kExtraSetups = 4;

// The episode schedule of one run: kExtraSetups timed set-ups, then
// episodes until `seconds` of wall time have elapsed. An untraced run has
// at least `min_untraced` (>= 2) episodes, so the fingerprint gets a
// cross-check; a traced run alternates untraced and traced episodes, at
// least two of each, so the tracing overhead is measured on the same
// machine state. set_up(clock) builds and warms a server;
// episode(clock, traced, first) serves one. Both time in reference ms.
template <typename SetUp, typename RunEpisode>
void run_episodes(const Options& options, Report* report, int min_untraced,
                  SetUp&& set_up, RunEpisode&& episode) {
  RefClock clock;
  if (options.memory_probe) {
    // The timed run checks the outputs; the probe only measures.
    report->episodes.push_back(episode(clock, false, false));
    report->setup_s.push_back(report->episodes.back().setup_s);
    return;
  }
  for (int i = 0; i < kExtraSetups; ++i) {
    clock.calibrate();
    const double t0 = clock.now();
    set_up(clock);
    clock.calibrate();
    report->setup_s.push_back((clock.now() - t0) * 1e-3);
  }
  const int min_episodes = options.trace ? 4 : min_untraced;
  const auto start = Clock::now();
  for (int n = 0; n < min_episodes ||
                  ms_between(start, Clock::now()) < options.seconds * 1e3;
       ++n) {
    report->episodes.push_back(
        episode(clock, options.trace && n % 2 == 1, n == 0));
    report->setup_s.push_back(report->episodes.back().setup_s);
  }
}

// Workloads. Each fills `report` with its episodes and checks.
void run_chat_prefix(const Options& options, Report* report);
void run_tenant_mix(const Options& options, Report* report);
void run_classify_varlen(const Options& options, Report* report);

}  // namespace perfbench
