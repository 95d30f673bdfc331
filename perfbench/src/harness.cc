#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "kernels/gemm.h"

namespace perfbench {

namespace {

void put_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void put_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void put_array(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    put_number(out, v[i]);
  }
  out += ']';
}

template <typename Map, typename PutValue>
void put_map(std::string& out, const Map& m, PutValue put_value) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    put_string(out, k);
    out += ':';
    put_value(out, v);
  }
  out += '}';
}

void put_episode(std::string& out, const Episode& e) {
  out += "{\"traced\":";
  out += e.traced ? "true" : "false";
  out += ",\"setup_s\":";
  put_number(out, e.setup_s);
  out += ",\"ref_s\":";
  put_number(out, e.ref_s);
  out += ",\"wall_s\":";
  put_number(out, e.wall_s);
  out += ",\"requests\":" + std::to_string(e.requests);
  out += ",\"failed\":" + std::to_string(e.failed);
  out += ",\"tokens\":" + std::to_string(e.tokens);
  out += ",\"ttft_ms\":";
  put_array(out, e.ttft_ms);
  out += ",\"itl_ms\":";
  put_array(out, e.itl_ms);
  out += ",\"latency_ms\":";
  put_array(out, e.latency_ms);
  out += ",\"fingerprint\":";
  put_map(out, e.fingerprint, [](std::string& o, int64_t v) {
    o += std::to_string(v);
  });
  out += ",\"layer_samples\":";
  put_map(out, e.layer_samples, put_array);
  out += ",\"layer_values\":";
  put_map(out, e.layer_values, put_number);
  out += '}';
}

}  // namespace

void print_report(const Options& options, const Report& report) {
  std::string out = "{\"workload\":";
  put_string(out, options.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"trace\":";
  out += options.trace ? "true" : "false";
  out += ",\"peak_rss_mb\":";
  put_number(out, peak_rss_mb());
  out += ",\"setup_s\":";
  put_array(out, report.setup_s);
  out += ",\"checks\":" + std::to_string(report.checks);
  out += ",\"check_failures\":" + std::to_string(report.check_failures);
  out += ",\"errors\":[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    if (i) out += ',';
    put_string(out, report.errors[i]);
  }
  out += "],\"layer_values\":";
  put_map(out, report.layer_values, put_number);
  out += ",\"episodes\":[";
  for (size_t i = 0; i < report.episodes.size(); ++i) {
    if (i) out += ',';
    put_episode(out, report.episodes[i]);
  }
  out += "]}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

AffinityRotator::AffinityRotator(int period_ms)
    : period_ms_(period_ms),
      thread_id_(static_cast<unsigned long>(pthread_self())) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
  if (period_ms_ > 0 && cpus_.size() > 1) {
    thread_ = std::thread([this] { loop(); });
  }
}

AffinityRotator::~AffinityRotator() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Leave the thread free to run anywhere again.
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus_) CPU_SET(c, &all);
  pthread_setaffinity_np(static_cast<pthread_t>(thread_id_), sizeof all, &all);
}

void AffinityRotator::loop() {
  size_t next = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next], &one);
    pthread_setaffinity_np(static_cast<pthread_t>(thread_id_), sizeof one,
                           &one);
    next = (next + 1) % cpus_.size();
    cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                 [this] { return stop_; });
  }
}

double rotation_cycle_ms(const Options& options) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (options.rotate_ms <= 0 ||
      sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return 0.0;
  }
  return static_cast<double>(options.rotate_ms) * CPU_COUNT(&allowed);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

namespace {

// The calibration burst: a 16x256x256 float matrix product and a sweep
// over 4 MB. Fixed work, compiled with the benchmark, so the burst time
// moves only with the machine. It runs twice and the second pass is
// timed: the product's operands then sit in L2 and the sweep comes from
// L3 whatever the library's last step left in the caches, so a library
// change to its own memory footprint does not move the burst. With
// several kernel threads every thread of the team runs the burst at once,
// and the burst time is the team's, as in the library's statically
// scheduled parallel regions.
constexpr int kBurstM = 16, kBurstK = 256, kBurstN = 256;
constexpr size_t kSweepFloats = size_t{1} << 20;

void burst_work() {
  thread_local std::vector<float> a(kBurstM * kBurstK, 0.5f),
      b(kBurstK * kBurstN, 0.25f), c(kBurstM * kBurstN),
      sweep(kSweepFloats, 1.0f);
  std::fill(c.begin(), c.end(), 0.0f);
  for (int i = 0; i < kBurstM; ++i) {
    for (int k = 0; k < kBurstK; ++k) {
      const float x = a[i * kBurstK + k];
      const float* brow = &b[static_cast<size_t>(k) * kBurstN];
      float* crow = &c[static_cast<size_t>(i) * kBurstN];
      for (int j = 0; j < kBurstN; ++j) crow[j] += x * brow[j];
    }
  }
  float sum = 0.0f;
  for (size_t i = 0; i < kSweepFloats; i += 16) sum += sweep[i];
  // Keep both results observable so the work is not optimized away.
  volatile float sink = c[0] + sum;
  (void)sink;
}

double burst() {
#ifdef _OPENMP
  if (omp_get_max_threads() > 1) {
#pragma omp parallel
    burst_work();
    const auto t0 = Clock::now();
#pragma omp parallel
    burst_work();
    return ms_between(t0, Clock::now());
  }
#endif
  burst_work();
  const auto t0 = Clock::now();
  burst_work();
  return ms_between(t0, Clock::now());
}

}  // namespace

RefClock::RefClock() {
  for (int i = 0; i < kRefWindow; ++i) calibrate();
  ref_ms_ = 0.0;
}

void RefClock::calibrate(double span_ms) {
  const auto t0 = Clock::now();
  ref_ms_ += ms_between(anchor_, t0) * scale_;
  if (span_ms > 0.0) {
    double total = 0.0;
    int n = 0;
    while (n == 0 || ms_between(t0, Clock::now()) < span_ms) {
      total += burst();
      ++n;
    }
    recent_.assign(static_cast<size_t>(kRefWindow), total / n);
    next_ = 0;
  } else {
    const double ms = burst();
    if (recent_.size() < static_cast<size_t>(kRefWindow)) {
      recent_.push_back(ms);
    } else {
      recent_[next_] = ms;
      next_ = (next_ + 1) % recent_.size();
    }
  }
  scale_ = kRefBurstMs / median_of(recent_);
  anchor_ = Clock::now();
  burst_total_ms_ += ms_between(t0, anchor_);
}


namespace {

double gemm_gflops(int m, int n, int k) {
  std::vector<float> a(static_cast<size_t>(m) * k, 0.5f);
  std::vector<float> b(static_cast<size_t>(k) * n, 0.25f);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  for (int i = 0; i < 3; ++i) {
    turbo::kernels::gemm(a.data(), b.data(), c.data(), m, n, k);
  }
  RefClock clock;
  std::vector<double> ms;
  const auto start = Clock::now();
  while (ms.size() < 5 || ms_between(start, Clock::now()) < 200.0) {
    clock.calibrate();
    const double t0 = clock.now();
    turbo::kernels::gemm(a.data(), b.data(), c.data(), m, n, k);
    ms.push_back(clock.now() - t0);
  }
  const double flops = 2.0 * m * n * k;
  return flops / (median_of(ms) * 1e-3) * 1e-9;
}

}  // namespace

void probe_kernels(int decode_rows, int encode_rows, int hidden,
                   int intermediate, Report* report) {
  decode_rows = std::max(decode_rows, 1);
  encode_rows = std::max(encode_rows, 1);
  report->layer_values["kernels.gemm_gflops_decode"] =
      gemm_gflops(decode_rows, intermediate, hidden);
  report->layer_values["kernels.gemm_gflops_encode"] =
      gemm_gflops(encode_rows, intermediate, hidden);
}

}  // namespace perfbench
