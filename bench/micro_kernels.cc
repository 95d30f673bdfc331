// google-benchmark microbenchmarks of the CPU numeric kernels and the
// simulated GPU kernels' planning paths (real wall time, not model time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/builders.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/paged_attention.h"
#include "kernels/reduction.h"
#include "memory/gsoc_planner.h"
#include "memory/model_aware_allocator.h"
#include "serving/cost_table.h"
#include "serving/scheduler.h"

namespace {

using namespace turbo;

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(n) * n), b(a), c(a);
  rng.fill_uniform(a.data(), a.size(), -1, 1);
  rng.fill_uniform(b.data(), b.size(), -1, 1);
  for (auto _ : state) {
    kernels::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Arg(512);

// One pass over every GEMM weight of perfbench's tenant_mix models (hidden
// 256, intermediate 1024, 2 layers; hidden 192, intermediate 768, 3 layers;
// vocab 1000; encoder and decoder): ~28 MB of fp32 weights, far beyond L2,
// at the decode step's row counts. `packed` runs the packed-weight gemm the
// models run; `raw` the raw-pointer gemm on the same row-major matrices,
// which packs each B into scratch first.
struct WeightSetMatrix {
  int k = 0, n = 0;
  std::vector<float> raw;
  kernels::PackedWeight packed;
};

const std::vector<WeightSetMatrix>& tenant_weight_set() {
  static const std::vector<WeightSetMatrix> set = [] {
    std::vector<std::pair<int, int>> shapes;
    for (const auto& [H, I, layers] : {std::tuple{256, 1024, 2},
                                      std::tuple{192, 768, 3}}) {
      for (int l = 0; l < layers; ++l) {
        // Encoder layer, then decoder layer.
        for (const auto& kn : {std::pair{H, 3 * H}, {H, H}, {H, I}, {I, H}}) {
          shapes.push_back(kn);
        }
        for (const auto& kn : {std::pair{H, 3 * H}, {H, H}, {H, H}, {H, 2 * H},
                              {H, H}, {H, I}, {I, H}}) {
          shapes.push_back(kn);
        }
      }
      shapes.push_back({H, 1000});  // logits projection
    }
    Rng rng(6);
    std::vector<WeightSetMatrix> mats;
    for (const auto& [k, n] : shapes) {
      WeightSetMatrix w{k, n, std::vector<float>(static_cast<size_t>(k) * n),
                        {}};
      rng.fill_uniform(w.raw.data(), w.raw.size(), -1, 1);
      w.packed = kernels::PackedWeight::pack(w.raw.data(), k, n);
      mats.push_back(std::move(w));
    }
    return mats;
  }();
  return set;
}

void BM_DecodeWeightSet(benchmark::State& state, bool packed) {
  const int m = static_cast<int>(state.range(0));
  const auto& mats = tenant_weight_set();
  Rng rng(7);
  std::vector<float> a(static_cast<size_t>(m) * 1024), c(a.size());
  rng.fill_uniform(a.data(), a.size(), -1, 1);
  long flops = 0, bytes = 0;
  for (const auto& w : mats) {
    flops += 2L * m * w.k * w.n;
    bytes += static_cast<long>(sizeof(float)) * w.k * w.n;
  }
  for (auto _ : state) {
    for (const auto& w : mats) {
      if (packed) {
        kernels::gemm(a.data(), w.packed, c.data(), m);
      } else {
        kernels::gemm(a.data(), w.raw.data(), c.data(), m, w.n, w.k);
      }
      benchmark::DoNotOptimize(c.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * flops);
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK_CAPTURE(BM_DecodeWeightSet, packed, true)
    ->Arg(1)->Arg(7)->Arg(15)->Arg(50)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DecodeWeightSet, raw, false)
    ->Arg(1)->Arg(7)->Arg(15)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_SoftmaxRows(benchmark::State& state) {
  const long rows = state.range(0), cols = state.range(1);
  Rng rng(2);
  std::vector<float> data(static_cast<size_t>(rows * cols));
  rng.fill_uniform(data.data(), data.size(), -3, 3);
  for (auto _ : state) {
    kernels::softmax_rows(data.data(), rows, cols);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_SoftmaxRows)->Args({240, 128})->Args({2400, 500});

void BM_LayerNorm(benchmark::State& state) {
  const long rows = state.range(0), cols = 768;
  Rng rng(3);
  std::vector<float> data(static_cast<size_t>(rows * cols)), out(data);
  std::vector<float> gamma(static_cast<size_t>(cols), 1.0f), beta(gamma);
  rng.fill_uniform(data.data(), data.size(), -3, 3);
  for (auto _ : state) {
    kernels::layernorm(out.data(), data.data(), gamma.data(), beta.data(),
                       rows, cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNorm)->Arg(128)->Arg(2560);

void BM_AddBiasGelu(benchmark::State& state) {
  const long rows = state.range(0), cols = 3072;
  Rng rng(4);
  std::vector<float> input(static_cast<size_t>(rows * cols)), data(input);
  std::vector<float> bias(static_cast<size_t>(cols));
  rng.fill_uniform(input.data(), input.size(), -3, 3);
  for (auto _ : state) {
    // Fresh inputs every pass: GELU applied in place again and again
    // halves the negative values into denormals, whose arithmetic is slow.
    state.PauseTiming();
    std::copy(input.begin(), input.end(), data.begin());
    state.ResumeTiming();
    kernels::add_bias_gelu(data.data(), bias.data(), rows, cols);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_AddBiasGelu)->Arg(128)->Arg(1024);

// One decode query's attention at chat_prefix's shape: hidden 256 as 4
// heads of 64, over 350 cached rows in 16-row pool blocks. The three parts
// of Seq2SeqDecoder::attend, timed apart.
enum class AttentionPart { kQk, kSoftmax, kAv };

void BM_PagedAttention(benchmark::State& state, AttentionPart part) {
  constexpr int kHeads = 4, kD = 64, kHidden = kHeads * kD;
  constexpr int kCount = 350, kBlockTokens = 16;
  Rng rng(6);
  std::vector<float> k(static_cast<size_t>(kCount) * kHidden), v(k);
  std::vector<float> q(kHidden), out(kHidden);
  std::vector<float> scores(static_cast<size_t>(kHeads) * kCount);
  rng.fill_uniform(k.data(), k.size(), -1, 1);
  rng.fill_uniform(v.data(), v.size(), -1, 1);
  rng.fill_uniform(q.data(), q.size(), -1, 1);
  std::vector<kernels::KvSpan> spans;
  for (int row = 0; row < kCount; row += kBlockTokens) {
    const size_t at = static_cast<size_t>(row) * kHidden;
    spans.push_back({k.data() + at, v.data() + at,
                     std::min(kBlockTokens, kCount - row)});
  }
  const int num_spans = static_cast<int>(spans.size());
  kernels::paged_qk_dot(q.data(), spans.data(), num_spans, kCount, kHidden,
                        kHeads, kD, scores.data());
  for (auto _ : state) {
    switch (part) {
      case AttentionPart::kQk:
        kernels::paged_qk_dot(q.data(), spans.data(), num_spans, kCount,
                              kHidden, kHeads, kD, scores.data());
        break;
      case AttentionPart::kSoftmax:
        // Re-normalizing the last pass's probabilities costs what the
        // logits would: one expf per element.
        for (int h = 0; h < kHeads; ++h) {
          kernels::softmax_row(scores.data() + h * kCount, kCount, 0.125f);
        }
        break;
      case AttentionPart::kAv:
        kernels::paged_av_accumulate(scores.data(), spans.data(), num_spans,
                                     kCount, kHidden, kHeads, kD, out.data());
        break;
    }
    benchmark::DoNotOptimize(scores.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCount * kHidden);
}
BENCHMARK_CAPTURE(BM_PagedAttention, qk, AttentionPart::kQk);
BENCHMARK_CAPTURE(BM_PagedAttention, softmax, AttentionPart::kSoftmax);
BENCHMARK_CAPTURE(BM_PagedAttention, av, AttentionPart::kAv);

// The planner itself — the overhead the paper's Fig. 13 measures.
void BM_ModelAwarePlanning(benchmark::State& state) {
  const int seq = static_cast<int>(state.range(0));
  const graph::Graph layer =
      graph::build_encoder_layer_fused({768, 12, 3072});
  const auto usages = layer.tensor_usages(1, seq);
  memory::ModelAwareAllocator alloc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.begin_inference(usages));
  }
}
BENCHMARK(BM_ModelAwarePlanning)->Arg(10)->Arg(200)->Arg(500);

void BM_GsocPlanning(benchmark::State& state) {
  const int seq = static_cast<int>(state.range(0));
  const graph::Graph layer =
      graph::build_encoder_layer_fused({768, 12, 3072});
  const auto usages = layer.tensor_usages(1, seq);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memory::gsoc_plan(usages));
  }
}
BENCHMARK(BM_GsocPlanning)->Arg(200);

// The DP batch scheduler on a full message queue (Algorithm 2 wall time).
void BM_DpScheduler(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto table = serving::CostTable::warmup(
      [](int len, int batch) { return 0.5 + 0.01 * len * batch; }, 512, 20,
      8);
  Rng rng(5);
  std::vector<serving::Request> requests;
  for (int i = 0; i < n; ++i) {
    serving::Request r;
    r.id = i;
    r.length = static_cast<int>(rng.uniform_int(2, 500));
    requests.push_back(r);
  }
  const serving::DpBatchScheduler scheduler(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(requests, table));
  }
}
BENCHMARK(BM_DpScheduler)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
