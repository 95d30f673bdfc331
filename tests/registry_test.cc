#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/check.h"
#include "common/rng.h"
#include "genserve/model_bundle.h"
#include "genserve/multi_model_server.h"
#include "model/serialization.h"
#include "serving/load_balancer.h"
#include "serving/model_registry.h"
#include "serving/workload.h"

namespace turbo {
namespace {

model::ModelConfig tiny() { return model::ModelConfig::tiny(2, 32, 2, 64, 50); }

Tensor make_ids(Rng& rng, int batch, int seq, int vocab) {
  Tensor ids = Tensor::owned(Shape{batch, seq}, DType::kI32);
  auto toks = rng.token_ids(batch * seq, vocab);
  std::copy(toks.begin(), toks.end(), ids.data<int32_t>());
  return ids;
}

// ------------------------------------------------------------ checkpoints --

TEST(Serialization, RoundTripIsBitExact) {
  const std::string path = "/tmp/turbo_ckpt_test.bin";
  model::ModelConfig config = tiny();
  config.name = "roundtrip";
  const auto weights = model::EncoderWeights::random(config, 321);
  model::save_encoder(path, config, weights);

  const auto loaded = model::load_encoder(path);
  EXPECT_EQ(loaded.config.name, "roundtrip");
  EXPECT_EQ(loaded.config.num_layers, config.num_layers);
  EXPECT_EQ(loaded.config.hidden, config.hidden);
  EXPECT_EQ(loaded.config.vocab, config.vocab);
  ASSERT_EQ(loaded.weights.layers.size(), weights.layers.size());

  // Bit-exact weight data, both row-major and in the loaded panels.
  const auto& saved_qkv = weights.layers[0].qkv_weight;
  const auto& loaded_qkv = loaded.weights.layers[0].qkv_weight;
  ASSERT_EQ(loaded_qkv.k(), saved_qkv.k());
  ASSERT_EQ(loaded_qkv.n(), saved_qkv.n());
  const Tensor a = saved_qkv.unpack();
  const Tensor b = loaded_qkv.unpack();
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.data<float>()[i], b.data<float>()[i]);
  }
  EXPECT_EQ(std::memcmp(saved_qkv.data(), loaded_qkv.data(),
                        sizeof(float) * static_cast<size_t>(saved_qkv.size())),
            0);
  std::remove(path.c_str());
}

TEST(Serialization, LoadedModelProducesIdenticalOutputs) {
  const std::string path = "/tmp/turbo_ckpt_model_test.bin";
  model::EncoderModel original(tiny(), 55);
  model::save_encoder(path, original.config(), original.weights());

  auto loaded = model::load_encoder(path);
  model::EncoderModel restored(loaded.config, std::move(loaded.weights));

  Rng rng(1);
  Tensor ids = make_ids(rng, 1, 12, 50);
  Tensor a = original.forward(ids);
  Tensor b = restored.forward(ids);
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.data<float>()[i], b.data<float>()[i]);
  }
  std::remove(path.c_str());
}

// The cold readers of the row-major weights (the reference forward and the
// fp16 tensor-core path, which unpack them) see the same matrices after a
// save and load as before.
TEST(Serialization, LoadedModelMatchesOnEveryWeightReader) {
  const std::string path = "/tmp/turbo_ckpt_readers_test.bin";
  model::ModelConfig config = tiny();
  config.tensor_core_gemm = true;
  model::EncoderModel original(config, 77);
  model::save_encoder(path, original.config(), original.weights());

  auto loaded = model::load_encoder(path);
  EXPECT_TRUE(loaded.config.tensor_core_gemm);
  model::EncoderModel restored(loaded.config, std::move(loaded.weights));

  Rng rng(2);
  Tensor ids = make_ids(rng, 2, 9, 50);
  const std::vector<int> lens = {9, 5};
  for (bool reference : {false, true}) {
    Tensor a = reference ? original.forward_reference(ids, &lens)
                         : original.forward(ids, &lens);
    Tensor b = reference ? restored.forward_reference(ids, &lens)
                         : restored.forward(ids, &lens);
    ASSERT_EQ(a.numel(), b.numel());
    EXPECT_EQ(std::memcmp(a.data<float>(), b.data<float>(), a.bytes()), 0)
        << "reference=" << reference;
  }
  std::remove(path.c_str());
}

TEST(Serialization, RejectsMissingAndCorruptFiles) {
  EXPECT_THROW(model::load_encoder("/tmp/does_not_exist_turbo.bin"),
               CheckError);
  const std::string path = "/tmp/turbo_ckpt_corrupt.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint at all", f);
    std::fclose(f);
  }
  EXPECT_THROW(model::load_encoder(path), CheckError);
  std::remove(path.c_str());
}

// --------------------------------------------------------------- registry --

TEST(Registry, VersionManagement) {
  serving::ModelRegistry registry;
  auto v1 = std::make_shared<model::EncoderModel>(tiny(), 1);
  auto v2 = std::make_shared<model::EncoderModel>(tiny(), 2);
  registry.register_model("classifier", 1, v1);
  registry.register_model("classifier", 2, v2);

  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.latest("classifier"), v2);
  EXPECT_EQ(registry.version("classifier", 1), v1);
  EXPECT_EQ(registry.versions("classifier"), (std::vector<int>{1, 2}));
  EXPECT_EQ(registry.latest("unknown"), nullptr);
  EXPECT_EQ(registry.version("classifier", 3), nullptr);
}

TEST(Registry, DuplicateVersionRejected) {
  serving::ModelRegistry registry;
  registry.register_model("m", 1, std::make_shared<model::EncoderModel>(tiny(), 1));
  EXPECT_THROW(registry.register_model(
                   "m", 1, std::make_shared<model::EncoderModel>(tiny(), 2)),
               CheckError);
}

TEST(Registry, UnregisterRollsBackToPreviousVersion) {
  serving::ModelRegistry registry;
  auto v1 = std::make_shared<model::EncoderModel>(tiny(), 1);
  auto v2 = std::make_shared<model::EncoderModel>(tiny(), 2);
  registry.register_model("m", 1, v1);
  registry.register_model("m", 2, v2);
  EXPECT_TRUE(registry.unregister_model("m", 2));
  EXPECT_EQ(registry.latest("m"), v1);
  EXPECT_FALSE(registry.unregister_model("m", 2));
  EXPECT_TRUE(registry.unregister_model("m", 1));
  EXPECT_EQ(registry.latest("m"), nullptr);
}

// ------------------------------------------------------- decoder bundles --

TEST(Registry, BundleLatestVsPinnedResolution) {
  genserve::BundleRegistry registry;
  auto v1 = genserve::make_bundle("seq2seq", 1, tiny(), 1);
  auto v3 = genserve::make_bundle("seq2seq", 3, tiny(), 3);
  registry.register_model("seq2seq", 1, v1);
  registry.register_model("seq2seq", 3, v3);

  // resolve() is the request-routing convention: model_version <= 0 means
  // the latest live version, positive pins exactly.
  EXPECT_EQ(registry.resolve("seq2seq"), v3);
  EXPECT_EQ(registry.resolve("seq2seq", 0), v3);
  EXPECT_EQ(registry.resolve("seq2seq", -1), v3);
  EXPECT_EQ(registry.resolve("seq2seq", 1), v1);
  EXPECT_EQ(registry.resolve("seq2seq", 2), nullptr);
  EXPECT_EQ(registry.resolve("other"), nullptr);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"seq2seq"}));

  // Unregistering the latest rolls the latest-route back; pinned routes to
  // the removed version go dark even though live holders keep it alive.
  EXPECT_TRUE(registry.unregister_model("seq2seq", 3));
  EXPECT_EQ(registry.resolve("seq2seq"), v1);
  EXPECT_EQ(registry.resolve("seq2seq", 3), nullptr);
  EXPECT_EQ(v3->config.hidden, tiny().hidden);  // our pin still works
}

TEST(Registry, BundleUnregisterWhileInFlightPinsUntilRetirement) {
  genserve::MultiModelGenerationServer server;
  genserve::GenServerOptions engine;
  engine.pool.block_tokens = 4;
  engine.pool.blocks_per_slab = 4;
  std::weak_ptr<genserve::ModelBundle> weak;
  {
    auto bundle = genserve::make_bundle("m", 1, tiny(), 7);
    weak = bundle;
    server.register_bundle(std::move(bundle), 0, engine);
  }

  Rng rng(13);
  serving::GenerationRequest request;
  request.id = 0;
  request.src_tokens = rng.token_ids(9, 50);
  request.max_new_tokens = 12;
  server.submit(request);
  server.step();  // the sequence is mid-decode

  // The route disappears immediately; the engine's shared_ptr keeps the
  // bundle alive for the in-flight sequence.
  EXPECT_TRUE(server.unregister_bundle("m", 1));
  EXPECT_EQ(server.registry().resolve("m"), nullptr);
  EXPECT_TRUE(server.serving("m", 1));
  EXPECT_FALSE(weak.expired());
  serving::GenerationRequest late = request;
  late.id = 1;
  EXPECT_THROW(server.submit(late), CheckError);

  // Drain: the last sequence retires, the engine tears down, the bundle
  // unpins.
  const auto responses = server.run_to_completion();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(server.serving("m", 1));
  EXPECT_EQ(server.live_engines(), 0u);
  EXPECT_TRUE(weak.expired());
}

// --------------------------------------------------------------- ensemble --

TEST(Ensemble, SingleMemberIsIdentity) {
  auto m = std::make_shared<model::EncoderModel>(tiny(), 3);
  serving::EncoderEnsemble ensemble({m});
  Rng rng(2);
  Tensor ids = make_ids(rng, 1, 8, 50);
  Tensor solo = m->forward(ids);
  Tensor ens = ensemble.forward(ids);
  for (int64_t i = 0; i < solo.numel(); ++i) {
    ASSERT_EQ(solo.data<float>()[i], ens.data<float>()[i]);
  }
}

TEST(Ensemble, AveragesMembers) {
  auto a = std::make_shared<model::EncoderModel>(tiny(), 4);
  auto b = std::make_shared<model::EncoderModel>(tiny(), 5);
  serving::EncoderEnsemble ensemble({a, b});
  Rng rng(3);
  Tensor ids = make_ids(rng, 1, 6, 50);
  Tensor oa = a->forward(ids);
  Tensor ob = b->forward(ids);
  Tensor ens = ensemble.forward(ids);
  for (int64_t i = 0; i < ens.numel(); ++i) {
    ASSERT_NEAR(ens.data<float>()[i],
                (oa.data<float>()[i] + ob.data<float>()[i]) / 2, 1e-6f);
  }
}

TEST(Ensemble, RejectsEmptyAndMismatchedMembers) {
  EXPECT_THROW(serving::EncoderEnsemble({}), CheckError);
  auto a = std::make_shared<model::EncoderModel>(tiny(), 1);
  auto wide = std::make_shared<model::EncoderModel>(
      model::ModelConfig::tiny(2, 64, 2, 64, 50), 1);
  EXPECT_THROW(serving::EncoderEnsemble({a, wide}), CheckError);
}

// ------------------------------------------------------------ load balancer --

serving::CostTable lb_table() {
  return serving::CostTable::warmup(
      [](int len, int batch) { return 1.0 + 0.02 * len * batch; }, 128, 20,
      8);
}

TEST(LoadBalancer, SplitsWorkAcrossServers) {
  const auto table = lb_table();
  const serving::DpBatchScheduler scheduler(20);
  std::vector<serving::ClusterServer> servers = {
      {"gpu0", &scheduler, &table, 1.0}, {"gpu1", &scheduler, &table, 1.0}};

  serving::WorkloadSpec wspec;
  wspec.rate_per_s = 200;
  wspec.horizon_s = 4;
  wspec.min_len = 2;
  wspec.max_len = 100;
  const auto arrivals = serving::generate_poisson_workload(wspec);

  const auto rr = serving::simulate_cluster(
      arrivals, servers, serving::DispatchPolicy::kRoundRobin, {});
  ASSERT_EQ(rr.per_server.size(), 2u);
  size_t total = rr.per_server[0].completed + rr.per_server[1].completed;
  EXPECT_EQ(total, arrivals.size());
  // Roughly even split.
  EXPECT_NEAR(static_cast<double>(rr.per_server[0].completed),
              static_cast<double>(rr.per_server[1].completed),
              arrivals.size() * 0.02);
}

TEST(LoadBalancer, TwoServersSustainDoubleTheLoad) {
  const auto table = lb_table();
  const serving::DpBatchScheduler scheduler(20);
  serving::WorkloadSpec wspec;
  wspec.rate_per_s = 2500;  // far past one server's critical point
  wspec.horizon_s = 4;
  wspec.min_len = 2;
  wspec.max_len = 100;
  const auto arrivals = serving::generate_poisson_workload(wspec);

  std::vector<serving::ClusterServer> one = {{"gpu0", &scheduler, &table, 1.0}};
  std::vector<serving::ClusterServer> two = {{"gpu0", &scheduler, &table, 1.0},
                                             {"gpu1", &scheduler, &table, 1.0}};
  const auto single = serving::simulate_cluster(
      arrivals, one, serving::DispatchPolicy::kLeastLoaded, {});
  const auto dual = serving::simulate_cluster(
      arrivals, two, serving::DispatchPolicy::kLeastLoaded, {});
  EXPECT_TRUE(single.any_saturated);
  EXPECT_GT(dual.total_response_rate, single.total_response_rate * 1.4);
}

TEST(LoadBalancer, LeastLoadedBeatsRoundRobinOnHeterogeneousServers) {
  // One fast + one slow server: round-robin overloads the slow one, the
  // backlog-aware policy (Nexus-style) keeps both below their critical
  // points.
  const auto table = lb_table();
  const serving::DpBatchScheduler scheduler(20);
  std::vector<serving::ClusterServer> servers = {
      {"fast", &scheduler, &table, 1.0}, {"slow", &scheduler, &table, 0.25}};

  serving::WorkloadSpec wspec;
  wspec.rate_per_s = 400;
  wspec.horizon_s = 4;
  wspec.min_len = 2;
  wspec.max_len = 100;
  const auto arrivals = serving::generate_poisson_workload(wspec);

  const auto rr = serving::simulate_cluster(
      arrivals, servers, serving::DispatchPolicy::kRoundRobin, {});
  const auto ll = serving::simulate_cluster(
      arrivals, servers, serving::DispatchPolicy::kLeastLoaded, {});
  EXPECT_GE(ll.total_response_rate, rr.total_response_rate);
  // Least-loaded shifts work toward the fast server.
  EXPECT_GT(ll.per_server[0].completed, ll.per_server[1].completed);
}

}  // namespace
}  // namespace turbo
