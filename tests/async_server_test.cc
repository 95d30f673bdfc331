#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "genserve/model_bundle.h"
#include "genserve/multi_model_server.h"
#include "serving/async_server.h"

namespace turbo::serving {
namespace {

model::ModelConfig tiny() { return model::ModelConfig::tiny(2, 32, 2, 64, 50); }

std::unique_ptr<Server> make_sync_server(size_t cache = 0) {
  auto costs = CostTable::warmup(
      [](int len, int batch) { return 0.5 + 0.01 * len * batch; }, 64, 8, 8);
  return std::make_unique<Server>(
      std::make_unique<model::SequenceClassifier>(tiny(), 3, 99),
      std::make_unique<DpBatchScheduler>(8), std::move(costs), cache);
}

Request make_request(Rng& rng, int64_t id, int len) {
  Request r;
  r.id = id;
  r.length = len;
  r.tokens = rng.token_ids(len, 50);
  return r;
}

TEST(AsyncServer, ServesSubmittedRequests) {
  AsyncServer server(make_sync_server());
  Rng rng(1);
  auto f1 = server.submit(make_request(rng, 1, 8));
  auto f2 = server.submit(make_request(rng, 2, 20));
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  EXPECT_EQ(r1.request_id, 1);
  EXPECT_EQ(r2.request_id, 2);
  EXPECT_EQ(r1.logits.size(), 3u);
  server.shutdown();
  EXPECT_EQ(server.served(), 2u);
}

TEST(AsyncServer, ResultsMatchSynchronousServer) {
  // The async pipeline (MQ + hungry trigger + batching) must not change any
  // request's answer.
  auto reference_server = make_sync_server();
  Rng rng(2);
  std::vector<Request> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(make_request(rng, i, 4 + 6 * i));
  const auto expected = reference_server->serve(requests);

  AsyncServer server(make_sync_server());
  std::vector<std::future<ServedResult>> futures;
  for (const auto& r : requests) futures.push_back(server.submit(r));
  for (size_t i = 0; i < futures.size(); ++i) {
    const auto got = futures[i].get();
    ASSERT_EQ(got.logits.size(), expected[i].logits.size());
    for (size_t c = 0; c < got.logits.size(); ++c) {
      EXPECT_NEAR(got.logits[c], expected[i].logits[c], 5e-3f);
    }
    EXPECT_EQ(got.label, expected[i].label);
  }
}

TEST(AsyncServer, ConcurrentClientsAllServed) {
  AsyncServer server(make_sync_server());
  constexpr int kClients = 8, kPerClient = 5;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<ServedResult>>> futures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 10);
      for (int i = 0; i < kPerClient; ++i) {
        futures[static_cast<size_t>(c)].push_back(server.submit(
            make_request(rng, c * 100 + i, 3 + (c + i) % 20)));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (auto& f : futures[static_cast<size_t>(c)]) {
      const auto r = f.get();
      EXPECT_GE(r.label, 0);
      EXPECT_LT(r.label, 3);
    }
  }
  server.shutdown();
  EXPECT_EQ(server.served(), static_cast<size_t>(kClients * kPerClient));
}

TEST(AsyncServer, HungryTriggerBatchesBursts) {
  AsyncServer server(make_sync_server());
  Rng rng(3);
  // A burst submitted faster than the worker can drain forms batches: the
  // scheduler should run far fewer times than there are requests.
  std::vector<std::future<ServedResult>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(server.submit(make_request(rng, i, 4 + i % 16)));
  }
  for (auto& f : futures) f.get();
  server.shutdown();
  EXPECT_EQ(server.served(), 40u);
  EXPECT_LT(server.scheduler_runs(), 40u);
  EXPECT_GE(server.scheduler_runs(), 1u);
}

TEST(AsyncServer, SubmitAfterShutdownRejected) {
  AsyncServer server(make_sync_server());
  server.shutdown();
  Rng rng(4);
  EXPECT_THROW(server.submit(make_request(rng, 1, 5)), CheckError);
}

TEST(AsyncServer, ShutdownDrainsPendingWork) {
  auto server = std::make_unique<AsyncServer>(make_sync_server());
  Rng rng(5);
  std::vector<std::future<ServedResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(server->submit(make_request(rng, i, 6)));
  }
  server->shutdown();  // must not orphan the futures
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(AsyncServer, BadRequestSurfacesAsException) {
  AsyncServer server(make_sync_server());
  Request bad;
  bad.id = 1;
  bad.length = 4;  // no payload tokens
  auto f = server.submit(bad);
  EXPECT_THROW(f.get(), CheckError);
  // The server stays alive for subsequent good requests.
  Rng rng(6);
  auto good = server.submit(make_request(rng, 2, 5));
  EXPECT_NO_THROW(good.get());
}

// ---------------------------------------------------------------------------
// Shared-prefix concurrency through the async generation shell
// (AsyncMultiModelGenerationServer, one bundle): N clients racing
// identical prompts must all complete, and prompt sharing must keep the
// peak pool footprint well under N independent worst cases.
// ---------------------------------------------------------------------------

TEST(AsyncGenerationSharedPrefix, ConcurrentClientsShareBlocks) {
  const auto config = tiny();
  genserve::GenServerOptions options;
  options.pool.block_tokens = 4;
  options.pool.blocks_per_slab = 4;
  options.scheduler.max_active = 16;
  genserve::AsyncMultiModelGenerationServer server;
  server.register_bundle(genserve::make_bundle("model", 1, config, 29), 0,
                         options)
      .get();

  // One long prompt shared by every client: cross-heavy on purpose, so the
  // shared blocks dominate each request's worst case.
  Rng prompt_rng(42);
  const std::vector<int> shared_src = prompt_rng.token_ids(32, 50);

  constexpr int kClients = 6;
  constexpr int kPerClient = 2;
  constexpr int kRequests = kClients * kPerClient;
  int max_new_cap = 0;

  struct Stream {
    std::vector<int> tokens;
    int last_count = 0;
  };
  std::mutex stream_mutex;
  std::map<int64_t, Stream> streams;

  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<serving::GenerationResponse>>> futures(
      kClients);
  for (int c = 0; c < kClients; ++c) {
    const int max_new = 4 + c % 3;
    max_new_cap = std::max(max_new_cap, max_new);
    clients.emplace_back([&, c, max_new] {
      for (int i = 0; i < kPerClient; ++i) {
        serving::GenerationRequest r;
        r.id = c * 100 + i;
        r.src_tokens = shared_src;
        r.max_new_tokens = max_new;
        futures[static_cast<size_t>(c)].push_back(server.submit(
            r, [&](int64_t id, int token, int /*step*/, bool last) {
              std::lock_guard<std::mutex> lock(stream_mutex);
              auto& s = streams[id];
              if (token != 2) s.tokens.push_back(token);
              if (last) ++s.last_count;
            }));
      }
    });
  }
  for (auto& t : clients) t.join();

  // Every stream completes and matches its future's response.
  for (int c = 0; c < kClients; ++c) {
    for (auto& f : futures[static_cast<size_t>(c)]) {
      const auto resp = f.get();
      EXPECT_GE(resp.steps, 1);
      std::lock_guard<std::mutex> lock(stream_mutex);
      const auto& s = streams[resp.request_id];
      EXPECT_EQ(s.tokens, resp.tokens) << "request " << resp.request_id;
      EXPECT_EQ(s.last_count, 1) << "request " << resp.request_id;
    }
  }
  server.shutdown();

  // Peak pool blocks must stay far below N independent worst cases: the
  // prompt's cross blocks exist once per wave, not once per request.
  genserve::KvCachePool probe(config, options.pool);
  const size_t worst_case_bytes =
      probe.blocks_for(static_cast<int>(shared_src.size()), max_new_cap) *
      probe.block_bytes();
  const auto stats = server.model_stats();
  ASSERT_EQ(stats.size(), 1u);
  const genserve::PoolSnapshot& snapshot = stats[0].pool;
  EXPECT_GT(snapshot.peak_device_bytes, 0u);
  EXPECT_LT(snapshot.peak_device_bytes, kRequests * worst_case_bytes);
  // Stronger: sharing should beat even half the unshared budget.
  EXPECT_LT(snapshot.peak_device_bytes, kRequests * worst_case_bytes / 2);
  EXPECT_EQ(snapshot.active_sequences, 0);
  EXPECT_EQ(snapshot.device_bytes, 0u);
}

}  // namespace
}  // namespace turbo::serving
