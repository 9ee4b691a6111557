// Tests of the sharded query service: worker pool, routing, fan-out/merge
// planning invariants (property-style, à la the EK-KOR2 suite), the
// epoch-keyed result cache, and the service façade.
#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "paper_fixture.h"
#include "service/result_cache.h"
#include "service/service.h"
#include "service/shard_router.h"
#include "service/sharded_ingestor.h"
#include "runtime/worker_pool.h"
#include "stream/generator.h"

namespace ksir {
namespace {

using ::ksir::testing::BalancedQueryVector;
using ::ksir::testing::PaperElements;
using ::ksir::testing::PaperEngineConfig;
using ::ksir::testing::PaperTopicModel;

// ---- worker pool -----------------------------------------------------------

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  WorkerPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count]() { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPoolTest, TaskGroupWaitsOnlyOnOwnTasks) {
  WorkerPool pool(2);
  std::atomic<int> group_count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Submit([&group_count]() { group_count.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(group_count.load(), 16);
}

TEST(WorkerPoolTest, ThrowingTaskDoesNotDeadlockWaitIdle) {
  // Regression: a throwing task used to skip the in_flight_ decrement,
  // leaving WaitIdle blocked forever.
  WorkerPool pool(2);
  pool.Submit([]() { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.WaitIdle(), std::runtime_error);
  // The pool stays usable and the exception slot is cleared.
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&count]() { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 8);
}

TEST(WorkerPoolTest, ThrowingGroupTaskPropagatesToGroupWaiter) {
  // Regression: a throwing group task used to skip the pending_ decrement,
  // leaving Wait blocked forever.
  WorkerPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Submit([]() { throw std::runtime_error("group boom"); });
  for (int i = 0; i < 4; ++i) {
    group.Submit([&ran]() { ran.fetch_add(1); });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 4);
  // The group's exception belongs to the group: the pool-level barrier
  // must not see it, and a second Wait returns cleanly.
  pool.WaitIdle();
  group.Wait();
}

TEST(WorkerPoolTest, ParallelRunExecutesEveryUnitExactlyOnce) {
  WorkerPool pool(3);
  constexpr std::size_t kUnits = 257;  // not a multiple of any P
  const auto runs = std::make_unique<std::atomic<int>[]>(kUnits);
  ParallelRun(&pool, 4, kUnits, [&](std::size_t p, std::size_t u) {
    EXPECT_LT(p, 4u);
    runs[u].fetch_add(1);
  });
  for (std::size_t u = 0; u < kUnits; ++u) {
    ASSERT_EQ(runs[u].load(), 1) << "unit " << u;
  }
  // More participants than units degrades to one participant per unit.
  std::atomic<int> count{0};
  ParallelRun(&pool, 8, 3,
              [&](std::size_t p, std::size_t) {
                EXPECT_LT(p, 3u);
                count.fetch_add(1);
              });
  EXPECT_EQ(count.load(), 3);
  // A unit's exception reaches the caller and the pool stays usable.
  EXPECT_THROW(ParallelRun(&pool, 4, 8,
                           [](std::size_t, std::size_t u) {
                             if (u == 5) throw std::runtime_error("run boom");
                           }),
               std::runtime_error);
  pool.WaitIdle();
  ParallelRun(&pool, 4, 4,
              [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 7);
}

TEST(WorkerPoolTest, ParallelRunNeverSharesAParticipantIndex) {
  // The maintainer keys per-participant scratch on p (stage 5's
  // worker_scratch_[p]), so two fn calls that overlap in time must carry
  // different p. Each call marks its p busy across a short spin; a second
  // call finding the mark set would be a shared index.
  WorkerPool pool(3);
  constexpr std::size_t kParticipants = 4;
  std::atomic<int> busy[kParticipants] = {};
  std::atomic<int> shared{0};
  std::atomic<int> count{0};
  for (int round = 0; round < 20; ++round) {
    ParallelRun(&pool, kParticipants, 64, [&](std::size_t p, std::size_t) {
      ASSERT_LT(p, kParticipants);
      if (busy[p].exchange(1) != 0) shared.fetch_add(1);
      for (int spin = 0; spin < 200; ++spin) std::this_thread::yield();
      busy[p].store(0);
      count.fetch_add(1);
    });
  }
  EXPECT_EQ(shared.load(), 0);
  EXPECT_EQ(count.load(), 20 * 64);
}

TEST(WorkerPoolTest, NestedParallelRunOnSaturatedPoolCompletes) {
  // The only worker runs the outer task, so none of the inner call's
  // helpers can start until it returns: the caller (participant 0) must
  // finish every unit itself instead of waiting on queued helpers.
  WorkerPool pool(1);
  std::atomic<int> count{0};
  std::atomic<bool> inner_returned{false};
  pool.Submit([&]() {
    ParallelRun(&pool, 4, 64, [&](std::size_t p, std::size_t) {
      EXPECT_EQ(p, 0u);
      count.fetch_add(1);
    });
    inner_returned.store(true);
  });
  pool.WaitIdle();
  EXPECT_TRUE(inner_returned.load());
  EXPECT_EQ(count.load(), 64);
}

// ---- shard router ----------------------------------------------------------

TEST(ShardRouterTest, ReferenceChainsStayIntraShard) {
  ShardRouter router(4);
  // A root and a comment cascade hanging off it must share a shard.
  SocialElement root;
  root.id = 100;
  root.ts = 1;
  const std::size_t root_shard = router.Route(root);
  for (ElementId id = 101; id <= 120; ++id) {
    SocialElement reply;
    reply.id = id;
    reply.ts = id - 99;
    reply.refs = {id - 1};  // chain: each element refers to the previous
    EXPECT_EQ(router.Route(reply), root_shard) << id;
  }
  EXPECT_EQ(router.cross_shard_refs(), 0);
  EXPECT_EQ(router.tracked(), 21u);
}

TEST(ShardRouterTest, PruneDropsOldAssignments) {
  ShardRouter router(2);
  for (ElementId id = 0; id < 10; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    router.Route(e);
  }
  router.PruneOlderThan(5);  // drops ts 1..5
  EXPECT_EQ(router.tracked(), 5u);
  EXPECT_FALSE(router.Knows(2));
  EXPECT_TRUE(router.Knows(7));
}

TEST(ShardRouterTest, ReferralsExtendRoutingLifetime) {
  ShardRouter router(4);
  SocialElement root;
  root.id = 1;
  root.ts = 1;
  const std::size_t shard = router.Route(root);
  SocialElement reply;
  reply.id = 2;
  reply.ts = 100;
  reply.refs = {1};
  EXPECT_EQ(router.Route(reply), shard);
  // The root's own ts is long past the horizon, but the referral at t=100
  // keeps it routable — mirroring the window, where referrals keep an
  // element active.
  router.PruneOlderThan(50);
  EXPECT_TRUE(router.Knows(1));
  SocialElement late;
  late.id = 3;
  late.ts = 120;
  late.refs = {1};
  EXPECT_EQ(router.Route(late), shard);
  router.PruneOlderThan(130);  // nothing has touched the root since t=120
  EXPECT_FALSE(router.Knows(1));
}

TEST(ShardRouterTest, ForgetRollsBackAssignments) {
  ShardRouter router(2);
  SocialElement e;
  e.id = 5;
  e.ts = 10;
  router.Route(e);
  ASSERT_TRUE(router.Knows(5));
  router.Forget({5});
  EXPECT_FALSE(router.Knows(5));
  router.PruneOlderThan(100);  // stale queue entry must be skipped cleanly
  EXPECT_EQ(router.tracked(), 0u);
}

TEST(ShardRouterTest, BalanceCapSpreadsSingleComponentCascade) {
  // One root with every later element chaining to its predecessor: pure
  // chain affinity degenerates to one shard; the balance cap bounds the
  // tracked-load skew while keeping most chain hops intra-shard.
  constexpr std::size_t kShards = 4;
  constexpr double kCap = 2.0;
  ShardRouter uncapped(kShards);
  ShardRouter capped(kShards, kCap);
  for (ElementId id = 0; id < 400; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    if (id > 0) e.refs = {id - 1};
    uncapped.Route(e);
    capped.Route(e);
  }
  // Uncapped: the whole cascade collapses onto the root's shard.
  std::size_t uncapped_nonempty = 0;
  for (const std::size_t load : uncapped.shard_loads()) {
    if (load > 0) ++uncapped_nonempty;
  }
  EXPECT_EQ(uncapped_nonempty, 1u);
  EXPECT_EQ(uncapped.rebalanced(), 0);
  // Capped: every shard carries load and the skew respects the cap.
  const auto& loads = capped.shard_loads();
  const std::size_t max_load = *std::max_element(loads.begin(), loads.end());
  const std::size_t min_load = *std::min_element(loads.begin(), loads.end());
  EXPECT_GT(min_load, 0u);
  EXPECT_LE(static_cast<double>(max_load),
            kCap * (static_cast<double>(min_load) + 1.0));
  EXPECT_GT(capped.rebalanced(), 0);
  // The rebalanced placements cost exactly their chain edges.
  EXPECT_EQ(capped.cross_shard_refs(), capped.rebalanced());
}

TEST(ShardRouterTest, BalanceCapOffPreservesChainAffinity) {
  // max_imbalance = 0 must reproduce the pure chain-following behavior.
  ShardRouter router(4, 0.0);
  SocialElement root;
  root.id = 1;
  root.ts = 1;
  const std::size_t shard = router.Route(root);
  for (ElementId id = 2; id <= 200; ++id) {
    SocialElement reply;
    reply.id = id;
    reply.ts = id;
    reply.refs = {id - 1};
    EXPECT_EQ(router.Route(reply), shard);
  }
  EXPECT_EQ(router.cross_shard_refs(), 0);
}

TEST(ShardRouterTest, RootsSpreadAcrossShards) {
  ShardRouter router(4);
  std::vector<int> per_shard(4, 0);
  for (ElementId id = 0; id < 400; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    ++per_shard[router.Route(e)];
  }
  for (int count : per_shard) EXPECT_GT(count, 40);  // roughly balanced
}

// ---- sharded ingestor partial failure --------------------------------------

TEST(ShardedIngestorTest, PartialFailureRollsBackOnlyFailedShards) {
  // Regression: the rollback used to Forget the WHOLE bucket's routing
  // entries even though shards that accepted their sub-bucket keep the
  // elements — so the router reported Knows() == false for resident ids
  // and a retried bucket would re-ingest duplicates.
  auto model = PaperTopicModel();
  const EngineConfig config = PaperEngineConfig();
  KsirEngine shard0(config, &model);
  KsirEngine shard1(config, &model);
  ShardRouter router(2);
  WorkerPool pool(2);
  ShardedIngestor ingestor({&shard0, &shard1}, &router, &pool);

  // Find root ids that hash-route to shard 0 and to shard 1 (probe with a
  // throwaway router so the real one stays clean).
  ElementId id0 = -1;
  ElementId id1 = -1;
  {
    ShardRouter probe(2);
    for (ElementId id = 1; id < 64 && (id0 < 0 || id1 < 0); ++id) {
      SocialElement e;
      e.id = id;
      e.ts = 1;
      const std::size_t shard = probe.Route(e);
      if (shard == 0 && id0 < 0) id0 = id;
      if (shard == 1 && id1 < 0) id1 = id;
    }
    ASSERT_GE(id0, 0);
    ASSERT_GE(id1, 0);
  }
  const auto mk = [](ElementId id, Timestamp ts) {
    SocialElement e;
    e.id = id;
    e.ts = ts;
    e.doc = Document::FromWordIds({0});
    e.topics = SparseVector::FromEntries({{0, 1.0}});
    return e;
  };

  // Put shard 1 ahead of the shared clock: its next sub-bucket advance is
  // out of order and fails while shard 0 accepts its half.
  ASSERT_TRUE(shard1.AdvanceTo(100, {}).ok());
  const Status status = ingestor.AdvanceTo(6, {mk(id0, 5), mk(id1, 6)});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // id0 landed on shard 0 and must still be routed (it IS resident there);
  // id1 was rejected with its shard and must be forgotten.
  EXPECT_TRUE(router.Knows(id0));  // fails on the pre-fix code
  EXPECT_FALSE(router.Knows(id1));
  EXPECT_TRUE(shard0.window().IsActive(id0));
  EXPECT_FALSE(shard1.window().IsActive(id1));

  // Re-sending the accepted element is rejected up front as a duplicate
  // (before anything is routed or any shard clock moves)...
  const Status duplicate = ingestor.AdvanceTo(200, {mk(id0, 199)});
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);

  // ...while a corrected bucket carrying only the failed shard's element
  // goes through once bucket_end clears every shard clock.
  ASSERT_TRUE(ingestor.AdvanceTo(200, {mk(id1, 199)}).ok());
  EXPECT_TRUE(router.Knows(id1));
  EXPECT_TRUE(shard1.window().IsActive(id1));
  EXPECT_EQ(ingestor.now(), 200);
}

// ---- engine additions used by the service ---------------------------------

TEST(EngineEpochTest, BucketEpochIsMonotone) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  EXPECT_EQ(engine.bucket_epoch(), 0u);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  const std::uint64_t after = engine.bucket_epoch();
  EXPECT_GE(after, 8u);  // L = 1, eight buckets
  // A failed advance must not bump the epoch.
  EXPECT_FALSE(engine.AdvanceTo(1, {}).ok());
  EXPECT_EQ(engine.bucket_epoch(), after);
}

TEST(EngineEpochTest, OutOfOrderAndNoopBucketsReturnStatus) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  const Status out_of_order = engine.AdvanceTo(3, {});
  EXPECT_EQ(out_of_order.code(), StatusCode::kInvalidArgument);
  const Status noop = engine.AdvanceTo(engine.now(), {});
  EXPECT_EQ(noop.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineEpochTest, CreateValidatesConfig) {
  auto model = PaperTopicModel();
  EngineConfig bad = PaperEngineConfig();
  bad.bucket_length = 0;
  EXPECT_FALSE(KsirEngine::Create(bad, &model).ok());
  bad = PaperEngineConfig();
  bad.window_length = 0;
  EXPECT_FALSE(KsirEngine::Create(bad, &model).ok());
  // An absurd thread count must fail validation, not exhaust the process
  // spawning a pool inside the constructor.
  bad = PaperEngineConfig();
  bad.maintenance_threads = static_cast<std::size_t>(-1);
  EXPECT_FALSE(KsirEngine::Create(bad, &model).ok());
  EXPECT_FALSE(KsirEngine::Create(PaperEngineConfig(), nullptr).ok());
  auto engine = KsirEngine::Create(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE((*engine)->Append(PaperElements()).ok());
}

/// Elements at `ts` whose topic vectors the ingestion seams must reject:
/// a topic id outside the paper model's 2 topics, and NaN, infinite and
/// negative weights.
std::vector<SocialElement> HostileTopicElements(ElementId first_id,
                                                Timestamp ts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<SparseVector> vectors = {
      SparseVector::FromEntries({{0, 0.5}, {2, 0.5}}),
      SparseVector::FromEntries({{0, nan}}),
      SparseVector::FromEntries({{1, inf}}),
      SparseVector::FromDense({0.5, -0.5}, /*threshold=*/-1.0),
  };
  std::vector<SocialElement> out;
  for (const SparseVector& topics : vectors) {
    SocialElement e;
    e.id = first_id++;
    e.ts = ts;
    e.doc = Document::FromWordIds({0});
    e.topics = topics;
    out.push_back(std::move(e));
  }
  return out;
}

/// A well-formed element at `ts`.
SocialElement ValidTopicElement(ElementId id, Timestamp ts) {
  SocialElement e;
  e.id = id;
  e.ts = ts;
  e.doc = Document::FromWordIds({0});
  e.topics = SparseVector::FromEntries({{0, 0.5}, {1, 0.5}});
  return e;
}

TEST(EngineEpochTest, HostileTopicVectorsReturnStatus) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  const std::uint64_t epoch = engine.bucket_epoch();
  const Timestamp now = engine.now();
  const std::size_t active = engine.window().num_active();
  for (SocialElement& bad : HostileTopicElements(100, now + 1)) {
    // Alone and behind a valid element: the whole bucket is rejected.
    std::vector<SocialElement> bucket = {ValidTopicElement(99, now + 1),
                                         std::move(bad)};
    const Status status = engine.AdvanceTo(now + 1, std::move(bucket));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.message();
    EXPECT_EQ(engine.bucket_epoch(), epoch);
    EXPECT_EQ(engine.now(), now);
    EXPECT_EQ(engine.window().num_active(), active);
  }
  ASSERT_TRUE(engine.AdvanceTo(now + 1, {ValidTopicElement(99, now + 1)}).ok());
  EXPECT_EQ(engine.bucket_epoch(), epoch + 1);
  EXPECT_TRUE(engine.index().Contains(99));
}

TEST(EngineEpochTest, ExportSnapshotsCarriesInfluenceSets) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  // At t = 8: e3 is referenced by e8 (e4/e6's referrals expired with them).
  const auto snapshots = engine.ExportSnapshots({3, 9999});
  ASSERT_EQ(snapshots.size(), 1u);  // unknown ids are skipped
  EXPECT_EQ(snapshots[0].element.id, 3);
  ASSERT_EQ(snapshots[0].referrers.size(),
            engine.window().ReferrersOf(3).size());
}

// ---- service façade --------------------------------------------------------

ServiceConfig PaperServiceConfig(std::size_t num_shards) {
  ServiceConfig config;
  config.engine = PaperEngineConfig();
  config.num_shards = num_shards;
  return config;
}

TEST(ServiceTest, CreateRejectsBadConfig) {
  auto model = PaperTopicModel();
  ServiceConfig config = PaperServiceConfig(0);
  EXPECT_FALSE(KsirService::Create(config, &model).ok());
  config = PaperServiceConfig(2);
  config.cache_quantum = 0.0;
  EXPECT_FALSE(KsirService::Create(config, &model).ok());
  config = PaperServiceConfig(2);
  config.engine.bucket_length = -5;
  EXPECT_FALSE(KsirService::Create(config, &model).ok());
  config = PaperServiceConfig(2);
  config.engine.max_shard_imbalance = 0.5;  // must be 0 (off) or >= 1
  EXPECT_FALSE(KsirService::Create(config, &model).ok());
  EXPECT_FALSE(KsirService::Create(PaperServiceConfig(2), nullptr).ok());
}

TEST(ServiceTest, SingleShardMatchesPlainEngine) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  auto service = KsirService::Create(PaperServiceConfig(1), &model);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Append(PaperElements()).ok());

  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf,
        Algorithm::kGreedy, Algorithm::kTopkRepresentative}) {
    for (const std::int32_t k : {1, 2, 4}) {
      KsirQuery query;
      query.k = k;
      query.x = BalancedQueryVector();
      query.epsilon = 0.2;
      query.algorithm = algorithm;
      const auto expected = engine.Query(query);
      const auto actual = (*service)->Query(query);
      ASSERT_TRUE(expected.ok() && actual.ok()) << AlgorithmName(algorithm);
      EXPECT_EQ(actual->element_ids, expected->element_ids)
          << AlgorithmName(algorithm) << " k=" << k;
      EXPECT_NEAR(actual->score, expected->score, 1e-9)
          << AlgorithmName(algorithm) << " k=" << k;
    }
  }
}

TEST(ServiceTest, OutOfOrderBucketRejectedWithoutDying) {
  auto model = PaperTopicModel();
  auto service = KsirService::Create(PaperServiceConfig(2), &model);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Append(PaperElements()).ok());
  EXPECT_FALSE((*service)->AdvanceTo(2, {}).ok());
  EXPECT_FALSE((*service)->AdvanceTo((*service)->now(), {}).ok());
  // A re-ingested id is rejected before anything is routed.
  SocialElement duplicate = PaperElements()[0];
  duplicate.ts = (*service)->now() + 1;
  const Status status =
      (*service)->AdvanceTo(duplicate.ts, {std::move(duplicate)});
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
  // The service keeps serving afterwards.
  KsirQuery query;
  query.k = 2;
  query.x = BalancedQueryVector();
  EXPECT_TRUE((*service)->Query(query).ok());
}

TEST(ServiceTest, HostileTopicVectorsRejectedBeforeAnyShardMoves) {
  auto model = PaperTopicModel();
  auto service = KsirService::Create(PaperServiceConfig(2), &model);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Append(PaperElements()).ok());
  const std::uint64_t epoch = (*service)->epoch();
  const Timestamp now = (*service)->now();
  for (SocialElement& bad : HostileTopicElements(100, now + 1)) {
    std::vector<SocialElement> bucket = {ValidTopicElement(99, now + 1),
                                         std::move(bad)};
    const Status status = (*service)->AdvanceTo(now + 1, std::move(bucket));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.message();
    EXPECT_EQ((*service)->epoch(), epoch);
    EXPECT_EQ((*service)->now(), now);
    for (std::size_t s = 0; s < (*service)->num_shards(); ++s) {
      EXPECT_EQ((*service)->shard(s).now(), now) << "shard " << s;
    }
  }
  // The rejected ids were never routed: the valid element ingests.
  ASSERT_TRUE(
      (*service)->AdvanceTo(now + 1, {ValidTopicElement(99, now + 1)}).ok());
  EXPECT_EQ((*service)->epoch(), epoch + 1);
  KsirQuery query;
  query.k = 2;
  query.x = BalancedQueryVector();
  EXPECT_TRUE((*service)->Query(query).ok());
}

// Shared fixture for the generator-workload properties: one synthetic
// stream fed identically to a single engine and a 4-shard service.
class PlannerPropertyTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNumShards = 4;
  static constexpr std::int32_t kK = 10;

  void SetUp() override {
    StreamProfile profile = RedditSimProfile();
    profile.num_elements = 3000;
    profile.num_topics = 8;
    profile.vocab_size = 600;
    auto generated = GenerateStream(profile);
    ASSERT_TRUE(generated.ok());
    stream_ = std::make_unique<GeneratedStream>(std::move(generated).value());

    config_.scoring.eta = 20.0;
    config_.window_length = 24 * 3600;
    config_.bucket_length = 15 * 60;

    engine_ = std::make_unique<KsirEngine>(config_, &stream_->model);
    ASSERT_TRUE(engine_->Append(stream_->elements).ok());

    ServiceConfig service_config;
    service_config.engine = config_;
    service_config.num_shards = kNumShards;
    auto service = KsirService::Create(service_config, &stream_->model);
    ASSERT_TRUE(service.ok());
    service_ = std::move(service).value();
    ASSERT_TRUE(service_->Append(stream_->elements).ok());
  }

  /// A deterministic pool of sparse query vectors over the topic space.
  std::vector<SparseVector> QueryPool(std::size_t count) const {
    std::vector<SparseVector> pool;
    const auto z = static_cast<std::int32_t>(stream_->model.num_topics());
    for (std::size_t i = 0; i < count; ++i) {
      const auto a = static_cast<std::int32_t>(i) % z;
      const auto b = static_cast<std::int32_t>(3 * i + 1) % z;
      if (a == b) {
        pool.push_back(SparseVector::FromEntries({{a, 1.0}}));
      } else {
        pool.push_back(SparseVector::FromEntries({{a, 0.6}, {b, 0.4}}));
      }
    }
    return pool;
  }

  EngineConfig config_;
  std::unique_ptr<GeneratedStream> stream_;
  std::unique_ptr<KsirEngine> engine_;
  std::unique_ptr<KsirService> service_;
};

TEST_F(PlannerPropertyTest, MergeInvariantsHoldOnGeneratorWorkload) {
  const auto pool = QueryPool(15);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    KsirQuery query;
    query.k = kK;
    query.x = pool[i];
    query.algorithm = Algorithm::kCelf;

    const auto service_result = service_->Query(query);
    ASSERT_TRUE(service_result.ok()) << "query " << i;

    // |S| <= k, no duplicates.
    EXPECT_LE(service_result->element_ids.size(),
              static_cast<std::size_t>(kK));
    auto ids = service_result->element_ids;
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

    // Merged score is never below any single shard's score.
    for (std::size_t s = 0; s < service_->num_shards(); ++s) {
      const auto shard_result = service_->shard(s).Query(query);
      ASSERT_TRUE(shard_result.ok());
      EXPECT_GE(service_result->score, shard_result->score - 1e-9)
          << "query " << i << " shard " << s;
    }

    // Acceptance bar: >= 0.95x the single-engine CELF score.
    const auto engine_result = engine_->Query(query);
    ASSERT_TRUE(engine_result.ok());
    EXPECT_GE(service_result->score, 0.95 * engine_result->score)
        << "query " << i << ": sharded " << service_result->score
        << " vs single " << engine_result->score;
  }
}

TEST_F(PlannerPropertyTest, PlanStatsSumEveryShardsWork) {
  // The plan's work counters cover the merge plus every shard. The merge
  // CELF runs no threshold rounds and pops no list tuples, so an MTTD
  // plan's rounds and retrievals are exactly the sums of the shards' own.
  const auto pool = QueryPool(6);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    KsirQuery query;
    query.k = kK;
    query.x = pool[i];
    query.epsilon = 0.1;
    query.algorithm = Algorithm::kMttd;
    const auto service_result = service_->Query(query);
    ASSERT_TRUE(service_result.ok()) << "query " << i;
    std::size_t rounds = 0;
    std::size_t retrieved = 0;
    for (std::size_t s = 0; s < service_->num_shards(); ++s) {
      const auto shard_result = service_->shard(s).Query(query);
      ASSERT_TRUE(shard_result.ok());
      rounds += shard_result->stats.num_candidates_or_rounds;
      retrieved += shard_result->stats.num_retrieved;
    }
    EXPECT_GT(rounds, 0u) << "query " << i;
    EXPECT_EQ(service_result->stats.num_candidates_or_rounds, rounds)
        << "query " << i;
    EXPECT_EQ(service_result->stats.num_retrieved, retrieved)
        << "query " << i;
  }
}

TEST_F(PlannerPropertyTest, ShardsPartitionTheActiveStream) {
  // Every ingested element landed on exactly one shard, and the shard
  // active sets are disjoint by id.
  std::vector<ElementId> all_ids;
  for (std::size_t s = 0; s < service_->num_shards(); ++s) {
    const auto ids = service_->shard(s).window().ActiveIds();
    all_ids.insert(all_ids.end(), ids.begin(), ids.end());
  }
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_EQ(std::adjacent_find(all_ids.begin(), all_ids.end()),
            all_ids.end());
  const auto stats = service_->stats();
  EXPECT_EQ(stats.ingestion.elements_ingested,
            static_cast<std::int64_t>(stream_->elements.size()));
  EXPECT_GT(stats.epoch, 0u);
}

TEST_F(PlannerPropertyTest, CacheHitEqualsCacheMissWithinEpoch) {
  KsirQuery query;
  query.k = kK;
  query.x = QueryPool(1)[0];
  query.algorithm = Algorithm::kCelf;

  const auto before = service_->stats().cache;
  const auto miss = service_->Query(query);   // computes and fills
  const auto hit = service_->Query(query);    // must be served by the cache
  ASSERT_TRUE(miss.ok() && hit.ok());
  const auto after = service_->stats().cache;
  EXPECT_GE(after.misses, before.misses + 1);
  EXPECT_GE(after.hits, before.hits + 1);
  EXPECT_EQ(hit->element_ids, miss->element_ids);
  EXPECT_DOUBLE_EQ(hit->score, miss->score);
}

TEST_F(PlannerPropertyTest, AdvanceInvalidatesCachedResults) {
  KsirQuery query;
  query.k = kK;
  query.x = QueryPool(2)[1];
  query.algorithm = Algorithm::kCelf;
  ASSERT_TRUE(service_->Query(query).ok());

  const std::uint64_t epoch_before = service_->epoch();
  const Timestamp next_bucket = service_->now() + config_.bucket_length;
  ASSERT_TRUE(service_->AdvanceTo(next_bucket, {}).ok());
  EXPECT_EQ(service_->epoch(), epoch_before + 1);
  const auto stats = service_->stats();
  EXPECT_GT(stats.cache.invalidated, 0);

  // The re-computed answer reflects the slid window (and is re-cached).
  const auto hits_before = service_->stats().cache.hits;
  ASSERT_TRUE(service_->Query(query).ok());
  ASSERT_TRUE(service_->Query(query).ok());
  EXPECT_GE(service_->stats().cache.hits, hits_before + 1);
}

TEST_F(PlannerPropertyTest, StandingQueriesRunAfterEachBucket) {
  KsirQuery query;
  query.k = 5;
  query.x = QueryPool(3)[2];
  query.algorithm = Algorithm::kCelf;
  std::vector<bool> changes;
  service_->standing_queries().Register(
      query, [&](std::int64_t, const QueryResult&, bool changed) {
        changes.push_back(changed);
      });

  Timestamp next = service_->now() + config_.bucket_length;
  ASSERT_TRUE(service_->AdvanceTo(next, {}).ok());
  next += config_.bucket_length;
  ASSERT_TRUE(service_->AdvanceTo(next, {}).ok());
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_TRUE(changes[0]);  // first evaluation always reports a change
}

// ---- balance-aware routing at the service seam -----------------------------

TEST(ServiceBalanceTest, CappedRoutingBoundsSkewAndKeepsMergeQualityBar) {
  // A single-component cascade stream (every element references recent
  // predecessors) collapses onto one shard under pure chain affinity. With
  // the cap enabled the per-shard load spread must respect the bound AND
  // the fan-out/merge CELF answer must stay within the 0.95x acceptance
  // bar of a single engine — the trade the cap makes is a few cross-shard
  // edges, not merge quality.
  constexpr std::size_t kShards = 4;
  constexpr double kCap = 2.0;
  constexpr int kTopics = 4;
  constexpr int kVocab = 32;
  Rng rng(99);
  std::vector<std::vector<double>> matrix(kTopics,
                                          std::vector<double>(kVocab));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model = std::move(TopicModel::FromMatrix(std::move(matrix))).value();

  std::vector<SocialElement> elements;
  for (ElementId id = 0; id < 1200; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    std::vector<WordId> words;
    for (int w = 0; w < 6; ++w) {
      words.push_back(static_cast<WordId>(rng.NextUint64(kVocab)));
    }
    e.doc = Document::FromWordIds(words);
    e.topics = SparseVector::TruncateAndNormalize(
        rng.NextDirichlet(0.5, kTopics), 0.1);
    const int num_refs = 1 + static_cast<int>(rng.NextUint64(3));
    for (int r = 0; r < num_refs && id > 0; ++r) {
      const ElementId target =
          id - 1 - static_cast<ElementId>(rng.NextUint64(
                       std::min<std::uint64_t>(8, id)));
      if (!std::count(e.refs.begin(), e.refs.end(), target)) {
        e.refs.push_back(target);
      }
    }
    std::sort(e.refs.begin(), e.refs.end());
    elements.push_back(std::move(e));
  }

  EngineConfig engine_config;
  engine_config.scoring.eta = 4.0;
  engine_config.window_length = 600;
  engine_config.bucket_length = 60;
  KsirEngine single(engine_config, &model);
  ASSERT_TRUE(single.Append(elements).ok());

  ServiceConfig capped_config;
  capped_config.engine = engine_config;
  capped_config.engine.max_shard_imbalance = kCap;
  capped_config.num_shards = kShards;
  auto capped = KsirService::Create(capped_config, &model);
  ASSERT_TRUE(capped.ok());
  ASSERT_TRUE((*capped)->Append(elements).ok());

  // Routing actually exercised the cap, and every shard carries recent
  // load. A roaming cascade is the cap's worst case — the chain re-anchors
  // on whatever shard it was pushed to, so placements come in runs and old
  // runs decay unevenly. The cap bounds every admission AND (decay-aware
  // pressure) tightens once the observed spread exceeds the bound, so the
  // end-of-stream skew must now hold the configured bound itself (10%
  // measurement slack), not the former 30% drift allowance.
  const ShardRouter& router = (*capped)->router();
  EXPECT_GT(router.rebalanced(), 0);
  const auto& loads = router.recent_loads();
  EXPECT_GT(*std::min_element(loads.begin(), loads.end()), 0u);
  std::size_t max_active = 0;
  std::size_t min_active = static_cast<std::size_t>(-1);
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::size_t active = (*capped)->shard(s).window().num_active();
    max_active = std::max(max_active, active);
    min_active = std::min(min_active, active);
  }
  ASSERT_GT(min_active, 0u);
  EXPECT_LE(static_cast<double>(max_active) /
                static_cast<double>(min_active),
            kCap * 1.1);

  // Merge-quality acceptance bar against the single engine.
  for (int q = 0; q < 6; ++q) {
    KsirQuery query;
    query.k = 8;
    query.algorithm = Algorithm::kCelf;
    const auto a = static_cast<TopicId>(q % kTopics);
    const auto b = static_cast<TopicId>((q + 1) % kTopics);
    query.x = a == b ? SparseVector::FromEntries({{a, 1.0}})
                     : SparseVector::FromEntries({{a, 0.6}, {b, 0.4}});
    const auto expected = single.Query(query);
    const auto actual = (*capped)->Query(query);
    ASSERT_TRUE(expected.ok() && actual.ok()) << "query " << q;
    EXPECT_GE(actual->score, 0.95 * expected->score)
        << "query " << q << ": capped sharded " << actual->score
        << " vs single " << expected->score;
  }
}

// ---- parallel bucket maintenance at the service/runtime seam ---------------

/// A churny single-cascade stream: references reach far enough back to
/// drive expiry, referrer loss, resurrection and dangling references
/// through the maintainer every few buckets.
std::vector<SocialElement> ChurnStream(int count, int num_topics,
                                       int vocab, Rng* rng) {
  std::vector<SocialElement> elements;
  for (ElementId id = 0; id < count; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    std::vector<WordId> words;
    for (int w = 0; w < 5; ++w) {
      words.push_back(static_cast<WordId>(rng->NextUint64(vocab)));
    }
    e.doc = Document::FromWordIds(words);
    e.topics = SparseVector::TruncateAndNormalize(
        rng->NextDirichlet(0.5, num_topics), 0.1);
    const int num_refs = static_cast<int>(rng->NextUint64(4));
    for (int r = 0; r < num_refs && id > 0; ++r) {
      const ElementId target =
          id - 1 - static_cast<ElementId>(rng->NextUint64(
                       std::min<std::uint64_t>(240, id)));
      if (!std::count(e.refs.begin(), e.refs.end(), target)) {
        e.refs.push_back(target);
      }
    }
    std::sort(e.refs.begin(), e.refs.end());
    elements.push_back(std::move(e));
  }
  return elements;
}

TEST(ParallelMaintenanceTest, ChurnStreamMatchesSerialUnderConcurrentQueries) {
  // TSan-covered churn test of the staged parallel apply: a parallel
  // engine ingests an expiry/resurrection-heavy stream while a reader
  // thread hammers queries (shared lock vs. the exclusive advance that
  // fans out on the pool). The final index and query results must be
  // bitwise identical to a serial handle engine fed the same stream.
  constexpr int kTopics = 6;
  Rng rng(1234);
  std::vector<std::vector<double>> matrix(kTopics, std::vector<double>(48));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model =
      std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  const std::vector<SocialElement> elements =
      ChurnStream(1500, kTopics, 48, &rng);

  EngineConfig serial_config;
  serial_config.scoring.eta = 4.0;
  serial_config.window_length = 100;
  serial_config.bucket_length = 10;
  serial_config.archive_retention = 200;  // > T: resurrection territory
  EngineConfig parallel_config = serial_config;
  parallel_config.maintenance_threads = 4;

  KsirEngine serial(serial_config, &model);
  ASSERT_TRUE(serial.Append(elements).ok());

  KsirEngine parallel(parallel_config, &model);
  ASSERT_TRUE(parallel.maintenance_stats().buckets_processed == 0);
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    KsirQuery query;
    query.k = 3;
    query.epsilon = 0.2;
    query.algorithm = Algorithm::kMttd;
    query.x = SparseVector::FromEntries({{0, 0.5}, {1, 0.5}});
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(parallel.Query(query).ok());
    }
  });
  ASSERT_TRUE(parallel.Append(elements).ok());
  stop.store(true, std::memory_order_release);
  reader.join();

  ASSERT_EQ(parallel.index().num_elements(), serial.index().num_elements());
  ASSERT_EQ(parallel.index().total_entries(),
            serial.index().total_entries());
  for (TopicId topic = 0; topic < kTopics; ++topic) {
    const auto& plist = parallel.index().list(topic);
    const auto& slist = serial.index().list(topic);
    ASSERT_EQ(plist.size(), slist.size()) << "topic " << topic;
    auto sit = slist.begin();
    for (const auto& key : plist) {
      ASSERT_EQ(key.id, sit->id) << "topic " << topic;
      ASSERT_EQ(key.score, sit->score) << "topic " << topic;
      ++sit;
    }
  }
  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf}) {
    KsirQuery query;
    query.k = 5;
    query.epsilon = 0.2;
    query.algorithm = algorithm;
    query.x = SparseVector::FromEntries({{1, 0.6}, {2, 0.4}});
    const auto expected = serial.Query(query);
    const auto actual = parallel.Query(query);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(actual->element_ids, expected->element_ids)
        << AlgorithmName(algorithm);
    EXPECT_EQ(actual->score, expected->score) << AlgorithmName(algorithm);
  }
}

TEST(ParallelMaintenanceTest, EngineAndServiceShareOneProcessPool) {
  // The runtime factory's pool is the process-wide seam: a standalone
  // parallel engine and a sharded service (its shard engines running
  // parallel maintenance too) share ONE pool, no per-shard or per-engine
  // pools are spawned, and nested fan-out (shard advance tasks fanning
  // their maintenance stages out on the same pool) completes without
  // deadlock thanks to ParallelRun's caller participation.
  constexpr int kTopics = 4;
  Rng rng(77);
  std::vector<std::vector<double>> matrix(kTopics, std::vector<double>(32));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model =
      std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  const std::vector<SocialElement> elements =
      ChurnStream(600, kTopics, 32, &rng);

  const std::unique_ptr<WorkerPool> pool = MakeWorkerPool(3);
  ASSERT_EQ(pool->num_threads(), 3u);

  EngineConfig engine_config;
  engine_config.scoring.eta = 4.0;
  engine_config.window_length = 100;
  engine_config.bucket_length = 10;
  engine_config.maintenance_threads = 4;
  ASSERT_TRUE(UsesParallelMaintenance(engine_config));

  KsirEngine serial_reference(
      [&] {
        EngineConfig config = engine_config;
        config.maintenance_threads = 0;
        return config;
      }(),
      &model);
  ASSERT_TRUE(serial_reference.Append(elements).ok());

  KsirEngine shared_engine(engine_config, &model, pool.get());
  ASSERT_TRUE(shared_engine.Append(elements).ok());

  ServiceConfig service_config;
  service_config.engine = engine_config;
  service_config.num_shards = 2;
  service_config.shared_pool = pool.get();
  auto service = KsirService::Create(service_config, &model);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Append(elements).ok());

  // The pool was never grown or replaced: both consumers ran on the same
  // three threads (plus their callers).
  EXPECT_EQ(pool->num_threads(), 3u);

  // The pool-sharing engine is still bitwise the serial engine, and the
  // service answers sanely off the same pool.
  KsirQuery query;
  query.k = 4;
  query.epsilon = 0.2;
  query.algorithm = Algorithm::kCelf;
  query.x = SparseVector::FromEntries({{0, 0.7}, {3, 0.3}});
  const auto expected = serial_reference.Query(query);
  const auto actual = shared_engine.Query(query);
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(actual->element_ids, expected->element_ids);
  EXPECT_EQ(actual->score, expected->score);
  const auto service_result = (*service)->Query(query);
  ASSERT_TRUE(service_result.ok());
  EXPECT_GE(service_result->score, 0.0);
}

TEST(ParallelMaintenanceTest, ServiceChurnWithRebalancingMatchesSerial) {
  // TSan-covered end-to-end churn of the runtime: a sharded service whose
  // one pool runs shard advances, query fan-out and four-way parallel
  // maintenance (the topic-sharded expiry / gather / list-apply stages)
  // nested inside the advances, with router rebalancing, ingests an
  // expiry + resurrection heavy stream while a reader hammers queries.
  // Routing depends only on the element stream, so the shard engines — and
  // therefore every query — must land exactly where a serial-maintenance
  // service with the same config lands.
  constexpr int kTopics = 6;
  Rng rng(4321);
  std::vector<std::vector<double>> matrix(kTopics, std::vector<double>(48));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model =
      std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  const std::vector<SocialElement> elements =
      ChurnStream(1200, kTopics, 48, &rng);

  ServiceConfig base;
  base.engine.scoring.eta = 4.0;
  base.engine.window_length = 100;
  base.engine.bucket_length = 10;
  base.engine.archive_retention = 200;  // > T: resurrection territory
  base.engine.max_shard_imbalance = 1.2;
  base.num_shards = 2;

  ServiceConfig parallel_config = base;
  parallel_config.engine.maintenance_threads = 4;

  auto serial = KsirService::Create(base, &model);
  auto parallel = KsirService::Create(parallel_config, &model);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE((*serial)->Append(elements).ok());

  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    KsirQuery query;
    query.k = 3;
    query.epsilon = 0.2;
    query.algorithm = Algorithm::kMttd;
    query.x = SparseVector::FromEntries({{0, 0.5}, {2, 0.5}});
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE((*parallel)->Query(query).ok());
    }
  });
  ASSERT_TRUE((*parallel)->Append(elements).ok());
  stop.store(true, std::memory_order_release);
  reader.join();

  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf}) {
    KsirQuery query;
    query.k = 5;
    query.epsilon = 0.2;
    query.algorithm = algorithm;
    query.x = SparseVector::FromEntries({{1, 0.6}, {4, 0.4}});
    const auto expected = (*serial)->Query(query);
    const auto actual = (*parallel)->Query(query);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(actual->element_ids, expected->element_ids)
        << AlgorithmName(algorithm);
    EXPECT_EQ(actual->score, expected->score) << AlgorithmName(algorithm);
  }

  // Pool observability of the parallel run: tasks flowed, and the
  // drained pool reports an empty queue.
  MetricRegistry& reg = (*parallel)->telemetry().registry();
  EXPECT_GT(reg.GetCounter("ksir_pool_tasks_total")->Value(), 0);
  EXPECT_EQ(reg.GetGauge("ksir_pool_queue_depth")->Value(), 0);
}

// ---- result cache unit behavior -------------------------------------------

TEST(ResultCacheTest, StatsAndFloorReadableDuringConcurrentSweeps) {
  // Regression (TSan-covered): the stats counters and the invalidation
  // floor are read by monitoring threads while queries insert and bucket
  // advances sweep. The counters are atomics now; under the old plain
  // fields this read raced InvalidateBefore/Insert.
  ResultCache cache(64);
  KsirQuery query;
  query.x = SparseVector::FromEntries({{0, 1.0}});
  QueryResult result;
  result.score = 1.0;
  constexpr std::uint64_t kEpochs = 2000;

  std::atomic<bool> stop{false};
  std::atomic<bool> floor_monotone{true};
  std::thread monitor([&] {
    std::uint64_t prev = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t floor = cache.invalidation_floor();
      if (floor < prev) floor_monotone.store(false);
      prev = floor;
      const ResultCacheStats stats = cache.stats();
      if (stats.hits < 0 || stats.misses < 0) floor_monotone.store(false);
    }
  });
  std::thread sweeper([&] {
    for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
      cache.InvalidateBefore(epoch);
    }
  });
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    cache.Insert(cache.MakeKey(query, epoch), result);
    (void)cache.Lookup(cache.MakeKey(query, epoch));
  }
  sweeper.join();
  stop.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_TRUE(floor_monotone.load());
  EXPECT_EQ(cache.invalidation_floor(), kEpochs);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::int64_t>(kEpochs));
}

TEST(ResultCacheTest, QuantizesNearbyQueryVectors) {
  ResultCache cache(8, 1e-3);
  KsirQuery a;
  a.k = 5;
  a.x = SparseVector::FromEntries({{0, 0.5}, {1, 0.5}});
  KsirQuery b = a;
  b.x = SparseVector::FromEntries({{0, 0.5000001}, {1, 0.4999999}});
  EXPECT_EQ(cache.MakeKey(a, 7), cache.MakeKey(b, 7));
  KsirQuery c = a;
  c.x = SparseVector::FromEntries({{0, 0.6}, {1, 0.4}});
  EXPECT_FALSE(cache.MakeKey(a, 7) == cache.MakeKey(c, 7));
  // Same query at another epoch is another key.
  EXPECT_FALSE(cache.MakeKey(a, 7) == cache.MakeKey(a, 8));
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  KsirQuery query;
  query.x = SparseVector::FromEntries({{0, 1.0}});
  QueryResult result;
  result.score = 1.0;
  const auto k1 = cache.MakeKey(query, 1);
  const auto k2 = cache.MakeKey(query, 2);
  const auto k3 = cache.MakeKey(query, 3);
  cache.Insert(k1, result);
  cache.Insert(k2, result);
  ASSERT_TRUE(cache.Lookup(k1).has_value());  // refresh k1; k2 becomes LRU
  cache.Insert(k3, result);                   // evicts k2
  EXPECT_TRUE(cache.Lookup(k1).has_value());
  EXPECT_FALSE(cache.Lookup(k2).has_value());
  EXPECT_TRUE(cache.Lookup(k3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ResultCacheTest, InvalidateBeforeDropsOldEpochs) {
  ResultCache cache(16);
  KsirQuery query;
  query.x = SparseVector::FromEntries({{0, 1.0}});
  QueryResult result;
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    cache.Insert(cache.MakeKey(query, epoch), result);
  }
  cache.InvalidateBefore(4);
  EXPECT_EQ(cache.size(), 2u);  // epochs 4 and 5 survive
  EXPECT_EQ(cache.stats().invalidated, 3);
}

TEST(ResultCacheTest, InsertBelowInvalidationFloorIsDropped) {
  // Regression: a query that computed its result before a bucket advance
  // but inserted after the sweep used to park a dead entry in the LRU.
  ResultCache cache(16);
  KsirQuery query;
  query.x = SparseVector::FromEntries({{0, 1.0}});
  QueryResult result;
  cache.InvalidateBefore(5);
  cache.Insert(cache.MakeKey(query, 3), result);  // raced the sweep
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(cache.MakeKey(query, 3)).has_value());
  EXPECT_EQ(cache.stats().stale_inserts, 1);
  cache.Insert(cache.MakeKey(query, 5), result);  // at the floor: admitted
  EXPECT_EQ(cache.size(), 1u);
  // The floor is monotone: an older InvalidateBefore cannot lower it.
  cache.InvalidateBefore(2);
  cache.Insert(cache.MakeKey(query, 4), result);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().stale_inserts, 2);
}

TEST(ServiceTest, StatsReadableDuringConcurrentIngestion) {
  // TSan regression: IngestionStats used to live in plain int64 fields
  // written by AdvanceTo, so reading service stats() while a bucket was
  // ingesting was a documented data race. The counters are registry-backed
  // atomics now and the active-set sizes are read under each shard's query
  // lock — stats() must be callable from a monitor thread at any time.
  constexpr int kTopics = 4;
  Rng rng(4242);
  std::vector<std::vector<double>> matrix(kTopics, std::vector<double>(32));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model =
      std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  ServiceConfig config;
  config.engine.scoring.eta = 4.0;
  config.engine.window_length = 60;
  config.engine.bucket_length = 5;
  config.num_shards = 2;
  auto service = KsirService::Create(config, &model);
  ASSERT_TRUE(service.ok());

  std::atomic<bool> stop{false};
  std::thread monitor([&]() {
    std::int64_t last_elements = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const ServiceStats stats = (*service)->stats();
      // Counters are monotone even mid-bucket.
      ASSERT_GE(stats.ingestion.elements_ingested, last_elements);
      last_elements = stats.ingestion.elements_ingested;
      ASSERT_GE(stats.ingestion.buckets_processed, 0);
      ASSERT_GE(stats.ingestion.total_update_ms, 0.0);
    }
  });
  ASSERT_TRUE((*service)->Append(ChurnStream(1200, kTopics, 32, &rng)).ok());
  stop.store(true, std::memory_order_release);
  monitor.join();

  const ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.ingestion.elements_ingested, 1200);
  EXPECT_GT(stats.num_active_total, 0u);
}

}  // namespace
}  // namespace ksir
