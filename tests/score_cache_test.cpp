// ScoreCache equivalence and staleness-direction tests.
//
// The incremental maintenance pipeline (ScoreMaintenance::kIncremental, at
// any participant count P) must be observationally identical to the
// recompute oracle (ScoreMaintenance::kRecompute) after arbitrary Advance
// sequences — insertions, referrer gains, referrer expiry, element expiry
// and resurrection, under both RefreshModes — and under RefreshMode::kPaper
// the listed scores may only ever be stale-HIGH (sound upper bounds), never
// stale-low. The query-side ElementScore of a kIncremental engine reads the
// cached halves and must match a from-scratch score; the oracle and the
// planner's merge window must never read cache rows.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/score_cache.h"
#include "runtime/worker_pool.h"
#include "stream/element.h"
#include "stream_gen.h"
#include "topic/topic_model.h"

namespace ksir {
namespace {

constexpr int kNumTopics = 4;
constexpr double kTol = 1e-9;

TopicModel MakeModel(Rng* rng) { return testing::MakeModel(rng); }

SocialElement RandomElement(Rng* rng, ElementId id, Timestamp ts,
                            const std::vector<ElementId>& history,
                            std::size_t ref_reach) {
  testing::StreamGenConfig config;
  config.ref_reach = ref_reach;
  return testing::RandomElement(rng, id, ts, history, config);
}

/// Feeds the same random stream to three engines bucket by bucket — the
/// staged pipeline at P = 1 (the production default), the same pipeline at
/// P = 4 on an externally shared pool (topic-sharded expiry, gather and
/// list apply fanned out through ParallelRun) and the recompute oracle — checking list-state equality after every advance.
/// The two pipeline engines must agree bitwise (every list sees the same
/// operation sequence whatever P is); the oracle agrees within kTol.
void RunEquivalenceStream(std::uint64_t seed, RefreshMode mode) {
  Rng rng(seed);
  TopicModel model = MakeModel(&rng);

  EngineConfig base;
  base.scoring.lambda = 0.4;
  base.scoring.eta = 2.0;
  base.window_length = 6;
  base.bucket_length = 2;
  base.archive_retention = 10;  // > T: keeps targets resurrectable
  base.refresh_mode = mode;

  EngineConfig serial_config = base;
  serial_config.score_maintenance = ScoreMaintenance::kIncremental;
  EngineConfig parallel_config = serial_config;
  parallel_config.maintenance_threads = 4;
  EngineConfig recompute_config = base;
  recompute_config.score_maintenance = ScoreMaintenance::kRecompute;

  KsirEngine serial(serial_config, &model);
  auto shared_pool = MakeWorkerPool(3);
  KsirEngine parallel(parallel_config, &model, shared_pool.get());
  KsirEngine recompute(recompute_config, &model);

  ElementId next_id = 1;
  std::vector<ElementId> history;
  for (Timestamp bucket_end = 2; bucket_end <= 40; bucket_end += 2) {
    std::vector<SocialElement> bucket;
    const int count = static_cast<int>(rng.NextUint64(4));
    for (int i = 0; i < count; ++i) {
      const Timestamp ts =
          bucket_end - 1 + static_cast<Timestamp>(rng.NextUint64(2));
      bucket.push_back(
          RandomElement(&rng, next_id++, ts, history, /*ref_reach=*/12));
      history.push_back(bucket.back().id);
    }
    std::sort(bucket.begin(), bucket.end(),
              [](const SocialElement& a, const SocialElement& b) {
                return a.ts < b.ts;
              });
    ASSERT_TRUE(serial.AdvanceTo(bucket_end, bucket).ok());
    ASSERT_TRUE(parallel.AdvanceTo(bucket_end, bucket).ok());
    ASSERT_TRUE(recompute.AdvanceTo(bucket_end, std::move(bucket)).ok());

    // Same active set, same index membership, same tuples.
    const auto& iw = serial.window();
    const auto& rw = recompute.window();
    ASSERT_EQ(iw.num_active(), rw.num_active()) << "t=" << bucket_end;
    ASSERT_EQ(serial.index().num_elements(),
              recompute.index().num_elements());
    ASSERT_EQ(serial.index().total_entries(),
              recompute.index().total_entries());
    ASSERT_EQ(serial.index().total_entries(),
              parallel.index().total_entries());
    for (ElementId id : iw.ActiveIds()) {
      const SocialElement* e = iw.Find(id);
      ASSERT_NE(e, nullptr);
      for (const auto& [topic, prob] : e->topics.entries()) {
        ASSERT_TRUE(serial.index().list(topic).Contains(id))
            << "t=" << bucket_end << " e=" << id;
        ASSERT_TRUE(recompute.index().list(topic).Contains(id));
        const double lhs = serial.index().list(topic).Get(id);
        const double rhs = recompute.index().list(topic).Get(id);
        EXPECT_NEAR(lhs, rhs, kTol)
            << "t=" << bucket_end << " e=" << id << " topic=" << topic;
        if (mode == RefreshMode::kExact) {
          // Both must equal a from-scratch delta_i(e).
          EXPECT_NEAR(lhs,
                      serial.scoring().TopicScore(topic, *e, prob), kTol);
          EXPECT_NEAR(rhs,
                      serial.scoring().TopicScore(topic, *e, prob), kTol);
        }
      }
      // t_e is per element; all engines must agree exactly.
      EXPECT_EQ(serial.index().TimeOf(id), parallel.index().TimeOf(id))
          << "t=" << bucket_end << " e=" << id;
      EXPECT_EQ(serial.index().TimeOf(id), recompute.index().TimeOf(id));
    }
    // The whole key sequence of every list must match between P = 1 and
    // P = 4 (same order, bitwise-equal scores).
    for (TopicId topic = 0; topic < kNumTopics; ++topic) {
      const auto& slist = serial.index().list(topic);
      const auto& plist = parallel.index().list(topic);
      ASSERT_EQ(slist.size(), plist.size());
      auto pit = plist.begin();
      for (const auto& key : slist) {
        ASSERT_EQ(key.id, pit->id) << "t=" << bucket_end << " topic=" << topic;
        ASSERT_EQ(key.score, pit->score);
        ++pit;
      }
    }
  }

  // Query results must be identical down to the reported ids.
  KsirQuery query;
  query.k = 4;
  query.epsilon = 0.2;
  query.x = SparseVector::TruncateAndNormalize(
      rng.NextDirichlet(0.5, kNumTopics), 0.1);
  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf,
        Algorithm::kTopkRepresentative}) {
    query.algorithm = algorithm;
    const auto lhs = serial.Query(query);
    const auto par = parallel.Query(query);
    const auto rhs = recompute.Query(query);
    ASSERT_TRUE(lhs.ok());
    ASSERT_TRUE(par.ok());
    ASSERT_TRUE(rhs.ok());
    EXPECT_EQ(lhs->element_ids, par->element_ids) << AlgorithmName(algorithm);
    EXPECT_EQ(lhs->score, par->score) << AlgorithmName(algorithm);
    EXPECT_EQ(lhs->element_ids, rhs->element_ids)
        << AlgorithmName(algorithm);
    EXPECT_NEAR(lhs->score, rhs->score, kTol) << AlgorithmName(algorithm);
  }
}

class ScoreCacheEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoreCacheEquivalenceTest, ExactModeMatchesRecompute) {
  RunEquivalenceStream(GetParam(), RefreshMode::kExact);
}

TEST_P(ScoreCacheEquivalenceTest, PaperModeMatchesRecompute) {
  RunEquivalenceStream(GetParam(), RefreshMode::kPaper);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreCacheEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------ kPaper staleness direction ----

TEST(ScoreCachePaperModeTest, ListedScoresNeverStaleLow) {
  // Under kPaper with incremental maintenance, every listed score must stay
  // an upper bound on the true delta_i(e) across a long random stream (the
  // stale-high invariant that keeps threshold pruning sound).
  Rng rng(77);
  TopicModel model = MakeModel(&rng);
  EngineConfig config;
  config.scoring.eta = 2.0;
  config.window_length = 6;
  config.bucket_length = 2;
  config.archive_retention = 10;
  config.refresh_mode = RefreshMode::kPaper;
  config.score_maintenance = ScoreMaintenance::kIncremental;
  KsirEngine engine(config, &model);

  ElementId next_id = 1;
  std::vector<ElementId> history;
  bool saw_stale = false;
  for (Timestamp bucket_end = 2; bucket_end <= 60; bucket_end += 2) {
    std::vector<SocialElement> bucket;
    const int count = static_cast<int>(rng.NextUint64(4));
    for (int i = 0; i < count; ++i) {
      const Timestamp ts =
          bucket_end - 1 + static_cast<Timestamp>(rng.NextUint64(2));
      bucket.push_back(
          RandomElement(&rng, next_id++, ts, history, /*ref_reach=*/12));
      history.push_back(bucket.back().id);
    }
    std::sort(bucket.begin(), bucket.end(),
              [](const SocialElement& a, const SocialElement& b) {
                return a.ts < b.ts;
              });
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, std::move(bucket)).ok());
    for (ElementId id : engine.window().ActiveIds()) {
      const SocialElement* e = engine.window().Find(id);
      for (const auto& [topic, prob] : e->topics.entries()) {
        const double listed = engine.index().list(topic).Get(id);
        const double exact = engine.scoring().TopicScore(topic, *e, prob);
        EXPECT_GE(listed, exact - kTol)
            << "stale-LOW bound at t=" << bucket_end << " e=" << id;
        if (listed > exact + kTol) saw_stale = true;
      }
    }
  }
  // The stream is long enough that staleness actually occurred; otherwise
  // this test would vacuously pass.
  EXPECT_TRUE(saw_stale);
}

TEST(SameCallLifetimeTest, FarJumpInsertAndExpireDoesNotBreakMaintenance) {
  // Engine-level regression for the disjointness contract: a bucket whose
  // element is already outside the window at the bucket's end must not make
  // the maintainer erase a never-indexed element (abort) in either mode.
  Rng rng(5);
  TopicModel model = MakeModel(&rng);
  for (const ScoreMaintenance maintenance :
       {ScoreMaintenance::kIncremental, ScoreMaintenance::kRecompute}) {
    EngineConfig config;
    config.scoring.eta = 2.0;
    config.window_length = 4;
    config.bucket_length = 1;
    config.score_maintenance = maintenance;
    KsirEngine engine(config, &model);
    std::vector<ElementId> history;
    ASSERT_TRUE(
        engine
            .AdvanceTo(1, {RandomElement(&rng, 1, 1, history, /*ref_reach=*/4)})
            .ok());
    // Jump to t=100 with an element at ts=95: it leaves W_t immediately.
    ASSERT_TRUE(
        engine
            .AdvanceTo(100,
                       {RandomElement(&rng, 2, 95, history, /*ref_reach=*/4)})
            .ok());
    EXPECT_EQ(engine.index().num_elements(), 0u);
    EXPECT_EQ(engine.window().num_active(), 0u);
    // The archived element is resurrectable and re-enters the index.
    SocialElement e3;
    e3.id = 3;
    e3.ts = 101;
    e3.doc = Document::FromWordIds({0});
    e3.topics = SparseVector::FromEntries({{0, 1.0}});
    e3.refs = {2};
    ASSERT_TRUE(engine.AdvanceTo(101, {e3}).ok());
    EXPECT_TRUE(engine.window().IsActive(2));
    EXPECT_EQ(engine.index().num_elements(), 2u);
  }
}

TEST(ScoreCachePaperModeTest, NextGainRepositionsToExactScore) {
  // Regression: under kPaper the cache must keep absorbing lost edges even
  // though the lists are not repositioned, so the *next* gained edge lands
  // the listed score exactly on the true delta_i(e) — not on a value that
  // still contains the expired referrer.
  auto model = TopicModel::FromMatrix({{0.5, 0.5}});
  ASSERT_TRUE(model.ok());
  EngineConfig config;
  config.scoring.lambda = 0.5;
  config.scoring.eta = 2.0;
  config.window_length = 4;
  config.bucket_length = 1;
  config.refresh_mode = RefreshMode::kPaper;
  config.score_maintenance = ScoreMaintenance::kIncremental;
  KsirEngine engine(config, &*model);

  auto mk = [](ElementId id, Timestamp ts, std::vector<ElementId> refs) {
    SocialElement e;
    e.id = id;
    e.ts = ts;
    e.doc = Document::FromWordIds({0});
    e.refs = std::move(refs);
    e.topics = SparseVector::FromEntries({{0, 1.0}});
    return e;
  };
  ASSERT_TRUE(engine.AdvanceTo(1, {mk(1, 1, {})}).ok());
  ASSERT_TRUE(engine.AdvanceTo(2, {mk(2, 2, {1})}).ok());
  ASSERT_TRUE(engine.AdvanceTo(5, {mk(3, 5, {1})}).ok());
  // t=6: e2 expires out of the window; e1 loses that referral but keeps e3.
  ASSERT_TRUE(engine.AdvanceTo(6, {}).ok());
  const SocialElement* e1 = engine.window().Find(1);
  ASSERT_NE(e1, nullptr);
  EXPECT_GT(engine.index().list(0).Get(1),
            engine.scoring().TopicScore(0, *e1));  // stale-high, by design
  // t=7: e4 refers to e1 -> gained edge -> reposition. The listed score
  // must now equal the exact recomputation (loss of e2 plus gain of e4).
  ASSERT_TRUE(engine.AdvanceTo(7, {mk(4, 7, {1})}).ok());
  e1 = engine.window().Find(1);
  ASSERT_NE(e1, nullptr);
  EXPECT_NEAR(engine.index().list(0).Get(1),
              engine.scoring().TopicScore(0, *e1), 1e-12);
}

// ------------------------------------------ cached singleton query scores --

/// |actual - expected| within kTol relative to the larger magnitude (with an
/// absolute floor of kTol * 1e-6 for true zeros).
void ExpectRelNear(double actual, double expected, Timestamp t,
                   ElementId id) {
  const double scale = std::max({std::abs(actual), std::abs(expected), 1e-6});
  EXPECT_LE(std::abs(actual - expected), kTol * scale)
      << "t=" << t << " e=" << id << " actual=" << actual
      << " expected=" << expected;
}

/// The engine's query-side ElementScore reads the halves the maintainer
/// keeps in its score cache (kIncremental). After every bucket of a stream
/// with expiry, resurrection and dangling references, it must match a
/// from-scratch ScoringContext over the same window for every active element
/// and several query vectors — with the slot looked up lazily or handed in.
void RunCachedScoreStream(std::uint64_t seed, RefreshMode mode,
                          std::size_t maintenance_threads) {
  testing::StreamGen gen(seed);
  TopicModel model = gen.MakeModel();
  EngineConfig config;
  config.scoring.lambda = 0.4;
  config.scoring.eta = 2.0;
  config.window_length = 6;
  config.bucket_length = 2;
  config.archive_retention = 10;
  config.refresh_mode = mode;
  config.score_maintenance = ScoreMaintenance::kIncremental;
  config.maintenance_threads = maintenance_threads;
  KsirEngine engine(config, &model);
  ASSERT_TRUE(engine.scoring().reads_score_cache());
  const ScoringContext scratch(&model, &engine.window(), config.scoring);
  ASSERT_FALSE(scratch.reads_score_cache());

  std::vector<SparseVector> queries;
  for (int q = 0; q < 4; ++q) queries.push_back(gen.RandomQueryVector());
  std::vector<std::pair<TopicId, double>> every_topic;
  for (TopicId topic = 0; topic < kNumTopics; ++topic) {
    every_topic.emplace_back(topic, 1.0 / kNumTopics);
  }
  queries.push_back(SparseVector::FromEntries(every_topic));

  std::size_t scored = 0;
  for (Timestamp bucket_end = 2; bucket_end <= 60; bucket_end += 2) {
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, gen.NextBucket(bucket_end)).ok());
    const ActiveWindow& window = engine.window();
    for (const ElementId id : window.ActiveIds()) {
      const ActiveWindow::SlotView found = window.FindWithSlot(id);
      ASSERT_NE(found.element, nullptr);
      ASSERT_NE(found.user_data, nullptr);
      for (const SparseVector& x : queries) {
        const double cached = engine.scoring().ElementScore(*found.element, x);
        EXPECT_EQ(cached, engine.scoring().ElementScore(*found.element, x,
                                                        found.user_data));
        ExpectRelNear(cached, scratch.ElementScore(*found.element, x),
                      bucket_end, id);
        ++scored;
      }
    }
  }
  EXPECT_GT(scored, 0u);
  // The stream reached the cases the cache must survive.
  EXPECT_GT(engine.maintenance_stats().elements_expired, 0);
  EXPECT_GT(engine.maintenance_stats().dangling_refs, 0);
}

struct CachedScoreCase {
  std::uint64_t seed;
  RefreshMode mode;
  std::size_t maintenance_threads;
};

class CachedScoreTest : public ::testing::TestWithParam<CachedScoreCase> {};

TEST_P(CachedScoreTest, ElementScoreMatchesRecompute) {
  const CachedScoreCase& c = GetParam();
  RunCachedScoreStream(c.seed, c.mode, c.maintenance_threads);
}

std::vector<CachedScoreCase> CachedScoreCases() {
  std::vector<CachedScoreCase> cases;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const RefreshMode mode : {RefreshMode::kExact, RefreshMode::kPaper}) {
      for (const std::size_t threads : {1, 4}) {
        cases.push_back(CachedScoreCase{seed, mode, threads});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsModesParticipants, CachedScoreTest,
    ::testing::ValuesIn(CachedScoreCases()),
    [](const ::testing::TestParamInfo<CachedScoreCase>& info) {
      return "Seed" + std::to_string(info.param.seed) +
             (info.param.mode == RefreshMode::kExact ? "Exact" : "Paper") +
             "P" + std::to_string(info.param.maintenance_threads);
    });

TEST(CachedScoreRowsTest, RecomputeOracleNeverReadsCacheRows) {
  // The oracle parks listed scores and handles in ScoreCache rows whose
  // halves stay zero, so a read of them would score every shared topic 0;
  // its ElementScore must be the from-scratch arithmetic, bit for bit.
  testing::StreamGen gen(3);
  TopicModel model = gen.MakeModel();
  EngineConfig config;
  config.scoring.eta = 2.0;
  config.window_length = 6;
  config.bucket_length = 2;
  config.archive_retention = 10;
  config.score_maintenance = ScoreMaintenance::kRecompute;
  KsirEngine engine(config, &model);
  EXPECT_FALSE(engine.scoring().reads_score_cache());
  const ScoringContext scratch(&model, &engine.window(), config.scoring);
  const SparseVector x = gen.RandomQueryVector(0.5, 0.0);
  std::size_t positive = 0;
  for (Timestamp bucket_end = 2; bucket_end <= 40; bucket_end += 2) {
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, gen.NextBucket(bucket_end)).ok());
    for (const ElementId id : engine.window().ActiveIds()) {
      const ActiveWindow::SlotView found = engine.window().FindWithSlot(id);
      ASSERT_NE(found.user_data, nullptr);
      for (const ScoreCache::TopicHalves& row :
           *static_cast<const ScoreCache::TopicList*>(found.user_data)) {
        ASSERT_EQ(row.semantic, 0.0);
        ASSERT_EQ(row.influence, 0.0);
      }
      const double score = engine.scoring().ElementScore(*found.element, x,
                                                         found.user_data);
      EXPECT_EQ(score, scratch.ElementScore(*found.element, x)) << id;
      if (score > 0.0) ++positive;
    }
  }
  EXPECT_GT(positive, 0u);
}

TEST(CachedScoreRowsTest, MergeWindowHasNoCacheToRead) {
  // The planner's merge step replays exported snapshots into a bare
  // ActiveWindow (no maintainer) and scores it with a default context:
  // nothing fills the slots, and the context does not read them.
  testing::StreamGen gen(5);
  TopicModel model = gen.MakeModel();
  EngineConfig config;
  config.scoring.eta = 2.0;
  config.window_length = 6;
  config.bucket_length = 2;
  KsirEngine engine(config, &model);
  for (Timestamp bucket_end = 2; bucket_end <= 12; bucket_end += 2) {
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, gen.NextBucket(bucket_end)).ok());
  }
  std::vector<SocialElement> replay;
  for (const ElementSnapshot& snapshot :
       engine.ExportSnapshots(engine.window().ActiveIds())) {
    replay.push_back(snapshot.element);
    replay.back().refs.clear();
  }
  ASSERT_FALSE(replay.empty());
  std::sort(replay.begin(), replay.end(),
            [](const SocialElement& a, const SocialElement& b) {
              return a.ts != b.ts ? a.ts < b.ts : a.id < b.id;
            });
  const Timestamp max_ts = replay.back().ts;
  ActiveWindow merge_window(max_ts);
  ASSERT_TRUE(merge_window.Advance(max_ts, std::move(replay)).ok());
  const ScoringContext merge_ctx(&model, &merge_window, config.scoring);
  EXPECT_FALSE(merge_ctx.reads_score_cache());
  merge_window.ForEachActive([](const SocialElement& e, const void* slot) {
    EXPECT_EQ(slot, nullptr) << e.id;
  });
}

}  // namespace
}  // namespace ksir
