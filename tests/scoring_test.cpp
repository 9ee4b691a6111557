// Golden tests of the scoring semantics against the paper's worked examples
// (Examples 3.1, 3.2, 3.4 and the singleton scores of Figure 5), plus
// CandidateState marginal-gain consistency.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_state.h"
#include "core/scoring.h"
#include "paper_fixture.h"
#include "stream_gen.h"

namespace ksir {
namespace {

using ::ksir::testing::BalancedQueryVector;
using ::ksir::testing::MakePaperEngineAtT8;
using ::ksir::testing::SkewedQueryVector;

class PaperScoringTest : public ::testing::Test {
 protected:
  void SetUp() override { fixture_ = MakePaperEngineAtT8(); }

  const ScoringContext& ctx() const { return fixture_.engine->scoring(); }
  const ActiveWindow& window() const { return fixture_.engine->window(); }
  const SocialElement& e(ElementId id) const {
    const SocialElement* el = window().Find(id);
    KSIR_CHECK(el != nullptr);
    return *el;
  }

  ksir::testing::PaperEngine fixture_;
};

// ------------------------------------------------- Example 3.1 (semantic) --

TEST_F(PaperScoringTest, Example31SemanticScoreOfE2) {
  // R_2(e2) = 0.18 + 0.15 + 0.20 = 0.53.
  EXPECT_NEAR(ctx().SemanticScore(1, e(2)), 0.53, 0.01);
}

TEST_F(PaperScoringTest, Example31WordOverlapCountedOnce) {
  // Adding e7 to {e2} contributes nothing on theta_2: all of e7's words are
  // covered by e2 with larger weights.
  SparseVector x = SparseVector::FromEntries({{1, 1.0}});
  ScoringParams semantic_only{.lambda = 1.0, .eta = 1.0};
  ScoringContext semantic_ctx(&ctx().model(), &window(), semantic_only);
  CandidateState state(&semantic_ctx, &x);
  state.Add(e(2));
  EXPECT_NEAR(state.score(), 0.53, 0.01);
  EXPECT_NEAR(state.MarginalGain(e(7)), 0.0, 1e-9);
  state.Add(e(7));
  EXPECT_NEAR(state.score(), 0.53, 0.01);
}

TEST_F(PaperScoringTest, Example31SigmaWeights) {
  // sigma_2(w4, e2) = 0.18, sigma_2(w9, e2) = 0.15, sigma_2(w11, e2) = 0.20,
  // sigma_2(w4, e7) = 0.17, sigma_2(w11, e7) = 0.19 (w: 1-based in paper).
  EXPECT_NEAR(ctx().Sigma(1, 3, 1, 0.74), 0.18, 0.005);
  EXPECT_NEAR(ctx().Sigma(1, 8, 1, 0.74), 0.15, 0.005);
  EXPECT_NEAR(ctx().Sigma(1, 10, 1, 0.74), 0.20, 0.005);
  EXPECT_NEAR(ctx().Sigma(1, 3, 1, 0.67), 0.17, 0.005);
  EXPECT_NEAR(ctx().Sigma(1, 10, 1, 0.67), 0.19, 0.005);
}

// ------------------------------------------------ Example 3.2 (influence) --

TEST_F(PaperScoringTest, Example32InfluenceScoreOfSet) {
  // I_{2,8}({e2, e3}) = 0.03 + 0.50 + 0.40 = 0.93.
  SparseVector x = SparseVector::FromEntries({{1, 1.0}});
  ScoringParams influence_only{.lambda = 0.0, .eta = 1.0};
  ScoringContext influence_ctx(&ctx().model(), &window(), influence_only);
  CandidateState state(&influence_ctx, &x);
  state.Add(e(2));
  state.Add(e(3));
  EXPECT_NEAR(state.score(), 0.93, 0.01);
}

TEST_F(PaperScoringTest, Example32SingletonInfluences) {
  // p_2(e2 -> e7) = 0.50, p_2(e2 -> e8) = 0.3626 -> I_{2,8}(e2) = 0.858.
  EXPECT_NEAR(ctx().InfluenceScore(1, e(2)), 0.74 * 0.67 + 0.74 * 0.49, 1e-9);
  // e3's referrers on theta_2 are weak: I_{2,8}(e3) = 0.033 + 0.0539.
  EXPECT_NEAR(ctx().InfluenceScore(1, e(3)), 0.11 * 0.3 + 0.11 * 0.49, 1e-9);
}

TEST_F(PaperScoringTest, InfluenceRestrictedToWindow) {
  // e4 (ts 4) expired at t=8; its referral of e3 must not count on theta_1.
  // I_{1,8}(e3) = p_1(e3->e6) + p_1(e3->e8) = 0.89*0.7 + 0.89*0.51.
  EXPECT_NEAR(ctx().InfluenceScore(0, e(3)), 0.89 * 0.7 + 0.89 * 0.51, 1e-9);
}

TEST_F(PaperScoringTest, ProbabilisticCoverageCombinesReferrers) {
  // p_2(S -> e8) = 1 - (1 - 0.3626)(1 - 0.0539) = 0.3970 for S = {e2, e3}.
  SparseVector x = SparseVector::FromEntries({{1, 1.0}});
  ScoringParams influence_only{.lambda = 0.0, .eta = 1.0};
  ScoringContext influence_ctx(&ctx().model(), &window(), influence_only);
  CandidateState state(&influence_ctx, &x);
  state.Add(e(2));
  const double gain_e3 = state.MarginalGain(e(3));
  // e3's gain: p(e3->e6) + p(e3->e8) * (1 - p(e2->e8)).
  const double expected = 0.11 * 0.3 + (0.11 * 0.49) * (1.0 - 0.74 * 0.49);
  EXPECT_NEAR(gain_e3, expected, 1e-9);
}

// ---------------------------------------------- Figure 5 singleton scores --

TEST_F(PaperScoringTest, Figure5TopicScores) {
  const struct {
    ElementId id;
    double delta1;
    double delta2;
  } expected[] = {
      {1, 0.06, 0.56}, {2, 0.10, 0.48}, {3, 0.65, 0.03}, {5, 0.05, 0.27},
      {6, 0.48, 0.13}, {7, 0.06, 0.18}, {8, 0.17, 0.16},
  };
  for (const auto& row : expected) {
    EXPECT_NEAR(ctx().TopicScore(0, e(row.id)), row.delta1, 0.005)
        << "delta_1(e" << row.id << ")";
    EXPECT_NEAR(ctx().TopicScore(1, e(row.id)), row.delta2, 0.005)
        << "delta_2(e" << row.id << ")";
  }
}

TEST_F(PaperScoringTest, ElementScoreIsWeightedTopicSum) {
  const SparseVector x = BalancedQueryVector();
  for (ElementId id : {1, 2, 3, 5, 6, 7, 8}) {
    const double direct = ctx().ElementScore(e(id), x);
    const double composed =
        0.5 * ctx().TopicScore(0, e(id)) + 0.5 * ctx().TopicScore(1, e(id));
    EXPECT_NEAR(direct, composed, 1e-12);
  }
  // delta(e3, x) = 0.34 as in Example 4.1.
  EXPECT_NEAR(ctx().ElementScore(e(3), x), 0.34, 0.005);
}

TEST_F(PaperScoringTest, ZeroTopicProbabilityMeansZeroScore) {
  // e4 is gone, but e3 has p_2 > 0 and p on a nonexistent topic 2 -> 0.
  EXPECT_DOUBLE_EQ(ctx().TopicScore(1, e(3)) > 0.0, true);
  SparseVector x = SparseVector::FromEntries({{0, 1.0}});
  SocialElement only_theta2 = e(1);
  only_theta2.topics = SparseVector::FromEntries({{1, 1.0}});
  EXPECT_DOUBLE_EQ(ctx().ElementScore(only_theta2, x), 0.0);
}

// --------------------------------------------------- Example 3.4 (f(S,x)) --

TEST_F(PaperScoringTest, Example34BalancedQueryOptimum) {
  // f({e1, e3}, (0.5, 0.5)) = 0.65 (the paper's OPT).
  const SparseVector x = BalancedQueryVector();
  CandidateState state(&ctx(), &x);
  state.Add(e(1));
  state.Add(e(3));
  EXPECT_NEAR(state.score(), 0.65, 0.005);
}

TEST_F(PaperScoringTest, Example34SkewedQueryOptimum) {
  // f({e1, e2}, (0.1, 0.9)): the paper rounds to 0.94; exact arithmetic on
  // Table 1's two-decimal probabilities gives ~0.951 (see DESIGN.md §7).
  const SparseVector x = SkewedQueryVector();
  CandidateState state(&ctx(), &x);
  state.Add(e(1));
  state.Add(e(2));
  EXPECT_NEAR(state.score(), 0.951, 0.005);
}

// ------------------------------------------------ CandidateState behavior --

TEST_F(PaperScoringTest, MarginalGainMatchesScoreDelta) {
  const SparseVector x = BalancedQueryVector();
  CandidateState state(&ctx(), &x);
  for (ElementId id : {3, 1, 6, 2, 8}) {
    const double predicted = state.MarginalGain(e(id));
    const double before = state.score();
    const double realized = state.Add(e(id));
    EXPECT_NEAR(predicted, realized, 1e-12) << "element " << id;
    EXPECT_NEAR(state.score(), before + realized, 1e-12);
  }
}

TEST_F(PaperScoringTest, GainOfMemberIsZero) {
  const SparseVector x = BalancedQueryVector();
  CandidateState state(&ctx(), &x);
  state.Add(e(3));
  EXPECT_DOUBLE_EQ(state.MarginalGain(e(3)), 0.0);
  EXPECT_TRUE(state.Contains(3));
  EXPECT_FALSE(state.Contains(1));
}

TEST_F(PaperScoringTest, SingletonGainEqualsElementScore) {
  const SparseVector x = BalancedQueryVector();
  for (ElementId id : {1, 2, 3, 5, 6, 7, 8}) {
    CandidateState state(&ctx(), &x);
    EXPECT_NEAR(state.MarginalGain(e(id)), ctx().ElementScore(e(id), x), 1e-12);
  }
}

TEST_F(PaperScoringTest, AllTopicScoresCoversSupport) {
  const auto scores = ctx().AllTopicScores(e(3));
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0].first, 0);
  EXPECT_NEAR(scores[0].second, 0.65, 0.005);
  EXPECT_EQ(scores[1].first, 1);
  EXPECT_NEAR(scores[1].second, 0.03, 0.005);
}

// ------------------------------- CandidateState vs. a topic-major walk ----

/// The loop order CandidateState used before its single referrer pass: per
/// query topic, a full walk of I_t(e) with one window probe per referrer.
/// Kept here as the reference the one-pass gains must equal bit for bit.
class TopicMajorCandidate {
 public:
  TopicMajorCandidate(const ScoringContext* ctx, const SparseVector* x)
      : ctx_(ctx) {
    for (const auto& [topic, weight] : x->entries()) {
      if (weight > 0.0) topics_.push_back(TopicState{topic, weight, {}, {}});
    }
  }

  double MarginalGain(const SocialElement& e) const {
    if (members_.contains(e.id)) return 0.0;
    double gain = 0.0;
    for (const TopicState& state : topics_) {
      const double p_e = e.topics.Get(state.topic);
      if (p_e <= 0.0) continue;
      double semantic_gain = 0.0;
      for (const auto& [word, count] : e.doc.word_counts()) {
        const double sigma = ctx_->Sigma(state.topic, word, count, p_e);
        if (sigma <= 0.0) continue;
        const auto it = state.best_sigma.find(word);
        const double best = it == state.best_sigma.end() ? 0.0 : it->second;
        if (sigma > best) semantic_gain += sigma - best;
      }
      double influence_gain = 0.0;
      for (const Referrer& r : ctx_->window().ReferrersOf(e.id)) {
        const SocialElement* referrer = ctx_->window().Find(r.id);
        const double p_edge = p_e * referrer->topics.Get(state.topic);
        if (p_edge <= 0.0) continue;
        const auto it = state.survive.find(r.id);
        influence_gain +=
            p_edge * (it == state.survive.end() ? 1.0 : it->second);
      }
      gain += state.query_weight *
              (ctx_->params().lambda * semantic_gain +
               ctx_->influence_factor() * influence_gain);
    }
    return gain;
  }

  double Add(const SocialElement& e) {
    double gain = 0.0;
    for (TopicState& state : topics_) {
      const double p_e = e.topics.Get(state.topic);
      if (p_e <= 0.0) continue;
      double semantic_gain = 0.0;
      for (const auto& [word, count] : e.doc.word_counts()) {
        const double sigma = ctx_->Sigma(state.topic, word, count, p_e);
        if (sigma <= 0.0) continue;
        auto [it, inserted] = state.best_sigma.try_emplace(word, sigma);
        if (inserted) {
          semantic_gain += sigma;
        } else if (sigma > it->second) {
          semantic_gain += sigma - it->second;
          it->second = sigma;
        }
      }
      double influence_gain = 0.0;
      for (const Referrer& r : ctx_->window().ReferrersOf(e.id)) {
        const SocialElement* referrer = ctx_->window().Find(r.id);
        const double p_edge = p_e * referrer->topics.Get(state.topic);
        if (p_edge <= 0.0) continue;
        auto [it, inserted] = state.survive.try_emplace(r.id, 1.0);
        influence_gain += p_edge * it->second;
        it->second *= (1.0 - p_edge);
      }
      gain += state.query_weight *
              (ctx_->params().lambda * semantic_gain +
               ctx_->influence_factor() * influence_gain);
    }
    members_.insert(e.id);
    score_ += gain;
    return gain;
  }

  double score() const { return score_; }

 private:
  struct TopicState {
    TopicId topic;
    double query_weight;
    std::unordered_map<WordId, double> best_sigma;
    std::unordered_map<ElementId, double> survive;
  };

  const ScoringContext* ctx_;
  std::vector<TopicState> topics_;
  std::unordered_set<ElementId> members_;
  double score_ = 0.0;
};

TEST(CandidateStateOrderTest, OneReferrerPassMatchesTopicMajorBitwise) {
  // Random states over streams where every element also refers to three
  // hubs (elements 1-3, kept active by their referrers, so each has a long
  // referrer set) and whose elements and queries span several topics:
  // every gain and every running score must be bitwise equal to the
  // topic-major reference, which a change of per-topic sum order breaks.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    testing::StreamGenConfig gen_config;
    gen_config.num_topics = 6;
    gen_config.ref_reach = 4;
    gen_config.max_bucket_elements = 8;
    testing::StreamGen gen(seed, gen_config);
    TopicModel model = gen.MakeModel();
    EngineConfig config;
    config.scoring.lambda = 0.3;
    config.scoring.eta = 2.0;
    config.window_length = 8;
    config.bucket_length = 2;
    KsirEngine engine(config, &model);
    std::size_t checked = 0;
    std::size_t long_walks = 0;
    constexpr ElementId kNumHubs = 3;
    for (Timestamp bucket_end = 2; bucket_end <= 40; bucket_end += 2) {
      std::vector<SocialElement> bucket = gen.NextBucket(bucket_end);
      for (SocialElement& e : bucket) {
        for (ElementId hub = 1; hub <= kNumHubs && hub < e.id; ++hub) {
          e.refs.push_back(hub);
        }
      }
      ASSERT_TRUE(engine.AdvanceTo(bucket_end, std::move(bucket)).ok());
      if (bucket_end % 8 != 0) continue;
      const ActiveWindow& window = engine.window();
      std::vector<ElementId> ids = window.ActiveIds();
      if (ids.empty()) continue;
      std::sort(ids.begin(), ids.end());
      for (int q = 0; q < 4; ++q) {
        const SparseVector x = gen.RandomQueryVector(0.8, 0.05);
        CandidateState state(&engine.scoring(), &x);
        TopicMajorCandidate reference(&engine.scoring(), &x);
        for (int step = 0; step < 24; ++step) {
          const ElementId id =
              step % 2 == 0 ? ids[gen.rng().NextUint64(ids.size())]
                            : 1 + static_cast<ElementId>(
                                      gen.rng().NextUint64(kNumHubs));
          if (window.Find(id) == nullptr) continue;  // a hub not yet seen
          const SocialElement& e = *window.Find(id);
          if (window.ReferrersOf(id).size() >= 3) ++long_walks;
          ASSERT_EQ(state.MarginalGain(e), reference.MarginalGain(e))
              << "seed=" << seed << " t=" << bucket_end << " e=" << id;
          ++checked;
          if (!state.Contains(id) && gen.rng().NextUint64(2) == 0) {
            ASSERT_EQ(state.Add(e), reference.Add(e))
                << "seed=" << seed << " t=" << bucket_end << " e=" << id;
            ASSERT_EQ(state.score(), reference.score());
          }
        }
      }
    }
    EXPECT_GT(checked, 0u);
    EXPECT_GT(long_walks, 0u);
  }
}

}  // namespace
}  // namespace ksir
