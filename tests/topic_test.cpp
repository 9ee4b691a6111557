// Unit tests for the topic substrate: TopicModel container, LDA and BTM
// training (topic recovery on a separable synthetic corpus), inference and
// query-vector construction.
#include <cmath>
#include <numeric>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "text/corpus.h"
#include "topic/btm.h"
#include "topic/drift.h"
#include "topic/user_profile.h"
#include "topic/inference.h"
#include "topic/lda.h"
#include "topic/query_inference.h"
#include "topic/topic_model.h"

namespace ksir {
namespace {

// Builds a corpus of `docs_per_topic` documents per topic where topic i owns
// the word block [i * block, (i+1) * block). Documents draw `doc_len` words
// from their topic's block (plus light noise), giving a cleanly separable
// corpus for recovery tests.
struct SyntheticCorpus {
  Vocabulary vocab;
  std::unique_ptr<Corpus> corpus;
  std::vector<int> doc_topic;  // ground-truth topic per document
  int num_topics;
  int block;
};

SyntheticCorpus MakeSeparableCorpus(int num_topics, int block,
                                    int docs_per_topic, int doc_len,
                                    double noise, std::uint64_t seed) {
  SyntheticCorpus out;
  out.num_topics = num_topics;
  out.block = block;
  for (int w = 0; w < num_topics * block; ++w) {
    // Appending to a prefix string instead of `"w" + std::to_string(w)`:
    // GCC 12's inlined operator+ flags the latter with a false -Wrestrict.
    std::string name = "w";
    name += std::to_string(w);
    out.vocab.GetOrAdd(name);
  }
  out.corpus = std::make_unique<Corpus>(&out.vocab);
  Rng rng(seed);
  for (int t = 0; t < num_topics; ++t) {
    for (int d = 0; d < docs_per_topic; ++d) {
      std::vector<WordId> words;
      for (int j = 0; j < doc_len; ++j) {
        int topic = t;
        if (rng.NextDouble() < noise) {
          topic = static_cast<int>(rng.NextUint64(num_topics));
        }
        const auto word = static_cast<WordId>(
            topic * block + static_cast<int>(rng.NextUint64(block)));
        words.push_back(word);
      }
      out.corpus->Add(Document::FromWordIds(words));
      out.doc_topic.push_back(t);
    }
  }
  return out;
}

// ------------------------------------------------------------- TopicModel --

TEST(TopicModelTest, FromMatrixNormalizesRows) {
  auto model = TopicModel::FromMatrix({{2.0, 2.0}, {1.0, 3.0}});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->WordProb(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(model->WordProb(1, 1), 0.75, 1e-12);
}

TEST(TopicModelTest, RowsSumToOne) {
  auto model = TopicModel::FromMatrix({{0.3, 0.2, 0.5}, {0.9, 0.05, 0.05}});
  ASSERT_TRUE(model.ok());
  for (TopicId t = 0; t < 2; ++t) {
    const auto& row = model->TopicRow(t);
    EXPECT_NEAR(std::accumulate(row.begin(), row.end(), 0.0), 1.0, 1e-12);
  }
}

TEST(TopicModelTest, RejectsEmptyAndRaggedAndNegative) {
  EXPECT_FALSE(TopicModel::FromMatrix({}).ok());
  EXPECT_FALSE(TopicModel::FromMatrix({{}}).ok());
  EXPECT_FALSE(TopicModel::FromMatrix({{0.5, 0.5}, {1.0}}).ok());
  EXPECT_FALSE(TopicModel::FromMatrix({{0.5, -0.5}}).ok());
}

TEST(TopicModelTest, UniformPriorByDefault) {
  auto model = TopicModel::FromMatrix({{1.0, 0.0}, {0.0, 1.0}});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->topic_prior()[0], 0.5, 1e-12);
  EXPECT_NEAR(model->topic_prior()[1], 0.5, 1e-12);
}

TEST(TopicModelTest, CustomPriorIsNormalized) {
  auto model = TopicModel::FromMatrix({{1.0, 0.0}, {0.0, 1.0}}, {3.0, 1.0});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->topic_prior()[0], 0.75, 1e-12);
}

TEST(TopicModelTest, WordProbOutOfVocabularyIsZero) {
  auto model = TopicModel::FromMatrix({{0.4, 0.6}});
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->WordProb(0, 17), 0.0);
  EXPECT_DOUBLE_EQ(model->WordProb(0, kInvalidWordId), 0.0);
}

TEST(TopicModelTest, TopWordsSortedByProbability) {
  auto model = TopicModel::FromMatrix({{0.1, 0.5, 0.15, 0.25}});
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->TopWords(0, 2), (std::vector<WordId>{1, 3}));
  EXPECT_EQ(model->TopWords(0, 10).size(), 4u);
}

TEST(TopicModelTest, SaveLoadRoundTrip) {
  auto model = TopicModel::FromMatrix({{0.25, 0.75}, {0.6, 0.4}}, {0.3, 0.7});
  ASSERT_TRUE(model.ok());
  std::stringstream buffer;
  ASSERT_TRUE(model->Save(&buffer).ok());
  auto loaded = TopicModel::Load(&buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_topics(), 2u);
  EXPECT_EQ(loaded->vocab_size(), 2u);
  EXPECT_NEAR(loaded->WordProb(0, 1), 0.75, 1e-12);
  EXPECT_NEAR(loaded->topic_prior()[1], 0.7, 1e-12);
}

TEST(TopicModelTest, LoadRejectsGarbage) {
  std::stringstream buffer("not-a-model 1\n");
  EXPECT_FALSE(TopicModel::Load(&buffer).ok());
}

// -------------------------------------------------------------------- LDA --

TEST(LdaTest, RejectsBadOptions) {
  Vocabulary vocab;
  vocab.GetOrAdd("x");
  Corpus corpus(&vocab);
  corpus.Add(Document::FromWordIds({0}));
  EXPECT_FALSE(LdaTrainer(LdaOptions{.num_topics = 0}).Train(corpus).ok());
  EXPECT_FALSE(
      LdaTrainer(LdaOptions{.iterations = 10, .burn_in = 10}).Train(corpus).ok());
  EXPECT_FALSE(LdaTrainer(LdaOptions{.beta = 0.0}).Train(corpus).ok());
}

TEST(LdaTest, RejectsEmptyCorpus) {
  Vocabulary vocab;
  vocab.GetOrAdd("x");
  Corpus corpus(&vocab);
  EXPECT_FALSE(LdaTrainer().Train(corpus).ok());
}

TEST(LdaTest, RecoversSeparableTopics) {
  auto data = MakeSeparableCorpus(/*num_topics=*/4, /*block=*/20,
                                  /*docs_per_topic=*/60, /*doc_len=*/25,
                                  /*noise=*/0.05, /*seed=*/5);
  LdaOptions options;
  options.num_topics = 4;
  options.iterations = 80;
  options.burn_in = 40;
  options.seed = 5;
  auto result = LdaTrainer(options).Train(*data.corpus);
  ASSERT_TRUE(result.ok());

  // Every learned topic should concentrate most of its mass on one
  // ground-truth block.
  int matched = 0;
  std::vector<bool> block_used(4, false);
  for (TopicId t = 0; t < 4; ++t) {
    const auto& row = result->model.TopicRow(t);
    std::vector<double> block_mass(4, 0.0);
    for (std::size_t w = 0; w < row.size(); ++w) {
      block_mass[w / 20] += row[w];
    }
    const auto best =
        std::max_element(block_mass.begin(), block_mass.end()) -
        block_mass.begin();
    if (block_mass[best] > 0.7 && !block_used[best]) {
      block_used[best] = true;
      ++matched;
    }
  }
  EXPECT_EQ(matched, 4) << "each learned topic should own one word block";
}

TEST(LdaTest, DocTopicMixturesMatchGroundTruth) {
  auto data = MakeSeparableCorpus(3, 15, 50, 20, 0.05, 7);
  LdaOptions options;
  options.num_topics = 3;
  options.iterations = 60;
  options.burn_in = 30;
  options.seed = 7;
  auto result = LdaTrainer(options).Train(*data.corpus);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->doc_topic.size(), data.corpus->size());

  // Documents with the same ground-truth topic should share their argmax
  // learned topic far more often than not.
  int agree = 0;
  int total = 0;
  for (std::size_t d = 0; d < result->doc_topic.size(); ++d) {
    const auto& theta = result->doc_topic[d];
    EXPECT_NEAR(std::accumulate(theta.begin(), theta.end(), 0.0), 1.0, 1e-6);
    for (std::size_t d2 = d + 1; d2 < result->doc_topic.size(); ++d2) {
      const bool same_truth = data.doc_topic[d] == data.doc_topic[d2];
      const auto am1 = std::max_element(theta.begin(), theta.end()) -
                       theta.begin();
      const auto& theta2 = result->doc_topic[d2];
      const auto am2 = std::max_element(theta2.begin(), theta2.end()) -
                       theta2.begin();
      if (same_truth == (am1 == am2)) ++agree;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.9);
}

TEST(LdaTest, DeterministicForSeed) {
  auto data = MakeSeparableCorpus(2, 10, 20, 15, 0.1, 11);
  LdaOptions options;
  options.num_topics = 2;
  options.iterations = 20;
  options.burn_in = 10;
  options.seed = 99;
  auto a = LdaTrainer(options).Train(*data.corpus);
  auto b = LdaTrainer(options).Train(*data.corpus);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (TopicId t = 0; t < 2; ++t) {
    EXPECT_EQ(a->model.TopicRow(t), b->model.TopicRow(t));
  }
}

// -------------------------------------------------------------------- BTM --

TEST(BtmTest, ExtractBitermsAllPairsWithinWindow) {
  const auto biterms = ExtractBiterms({1, 2, 3}, 15);
  ASSERT_EQ(biterms.size(), 3u);
  EXPECT_EQ(biterms[0], std::make_pair(WordId{1}, WordId{2}));
  EXPECT_EQ(biterms[1], std::make_pair(WordId{1}, WordId{3}));
  EXPECT_EQ(biterms[2], std::make_pair(WordId{2}, WordId{3}));
}

TEST(BtmTest, ExtractBitermsRespectsWindow) {
  const auto biterms = ExtractBiterms({1, 2, 3, 4}, 1);
  ASSERT_EQ(biterms.size(), 3u);  // only adjacent pairs
}

TEST(BtmTest, ExtractBitermsNormalizesOrderAndSkipsSelfPairs) {
  const auto biterms = ExtractBiterms({5, 2, 5}, 15);
  // Pairs: (5,2)->(2,5), (5,5) skipped, (2,5).
  ASSERT_EQ(biterms.size(), 2u);
  EXPECT_EQ(biterms[0], std::make_pair(WordId{2}, WordId{5}));
  EXPECT_EQ(biterms[1], std::make_pair(WordId{2}, WordId{5}));
}

TEST(BtmTest, SingleWordDocsYieldNoBiterms) {
  EXPECT_TRUE(ExtractBiterms({3}, 15).empty());
  EXPECT_TRUE(ExtractBiterms({}, 15).empty());
}

TEST(BtmTest, RecoversSeparableTopicsOnShortTexts) {
  auto data = MakeSeparableCorpus(/*num_topics=*/3, /*block=*/12,
                                  /*docs_per_topic=*/80, /*doc_len=*/5,
                                  /*noise=*/0.05, /*seed=*/13);
  BtmOptions options;
  options.num_topics = 3;
  options.iterations = 60;
  options.burn_in = 30;
  options.seed = 13;
  auto model = BtmTrainer(options).Train(*data.corpus);
  ASSERT_TRUE(model.ok());
  int matched = 0;
  std::vector<bool> used(3, false);
  for (TopicId t = 0; t < 3; ++t) {
    const auto& row = model->TopicRow(t);
    std::vector<double> block_mass(3, 0.0);
    for (std::size_t w = 0; w < row.size(); ++w) block_mass[w / 12] += row[w];
    const auto best = std::max_element(block_mass.begin(), block_mass.end()) -
                      block_mass.begin();
    if (block_mass[best] > 0.7 && !used[best]) {
      used[best] = true;
      ++matched;
    }
  }
  EXPECT_EQ(matched, 3);
}

TEST(BtmTest, FailsOnCorpusWithoutBiterms) {
  Vocabulary vocab;
  vocab.GetOrAdd("solo");
  Corpus corpus(&vocab);
  corpus.Add(Document::FromWordIds({0}));  // one word -> no biterms
  EXPECT_FALSE(BtmTrainer().Train(corpus).ok());
}

// -------------------------------------------------------------- Inference --

class InferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two fully separated topics over 6 words.
    auto model = TopicModel::FromMatrix({
        {0.5, 0.3, 0.2, 0.0, 0.0, 0.0},
        {0.0, 0.0, 0.0, 0.2, 0.3, 0.5},
    });
    ASSERT_TRUE(model.ok());
    model_ = std::make_unique<TopicModel>(std::move(model).value());
  }
  std::unique_ptr<TopicModel> model_;
};

TEST_F(InferenceTest, GibbsAssignsDominantTopic) {
  TopicInferencer inferencer(model_.get());
  const auto theta = inferencer.InferDense(Document::FromWordIds({0, 1, 2, 0}));
  ASSERT_EQ(theta.size(), 2u);
  EXPECT_GT(theta[0], 0.85);
}

TEST_F(InferenceTest, GibbsSplitsMixedDocument) {
  TopicInferencer inferencer(model_.get());
  const auto theta =
      inferencer.InferDense(Document::FromWordIds({0, 1, 4, 5}));
  EXPECT_GT(theta[0], 0.25);
  EXPECT_GT(theta[1], 0.25);
}

TEST_F(InferenceTest, EmptyDocumentFallsBackToPrior) {
  TopicInferencer inferencer(model_.get());
  const auto theta = inferencer.InferDense(Document());
  EXPECT_EQ(theta, model_->topic_prior());
}

TEST_F(InferenceTest, OutOfVocabularyDocumentFallsBackToPrior) {
  TopicInferencer inferencer(model_.get());
  const auto theta = inferencer.InferDense(Document::FromWordIds({42, 99}));
  EXPECT_EQ(theta, model_->topic_prior());
}

TEST_F(InferenceTest, SparseInferenceTruncatesAndNormalizes) {
  InferenceOptions options;
  options.sparsity_threshold = 0.2;
  TopicInferencer inferencer(model_.get(), options);
  const auto sparse =
      inferencer.InferSparse(Document::FromWordIds({0, 0, 0, 0}));
  EXPECT_GE(sparse.nnz(), 1u);
  EXPECT_NEAR(sparse.Sum(), 1.0, 1e-9);
  EXPECT_GT(sparse.Get(0), 0.8);
}

TEST_F(InferenceTest, BitermInferenceMatchesDominantTopic) {
  InferenceOptions options;
  options.method = InferenceMethod::kBiterm;
  TopicInferencer inferencer(model_.get(), options);
  const auto theta =
      inferencer.InferDense(Document::FromWordIds({3, 4, 5}));
  EXPECT_GT(theta[1], 0.9);
}

TEST_F(InferenceTest, BitermFallsBackToGibbsOnSingleWord) {
  InferenceOptions options;
  options.method = InferenceMethod::kBiterm;
  TopicInferencer inferencer(model_.get(), options);
  const auto theta = inferencer.InferDense(Document::FromWordIds({5}));
  EXPECT_GT(theta[1], 0.6);  // still informative via the Gibbs fallback
}

TEST_F(InferenceTest, DeterministicForSameSalt) {
  TopicInferencer inferencer(model_.get());
  const Document doc = Document::FromWordIds({0, 1, 3, 5});
  EXPECT_EQ(inferencer.InferDense(doc, 3), inferencer.InferDense(doc, 3));
}

// ------------------------------------------------------------ Drift ------

TEST(DriftTest, NoDriftWhenUsageMatchesPrior) {
  auto model = TopicModel::FromMatrix({{1.0, 0.0}, {0.0, 1.0}}, {0.7, 0.3});
  ASSERT_TRUE(model.ok());
  ConceptDriftMonitor::Options options;
  options.min_observations = 10;
  ConceptDriftMonitor monitor(&*model, options);
  // Observations distributed exactly like the prior.
  for (int i = 0; i < 100; ++i) {
    monitor.Observe(SparseVector::FromEntries({{0, 0.7}, {1, 0.3}}));
  }
  EXPECT_LT(monitor.CurrentDrift(), 0.01);
  EXPECT_FALSE(monitor.RetrainRecommended());
}

TEST(DriftTest, DetectsShiftedTopicUsage) {
  auto model = TopicModel::FromMatrix({{1.0, 0.0}, {0.0, 1.0}}, {0.9, 0.1});
  ASSERT_TRUE(model.ok());
  ConceptDriftMonitor::Options options;
  options.min_observations = 10;
  options.drift_threshold = 0.2;
  ConceptDriftMonitor monitor(&*model, options);
  // The stream has moved entirely to the minority topic.
  for (int i = 0; i < 100; ++i) {
    monitor.Observe(SparseVector::FromEntries({{1, 1.0}}));
  }
  EXPECT_GT(monitor.CurrentDrift(), 0.5);
  EXPECT_TRUE(monitor.RetrainRecommended());
}

TEST(DriftTest, WarmupSuppressesRecommendation) {
  auto model = TopicModel::FromMatrix({{1.0, 0.0}, {0.0, 1.0}}, {0.9, 0.1});
  ASSERT_TRUE(model.ok());
  ConceptDriftMonitor::Options options;
  options.min_observations = 50;
  ConceptDriftMonitor monitor(&*model, options);
  for (int i = 0; i < 49; ++i) {
    monitor.Observe(SparseVector::FromEntries({{1, 1.0}}));
  }
  EXPECT_FALSE(monitor.RetrainRecommended());  // drift high but warming up
  monitor.Observe(SparseVector::FromEntries({{1, 1.0}}));
  EXPECT_TRUE(monitor.RetrainRecommended());
}

TEST(DriftTest, SlidingWindowForgetsOldRegime) {
  auto model = TopicModel::FromMatrix({{1.0, 0.0}, {0.0, 1.0}}, {0.5, 0.5});
  ASSERT_TRUE(model.ok());
  ConceptDriftMonitor::Options options;
  options.window_size = 50;
  options.min_observations = 10;
  ConceptDriftMonitor monitor(&*model, options);
  // Old drifted regime fully displaced by on-prior traffic.
  for (int i = 0; i < 50; ++i) {
    monitor.Observe(SparseVector::FromEntries({{0, 1.0}}));
  }
  const double drifted = monitor.CurrentDrift();
  for (int i = 0; i < 50; ++i) {
    monitor.Observe(SparseVector::FromEntries({{0, 0.5}, {1, 0.5}}));
  }
  EXPECT_GT(drifted, 0.2);
  EXPECT_LT(monitor.CurrentDrift(), 0.01);
  EXPECT_EQ(monitor.num_observations(), 100u);
}

TEST(DriftTest, EmptyMonitorReportsZero) {
  auto model = TopicModel::FromMatrix({{1.0}});
  ASSERT_TRUE(model.ok());
  ConceptDriftMonitor monitor(&*model);
  EXPECT_DOUBLE_EQ(monitor.CurrentDrift(), 0.0);
  EXPECT_FALSE(monitor.RetrainRecommended());
}

// -------------------------------------------------------- QueryInference --

TEST_F(InferenceTest, QueryFromKeywords) {
  Vocabulary vocab;
  for (const char* w : {"goal", "match", "league", "court", "dunk", "nba"}) {
    vocab.GetOrAdd(w);
  }
  TopicInferencer inferencer(model_.get());
  QueryVectorBuilder builder(&inferencer, &vocab);
  const auto x = builder.FromKeywords({"goal", "match"});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x->Sum(), 1.0, 1e-9);
  EXPECT_GT(x->Get(0), 0.5);
}

TEST_F(InferenceTest, QueryIgnoresUnknownKeywords) {
  Vocabulary vocab;
  vocab.GetOrAdd("goal");
  TopicInferencer inferencer(model_.get());
  QueryVectorBuilder builder(&inferencer, &vocab);
  const auto x = builder.FromKeywords({"goal", "zzz-unknown"});
  ASSERT_TRUE(x.ok());
  EXPECT_GT(x->Get(0), 0.5);
}

TEST_F(InferenceTest, QueryFailsWhenNoKeywordKnown) {
  Vocabulary vocab;
  vocab.GetOrAdd("goal");
  TopicInferencer inferencer(model_.get());
  QueryVectorBuilder builder(&inferencer, &vocab);
  EXPECT_FALSE(builder.FromKeywords({"zzz"}).ok());
  EXPECT_FALSE(builder.FromKeywords({}).ok());
}

TEST_F(InferenceTest, QueryByDocument) {
  Vocabulary vocab;
  TopicInferencer inferencer(model_.get());
  QueryVectorBuilder builder(&inferencer, &vocab);
  const auto x = builder.FromDocument(Document::FromWordIds({3, 4, 5}));
  ASSERT_TRUE(x.ok());
  EXPECT_GT(x->Get(1), 0.5);
  EXPECT_FALSE(builder.FromDocument(Document()).ok());
}

// ------------------------------------------------------------ UserProfile --

TEST_F(InferenceTest, UserProfileBlendsRecentPosts) {
  TopicInferencer inferencer(model_.get());
  UserProfile profile(&inferencer);
  // Posts on topic 0 only.
  ASSERT_TRUE(profile.AddPost(Document::FromWordIds({0, 1, 2}), 100).ok());
  ASSERT_TRUE(profile.AddPost(Document::FromWordIds({0, 0, 1}), 200).ok());
  auto interest = profile.InterestVector(300);
  ASSERT_TRUE(interest.ok());
  EXPECT_GT(interest->Get(0), 0.8);
  EXPECT_NEAR(interest->Sum(), 1.0, 1e-9);
}

TEST_F(InferenceTest, UserProfileDecayShiftsInterest) {
  UserProfileOptions options;
  options.decay_half_life = 10;
  TopicInferencer inferencer(model_.get());
  UserProfile profile(&inferencer, options);
  // Old topic-0 post, fresh topic-1 post.
  ASSERT_TRUE(profile.AddPost(Document::FromWordIds({0, 1, 2, 0}), 0).ok());
  ASSERT_TRUE(
      profile.AddPost(Document::FromWordIds({3, 4, 5, 5}), 100).ok());
  auto interest = profile.InterestVector(100);
  ASSERT_TRUE(interest.ok());
  // The 100-unit-old post decayed through 10 half-lives: ~1/1024 weight.
  EXPECT_GT(interest->Get(1), 0.95);
}

TEST_F(InferenceTest, UserProfileValidation) {
  TopicInferencer inferencer(model_.get());
  UserProfile profile(&inferencer);
  EXPECT_FALSE(profile.InterestVector(0).ok());  // no posts yet
  EXPECT_FALSE(profile.AddPost(Document(), 1).ok());
  ASSERT_TRUE(profile.AddPost(Document::FromWordIds({0}), 10).ok());
  EXPECT_FALSE(profile.AddPost(Document::FromWordIds({1}), 5).ok());  // back in time
}

TEST_F(InferenceTest, UserProfileCapsPostCount) {
  UserProfileOptions options;
  options.max_posts = 3;
  TopicInferencer inferencer(model_.get());
  UserProfile profile(&inferencer, options);
  for (Timestamp t = 1; t <= 10; ++t) {
    ASSERT_TRUE(profile.AddPost(Document::FromWordIds({0, 1}), t).ok());
  }
  EXPECT_EQ(profile.num_posts(), 3u);
}

}  // namespace
}  // namespace ksir
