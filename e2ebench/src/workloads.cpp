#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "text/document.h"
#include "topic/inference.h"

namespace e2e {

namespace {

using ksir::Algorithm;
using ksir::KsirQuery;
using ksir::SparseVector;
using ksir::Timestamp;

constexpr Timestamp kHour = 3600;
constexpr Timestamp kBucket = 15 * 60;
constexpr Algorithm kRotation[] = {Algorithm::kMtts, Algorithm::kMttd,
                                   Algorithm::kCelf};

/// Shape of one workload before the seed is applied.
struct Spec {
  ksir::StreamProfile profile;
  Timestamp window = 24 * kHour;
  double elements_per_hour = 0.0;
  /// Measured buckets per second of --seconds (sized so that one run
  /// measures for about --seconds on a 4-core machine), at least 200.
  double buckets_per_second = 0.0;
  double max_shard_imbalance = 0.0;
  std::uint64_t salt = 0;
};

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer: nearby seeds give unrelated streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// eta = mean singleton influence / mean singleton semantic score over the
/// stream, which puts R and I on the same scale as the paper's eta does on
/// its corpora.
double CalibrateEta(const ksir::GeneratedStream& stream, Timestamp window) {
  double semantic = 0.0;
  for (const ksir::SocialElement& e : stream.elements) {
    for (const auto& [topic, p_e] : e.topics.entries()) {
      for (const auto& [word, count] : e.doc.word_counts()) {
        const double p = stream.model.WordProb(topic, word) * p_e;
        if (p > 0.0) semantic -= static_cast<double>(count) * p * std::log(p);
      }
    }
  }
  double influence = 0.0;
  for (const ksir::SocialElement& e : stream.elements) {
    for (ksir::ElementId ref : e.refs) {
      const ksir::SocialElement& target = stream.elements[ref];
      if (e.ts - target.ts >= window) continue;
      influence += SparseVector::Dot(e.topics, target.topics);
    }
  }
  if (semantic <= 0.0) return 1.0;
  return std::max(influence / semantic, 1e-4);
}

/// `count` keyword queries. Query i is typed about topic i mod z: 3-5
/// keywords drawn from that topic's word distribution, turned into a topic
/// vector by Gibbs inference against the model. Anchoring each query on a
/// topic rank (topic popularity is Zipf by index) keeps the query mix's
/// cost the same from seed to seed while the words and vectors change.
std::vector<SparseVector> KeywordVectors(const ksir::GeneratedStream& stream,
                                         std::size_t count,
                                         std::uint64_t seed) {
  const ksir::TopicModel& model = stream.model;
  std::vector<ksir::AliasTable> samplers;
  for (std::size_t t = 0; t < model.num_topics(); ++t) {
    samplers.emplace_back(model.TopicRow(static_cast<ksir::TopicId>(t)));
  }
  ksir::Rng rng(seed);
  ksir::InferenceOptions options;
  options.iterations = 20;
  options.burn_in = 8;
  ksir::TopicInferencer inferencer(&model, options);
  std::vector<SparseVector> vectors;
  for (std::uint64_t salt = 0; vectors.size() < count; ++salt) {
    const ksir::AliasTable& words = samplers[vectors.size() % samplers.size()];
    std::vector<ksir::WordId> keywords(3 + rng.NextUint64(3));
    for (auto& w : keywords) {
      w = static_cast<ksir::WordId>(words.Sample(&rng));
    }
    SparseVector x = inferencer.InferSparse(
        ksir::Document::FromWordIds(keywords), salt);
    if (x.empty()) continue;
    x.NormalizeL1();
    vectors.push_back(std::move(x));
  }
  return vectors;
}

KsirQuery MakeQuery(SparseVector x, Algorithm algorithm, std::int32_t k) {
  KsirQuery query;
  query.k = k;
  query.x = std::move(x);
  query.algorithm = algorithm;
  query.epsilon = 0.1;
  return query;
}

Spec HubSpec() {
  // hotpath_bench's reposition-heavy profile: ~20 references per element
  // picked mostly by popularity, so hubs gather large in-degrees and are
  // repositioned bucket after bucket.
  Spec spec;
  ksir::StreamProfile& p = spec.profile;
  p.name = "ingest_hub";
  p.vocab_size = 8000;
  p.num_topics = 50;
  p.avg_length = 16.0;
  p.avg_references = 20.0;
  p.max_references = 128;
  p.ref_horizon = 48 * kHour;
  p.ref_recency_tau = 48 * kHour;
  p.ref_popularity_weight = 0.9;
  p.ref_candidate_pool = 1024;
  spec.window = 48 * kHour;
  spec.elements_per_hour = 1000.0;  // the bench's paper scale
  spec.buckets_per_second = 30.0;
  spec.max_shard_imbalance = 2.0;
  spec.salt = 1;
  return spec;
}

Spec MixSpec() {
  Spec spec;
  spec.profile = ksir::RedditSimProfile(8.0);
  spec.profile.name = "query_mix";
  spec.window = 24 * kHour;
  spec.elements_per_hour =
      static_cast<double>(spec.profile.num_elements) /
      (static_cast<double>(spec.profile.duration) / kHour);
  spec.buckets_per_second = 20.0;
  spec.salt = 2;
  return spec;
}

Spec FanoutSpec() {
  // Sparse topics and a thin stream: each bucket moves only a fraction of
  // the 512 topics, the regime the inverted subscription index skips in.
  Spec spec;
  ksir::StreamProfile& p = spec.profile;
  p.name = "subscribe_fanout";
  p.vocab_size = 8000;
  p.num_topics = 512;
  p.avg_length = 8.0;
  p.avg_references = 2.0;
  p.ref_horizon = 24 * kHour;
  p.ref_recency_tau = 6 * kHour;
  spec.window = 24 * kHour;
  spec.elements_per_hour = 80.0;
  spec.buckets_per_second = 30.0;
  spec.salt = 3;
  return spec;
}

}  // namespace

ksir::StatusOr<Workload> MakeWorkload(const std::string& name,
                                      std::uint64_t seed, int seconds) {
  Spec spec;
  if (name == "ingest_hub") {
    spec = HubSpec();
  } else if (name == "query_mix") {
    spec = MixSpec();
  } else if (name == "subscribe_fanout") {
    spec = FanoutSpec();
  } else {
    return ksir::Status::InvalidArgument("unknown workload " + name);
  }
  const std::size_t measured = std::max<std::size_t>(
      200, static_cast<std::size_t>(
               std::llround(spec.buckets_per_second * seconds)));
  const Timestamp warmup_buckets = spec.window / kBucket;
  const Timestamp duration =
      (warmup_buckets + static_cast<Timestamp>(measured)) * kBucket;

  ksir::StreamProfile profile = spec.profile;
  profile.duration = duration;
  profile.num_elements = static_cast<std::size_t>(
      spec.elements_per_hour * static_cast<double>(duration) / kHour);
  profile.seed = Mix(seed, spec.salt);
  auto generated = ksir::GenerateStream(profile);
  if (!generated.ok()) return generated.status();

  Workload w{name, std::move(generated).value()};
  const auto& elements = w.stream.elements;
  std::size_t next = 0;
  for (Timestamp b = 1; b <= warmup_buckets + static_cast<Timestamp>(measured);
       ++b) {
    w.bucket_begin.push_back(next);
    w.bucket_end.push_back(b * kBucket);
    while (next < elements.size() && elements[next].ts <= b * kBucket) ++next;
  }
  w.bucket_begin.push_back(next);
  w.warmup_buckets = static_cast<std::size_t>(warmup_buckets);

  ksir::ServiceConfig& config = w.config;
  config.engine.scoring.lambda = 0.5;
  config.engine.scoring.eta = CalibrateEta(w.stream, spec.window);
  config.engine.window_length = spec.window;
  config.engine.bucket_length = kBucket;
  config.engine.max_shard_imbalance = spec.max_shard_imbalance;
  config.num_shards = 4;
  config.num_workers = 4;
  config.evaluate_standing_after_advance = false;

  ksir::Rng rng(Mix(seed, spec.salt + 100));
  w.adhoc.resize(measured);
  if (name == "ingest_hub") {
    // About one ad-hoc query per bucket, rotating MTTS/MTTD/CELF; two
    // subscription groups of four.
    const auto pool = KeywordVectors(w.stream, measured, Mix(seed, 11));
    for (std::size_t m = 0; m < measured; ++m) {
      w.adhoc[m].push_back(MakeQuery(pool[m], kRotation[m % 3], 10));
    }
    // The two standing interests span five topics each (ranks 0-4 and
    // 5-9, evenly), so their cost averages over several topics' hubs
    // instead of hanging on the few a seed happens to grow on one topic.
    std::vector<SparseVector::Entry> first;
    std::vector<SparseVector::Entry> second;
    for (ksir::TopicId t = 0; t < 5; ++t) {
      first.emplace_back(t, 0.2);
      second.emplace_back(t + 5, 0.2);
    }
    const SparseVector interests[] = {SparseVector::FromEntries(first),
                                      SparseVector::FromEntries(second)};
    for (std::uint32_t s = 0; s < 8; ++s) {
      w.subscriptions.push_back(
          MakeQuery(interests[s % 2], Algorithm::kMttd, 10));
      w.subscription_group.push_back(s % 2);
    }
    w.sample_vectors.assign(pool.begin(), pool.begin() + 16);
    w.sample_every = 8;
  } else if (name == "query_mix") {
    // 256 keyword queries, each with a fixed algorithm in rotation, drawn
    // Zipf-popular; the 32 most popular carry two MTTD subscriptions each,
    // so the standing rounds prime the cache for the ad-hoc MTTD reads that
    // follow. Under a third of the ad-hoc reads hit, which keeps the query
    // p50 inside the miss latencies instead of on the hit/miss edge, and 32
    // groups average the round cost over many query vectors.
    constexpr std::size_t kPool = 256;
    const auto pool = KeywordVectors(w.stream, kPool, Mix(seed, 12));
    std::vector<double> popularity(kPool);
    for (std::size_t i = 0; i < kPool; ++i) {
      popularity[i] = 1.0 / std::pow(static_cast<double>(i + 1), 0.6);
    }
    ksir::AliasTable zipf(popularity);
    for (std::size_t m = 0; m < measured; ++m) {
      for (int q = 0; q < 24; ++q) {
        const std::size_t i = zipf.Sample(&rng);
        w.adhoc[m].push_back(MakeQuery(pool[i], kRotation[i % 3], 10));
      }
    }
    for (std::uint32_t s = 0; s < 64; ++s) {
      const std::uint32_t g = s % 32;
      w.subscriptions.push_back(MakeQuery(pool[g], Algorithm::kMttd, 10));
      w.subscription_group.push_back(g);
    }
    w.sample_vectors.assign(pool.begin(), pool.begin() + 16);
    w.sample_every = 4;
  } else {
    // ~20k subscriptions in 2560 one- or two-topic groups of 8 (MTTD,
    // k = 5), topics uniform over the 512; one ad-hoc query per bucket.
    constexpr std::uint32_t kGroups = 2560;
    const auto num_topics =
        static_cast<std::uint64_t>(w.stream.profile.num_topics);
    std::vector<SparseVector> groups;
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      const auto t1 = static_cast<ksir::TopicId>(rng.NextUint64(num_topics));
      if (g % 4 == 3) {
        auto t2 = static_cast<ksir::TopicId>(rng.NextUint64(num_topics));
        if (t2 == t1) t2 = static_cast<ksir::TopicId>((t1 + 1) % num_topics);
        groups.push_back(SparseVector::FromEntries(
            {{std::min(t1, t2), 0.5}, {std::max(t1, t2), 0.5}}));
      } else {
        groups.push_back(SparseVector::FromEntries({{t1, 1.0}}));
      }
    }
    for (std::uint32_t s = 0; s < 8 * kGroups; ++s) {
      w.subscriptions.push_back(
          MakeQuery(groups[s % kGroups], Algorithm::kMttd, 5));
      w.subscription_group.push_back(s % kGroups);
    }
    const auto pool = KeywordVectors(w.stream, measured, Mix(seed, 13));
    for (std::size_t m = 0; m < measured; ++m) {
      w.adhoc[m].push_back(MakeQuery(pool[m], kRotation[m % 3], 10));
    }
    w.sample_vectors.assign(pool.begin(), pool.begin() + 16);
    w.sample_every = 8;
  }
  return w;
}

}  // namespace e2e
