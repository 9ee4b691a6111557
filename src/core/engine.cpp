#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <mutex>
#include <string>

#include "common/timer.h"
#include "runtime/worker_pool.h"
#include "core/brute_force.h"
#include "core/celf.h"
#include "core/mttd.h"
#include "core/mtts.h"
#include "core/sieve_streaming.h"
#include "core/topk_representative.h"

namespace ksir {

std::string_view AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kMtts:
      return "MTTS";
    case Algorithm::kMttd:
      return "MTTD";
    case Algorithm::kCelf:
      return "CELF";
    case Algorithm::kGreedy:
      return "Greedy";
    case Algorithm::kSieveStreaming:
      return "SieveStreaming";
    case Algorithm::kTopkRepresentative:
      return "Top-k Representative";
    case Algorithm::kBruteForce:
      return "BruteForce";
  }
  return "Unknown";
}

namespace {

/// Lower-case metric-name stem of each algorithm, indexed by Algorithm.
constexpr const char* kAlgorithmMetricStems[] = {
    "mtts", "mttd", "celf", "greedy", "sieve_streaming", "topk_representative",
    "brute_force"};
static_assert(std::size(kAlgorithmMetricStems) == kNumAlgorithms);

}  // namespace

Status ValidateEngineConfig(const EngineConfig& config) {
  if (config.bucket_length <= 0) {
    return Status::InvalidArgument("bucket_length must be positive");
  }
  if (config.window_length < config.bucket_length) {
    return Status::InvalidArgument(
        "window_length must cover at least one bucket");
  }
  if (config.scoring.eta <= 0.0) {
    return Status::InvalidArgument("scoring.eta must be positive");
  }
  if (config.scoring.lambda < 0.0 || config.scoring.lambda > 1.0) {
    return Status::InvalidArgument("scoring.lambda must be in [0, 1]");
  }
  // Written so NaN fails both arms and is rejected here instead of dying
  // on the router's CHECK.
  if (!(config.max_shard_imbalance == 0.0 ||
        config.max_shard_imbalance >= 1.0)) {
    return Status::InvalidArgument(
        "max_shard_imbalance must be 0 (off) or >= 1");
  }
  // The engine spawns maintenance_threads - 1 OS threads when it owns the
  // pool; an absurd value from an untrusted config must fail validation
  // here, not exhaust the process inside the constructor. 256 is far past
  // any useful participant count (the stages shard by element and topic,
  // both bounded per bucket).
  if (config.maintenance_threads > 256) {
    return Status::InvalidArgument(
        "maintenance_threads must be <= 256");
  }
  KSIR_RETURN_NOT_OK(ValidateTelemetryConfig(config.telemetry));
  return Status::OK();
}

bool UsesParallelMaintenance(const EngineConfig& config) {
  return config.score_maintenance == ScoreMaintenance::kIncremental &&
         config.maintenance_threads >= 2;
}

Status ValidateTopicVectors(const std::vector<SocialElement>& bucket,
                            std::size_t num_topics) {
  for (const SocialElement& e : bucket) {
    for (const auto& [topic, weight] : e.topics.entries()) {
      if (topic < 0 || static_cast<std::size_t>(topic) >= num_topics) {
        return Status::InvalidArgument(
            "element " + std::to_string(e.id) + ": topic id " +
            std::to_string(topic) + " outside [0, " +
            std::to_string(num_topics) + ")");
      }
      if (!std::isfinite(weight) || weight <= 0.0) {
        return Status::InvalidArgument(
            "element " + std::to_string(e.id) + ": topic " +
            std::to_string(topic) + " has non-finite or non-positive weight");
      }
    }
  }
  return Status::OK();
}

KsirEngine::KsirEngine(EngineConfig config, const TopicModel* model,
                       WorkerPool* maintenance_pool, Telemetry* telemetry)
    : config_(config),
      window_(config.window_length, config.archive_retention),
      index_(model != nullptr ? model->num_topics() : 1),
      // Under kIncremental the maintainer parks every active element's
      // exact score halves in its window slot; queries read them there.
      scoring_(model, &window_, config.scoring,
               /*read_score_cache=*/config.score_maintenance ==
                   ScoreMaintenance::kIncremental),
      owned_telemetry_(telemetry == nullptr
                           ? std::make_unique<Telemetry>(config.telemetry)
                           : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()),
      advance_hist_(telemetry_->registry().GetHistogram(
          "ksir_engine_advance_seconds",
          "One KsirEngine::AdvanceTo (window advance + bucket apply)")),
      // The advancing thread is one participant, so an engine-owned pool
      // only needs the helpers. A shared pool is used as passed — the
      // sharded service hands every shard the same process-wide pool.
      owned_pool_(maintenance_pool == nullptr && UsesParallelMaintenance(config)
                      ? MakeWorkerPool(config.maintenance_threads - 1,
                                       /*fallback=*/1, telemetry_)
                      : nullptr),
      maintainer_(&scoring_, &index_, config.refresh_mode,
                  config.score_maintenance,
                  maintenance_pool != nullptr ? maintenance_pool
                                              : owned_pool_.get(),
                  config.maintenance_threads, telemetry_) {
  KSIR_CHECK(config.bucket_length > 0);
  KSIR_CHECK(config.window_length >= config.bucket_length);
  MetricRegistry& reg = telemetry_->registry();
  for (std::size_t a = 0; a < kNumAlgorithms; ++a) {
    const std::string stem =
        std::string("ksir_query_") + kAlgorithmMetricStems[a];
    const std::string help =
        std::string(AlgorithmName(static_cast<Algorithm>(a))) + " queries: ";
    query_counters_[a] = QueryCounters{
        reg.GetCounter(stem + "_evaluated_total",
                       help + "singleton scores delta(e, x) evaluated"),
        reg.GetCounter(stem + "_retrieved_total",
                       help + "ranked-list tuples popped"),
        reg.GetCounter(stem + "_gain_evaluations_total",
                       help + "marginal gains evaluated"),
        reg.GetCounter(stem + "_rounds_total",
                       help + "threshold rounds (MTTD) or peak candidates "
                              "(MTTS)")};
  }
}

KsirEngine::~KsirEngine() = default;

StatusOr<std::unique_ptr<KsirEngine>> KsirEngine::Create(
    EngineConfig config, const TopicModel* model,
    WorkerPool* maintenance_pool, Telemetry* telemetry) {
  KSIR_RETURN_NOT_OK(ValidateEngineConfig(config));
  if (model == nullptr) {
    return Status::InvalidArgument("topic model must not be null");
  }
  return std::make_unique<KsirEngine>(config, model, maintenance_pool,
                                      telemetry);
}

Status KsirEngine::AdvanceTo(Timestamp bucket_end,
                             std::vector<SocialElement> bucket) {
  std::unique_lock lock(mutex_);
  if (bucket_end < window_.now()) {
    return Status::InvalidArgument(
        "out-of-order bucket: bucket_end " + std::to_string(bucket_end) +
        " precedes engine time " + std::to_string(window_.now()));
  }
  if (bucket_end == window_.now() && bucket.empty()) {
    return Status::FailedPrecondition(
        "no-op bucket: empty bucket at the current engine time " +
        std::to_string(bucket_end));
  }
  KSIR_RETURN_NOT_OK(ValidateTopicVectors(bucket, index_.num_topics()));
  WallTimer timer;
  const std::size_t n = bucket.size();
  KSIR_ASSIGN_OR_RETURN(ActiveWindow::UpdateResult update,
                        window_.Advance(bucket_end, std::move(bucket)));
  maintainer_.Apply(update);
  stats_.elements_ingested += static_cast<std::int64_t>(n);
  ++stats_.buckets_processed;
  stats_.elements_expired +=
      static_cast<std::int64_t>(update.expired.size());
  stats_.dangling_refs += update.dangling_refs;
  const double elapsed_ms = timer.ElapsedMillis();
  stats_.total_update_ms += elapsed_ms;
  // The clock reads above pre-date telemetry (they feed MaintenanceStats),
  // so only the histogram record itself is gated on the level.
  if (telemetry_->timing_enabled()) {
    advance_hist_->Record(elapsed_ms / 1e3);
  }
  ++bucket_epoch_;
  last_summary_ = maintainer_.last_summary();
  last_summary_.epoch = bucket_epoch_;
  return Status::OK();
}

Status AppendInBuckets(
    std::vector<SocialElement> elements, Timestamp bucket_length,
    const std::function<Timestamp()>& now,
    const std::function<Status(Timestamp, std::vector<SocialElement>)>&
        advance) {
  if (elements.empty()) return Status::OK();
  const Timestamp l = bucket_length;
  std::size_t begin = 0;
  while (begin < elements.size()) {
    // Bucket end: the smallest multiple of L at/after the first element
    // (strictly after the current clock).
    const Timestamp first_ts = elements[begin].ts;
    if (first_ts <= now()) {
      return Status::InvalidArgument(
          "element ts " + std::to_string(first_ts) +
          " not newer than stream time " + std::to_string(now()));
    }
    Timestamp bucket_end = ((first_ts + l - 1) / l) * l;
    if (bucket_end <= now()) bucket_end += l;
    std::size_t end = begin;
    while (end < elements.size() && elements[end].ts <= bucket_end) ++end;
    // Final chunk: advance only to the last element's timestamp so that a
    // subsequent Append may deliver elements of the same (open) bucket.
    if (end == elements.size()) bucket_end = elements[end - 1].ts;
    std::vector<SocialElement> bucket(
        std::make_move_iterator(elements.begin() +
                                static_cast<std::ptrdiff_t>(begin)),
        std::make_move_iterator(elements.begin() +
                                static_cast<std::ptrdiff_t>(end)));
    KSIR_RETURN_NOT_OK(advance(bucket_end, std::move(bucket)));
    begin = end;
  }
  return Status::OK();
}

Status KsirEngine::Append(std::vector<SocialElement> elements) {
  return AppendInBuckets(
      std::move(elements), config_.bucket_length, [this]() { return now(); },
      [this](Timestamp bucket_end, std::vector<SocialElement> bucket) {
        return AdvanceTo(bucket_end, std::move(bucket));
      });
}

StatusOr<QueryResult> KsirEngine::Query(const KsirQuery& query) const {
  if (query.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (query.x.empty()) {
    return Status::InvalidArgument("query vector is empty");
  }
  const bool needs_epsilon = query.algorithm == Algorithm::kMtts ||
                             query.algorithm == Algorithm::kMttd ||
                             query.algorithm == Algorithm::kSieveStreaming;
  if (needs_epsilon && (query.epsilon <= 0.0 || query.epsilon >= 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  std::shared_lock lock(mutex_);
  QueryResult result;
  switch (query.algorithm) {
    case Algorithm::kMtts:
      result = RunMtts(scoring_, index_, query);
      break;
    case Algorithm::kMttd:
      result = RunMttd(scoring_, index_, query);
      break;
    case Algorithm::kCelf:
      result = RunCelf(scoring_, window_, query);
      break;
    case Algorithm::kGreedy:
      result = RunGreedy(scoring_, window_, query);
      break;
    case Algorithm::kSieveStreaming:
      result = RunSieveStreaming(scoring_, window_, query);
      break;
    case Algorithm::kTopkRepresentative:
      result = RunTopkRepresentative(scoring_, index_, query);
      break;
    case Algorithm::kBruteForce:
      result = RunBruteForce(scoring_, window_, query);
      break;
    default:
      return Status::InvalidArgument("unknown algorithm");
  }
  const QueryCounters& counters =
      query_counters_[static_cast<std::size_t>(query.algorithm)];
  const QueryStats& stats = result.stats;
  counters.evaluated->Add(static_cast<std::int64_t>(stats.num_evaluated));
  counters.retrieved->Add(static_cast<std::int64_t>(stats.num_retrieved));
  counters.gain_evaluations->Add(
      static_cast<std::int64_t>(stats.num_gain_evaluations));
  counters.rounds->Add(
      static_cast<std::int64_t>(stats.num_candidates_or_rounds));
  return result;
}

Timestamp KsirEngine::now() const {
  std::shared_lock lock(mutex_);
  return window_.now();
}

std::uint64_t KsirEngine::bucket_epoch() const {
  std::shared_lock lock(mutex_);
  return bucket_epoch_;
}

AdvanceSummary KsirEngine::last_advance_summary() const {
  std::shared_lock lock(mutex_);
  return last_summary_;
}

std::size_t KsirEngine::num_active() const {
  std::shared_lock lock(mutex_);
  return window_.num_active();
}

std::vector<ElementSnapshot> KsirEngine::ExportSnapshots(
    const std::vector<ElementId>& ids) const {
  std::shared_lock lock(mutex_);
  std::vector<ElementSnapshot> snapshots;
  snapshots.reserve(ids.size());
  for (const ElementId id : ids) {
    const SocialElement* element = window_.Find(id);
    if (element == nullptr) continue;
    ElementSnapshot snapshot;
    snapshot.element = *element;
    for (const Referrer& referrer : window_.ReferrersOf(id)) {
      const SocialElement* r = window_.Find(referrer.id);
      if (r != nullptr) snapshot.referrers.push_back(*r);
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

MaintenanceStats KsirEngine::maintenance_stats() const {
  std::shared_lock lock(mutex_);
  return stats_;
}

}  // namespace ksir
