// KsirService: the sharded k-SIR query service.
//
//                      +-----------------------------+
//      stream buckets  |       ShardedIngestor       |
//     ---------------> |  ShardRouter -> WorkerPool  |
//                      +--+--------+--------+--------+
//                         |        |        |
//                      +--v--+  +--v--+  +--v--+
//                      |shard|  |shard|  |shard|   KsirEngine x N
//                      +--+--+  +--+--+  +--+--+
//                         |        |        |
//                      +--v--------v--------v--------+
//      ad-hoc queries  |        QueryPlanner         |
//     ---------------> |   fan-out / CELF merge      |
//          ^           +--------------+--------------+
//          |                          |
//   +------+-------+        +--------v---------+
//   | ResultCache  | <----- | standing queries |
//   | (epoch keyed)|        | (re-primed per   |
//   +--------------+        |  bucket)         |
//                           +------------------+
//
// One writer thread ingests buckets; any number of reader threads query.
// This façade is the seam every scaling direction plugs into: more shards,
// asynchronous ingestion, replicated shards, or remote shard backends all
// stay behind AdvanceTo/Query.
#ifndef KSIR_SERVICE_SERVICE_H_
#define KSIR_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "telemetry/telemetry.h"
#include "service/query_planner.h"
#include "service/result_cache.h"
#include "service/shard_router.h"
#include "service/sharded_ingestor.h"
#include "service/sharded_standing_query.h"
#include "runtime/worker_pool.h"
#include "topic/topic_model.h"

namespace ksir {

/// Service configuration on top of the per-shard engine config.
struct ServiceConfig {
  /// Per-shard engine configuration (window/bucket lengths, scoring).
  EngineConfig engine;
  /// Number of shard engines (>= 1).
  std::size_t num_shards = 4;
  /// Worker threads shared by ingestion, query fan-out AND the shards'
  /// parallel maintenance stages (when engine.maintenance_threads >= 2 the
  /// shard engines fan their staged bucket apply out on this same pool —
  /// one process-wide pool instead of a pool per shard; caller
  /// participation keeps nested fan-out deadlock-free). 0 = num_shards,
  /// raised to engine.maintenance_threads when that is larger; size it
  /// near num_shards * maintenance_threads to run both levels fully
  /// parallel.
  std::size_t num_workers = 0;
  /// Optional externally owned pool (must outlive the service): lets
  /// several services / engines in one process share one pool. nullptr =
  /// the service builds its own through the runtime factory.
  WorkerPool* shared_pool = nullptr;
  /// Result-cache entries kept across one epoch (>= 1).
  std::size_t cache_capacity = 4096;
  /// Query-vector quantization step of the cache key.
  double cache_quantum = 1e-4;
  /// Re-evaluate standing queries right after every ingested bucket.
  bool evaluate_standing_after_advance = true;
  /// How the post-bucket standing-query round is driven: kIndexed wakes
  /// only subscriptions whose query support intersects the topics touched
  /// by the bucket (union over shards), kNaive re-evaluates everything —
  /// the reference baseline, kept for equivalence testing.
  SubscriptionMode subscription_mode = SubscriptionMode::kIndexed;
  /// Telemetry level and tracing knobs of the service-wide Telemetry (one
  /// registry + tracer shared by every shard engine, the pool, the
  /// ingestor, the planner and the cache — N shards aggregate into one
  /// series set). Overrides engine.telemetry, which is ignored here.
  TelemetryConfig telemetry;
};

/// Validates a ServiceConfig (including the nested engine config).
Status ValidateServiceConfig(const ServiceConfig& config);

/// Point-in-time service counters.
struct ServiceStats {
  std::uint64_t epoch = 0;
  IngestionStats ingestion;
  ResultCacheStats cache;
  PlannerStats planner;
  /// Standing-query evaluation rounds that surfaced an error.
  std::int64_t standing_errors = 0;
  /// Sum of |A_t| over all shards.
  std::size_t num_active_total = 0;
};

/// Sharded k-SIR query service. Thread model: one ingestion thread calls
/// AdvanceTo/Append; any number of threads call Query concurrently.
class KsirService {
 public:
  /// `model` must outlive the service.
  static StatusOr<std::unique_ptr<KsirService>> Create(
      ServiceConfig config, const TopicModel* model);

  /// Ingests one bucket: partitions it across the shards, advances them in
  /// parallel, bumps the service epoch (invalidating cached results) and —
  /// when configured — re-evaluates the standing queries.
  Status AdvanceTo(Timestamp bucket_end, std::vector<SocialElement> bucket);

  /// Splits `elements` (sorted by ts) into buckets and ingests them all.
  Status Append(std::vector<SocialElement> elements);

  /// Answers an ad-hoc k-SIR query: epoch-keyed cache first, then the
  /// fan-out/merge planner. Thread-safe.
  StatusOr<QueryResult> Query(const KsirQuery& query) const;

  /// Standing subscriptions (evaluated through the cached planner path).
  ShardedStandingQueryManager& standing_queries() { return *standing_; }

  /// Current stream clock (shared by all shards).
  Timestamp now() const { return ingestor_->now(); }

  /// Monotone count of ingested buckets (the cache key epoch).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  std::size_t num_shards() const { return shards_.size(); }

  /// Shard access for tests/benches (not thread-safe against AdvanceTo).
  const KsirEngine& shard(std::size_t i) const { return *shards_[i]; }

  /// Router access for tests/benches (balance-cap observability; not
  /// thread-safe against AdvanceTo).
  const ShardRouter& router() const { return *router_; }

  /// Point-in-time counters, safe to call from any thread concurrently
  /// with ingestion and queries: every field is assembled from atomic
  /// storage (registry counters; active-set sizes under each shard's query
  /// lock). The snapshot is per-field consistent, not cross-field.
  ServiceStats stats() const;

  /// The service-wide telemetry (registry + tracer).
  Telemetry& telemetry() const { return *telemetry_; }

  /// Prometheus text exposition of every service metric (see
  /// telemetry/exposition.h). Safe any time.
  std::string MetricsText() const;

  /// JSON snapshot of every service metric.
  std::string MetricsJsonDump() const;

  /// chrome://tracing JSON of the sampled spans (empty event list unless
  /// config.telemetry.level == kTracing).
  std::string TraceJson() const;

 private:
  KsirService(ServiceConfig config, const TopicModel* model);

  ServiceConfig config_;
  /// Service-wide telemetry; declared before every component that records
  /// into it (pool, shards, ingestor, planner, cache).
  std::unique_ptr<Telemetry> telemetry_;
  /// Service-owned pool (absent when config.shared_pool was passed);
  /// declared before the shards, which hold the raw pointer through their
  /// maintainers.
  std::unique_ptr<WorkerPool> owned_pool_;
  WorkerPool* pool_ = nullptr;
  std::vector<std::unique_ptr<KsirEngine>> shards_;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<ShardedIngestor> ingestor_;
  std::unique_ptr<QueryPlanner> planner_;
  mutable ResultCache cache_;
  /// Query-path metrics (the cache-lookup span runs before the planner's).
  Counter* queries_counter_ = nullptr;
  Histogram* query_hist_ = nullptr;
  Histogram* cache_lookup_hist_ = nullptr;
  std::unique_ptr<ShardedStandingQueryManager> standing_;
  /// Per-shard advance summaries collected after each bucket (reused).
  std::vector<AdvanceSummary> summaries_scratch_;
  std::atomic<std::uint64_t> epoch_{0};
  /// Seqlock-style ingestion generation: odd while a bucket is being
  /// applied to the shards, even when quiescent. A query whose fan-out
  /// overlaps an odd or changed generation may have mixed pre-/post-bucket
  /// shard states and must not be cached.
  std::atomic<std::uint64_t> write_generation_{0};
  std::atomic<std::int64_t> standing_errors_{0};
};

}  // namespace ksir

#endif  // KSIR_SERVICE_SERVICE_H_
