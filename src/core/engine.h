// KsirEngine: the top-level query-processing system of Figure 4.
//
// Owns the active window, the per-topic ranked lists and the scoring
// context; ingests the stream in buckets (Algorithm 1) and answers ad-hoc
// k-SIR queries with any of the implemented algorithms. Concurrent queries
// are allowed (shared lock); bucket ingestion is exclusive.
#ifndef KSIR_CORE_ENGINE_H_
#define KSIR_CORE_ENGINE_H_

#include <array>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "core/index_maintainer.h"
#include "core/query.h"
#include "core/ranked_list.h"
#include "core/scoring.h"
#include "stream/element.h"
#include "telemetry/telemetry.h"
#include "topic/topic_model.h"
#include "window/active_window.h"

namespace ksir {

/// Engine configuration (paper defaults: T = 24 h, L = 15 min,
/// lambda = 0.5, eta = 20 or 200).
struct EngineConfig {
  ScoringParams scoring;
  /// Window length T in stream time units.
  Timestamp window_length = 24 * 3600;
  /// Bucket length L in stream time units; must divide evenly into the
  /// ingestion pattern (buckets end at multiples of L).
  Timestamp bucket_length = 15 * 60;
  /// How long deactivated elements stay resurrectable by late references;
  /// <= 0 means "same as window_length" (see ActiveWindow).
  Timestamp archive_retention = 0;
  RefreshMode refresh_mode = RefreshMode::kExact;
  /// Reposition scoring strategy; kIncremental is the production pipeline,
  /// kRecompute the slow reference oracle (see IndexMaintainer).
  ScoreMaintenance score_maintenance = ScoreMaintenance::kIncremental;
  /// Participants P of the staged bucket-maintenance pipeline (see
  /// IndexMaintainer); P = max(1, maintenance_threads), and 0/1 run every
  /// stage inline on the advancing thread. The advancing thread is one
  /// participant — for P >= 2 the engine spawns (or shares; see
  /// KsirEngine's pool parameter and ServiceConfig) a runtime WorkerPool
  /// for the remaining P - 1. Determinism contract: the lists, handles and
  /// cached scores are bitwise-identical for every P, so this knob trades
  /// threads for latency only. The kRecompute oracle ignores it.
  std::size_t maintenance_threads = 0;
  /// Balance cap of the service's chain-affinity shard router: routing an
  /// element onto a shard whose RECENT load (placements within the
  /// trailing window) would exceed `max_shard_imbalance * (least-loaded
  /// shard + 1)` falls back to the least-loaded shard instead (costing
  /// that element's chain edges). 0 disables the cap (pure chain
  /// affinity); values >= 1 enable it. The router enforces the cap with
  /// 10% headroom on its load proxy (floored at exact balance), so the
  /// configured value is the bound intended to hold on the OBSERVED
  /// active-set spread — see ShardRouter. Lives in the engine config so
  /// every deployment seam (service, benches, tests) shares one knob next
  /// to the window/bucket geometry.
  double max_shard_imbalance = 0.0;
  /// Telemetry level and tracing knobs for the engine-owned Telemetry.
  /// Ignored when a shared Telemetry is passed to the constructor (the
  /// sharing owner's config governs); see telemetry.h for the cost model.
  TelemetryConfig telemetry;
};

/// Cumulative ingestion statistics.
struct MaintenanceStats {
  std::int64_t elements_ingested = 0;
  std::int64_t buckets_processed = 0;
  std::int64_t elements_expired = 0;
  std::int64_t dangling_refs = 0;
  /// Total wall time spent in AdvanceTo (window + ranked-list updates).
  double total_update_ms = 0.0;
};

/// Splits `elements` (sorted by ts) into buckets ending at multiples of
/// `bucket_length` (the final open chunk ends at its last element's ts) and
/// feeds each through `advance`. The bucket-splitting rule shared by
/// KsirEngine::Append and the sharded service's Append.
Status AppendInBuckets(
    std::vector<SocialElement> elements, Timestamp bucket_length,
    const std::function<Timestamp()>& now,
    const std::function<Status(Timestamp, std::vector<SocialElement>)>&
        advance);

/// Validates an EngineConfig (positive bucket length, window covering at
/// least one bucket). Returned as Status so services can reject bad configs
/// without dying; the KsirEngine constructor still CHECK-fails on them.
Status ValidateEngineConfig(const EngineConfig& config);

/// True when `config` runs the bucket-maintenance pipeline with P >= 2
/// participants (kIncremental with maintenance_threads >= 2), i.e. needs a
/// WorkerPool.
bool UsesParallelMaintenance(const EngineConfig& config);

/// Checks that every element of `bucket` carries a usable topic vector:
/// topic ids in [0, num_topics) and finite, positive weights. Ingestion
/// seams call it before mutating any state, so hostile input is rejected
/// with InvalidArgument instead of reaching the ranked lists' checks.
Status ValidateTopicVectors(const std::vector<SocialElement>& bucket,
                            std::size_t num_topics);

/// Self-contained export of one active element: the element itself plus its
/// current in-window referrers (the influenced set I_t(e)). Everything a
/// remote merge step needs to re-evaluate delta(e, x) without access to this
/// engine's window.
struct ElementSnapshot {
  SocialElement element;
  std::vector<SocialElement> referrers;
};

class WorkerPool;

/// Streaming k-SIR query engine.
class KsirEngine {
 public:
  /// `model` must outlive the engine. Elements handed to the engine must
  /// already carry their sparse topic vectors (use TopicInferencer or a
  /// generator's ground truth). When the config enables parallel
  /// maintenance, `maintenance_pool` is the shared runtime pool the staged
  /// apply fans out on (it must outlive the engine — the seam the sharded
  /// service uses to run every shard on ONE process-wide pool); nullptr
  /// makes the engine own a pool built by the runtime factory. `telemetry`
  /// is the shared registry/tracer the engine and its maintainer record
  /// into (the sharded service hands every shard the service-wide one, so
  /// N shards aggregate into one series set); nullptr makes the engine own
  /// one configured by `config.telemetry`.
  KsirEngine(EngineConfig config, const TopicModel* model,
             WorkerPool* maintenance_pool = nullptr,
             Telemetry* telemetry = nullptr);

  ~KsirEngine();

  /// Validating factory for long-running callers that must not abort.
  static StatusOr<std::unique_ptr<KsirEngine>> Create(
      EngineConfig config, const TopicModel* model,
      WorkerPool* maintenance_pool = nullptr, Telemetry* telemetry = nullptr);

  /// Advances the clock to `bucket_end` and ingests `bucket` (elements with
  /// ts in (previous time, bucket_end], sorted by ts). Thread-exclusive.
  /// Rejects out-of-order bucket ends (InvalidArgument) and no-op calls that
  /// would neither move the clock nor ingest anything (FailedPrecondition).
  Status AdvanceTo(Timestamp bucket_end, std::vector<SocialElement> bucket);

  /// Convenience: splits `elements` (sorted by ts) into buckets of
  /// `config.bucket_length` and ingests them all, ending at the bucket
  /// boundary that covers the last element.
  Status Append(std::vector<SocialElement> elements);

  /// Answers one k-SIR query at the current time. Thread-safe with other
  /// queries; blocks AdvanceTo. Adds the query's work counters to the
  /// per-algorithm `ksir_query_<algorithm>_{evaluated,retrieved,
  /// gain_evaluations,rounds}_total` registry counters.
  StatusOr<QueryResult> Query(const KsirQuery& query) const;

  /// Current engine clock.
  Timestamp now() const;

  /// Monotone counter of successful AdvanceTo calls. Two equal epochs
  /// bracket a quiescent window: any query answered between them would see
  /// identical state, which is what makes epoch-keyed result caching sound.
  std::uint64_t bucket_epoch() const;

  /// Touched-topic summary of the most recent successful AdvanceTo, with
  /// `epoch` stamped to the bucket epoch it produced (see
  /// advance_summary.h). Empty with epoch 0 before the first bucket.
  /// Returns a copy under the query (shared) lock, so it is safe to call
  /// while another thread ingests.
  AdvanceSummary last_advance_summary() const;

  /// Current active-set size under the query (shared) lock — the accessor
  /// concurrent readers must use while another thread ingests (window() is
  /// unsynchronized by design).
  std::size_t num_active() const;

  /// The telemetry this engine records into (the shared one when passed,
  /// else the engine-owned one).
  Telemetry& telemetry() const { return *telemetry_; }

  /// Const-safe bulk export under the query (shared) lock: snapshots of the
  /// requested elements with their in-window referrer sets. Ids that are not
  /// active at call time are silently skipped, so callers racing AdvanceTo
  /// should verify bucket_epoch() did not move across the Query + Export
  /// pair and retry when it did.
  std::vector<ElementSnapshot> ExportSnapshots(
      const std::vector<ElementId>& ids) const;

  /// Read access for tests / benches (not thread-safe against AdvanceTo).
  const ActiveWindow& window() const { return window_; }
  const RankedListIndex& index() const { return index_; }
  const ScoringContext& scoring() const { return scoring_; }
  const EngineConfig& config() const { return config_; }
  MaintenanceStats maintenance_stats() const;

 private:
  EngineConfig config_;
  ActiveWindow window_;
  RankedListIndex index_;
  ScoringContext scoring_;
  /// Engine-owned telemetry (only when no shared one was passed); declared
  /// before the pool and the maintainer, which hold the raw pointer.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  Histogram* advance_hist_;
  /// Registry counters of one algorithm's QueryStats work counters.
  struct QueryCounters {
    Counter* evaluated;
    Counter* retrieved;
    Counter* gain_evaluations;
    Counter* rounds;
  };
  /// Indexed by Algorithm.
  std::array<QueryCounters, kNumAlgorithms> query_counters_;
  /// Engine-owned maintenance pool (only when parallel maintenance is on
  /// and no shared pool was passed); declared before the maintainer, which
  /// holds the raw pointer.
  std::unique_ptr<WorkerPool> owned_pool_;
  IndexMaintainer maintainer_;
  MaintenanceStats stats_;
  std::uint64_t bucket_epoch_ = 0;
  /// Copy of the maintainer's last bucket summary, epoch-stamped (the
  /// maintainer's own is only valid until its next Apply).
  AdvanceSummary last_summary_;
  mutable std::shared_mutex mutex_;
};

}  // namespace ksir

#endif  // KSIR_CORE_ENGINE_H_
