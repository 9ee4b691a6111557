// Algorithm 1: keeps the per-topic ranked lists consistent with the active
// window as buckets arrive and expire.
#ifndef KSIR_CORE_INDEX_MAINTAINER_H_
#define KSIR_CORE_INDEX_MAINTAINER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include <memory>

#include "common/arena.h"
#include "common/stamped_accumulator.h"
#include "core/advance_summary.h"
#include "core/ranked_list.h"
#include "core/score_cache.h"
#include "core/scoring.h"
#include "telemetry/telemetry.h"
#include "window/active_window.h"

namespace ksir {

class WorkerPool;

/// How ranked-list scores react to referrer expiry (DESIGN.md §5).
enum class RefreshMode {
  /// Reposition elements whose referrers expired: list scores are always
  /// exactly delta_i(e). Default.
  kExact,
  /// Literal Algorithm 1: scores are only refreshed when an element gains a
  /// referrer. A score may stay stale-high after referrer expiry, which
  /// keeps upper-bound pruning sound but less tight.
  kPaper,
};

/// How reposition scores are produced.
enum class ScoreMaintenance {
  /// ScoreCache decomposition: the semantic half is computed once per
  /// element lifetime and the influence half updated per edge, making a
  /// reposition O(|shared topics|). Runs the staged pipeline. Default.
  kIncremental,
  /// The recompute oracle: delta_i(e) from scratch (full word scan per
  /// topic plus a referrer-set scan) on every insert and reposition. Kept
  /// as the reference the pipeline is checked against in the equivalence
  /// tests and the hot-path benchmark.
  kRecompute,
};

/// Applies window updates to the ranked lists (Algorithm 1 lines 4-13).
///
/// Under kIncremental maintenance every bucket runs ONE staged pipeline
/// with P participants (P = max(1, `parallel_workers`); the advancing
/// thread is participant 0 and the pool supplies the rest, and at P = 1
/// every stage runs inline). Its inputs are state already carried by the
/// pipeline — the window report's Touched records (element pointer, final
/// t_e, gained/lost referrer topic spans) and the ScoreCache entry (score
/// halves, listed score, ranked-list handle), reached through the window's
/// user slot — so a bucket performs no id-keyed list lookups at all:
///   1. expiry — a serial prologue walks the expired elements (summary
///      touches, membership + cache erases: hash maps and pools are
///      single-threaded state) copying each carried per-topic hint out of
///      the dying cache entry, then the per-list erases run TOPIC-SHARDED
///      (each touched topic is owned by one participant, which replays
///      that list's erases in element order);
///   2. layout (serial) — cache entry rows, membership records and arena
///      buffers for the bucket's touched elements;
///   3. scoring (element-sharded) — fresh-element scoring, edge folding,
///      score composition; each participant folds through its own dense
///      accumulator;
///   4. gather — a serial counting pass fixes the per-topic run layout,
///      summary touches and t_e writes, then the scatter into per-topic
///      runs is TOPIC-SHARDED: each participant owns a disjoint topic
///      subset and writes exactly its topics' runs, in element order;
///   5. list apply (topic-sharded) — each touched topic's RankedList
///      (fresh inserts then the reposition run) is claimed by exactly one
///      participant, so no list-level locking; per-participant
///      BatchScratch keeps the merge sweeps allocation-free.
/// The parallel stages fan out through ParallelRun (see
/// runtime/worker_pool.h). Every list sees the same operation sequence
/// whatever P is, so the resulting lists, handles and ScoreCache state are
/// BITWISE identical across participant counts.
///
/// kRecompute runs ApplyRecompute instead: the oracle. It rescores every
/// inserted or repositioned element from scratch and writes the lists
/// through the same per-element handle entry points, parking its listed
/// scores and handles in its own ScoreCache rows (the score halves stay
/// unused).
///
/// All maintenance state is owned by this maintainer — one engine's
/// maintainer never shares mutable state with another's, which is what
/// lets the sharded service advance shards in parallel.
class IndexMaintainer {
 public:
  /// `ctx` and `index` must outlive the maintainer; `ctx`'s window must be
  /// the window whose updates are applied. `pool` + `parallel_workers >= 2`
  /// give the pipeline that many participants (`pool` must outlive the
  /// maintainer and may be shared — the stages fan out through
  /// ParallelRun, whose caller participation tolerates a busy pool);
  /// without a pool the pipeline runs at P = 1. `telemetry` (optional,
  /// must outlive the maintainer) receives the per-stage bucket-apply
  /// histograms (`ksir_maintainer_stage_*_seconds`) and touched/reposition/
  /// elision counters; null gives the maintainer a private kOff Telemetry
  /// so counters keep working in isolation.
  IndexMaintainer(const ScoringContext* ctx, RankedListIndex* index,
                  RefreshMode mode = RefreshMode::kExact,
                  ScoreMaintenance maintenance = ScoreMaintenance::kIncremental,
                  WorkerPool* pool = nullptr, std::size_t parallel_workers = 0,
                  Telemetry* telemetry = nullptr);

  /// Applies one Advance() result. Must be called after every window
  /// advance, with no interleaved advances.
  void Apply(const ActiveWindow::UpdateResult& update);

  RefreshMode mode() const { return mode_; }
  ScoreMaintenance maintenance() const { return maintenance_; }

  /// Touched-topic summary of the most recent Apply() (epoch unset; the
  /// engine stamps it). Valid until the next Apply.
  const AdvanceSummary& last_summary() const { return summary_; }

 private:
  void ApplyIncremental(const ActiveWindow::UpdateResult& update);
  void ApplyRecompute(const ActiveWindow::UpdateResult& update);

  /// Scatters one element's carried edge spans into `acc` and folds them
  /// into the cached influence halves.
  static void FoldEdges(const ActiveWindow::Touched& t,
                        ScoreCache::TopicList* halves,
                        StampedAccumulator* acc);

  /// Records one score movement on `topic` into the bucket's summary
  /// accumulator (dense max, lazily cleared at materialization).
  void TouchSummary(TopicId topic, double movement);

  /// Sorts and publishes the bucket's summary accumulator into summary_,
  /// restoring the dense arrays for the next bucket.
  void MaterializeSummary();

  const ScoringContext* ctx_;
  RankedListIndex* index_;
  RefreshMode mode_;
  ScoreMaintenance maintenance_;
  /// Pipeline participants P (the advancing thread is participant 0; the
  /// pool supplies helpers when P >= 2).
  WorkerPool* pool_ = nullptr;
  std::size_t workers_ = 1;
  /// Fallback Telemetry (kOff) owned when no shared one was passed, so the
  /// metric pointers below are always valid and the hot path never
  /// null-checks them.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  /// Stage histograms (recorded only when timing is enabled; every stage
  /// records once per bucket).
  Histogram* stage_expiry_hist_;
  Histogram* stage_score_hist_;
  Histogram* stage_gather_hist_;
  Histogram* stage_list_apply_hist_;
  Histogram* bucket_apply_hist_;
  /// Always-live counters, flushed once per Apply from the plain per-bucket
  /// accumulators below (the hot loops never touch an atomic).
  Counter* expired_counter_;
  Counter* fresh_counter_;
  Counter* touched_counter_;
  Counter* repositions_counter_;
  Counter* elisions_counter_;
  std::size_t bucket_repositions_ = 0;
  std::size_t bucket_elisions_ = 0;
  /// Published touched-topic summary of the last Apply, and its dense
  /// per-bucket accumulator (max movement + seen flag per topic, cleared
  /// lazily through summary_topics_ at materialization).
  AdvanceSummary summary_;
  std::vector<double> summary_movement_;
  std::vector<std::uint8_t> summary_seen_;
  std::vector<TopicId> summary_topics_;
  /// Per-element cache rows. Under kRecompute only `listed` and `handle`
  /// are maintained.
  ScoreCache cache_;

  /// ---- per-bucket pipeline state (live only within one Apply call) ----
  /// One changed ranked-list key of a touched element; points back into
  /// the ScoreCache entry so the list writes the refreshed position hint
  /// straight through.
  struct PendingHandle {
    TopicId topic;
    RankedList::HandleUpdate payload;
  };
  /// One fresh (inserted / resurrected) element of the bucket: entry rows
  /// laid out serially, score halves computed by the element stage.
  struct FreshItem {
    const SocialElement* element;
    ScoreCache::TopicList* halves;
  };
  /// One gained-/lost-referrer element: the element stage folds its edge
  /// spans, composes scores and writes the changed tuples into `updates`
  /// (arena storage sized to the full support; `num_updates` filled by the
  /// one worker that claims the element).
  struct TouchedItem {
    const ActiveWindow::Touched* touched;
    ScoreCache::TopicList* halves;
    PendingHandle* updates;
    std::uint32_t num_updates;
    bool reposition;
    bool te_changed;
  };
  /// One fresh list insert of the topic stage (scattered per topic by the
  /// gather, applied by the topic's worker, handle written through).
  struct PendingInsert {
    ElementId id;
    double score;
    RankedList::Handle* handle;
  };
  /// One per-list erase of the topic-sharded expiry stage, in element
  /// order. The hint fields are copied OUT of the dying cache entry by the
  /// serial prologue: cache_.Erase frees the pool row the halves live in,
  /// so the fan-out must not read through the entry.
  struct PendingErase {
    TopicId topic;
    ElementId id;
    double score;
    RankedList::Handle handle;
  };
  void ProcessTouched(TouchedItem* item, StampedAccumulator* acc);

  std::vector<PendingErase> erase_items_;
  /// Distinct topics with erases this bucket (deduped through erase_seen_,
  /// which is restored to zero during shard assignment).
  std::vector<TopicId> erase_topics_;
  std::vector<std::uint8_t> erase_seen_;
  /// Dense topic -> owning shard map for the bucket's topic-sharded stages
  /// (expiry erases; gather scatter + list apply). Never reset: a bucket
  /// only reads the topics it wrote first.
  std::vector<std::uint32_t> topic_shard_;
  std::vector<FreshItem> fresh_items_;
  std::vector<TouchedItem> touched_items_;
  std::vector<TopicId> topic_id_scratch_;
  /// Pending fresh list inserts and repositions per topic this bucket;
  /// zeroed lazily via touched_ (the topics with either).
  std::vector<std::uint32_t> insert_counts_;
  std::vector<std::uint32_t> update_counts_;
  std::vector<TopicId> touched_;
  /// Backs the per-element buffers and per-topic runs; reset every bucket.
  Arena run_arena_;
  /// Per-participant scratch: dense accumulators for the element stage,
  /// batch scratch for the topic stage — indexed by ParallelRun's `p`, so
  /// the stages allocate nothing and contend on nothing.
  std::vector<StampedAccumulator> worker_acc_;
  std::vector<RankedList::BatchScratch> worker_scratch_;
};

}  // namespace ksir

#endif  // KSIR_CORE_INDEX_MAINTAINER_H_
