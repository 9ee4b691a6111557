#include "core/index_maintainer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/small_vector.h"
#include "runtime/worker_pool.h"

namespace ksir {
namespace {

/// Lists with at least this many repositions in a bucket take the one-pass
/// ApplyBatchHandles merge sweep; sparser lists reposition per element.
/// The hot-path bench's threshold sweep (1-16) was flat within noise.
constexpr std::size_t kMergeRunMin = 2;

}  // namespace

IndexMaintainer::IndexMaintainer(const ScoringContext* ctx,
                                 RankedListIndex* index, RefreshMode mode,
                                 ScoreMaintenance maintenance,
                                 WorkerPool* pool,
                                 std::size_t parallel_workers,
                                 Telemetry* telemetry)
    : ctx_(ctx),
      index_(index),
      mode_(mode),
      maintenance_(maintenance),
      pool_(pool),
      workers_(pool != nullptr ? std::max<std::size_t>(1, parallel_workers)
                               : 1),
      owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()),
      cache_(ctx) {
  KSIR_CHECK(ctx != nullptr);
  KSIR_CHECK(index != nullptr);
  MetricRegistry& reg = telemetry_->registry();
  stage_expiry_hist_ = reg.GetHistogram(
      "ksir_maintainer_stage_expiry_seconds",
      "Bucket-apply stage: expiry erases plus fresh-element layout");
  stage_score_hist_ = reg.GetHistogram(
      "ksir_maintainer_stage_score_seconds",
      "Bucket-apply stage: fresh scoring, edge folding, score composition");
  stage_gather_hist_ = reg.GetHistogram(
      "ksir_maintainer_stage_gather_seconds",
      "Bucket-apply stage: deterministic gather into per-topic runs");
  stage_list_apply_hist_ = reg.GetHistogram(
      "ksir_maintainer_stage_list_apply_seconds",
      "Bucket-apply stage: ranked-list inserts and reposition runs");
  bucket_apply_hist_ = reg.GetHistogram(
      "ksir_maintainer_bucket_apply_seconds",
      "Whole IndexMaintainer::Apply of one bucket");
  expired_counter_ = reg.GetCounter("ksir_maintainer_expired_total",
                                    "Elements erased on expiry");
  fresh_counter_ = reg.GetCounter(
      "ksir_maintainer_fresh_total",
      "Elements inserted fresh or resurrected into the ranked lists");
  touched_counter_ = reg.GetCounter(
      "ksir_maintainer_elements_touched_total",
      "Elements that gained or lost a referrer within a bucket");
  repositions_counter_ = reg.GetCounter(
      "ksir_maintainer_repositions_total",
      "Ranked-list reposition tuples actually applied");
  elisions_counter_ = reg.GetCounter(
      "ksir_maintainer_elisions_total",
      "Reposition tuples elided because the composed score equals the "
      "listed score");
  const std::size_t num_topics = index->num_topics();
  summary_movement_.resize(num_topics, 0.0);
  summary_seen_.resize(num_topics, 0);
  if (maintenance_ == ScoreMaintenance::kIncremental) {
    insert_counts_.resize(num_topics, 0);
    update_counts_.resize(num_topics, 0);
    erase_seen_.resize(num_topics, 0);
    topic_shard_.resize(num_topics, 0);
    worker_acc_.resize(workers_);
    for (StampedAccumulator& acc : worker_acc_) acc.Resize(num_topics);
    worker_scratch_.resize(workers_);
  }
}

void IndexMaintainer::Apply(const ActiveWindow::UpdateResult& update) {
  // One bucket apply is one trace unit: every sample_period-th bucket gets
  // its stage spans recorded.
  telemetry_->tracer().SampleUnit();
  bucket_repositions_ = 0;
  bucket_elisions_ = 0;
  {
    StageScope scope(telemetry_, bucket_apply_hist_, "maint.bucket_apply");
    if (maintenance_ == ScoreMaintenance::kIncremental) {
      ApplyIncremental(update);
    } else {
      ApplyRecompute(update);
    }
  }
  MaterializeSummary();
  // Counter flush: the hot loops above accumulate into plain members; one
  // sharded fetch_add per series per bucket lands them in the registry.
  if (!update.expired.empty()) {
    expired_counter_->Add(static_cast<std::int64_t>(update.expired.size()));
  }
  const std::size_t fresh = update.inserted.size() + update.resurrected.size();
  if (fresh > 0) fresh_counter_->Add(static_cast<std::int64_t>(fresh));
  const std::size_t touched =
      update.gained_referrer.size() + update.lost_referrer.size();
  if (touched > 0) touched_counter_->Add(static_cast<std::int64_t>(touched));
  if (bucket_repositions_ > 0) {
    repositions_counter_->Add(static_cast<std::int64_t>(bucket_repositions_));
  }
  if (bucket_elisions_ > 0) {
    elisions_counter_->Add(static_cast<std::int64_t>(bucket_elisions_));
  }
}

void IndexMaintainer::TouchSummary(TopicId topic, double movement) {
  const auto slot = static_cast<std::size_t>(topic);
  if (summary_seen_[slot] == 0) {
    summary_seen_[slot] = 1;
    summary_topics_.push_back(topic);
  }
  if (movement > summary_movement_[slot]) summary_movement_[slot] = movement;
}

void IndexMaintainer::MaterializeSummary() {
  summary_.topics.clear();
  std::sort(summary_topics_.begin(), summary_topics_.end());
  summary_.topics.reserve(summary_topics_.size());
  for (const TopicId topic : summary_topics_) {
    const auto slot = static_cast<std::size_t>(topic);
    summary_.topics.push_back(AdvanceSummary::TopicTouch{
        topic, summary_movement_[slot]});
    summary_movement_[slot] = 0.0;
    summary_seen_[slot] = 0;
  }
  summary_topics_.clear();
}

void IndexMaintainer::FoldEdges(const ActiveWindow::Touched& t,
                                ScoreCache::TopicList* halves,
                                StampedAccumulator* acc) {
  // Scatter all of this element's edge deltas into a dense per-topic
  // accumulator (epoch-stamped, never cleared), then fold them into the
  // cached influence halves in one pass over the element's support —
  // O(sum of referrer supports + own support) instead of one sorted
  // merge per edge.
  acc->Begin();
  for (std::uint32_t i = 0; i < t.num_gained; ++i) {
    const auto& entries = t.gained_topics[i]->entries();
    acc->AddEntries(entries.data(), entries.size());
  }
  for (std::uint32_t i = 0; i < t.num_lost; ++i) {
    // Lost edges subtract; the bulk scatter adds entry values as-is, so
    // the negated fold stays on the per-entry path.
    for (const auto& [topic, prob] : t.lost_topics[i]->entries()) {
      acc->Add(static_cast<std::size_t>(topic), -prob);
    }
  }
  for (ScoreCache::TopicHalves& half : *halves) {
    const auto slot = static_cast<std::size_t>(half.topic);
    if (acc->Touched(slot)) {
      half.influence += half.topic_prob * acc->Get(slot);
    }
  }
}

void IndexMaintainer::ProcessTouched(TouchedItem* item,
                                     StampedAccumulator* acc) {
  // The element stage's kernel. The element's carried edge spans are
  // applied to the cached influence halves right before its scores are
  // composed — the halves stay exact in *both* refresh modes (under kPaper
  // the lists may stay stale-high, but the cache always holds the true
  // I_{i,t}(e), so the next reposition lands exactly where a full
  // recompute would). The changed keys land in the item's private buffer;
  // the gather serializes them in element order.
  const ActiveWindow::Touched& t = *item->touched;
  ScoreCache::TopicList& halves = *item->halves;
  if (t.num_gained + t.num_lost > 0) FoldEdges(t, &halves, acc);
  if (!item->reposition) {
    // kPaper referrer loss: no list writes, but the true scores moved
    // wherever the lost referrers' supports overlapped. The summary
    // touches are parked in the item's update buffer (topic + movement in
    // `score`; no handle) for the serial gather to fold — TouchSummary
    // state is single-threaded.
    std::uint32_t n = 0;
    if (t.num_gained + t.num_lost > 0) {
      const double factor = ctx_->influence_factor();
      for (const ScoreCache::TopicHalves& half : halves) {
        const auto slot = static_cast<std::size_t>(half.topic);
        if (acc->Touched(slot)) {
          item->updates[n++] = PendingHandle{
              half.topic,
              RankedList::HandleUpdate{
                  t.id, 0.0,
                  std::abs(factor * half.topic_prob * acc->Get(slot)),
                  nullptr}};
        }
      }
    }
    item->num_updates = n;
    return;
  }
  const double lambda = ctx_->params().lambda;
  const double influence_factor = ctx_->influence_factor();
  std::uint32_t n = 0;
  for (ScoreCache::TopicHalves& half : halves) {
    const double score =
        lambda * half.semantic + influence_factor * half.influence;
    if (score == half.listed) continue;
    item->updates[n++] = PendingHandle{
        half.topic,
        RankedList::HandleUpdate{t.id, half.listed, score, &half.handle}};
    half.listed = score;
  }
  item->num_updates = n;
}

void IndexMaintainer::ApplyIncremental(
    const ActiveWindow::UpdateResult& update) {
  PendingInsert* insert_runs = nullptr;
  RankedList::HandleUpdate* update_runs = nullptr;
  std::uint32_t* insert_off = nullptr;
  std::uint32_t* update_off = nullptr;
  {
    StageScope scope(telemetry_, stage_expiry_hist_, "maint.expiry");
    // Stage 1: topic-sharded expiry. A serial prologue walks the expired
    // elements in order — summary touches, membership and cache erases are
    // single-threaded state — copying each carried hint OUT of the dying
    // cache entry (cache_.Erase frees the pool row the halves live in).
    // The per-list erases then fan out, each touched topic owned by one
    // shard; a shard replays its lists' erases in element order, so every
    // list sees the same erase sequence whatever P is.
    erase_items_.clear();
    erase_topics_.clear();
    for (const ActiveWindow::Touched& t : update.expired) {
      const ScoreCache::TopicList* halves = ScoreCache::FromSlot(*t.user_slot);
      KSIR_CHECK(halves != nullptr);
      KSIR_DCHECK(halves == cache_.Find(t.id));
      topic_id_scratch_.clear();
      for (const ScoreCache::TopicHalves& half : *halves) {
        TouchSummary(half.topic, std::abs(half.listed));
        erase_items_.push_back(
            PendingErase{half.topic, t.id, half.listed, half.handle});
        topic_id_scratch_.push_back(half.topic);
        const auto slot = static_cast<std::size_t>(half.topic);
        if (erase_seen_[slot] == 0) {
          erase_seen_[slot] = 1;
          erase_topics_.push_back(half.topic);
        }
      }
      index_->EraseMembership(t.id, topic_id_scratch_.data(),
                              topic_id_scratch_.size());
      cache_.Erase(t.id);
    }
    if (!erase_topics_.empty()) {
      const std::size_t shards = std::min(workers_, erase_topics_.size());
      for (std::size_t i = 0; i < erase_topics_.size(); ++i) {
        const auto slot = static_cast<std::size_t>(erase_topics_[i]);
        erase_seen_[slot] = 0;  // restored for the next bucket
        topic_shard_[slot] = static_cast<std::uint32_t>(i % shards);
      }
      ParallelRun(
          pool_, shards, shards, [&](std::size_t, std::size_t shard) {
            // Each shard scans the full item sequence and executes only its
            // topics' erases: per-list element order is preserved by
            // construction, and the shards-many passes over the packed item
            // vector are cheap next to the chunk memmoves they feed.
            for (const PendingErase& e : erase_items_) {
              if (topic_shard_[static_cast<std::size_t>(e.topic)] != shard) {
                continue;
              }
              index_->EraseListEntry(e.topic, e.id, e.score, e.handle);
            }
          });
    }

    // Stage 2 (serial): lay out the bucket's work. Fresh elements get
    // their cache entry rows and membership record (hash maps and pools
    // are single-threaded state); gained/lost elements get an arena buffer
    // sized for their full support. No scores are computed yet.
    run_arena_.Reset();
    fresh_items_.clear();
    touched_items_.clear();
    for (const std::vector<ActiveWindow::Touched>* list :
         {&update.inserted, &update.resurrected}) {
      for (const ActiveWindow::Touched& t : *list) {
        ScoreCache::TopicList& halves = cache_.AllocateEntry(*t.element);
        *t.user_slot = &halves;  // carried to every later touch
        topic_id_scratch_.clear();
        for (const ScoreCache::TopicHalves& half : halves) {
          topic_id_scratch_.push_back(half.topic);
        }
        index_->InsertMembership(t.id, topic_id_scratch_.data(),
                                 topic_id_scratch_.size(), t.te);
        fresh_items_.push_back(FreshItem{t.element, &halves});
      }
    }
    const bool reposition_losses = mode_ == RefreshMode::kExact;
    const auto add_touched = [this](const ActiveWindow::Touched& t,
                                    bool reposition, bool te_changed) {
      ScoreCache::TopicList* halves = ScoreCache::FromSlot(*t.user_slot);
      KSIR_DCHECK(halves == cache_.Find(t.id));
      TouchedItem item;
      item.touched = &t;
      item.halves = halves;
      // Reposition items buffer their changed tuples here; kPaper loss
      // items (reposition off) reuse the buffer for their summary touches.
      item.updates = run_arena_.AllocateArray<PendingHandle>(halves->size());
      item.num_updates = 0;
      item.reposition = reposition;
      item.te_changed = te_changed;
      touched_items_.push_back(item);
    };
    for (const ActiveWindow::Touched& t : update.gained_referrer) {
      add_touched(t, /*reposition=*/true, /*te_changed=*/true);
    }
    for (const ActiveWindow::Touched& t : update.lost_referrer) {
      add_touched(t, reposition_losses, /*te_changed=*/false);
    }
  }

  const std::size_t num_fresh = fresh_items_.size();
  {
    StageScope scope(telemetry_, stage_score_hist_, "maint.score");
    // Stage 3 (parallel, element-sharded): fresh-element scoring (the one
    // full word scan of the element's lifetime), edge folding and score
    // composition. Elements are disjoint — each one owns its cache rows —
    // and each participant folds through its own dense accumulator, so the
    // stage shares nothing mutable and allocates nothing.
    ParallelRun(pool_, workers_, num_fresh + touched_items_.size(),
                [&](std::size_t p, std::size_t i) {
                  StampedAccumulator& acc = worker_acc_[p];
                  if (i < num_fresh) {
                    cache_.ComputeHalves(*fresh_items_[i].element,
                                         fresh_items_[i].halves, &acc);
                  } else {
                    ProcessTouched(&touched_items_[i - num_fresh], &acc);
                  }
                });
  }

  {
    StageScope scope(telemetry_, stage_gather_hist_, "maint.gather");
    // Stage 4 (serial): deterministic gather. t_e lands first (one
    // membership write per gained element), then the per-element outputs
    // are counted into per-topic runs in element order — fresh inserts,
    // then repositions in (element, support) order — so every list sees
    // the same operation sequence whatever P is.
    std::size_t total_inserts = 0;
    std::size_t total_updates = 0;
    for (const FreshItem& item : fresh_items_) {
      for (const ScoreCache::TopicHalves& half : *item.halves) {
        const auto topic = static_cast<std::size_t>(half.topic);
        if (insert_counts_[topic]++ == 0 && update_counts_[topic] == 0) {
          touched_.push_back(half.topic);
        }
        TouchSummary(half.topic, std::abs(half.listed));
        ++total_inserts;
      }
    }
    for (const TouchedItem& item : touched_items_) {
      if (!item.reposition) {
        // kPaper loss items carry summary touches, not repositions; fold
        // them here and keep them out of the per-topic runs.
        for (std::uint32_t i = 0; i < item.num_updates; ++i) {
          TouchSummary(item.updates[i].topic, item.updates[i].payload.score);
        }
        continue;
      }
      if (item.te_changed) {
        index_->TouchTime(item.touched->id, item.touched->te);
      }
      // num_updates keys moved; the rest of the support was elided.
      bucket_repositions_ += item.num_updates;
      bucket_elisions_ += item.halves->size() - item.num_updates;
      for (std::uint32_t i = 0; i < item.num_updates; ++i) {
        const auto topic = static_cast<std::size_t>(item.updates[i].topic);
        if (update_counts_[topic]++ == 0 && insert_counts_[topic] == 0) {
          touched_.push_back(item.updates[i].topic);
        }
        TouchSummary(item.updates[i].topic,
                     std::abs(item.updates[i].payload.score -
                              item.updates[i].payload.old_score));
        ++total_updates;
      }
    }
    if (!touched_.empty()) {
      std::sort(touched_.begin(), touched_.end());
      insert_runs = run_arena_.AllocateArray<PendingInsert>(total_inserts);
      update_runs =
          run_arena_.AllocateArray<RankedList::HandleUpdate>(total_updates);
      insert_off =
          run_arena_.AllocateArray<std::uint32_t>(touched_.size() + 1);
      update_off =
          run_arena_.AllocateArray<std::uint32_t>(touched_.size() + 1);
      std::uint32_t ins = 0;
      std::uint32_t upd = 0;
      for (std::size_t i = 0; i < touched_.size(); ++i) {
        const auto t = static_cast<std::size_t>(touched_[i]);
        insert_off[i] = ins;
        update_off[i] = upd;
        const std::uint32_t insert_count = insert_counts_[t];
        const std::uint32_t update_count = update_counts_[t];
        insert_counts_[t] = ins;  // repurposed as the scatter cursors
        update_counts_[t] = upd;
        ins += insert_count;
        upd += update_count;
      }
      insert_off[touched_.size()] = ins;
      update_off[touched_.size()] = upd;
      // Stage 4b (topic-sharded): the scatter itself. Each shard owns a
      // disjoint topic subset. A shard scans the element-ordered item
      // lists and advances only its topics' cursors, so the runs land in
      // element order for any shard count.
      const std::size_t shards = std::min(workers_, touched_.size());
      for (std::size_t i = 0; i < touched_.size(); ++i) {
        topic_shard_[static_cast<std::size_t>(touched_[i])] =
            static_cast<std::uint32_t>(i % shards);
      }
      ParallelRun(
          pool_, shards, shards, [&](std::size_t, std::size_t shard) {
            for (const FreshItem& item : fresh_items_) {
              const ElementId id = item.element->id;
              for (ScoreCache::TopicHalves& half : *item.halves) {
                const auto topic = static_cast<std::size_t>(half.topic);
                if (topic_shard_[topic] != shard) continue;
                insert_runs[insert_counts_[topic]++] =
                    PendingInsert{id, half.listed, &half.handle};
              }
            }
            for (const TouchedItem& item : touched_items_) {
              if (!item.reposition) continue;  // summary-only, folded above
              for (std::uint32_t i = 0; i < item.num_updates; ++i) {
                const auto topic =
                    static_cast<std::size_t>(item.updates[i].topic);
                if (topic_shard_[topic] != shard) continue;
                update_runs[update_counts_[topic]++] =
                    item.updates[i].payload;
              }
            }
          });
    }
  }

  // The list-apply stage is recorded on every bucket, including buckets
  // with no list work, so each stage histogram counts one sample per
  // bucket.
  StageScope list_scope(telemetry_, stage_list_apply_hist_,
                        "maint.list_apply");
  // Stage 5 (topic-sharded): apply each touched topic's fresh inserts,
  // then its reposition run. A topic is executed by exactly one
  // participant and no list state is shared across topics, so there is no
  // list-level locking; handle minting and the ScoreCache handle
  // write-backs land identically for any P because each list executes the
  // same operation sequence. Per-participant BatchScratch keeps the merge
  // sweeps allocation- and contention-free.
  ParallelRun(
      pool_, workers_, touched_.size(), [&](std::size_t p, std::size_t i) {
        RankedList::BatchScratch& scratch = worker_scratch_[p];
        const TopicId topic = touched_[i];
        for (std::uint32_t k = insert_off[i]; k < insert_off[i + 1]; ++k) {
          *insert_runs[k].handle = index_->InsertListEntry(
              topic, insert_runs[k].id, insert_runs[k].score);
        }
        const std::uint32_t begin = update_off[i];
        const std::uint32_t n = update_off[i + 1] - begin;
        if (n > 0) {
          index_->BatchRepositionHandles(topic, update_runs + begin, n,
                                         /*merge=*/n >= kMergeRunMin,
                                         &scratch);
        }
      });

  // Restore the lazily-zeroed counters for the next bucket.
  for (const TopicId topic : touched_) {
    insert_counts_[static_cast<std::size_t>(topic)] = 0;
    update_counts_[static_cast<std::size_t>(topic)] = 0;
  }
  touched_.clear();
}

void IndexMaintainer::ApplyRecompute(
    const ActiveWindow::UpdateResult& update) {
  // The oracle rescores from scratch (AllTopicScores) and keeps only what
  // the list writes need in its own cache rows: the listed score (the old
  // key of the next write) and the position handle. Summary movements on
  // this path are best-effort (score magnitudes; 0 for erases) — the topic
  // SETS are exact, which is all activation needs. See advance_summary.h.
  {
    StageScope scope(telemetry_, stage_expiry_hist_, "maint.expiry");
    for (const ActiveWindow::Touched& t : update.expired) {
      const ScoreCache::TopicList* rows = ScoreCache::FromSlot(*t.user_slot);
      KSIR_CHECK(rows != nullptr);
      KSIR_DCHECK(rows == cache_.Find(t.id));
      SmallVector<RankedList::ErasureHint, 8> hints;
      for (const ScoreCache::TopicHalves& row : *rows) {
        TouchSummary(row.topic, 0.0);
        hints.push_back(
            RankedList::ErasureHint{row.topic, row.listed, row.handle});
      }
      index_->EraseWithHints(t.id, hints.data(), hints.size());
      cache_.Erase(t.id);
    }
  }
  // No decomposed score stage: every insert / reposition below recomputes
  // delta_i(e) inline with its list write, so the whole remainder is the
  // list-apply stage.
  StageScope scope(telemetry_, stage_list_apply_hist_, "maint.list_apply");
  // Inserted and resurrected elements (erased from the lists when they
  // deactivated) enter with freshly computed scores.
  for (const std::vector<ActiveWindow::Touched>* fresh :
       {&update.inserted, &update.resurrected}) {
    for (const ActiveWindow::Touched& t : *fresh) {
      const auto scores = ctx_->AllTopicScores(*t.element);
      ScoreCache::TopicList& rows = cache_.AllocateEntry(*t.element);
      *t.user_slot = &rows;
      std::vector<RankedList::Handle> handles(scores.size());
      index_->Insert(t.id, scores, t.te, handles.data());
      for (std::size_t i = 0; i < scores.size(); ++i) {
        KSIR_DCHECK(rows[i].topic == scores[i].first);
        rows[i].listed = scores[i].second;
        rows[i].handle = handles[i];
        TouchSummary(scores[i].first, std::abs(scores[i].second));
      }
    }
  }
  const auto reposition = [this](const ActiveWindow::Touched& t,
                                 bool write) {
    const auto scores = ctx_->AllTopicScores(*t.element);
    ScoreCache::TopicList& rows = *ScoreCache::FromSlot(*t.user_slot);
    KSIR_DCHECK(&rows == cache_.Find(t.id));
    index_->TouchTime(t.id, t.te);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      TouchSummary(scores[i].first, std::abs(scores[i].second));
      if (!write) continue;
      index_->UpdateHandle(
          scores[i].first,
          RankedList::HandleUpdate{t.id, rows[i].listed, scores[i].second,
                                   &rows[i].handle});
      rows[i].listed = scores[i].second;
    }
  };
  for (const ActiveWindow::Touched& t : update.gained_referrer) {
    reposition(t, /*write=*/true);
  }
  // Losses move true scores in both refresh modes; only kExact writes them
  // back into the lists. t_e is a running max, so a loss never moves it.
  for (const ActiveWindow::Touched& t : update.lost_referrer) {
    reposition(t, /*write=*/mode_ == RefreshMode::kExact);
  }
}

}  // namespace ksir
