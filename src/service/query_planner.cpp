#include "service/query_planner.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "core/celf.h"
#include "core/scoring.h"
#include "window/active_window.h"

namespace ksir {

namespace {

/// One shard's contribution to a plan.
struct ShardAnswer {
  Status status;
  QueryResult result;
  std::vector<ElementSnapshot> snapshots;
};

/// Runs the Query + ExportSnapshots pair against `shard`, retrying when a
/// bucket advance tears the pair apart (detected via the bucket epoch).
ShardAnswer AskShard(const KsirEngine& shard, const KsirQuery& query,
                     std::int64_t* retries) {
  static constexpr int kMaxAttempts = 3;
  ShardAnswer answer;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const std::uint64_t epoch_before = shard.bucket_epoch();
    auto result = shard.Query(query);
    if (!result.ok()) {
      answer.status = result.status();
      return answer;
    }
    answer.result = *std::move(result);
    answer.snapshots = shard.ExportSnapshots(answer.result.element_ids);
    const bool torn =
        shard.bucket_epoch() != epoch_before ||
        answer.snapshots.size() != answer.result.element_ids.size();
    if (!torn) break;
    if (attempt + 1 < kMaxAttempts) ++*retries;
    // After the last attempt the (possibly partial) snapshots are used as
    // is: a missing candidate just expired, so dropping it is consistent
    // with the state the merge window represents.
  }
  answer.status = Status::OK();
  return answer;
}

}  // namespace

QueryPlanner::QueryPlanner(std::vector<KsirEngine*> shards,
                           const TopicModel* model, WorkerPool* pool,
                           Telemetry* telemetry)
    : shards_(std::move(shards)),
      model_(model),
      pool_(pool),
      owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()) {
  KSIR_CHECK(!shards_.empty());
  KSIR_CHECK(model_ != nullptr && pool_ != nullptr);
  MetricRegistry& reg = telemetry_->registry();
  plans_counter_ = reg.GetCounter("ksir_planner_plans_total",
                                  "Fan-out/merge plans executed");
  epoch_retries_counter_ = reg.GetCounter(
      "ksir_planner_epoch_retries_total",
      "Per-shard query/export pairs re-run because a bucket landed between");
  merge_wins_counter_ = reg.GetCounter(
      "ksir_planner_merge_wins_total",
      "Plans where the merged set beat every single-shard result");
  best_shard_wins_counter_ = reg.GetCounter(
      "ksir_planner_best_shard_wins_total",
      "Plans resolved by the best-shard guard");
  plan_hist_ = reg.GetHistogram("ksir_planner_plan_seconds",
                                "One whole QueryPlanner::Plan");
  merge_hist_ = reg.GetHistogram(
      "ksir_planner_merge_seconds",
      "Merge step: snapshot replay window + CELF over candidates");
  shard_fanout_hists_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_fanout_hists_.push_back(reg.GetHistogram(
        "ksir_planner_shard_fanout_seconds_" + std::to_string(i),
        "Query + snapshot export latency of shard " + std::to_string(i)));
  }
}

StatusOr<QueryResult> QueryPlanner::Plan(const KsirQuery& query) const {
  // One plan is one trace unit (matching the maintainer's bucket applies):
  // every sample_period-th plan gets its fan-out/merge spans recorded.
  telemetry_->tracer().SampleUnit();
  StageScope plan_scope(telemetry_, plan_hist_, "planner.plan");
  WallTimer timer;
  plans_counter_->Add(1);

  // --- Step 1: fan the query out to every shard in parallel. ---
  std::vector<ShardAnswer> answers(shards_.size());
  std::vector<std::int64_t> retries(shards_.size(), 0);
  {
    TaskGroup group(pool_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      group.Submit([this, i, &query, &answers, &retries]() {
        StageScope scope(telemetry_, shard_fanout_hists_[i],
                         "planner.fanout");
        answers[i] = AskShard(*shards_[i], query, &retries[i]);
      });
    }
    group.Wait();
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    KSIR_RETURN_NOT_OK(answers[i].status);
    if (retries[i] > 0) epoch_retries_counter_->Add(retries[i]);
  }

  // Best single-shard answer: the guard result the merge has to beat.
  std::size_t best_shard = 0;
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    if (answers[i].result.score > answers[best_shard].result.score) {
      best_shard = i;
    }
  }

  // --- Step 2: replay the candidate snapshots into a merge window. ---
  // Every candidate element is inserted with a rebuilt reference list that
  // contains exactly the edges referrer -> candidate of its exported
  // influence set, so the merge window reproduces each shard's I_t(e)
  // precisely (re-ingesting the raw refs would instead re-register edges
  // whose referrers already slid out of the shard windows).
  std::unordered_map<ElementId, SocialElement> merge_elements;
  std::vector<ElementId> candidate_ids;
  for (const ShardAnswer& answer : answers) {
    for (const ElementSnapshot& snapshot : answer.snapshots) {
      candidate_ids.push_back(snapshot.element.id);
      auto [it, inserted] =
          merge_elements.try_emplace(snapshot.element.id, snapshot.element);
      if (inserted) it->second.refs.clear();
      for (const SocialElement& referrer : snapshot.referrers) {
        auto [rit, r_inserted] =
            merge_elements.try_emplace(referrer.id, referrer);
        if (r_inserted) rit->second.refs.clear();
        rit->second.refs.push_back(snapshot.element.id);
      }
    }
  }

  QueryResult merged;
  if (!merge_elements.empty()) {
    StageScope merge_scope(telemetry_, merge_hist_, "planner.merge");
    std::vector<SocialElement> replay;
    replay.reserve(merge_elements.size());
    Timestamp max_ts = 0;
    for (auto& [id, element] : merge_elements) {
      max_ts = std::max(max_ts, element.ts);
      replay.push_back(std::move(element));
    }
    std::sort(replay.begin(), replay.end(),
              [](const SocialElement& a, const SocialElement& b) {
                return a.ts != b.ts ? a.ts < b.ts : a.id < b.id;
              });
    // A window as long as the whole replayed history: nothing expires, so
    // every candidate keeps its full exported influence set.
    ActiveWindow merge_window(max_ts);
    auto update = merge_window.Advance(max_ts, std::move(replay));
    KSIR_RETURN_NOT_OK(update.status());
    const ScoringContext merge_ctx(model_, &merge_window,
                                   shards_.front()->config().scoring);
    std::sort(candidate_ids.begin(), candidate_ids.end());
    merged =
        RunCelfOverCandidates(merge_ctx, merge_window, query, candidate_ids);
  }

  // --- Step 3: never return less than the best single shard. ---
  const bool merge_wins =
      merged.score > answers[best_shard].result.score + 1e-12;
  (merge_wins ? merge_wins_counter_ : best_shard_wins_counter_)->Add(1);
  // The work counters report the whole plan: the merge plus every shard.
  QueryStats work = merged.stats;
  for (const ShardAnswer& answer : answers) {
    work.num_evaluated += answer.result.stats.num_evaluated;
    work.num_retrieved += answer.result.stats.num_retrieved;
    work.num_gain_evaluations += answer.result.stats.num_gain_evaluations;
    work.num_candidates_or_rounds +=
        answer.result.stats.num_candidates_or_rounds;
  }
  QueryResult final_result =
      merge_wins ? std::move(merged) : std::move(answers[best_shard].result);
  final_result.stats = work;
  final_result.stats.elapsed_ms = timer.ElapsedMillis();
  return final_result;
}

PlannerStats QueryPlanner::stats() const {
  PlannerStats stats;
  stats.plans = plans_counter_->Value();
  stats.epoch_retries = epoch_retries_counter_->Value();
  stats.merge_wins = merge_wins_counter_->Value();
  stats.best_shard_wins = best_shard_wins_counter_->Value();
  return stats;
}

}  // namespace ksir
