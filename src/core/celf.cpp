#include "core/celf.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/kernels/kernels.h"
#include "common/timer.h"
#include "core/candidate_state.h"

namespace ksir {

namespace {

struct HeapEntry {
  double cached_gain;
  ElementId id;
  /// |S| at the time the gain was computed; a gain is current iff it was
  /// computed against the present S.
  std::size_t stamp;

  bool operator<(const HeapEntry& other) const {
    if (cached_gain != other.cached_gain) {
      return cached_gain < other.cached_gain;
    }
    return id > other.id;
  }
};

/// Shared lazy-greedy body; `candidates` restricts the ground set when
/// non-null, otherwise every active element competes.
QueryResult RunCelfImpl(const ScoringContext& ctx, const ActiveWindow& window,
                        const KsirQuery& query,
                        const std::vector<ElementId>* candidates) {
  KSIR_CHECK(query.k >= 1);
  WallTimer timer;
  QueryResult result;
  CandidateState candidate(&ctx, &query.x);

  // First pass: singleton scores of the ground set.
  std::priority_queue<HeapEntry> heap;
  const auto seed = [&](const SocialElement& e, const void* user_data) {
    const double score = ctx.ElementScore(e, query.x, user_data);
    ++result.stats.num_evaluated;
    if (score > 0.0) heap.push(HeapEntry{score, e.id, 0});
  };
  if (candidates == nullptr) {
    window.ForEachActive(seed);
  } else {
    for (const ElementId id : *candidates) {
      const ActiveWindow::SlotView found = window.FindWithSlot(id);
      if (found.element != nullptr) seed(*found.element, found.user_data);
    }
  }

  while (!heap.empty() &&
         candidate.size() < static_cast<std::size_t>(query.k)) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (top.cached_gain <= 0.0) break;
    if (top.stamp == candidate.size()) {
      const SocialElement* e = window.Find(top.id);
      KSIR_CHECK(e != nullptr);
      candidate.Add(*e);
    } else {
      const SocialElement* e = window.Find(top.id);
      KSIR_CHECK(e != nullptr);
      const double gain = candidate.MarginalGain(*e);
      ++result.stats.num_gain_evaluations;
      if (gain > 0.0) heap.push(HeapEntry{gain, top.id, candidate.size()});
    }
  }

  result.element_ids = candidate.members();
  result.score = candidate.score();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace

QueryResult RunCelf(const ScoringContext& ctx, const ActiveWindow& window,
                    const KsirQuery& query) {
  return RunCelfImpl(ctx, window, query, nullptr);
}

QueryResult RunCelfOverCandidates(
    const ScoringContext& ctx, const ActiveWindow& window,
    const KsirQuery& query, const std::vector<ElementId>& candidate_ids) {
  return RunCelfImpl(ctx, window, query, &candidate_ids);
}

QueryResult RunGreedy(const ScoringContext& ctx, const ActiveWindow& window,
                      const KsirQuery& query) {
  KSIR_CHECK(query.k >= 1);
  WallTimer timer;
  QueryResult result;
  CandidateState candidate(&ctx, &query.x);

  std::vector<ElementId> ids = window.ActiveIds();
  std::sort(ids.begin(), ids.end());  // deterministic tie-breaking

  // Per-round gain buffer: evaluate every marginal gain into a contiguous
  // array, then take the round winner with the vectorized argmax kernel
  // (smallest index on ties == the sequential scan's first-max-wins).
  // Members hold the sentinel -1.0, below the 0.0 acceptance floor.
  std::vector<double> gains(ids.size(), -1.0);
  for (std::int32_t round = 0; round < query.k && !ids.empty(); ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (candidate.Contains(ids[i])) {
        gains[i] = -1.0;
        continue;
      }
      const SocialElement* e = window.Find(ids[i]);
      KSIR_CHECK(e != nullptr);
      gains[i] = candidate.MarginalGain(*e);
      ++result.stats.num_gain_evaluations;
    }
    std::size_t best_i = 0;
    kernels::WeightedSumArgmax(gains.data(), gains.data(), ids.size(),
                               &best_i);
    if (!(gains[best_i] > 0.0)) break;  // no positive gain remains
    const SocialElement* best = window.Find(ids[best_i]);
    KSIR_CHECK(best != nullptr);
    candidate.Add(*best);
  }

  result.stats.num_evaluated = ids.size();
  result.element_ids = candidate.members();
  result.score = candidate.score();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace ksir
