#include "core/topk_representative.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "core/candidate_state.h"
#include "core/traversal.h"

namespace ksir {

QueryResult RunTopkRepresentative(const ScoringContext& ctx,
                                  const RankedListIndex& index,
                                  const KsirQuery& query) {
  KSIR_CHECK(query.k >= 1);
  WallTimer timer;
  QueryResult result;

  RankedListCursor cursor(&index, &query.x);
  // Min-heap of the current best k singleton scores.
  using Scored = std::pair<double, ElementId>;
  std::priority_queue<Scored, std::vector<Scored>, std::greater<>> top;

  while (!cursor.Exhausted()) {
    // Early termination: no unevaluated element can beat the k-th best.
    if (top.size() == static_cast<std::size_t>(query.k) &&
        cursor.UpperBound() < top.top().first) {
      break;
    }
    const auto popped = cursor.PopNext();
    if (!popped.has_value()) break;
    const ActiveWindow::SlotView found = ctx.window().FindWithSlot(*popped);
    KSIR_CHECK(found.element != nullptr);
    const double score =
        ctx.ElementScore(*found.element, query.x, found.user_data);
    ++result.stats.num_evaluated;
    if (top.size() < static_cast<std::size_t>(query.k)) {
      top.emplace(score, *popped);
    } else if (score > top.top().first) {
      top.pop();
      top.emplace(score, *popped);
    }
  }

  std::vector<Scored> selected;
  selected.reserve(top.size());
  while (!top.empty()) {
    selected.push_back(top.top());
    top.pop();
  }
  std::sort(selected.begin(), selected.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  // Report f(S, x) of the set so quality is comparable across methods.
  CandidateState set_score(&ctx, &query.x);
  for (const auto& [score, id] : selected) {
    const SocialElement* e = ctx.window().Find(id);
    KSIR_CHECK(e != nullptr);
    set_score.Add(*e);
    result.element_ids.push_back(id);
  }
  result.score = set_score.score();
  result.stats.num_retrieved = cursor.num_retrieved();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace ksir
