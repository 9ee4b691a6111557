#include "core/mttd.h"

#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_hash_map.h"
#include "common/timer.h"
#include "core/candidate_state.h"
#include "core/traversal.h"

namespace ksir {

namespace {

// Max-heap entry of the element buffer E' with a cached gain upper bound.
struct BufferEntry {
  double cached_gain;
  ElementId id;

  bool operator<(const BufferEntry& other) const {
    if (cached_gain != other.cached_gain) {
      return cached_gain < other.cached_gain;
    }
    return id > other.id;  // deterministic tie-break: smaller id on top
  }
};

}  // namespace

QueryResult RunMttd(const ScoringContext& ctx, const RankedListIndex& index,
                    const KsirQuery& query) {
  KSIR_CHECK(query.k >= 1);
  KSIR_CHECK(query.epsilon > 0.0 && query.epsilon < 1.0);
  WallTimer timer;
  QueryResult result;

  const double eps = query.epsilon;
  RankedListCursor cursor(&index, &query.x);
  CandidateState candidate(&ctx, &query.x);

  // Buffer E': lazy max-heap plus the authoritative cached gains. Stale heap
  // entries (cached value changed or element added to S) are skipped on pop.
  std::priority_queue<BufferEntry> heap;
  FlatHashMap<ElementId, double> cached;

  // Line 3: tau starts at the upper bound over all active elements.
  double tau = cursor.UpperBound();
  double tau_terminate = 0.0;
  std::size_t rounds = 0;

  auto finish = [&](QueryResult&& r) {
    r.element_ids = candidate.members();
    r.score = candidate.score();
    r.stats.num_retrieved = cursor.num_retrieved();
    r.stats.num_candidates_or_rounds = rounds;
    r.stats.elapsed_ms = timer.ElapsedMillis();
    return std::move(r);
  };

  if (tau <= 0.0) return finish(std::move(result));

  std::vector<ElementId> pulled;
  while (tau >= tau_terminate && tau > 1e-12) {
    ++rounds;
    // Lines 13-19: retrieve every element whose score may reach tau — one
    // bulk cursor pull per round instead of a pop-and-recheck loop.
    pulled.clear();
    cursor.PopWhileAtLeast(tau, &pulled);
    for (const ElementId id : pulled) {
      const ActiveWindow::SlotView found = ctx.window().FindWithSlot(id);
      KSIR_CHECK(found.element != nullptr);
      const double score =
          ctx.ElementScore(*found.element, query.x, found.user_data);
      ++result.stats.num_evaluated;
      cached.emplace(id, score);
      heap.push(BufferEntry{score, id});
    }

    // Lines 6-10: add elements whose true marginal gain reaches tau.
    while (!heap.empty()) {
      const BufferEntry top = heap.top();
      const auto it = cached.find(top.id);
      if (it == cached.end() || it->second != top.cached_gain) {
        heap.pop();  // stale entry
        continue;
      }
      if (top.cached_gain < tau) break;  // no buffered element can qualify
      heap.pop();
      const SocialElement* e = ctx.window().Find(top.id);
      KSIR_CHECK(e != nullptr);
      const double gain = candidate.MarginalGain(*e);
      ++result.stats.num_gain_evaluations;
      if (gain >= tau) {
        candidate.Add(*e);
        cached.erase(it);
        if (candidate.size() == static_cast<std::size_t>(query.k)) {
          return finish(std::move(result));
        }
      } else {
        it->second = gain;
        heap.push(BufferEntry{gain, top.id});
      }
    }

    // Line 11: descend.
    tau_terminate = candidate.score() * eps / static_cast<double>(query.k);
    tau *= (1.0 - eps);
  }
  return finish(std::move(result));
}

}  // namespace ksir
