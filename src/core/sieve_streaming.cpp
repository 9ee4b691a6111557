#include "core/sieve_streaming.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "core/candidate_state.h"

namespace ksir {

QueryResult RunSieveStreaming(const ScoringContext& ctx,
                              const ActiveWindow& window,
                              const KsirQuery& query) {
  KSIR_CHECK(query.k >= 1);
  KSIR_CHECK(query.epsilon > 0.0 && query.epsilon < 1.0);
  WallTimer timer;
  QueryResult result;

  const double eps = query.epsilon;
  const double k = static_cast<double>(query.k);
  const double log1e = std::log1p(eps);

  std::vector<ElementId> ids = window.ActiveIds();
  std::sort(ids.begin(), ids.end());

  std::map<int, std::unique_ptr<CandidateState>> candidates;
  double m = 0.0;  // max singleton value seen so far

  for (ElementId id : ids) {
    const ActiveWindow::SlotView found = window.FindWithSlot(id);
    const SocialElement* e = found.element;
    KSIR_CHECK(e != nullptr);
    const double score = ctx.ElementScore(*e, query.x, found.user_data);
    ++result.stats.num_evaluated;
    if (score > m) {
      m = score;
      const int j_lo = static_cast<int>(std::ceil(std::log(m) / log1e - 1e-9));
      const int j_hi =
          static_cast<int>(std::floor(std::log(2.0 * k * m) / log1e + 1e-9));
      std::erase_if(candidates, [&](const auto& kv) {
        return kv.first < j_lo || kv.first > j_hi;
      });
      for (int j = j_lo; j <= j_hi; ++j) {
        if (!candidates.contains(j)) {
          candidates.emplace(j,
                             std::make_unique<CandidateState>(&ctx, &query.x));
        }
      }
    }
    for (auto& [j, candidate] : candidates) {
      if (candidate->size() >= static_cast<std::size_t>(query.k)) continue;
      const double phi = std::pow(1.0 + eps, j);
      // Original sieve rule: add when the gain reaches the "fair share" of
      // the remaining budget toward phi/2.
      const double needed = (phi / 2.0 - candidate->score()) /
                            (k - static_cast<double>(candidate->size()));
      // The singleton score upper-bounds the gain, so elements below the
      // required share are skipped without a gain evaluation.
      if (needed > 0.0 && score < needed) continue;
      ++result.stats.num_gain_evaluations;
      if (candidate->MarginalGain(*e) >= needed) {
        candidate->Add(*e);
      }
    }
  }

  const CandidateState* best = nullptr;
  for (const auto& [j, candidate] : candidates) {
    if (best == nullptr || candidate->score() > best->score()) {
      best = candidate.get();
    }
  }
  if (best != nullptr) {
    result.element_ids = best->members();
    result.score = best->score();
  }
  result.stats.num_candidates_or_rounds = candidates.size();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace ksir
