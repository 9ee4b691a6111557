#include "core/mtts.h"

#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "common/check.h"
#include "common/timer.h"
#include "core/candidate_state.h"
#include "core/traversal.h"

namespace ksir {

namespace {

// phi = (1 + eps)^j.
double PhiOf(int j, double eps) { return std::pow(1.0 + eps, j); }

}  // namespace

QueryResult RunMtts(const ScoringContext& ctx, const RankedListIndex& index,
                    const KsirQuery& query) {
  KSIR_CHECK(query.k >= 1);
  KSIR_CHECK(query.epsilon > 0.0 && query.epsilon < 1.0);
  WallTimer timer;
  QueryResult result;

  const double eps = query.epsilon;
  const double k = static_cast<double>(query.k);
  const double log1e = std::log1p(eps);

  RankedListCursor cursor(&index, &query.x);
  // Candidates S_phi keyed by the exponent j of phi = (1+eps)^j.
  std::map<int, std::unique_ptr<CandidateState>> candidates;
  double delta_max = 0.0;
  double threshold = 0.0;  // TH: min phi/2k over unfilled candidates

  std::size_t peak_candidates = 0;
  while (!cursor.Exhausted() && cursor.UpperBound() >= threshold) {
    const auto popped = cursor.PopNext();
    if (!popped.has_value()) break;
    const ActiveWindow::SlotView found = ctx.window().FindWithSlot(*popped);
    const SocialElement* e = found.element;
    KSIR_CHECK(e != nullptr);

    // Line 6: evaluate delta(e, x).
    const double score = ctx.ElementScore(*e, query.x, found.user_data);
    ++result.stats.num_evaluated;

    // Lines 7-9: track delta_max and adjust the candidate range
    // [delta_max, 2 k delta_max].
    if (score > delta_max) {
      delta_max = score;
      const int j_lo =
          static_cast<int>(std::ceil(std::log(delta_max) / log1e - 1e-9));
      const int j_hi = static_cast<int>(
          std::floor(std::log(2.0 * k * delta_max) / log1e + 1e-9));
      // Drop candidates that fell out of range; create missing ones. Newly
      // created candidates only see elements from this point on, exactly as
      // in SieveStreaming.
      std::erase_if(candidates, [&](const auto& kv) {
        return kv.first < j_lo || kv.first > j_hi;
      });
      for (int j = j_lo; j <= j_hi; ++j) {
        if (!candidates.contains(j)) {
          candidates.emplace(
              j, std::make_unique<CandidateState>(&ctx, &query.x));
        }
      }
      peak_candidates = std::max(peak_candidates, candidates.size());
    }

    // Lines 10-12: each candidate decides independently.
    for (auto& [j, candidate] : candidates) {
      const double add_threshold = PhiOf(j, eps) / (2.0 * k);
      if (candidate->size() >= static_cast<std::size_t>(query.k)) continue;
      if (score < add_threshold) continue;
      ++result.stats.num_gain_evaluations;
      if (candidate->MarginalGain(*e) >= add_threshold) {
        candidate->Add(*e);
      }
    }

    // Line 14: recompute TH.
    threshold = std::numeric_limits<double>::infinity();
    for (const auto& [j, candidate] : candidates) {
      if (candidate->size() < static_cast<std::size_t>(query.k)) {
        threshold = PhiOf(j, eps) / (2.0 * k);
        break;  // candidates are ordered by j, so the first unfilled is min
      }
    }
    if (candidates.empty()) threshold = 0.0;
  }

  // Line 15: return the best candidate.
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
  result.stats.num_retrieved = cursor.num_retrieved();
  result.stats.num_candidates_or_rounds = peak_candidates;
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace ksir
