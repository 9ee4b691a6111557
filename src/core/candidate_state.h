// Incremental state of one candidate result set S for a fixed query vector.
//
// Supports O(l * d) marginal-gain queries Delta(e | S) and additions by
// maintaining, per query topic i:
//  * best_sigma_i[w] = max_{e in S} sigma_i(w, e)   (word coverage, Eq. 3)
//  * survive_i[r]    = prod_{e in S ∩ r.ref} (1 - p_i(e -> r))
//                    = 1 - p_i(S -> r)              (probabilistic coverage,
//                                                    Eq. 4)
// so that
//  gain_i(e) = sum_w max(0, sigma_i(w, e) - best_sigma_i[w])
//            + (1-lambda)/eta scaled sum_{r in I_t(e)} p_i(e -> r) survive_i[r]
//
// Every submodular-maximization algorithm in this repository (MTTS, MTTD,
// CELF, SieveStreaming, brute force) builds on this class, which keeps the
// scoring semantics in exactly one place.
#ifndef KSIR_CORE_CANDIDATE_STATE_H_
#define KSIR_CORE_CANDIDATE_STATE_H_

#include <vector>

#include "common/flat_hash_map.h"
#include "common/small_vector.h"
#include "common/sparse_vector.h"
#include "common/types.h"
#include "core/scoring.h"
#include "stream/element.h"

namespace ksir {

/// Mutable candidate set with incremental f(S, x) bookkeeping.
class CandidateState {
 public:
  /// `ctx` and `query` must outlive the state.
  CandidateState(const ScoringContext* ctx, const SparseVector* query);

  /// Delta(e | S) = f(S ∪ {e}, x) - f(S, x). Zero for members of S.
  double MarginalGain(const SocialElement& e) const;

  /// Adds `e` to S and returns its realized marginal gain. `e` must not be
  /// a member yet.
  double Add(const SocialElement& e);

  /// f(S, x).
  double score() const { return score_; }

  std::size_t size() const { return members_.size(); }
  bool Contains(ElementId id) const { return member_ids_.contains(id); }

  /// Members in insertion order.
  const std::vector<ElementId>& members() const { return members_; }

 private:
  struct TopicState {
    TopicId topic;
    double query_weight;  // x_i
    /// Current max sigma_i(w, e) over S per covered word.
    FlatHashMap<WordId, double> best_sigma;
    /// Remaining non-coverage probability per influenced element.
    FlatHashMap<ElementId, double> survive;
  };

  /// A query topic e shares, with its gain halves accumulated so far.
  struct SharedTopic {
    std::size_t index;  // into topics_
    double p_e;
    double semantic;
    double influence;
  };
  using SharedTopics = SmallVector<SharedTopic, 8>;

  /// The query topics where p_i(e) > 0, in query order.
  SharedTopics GatherSharedTopics(const SocialElement& e) const;

  /// sum_i x_i * (lambda * semantic_i + (1-lambda)/eta * influence_i) over
  /// `shared`, in query-topic order.
  double SumGains(const SharedTopics& shared) const;

  const ScoringContext* ctx_;
  std::vector<TopicState> topics_;
  std::vector<ElementId> members_;
  FlatHashSet<ElementId> member_ids_;
  double score_ = 0.0;
};

}  // namespace ksir

#endif  // KSIR_CORE_CANDIDATE_STATE_H_
