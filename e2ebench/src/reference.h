// Reference computations the benchmark checks the service against.
//
// Everything here is derived from the generated stream alone and written
// apart from the program: the window model reproduces W_t and A_t from the
// paper's definitions (Section 3.1), and ReferenceScore evaluates f(S, x)
// straight from Eqs. (1)-(4) without CandidateState or ScoringContext. The
// only program type read is the TopicModel, which is an input (p_i(w)).
#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sparse_vector.h"
#include "common/types.h"
#include "stream/element.h"
#include "subscribe/subscription.h"
#include "topic/topic_model.h"

namespace e2e {

using ksir::ElementId;
using ksir::SocialElement;
using ksir::SparseVector;
using ksir::Timestamp;

/// One member of a result set with the referrers its score may count.
struct ScoredMember {
  const SocialElement* element = nullptr;
  std::vector<const SocialElement*> referrers;
};

/// f(S, x) = sum_i x_i * (lambda * R_i(S) + (1 - lambda) / eta * I_i(S)),
/// with word coverage R_i(S) = sum_w max_{e in S} sigma_i(w, e),
/// sigma_i(w, e) = -freq(w, e) * p ln p at p = p_i(w) p_i(e), and
/// probabilistic coverage I_i(S) = sum_r (1 - prod_{e in S, r -> e}
/// (1 - p_i(e) p_i(r))) over the members' referrers.
double ReferenceScore(const ksir::TopicModel& model, double lambda, double eta,
                      const std::vector<ScoredMember>& members,
                      const SparseVector& x);

/// W_t and A_t of a stream whose elements have dense ids 0..n-1, advanced
/// bucket by bucket in step with the service.
///   W_t = { e : t - T < e.ts <= t },
///   A_t = W_t plus every target referenced from W_t.
class ReferenceWindow {
 public:
  /// `elements` (sorted by ts, id == index) must outlive the window.
  ReferenceWindow(const std::vector<SocialElement>* elements,
                  Timestamp window_length);

  /// Moves the clock to `now`, admitting every element with ts <= now.
  void AdvanceTo(Timestamp now);

  bool InWindow(ElementId id) const;
  bool InActiveSet(ElementId id) const;
  std::size_t window_size() const { return window_end_ - window_begin_; }
  std::size_t active_size() const { return window_size() + referenced_out_; }

  const SocialElement* Find(ElementId id) const;

  /// In-window referrers of `id` (r in W_t with id in r.ref).
  std::vector<const SocialElement*> InWindowReferrers(ElementId id) const;

 private:
  bool Known(ElementId id) const;
  void Admit(std::size_t index);
  void Retire(std::size_t index);

  const std::vector<SocialElement>* elements_;
  Timestamp window_length_;
  /// W_t is elements_[window_begin_, window_end_).
  std::size_t window_begin_ = 0;
  std::size_t window_end_ = 0;
  /// Per element: how many elements of W_t refer to it.
  std::vector<std::uint32_t> in_window_refs_;
  /// Elements outside W_t that some element of W_t refers to.
  std::size_t referenced_out_ = 0;
  /// Per element: every referrer in the stream, in ts order.
  std::vector<std::vector<ElementId>> referrers_;
};

/// Fills `out` with the referrers of `id` that the shard owning `id` holds
/// in its window; returns false unless exactly one shard holds `id` as
/// active.
using OwnerReferrers =
    std::function<bool(ElementId id, std::vector<const SocialElement*>* out)>;

/// Checks one result: at most k ids, no duplicates, every id in A_t, the
/// reported score within 1e-9 relative of the recomputation over the
/// owning shards' referrers, and never above the recomputation over all
/// in-window referrers. Returns an empty string when the result passes,
/// else what failed.
std::string CheckResult(const ksir::TopicModel& model, double lambda,
                        double eta, const ReferenceWindow& window,
                        const OwnerReferrers& owner_referrers,
                        const std::vector<ElementId>& ids, double score,
                        std::int32_t k, const SparseVector& x);

/// Replays a subscription update's deltas onto the previous result:
/// leaves drop, enters and reorders land at their new rank, every other
/// member keeps its rank. Returns false when the deltas do not describe a
/// consistent result.
bool ReplayDeltas(const std::vector<ElementId>& previous,
                  const std::vector<ksir::SubscriptionDelta>& deltas,
                  std::vector<ElementId>* next);

/// True when |a - b| <= rel * max(|a|, |b|), with an absolute floor of
/// 1e-300 so that two zeros compare equal.
bool WithinRelative(double a, double b, double rel);

}  // namespace e2e

#endif  // E2EBENCH_REFERENCE_H_
