// Per-bucket touched-topic summary exported by IndexMaintainer::Apply.
//
// The maintainer already knows exactly which topics' rankings a bucket
// moved — every reposition run, fresh insert and expiry erase is keyed by
// topic. Instead of discarding that knowledge after the list apply, the
// maintainer surfaces it as an AdvanceSummary so downstream consumers
// (the subscription engine's inverted topic index, see src/subscribe/)
// can activate only standing queries whose support intersects the touched
// set.
//
// Soundness contract: a topic appears in `topics` whenever ANY element's
// delta_i(e) changed on that topic this bucket — including kPaper-mode
// referrer losses, whose list tuples stay stale-high by design but whose
// true scores still moved. A topic ABSENT from the summary therefore
// guarantees that every element's score on that topic is unchanged, which
// is what makes skipping subscriptions keyed on absent topics exact (see
// SubscriptionManager for the per-algorithm caveats).
//
// `max_movement` is observational: exact (max |new - old listed|, with
// inserts/erases contributing |listed|) on the incremental maintenance
// pipeline, best-effort on the kRecompute oracle (score magnitudes; 0 for
// erases). Activation decisions use topic membership
// only.
#ifndef KSIR_CORE_ADVANCE_SUMMARY_H_
#define KSIR_CORE_ADVANCE_SUMMARY_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace ksir {

/// Touched-topic summary of one applied bucket.
struct AdvanceSummary {
  struct TopicTouch {
    TopicId topic;
    /// Max absolute listed-score movement seen on this topic this bucket.
    double max_movement;
  };

  /// Touched topics, sorted by topic id, deduplicated.
  std::vector<TopicTouch> topics;
  /// The engine's bucket epoch after this bucket was applied (0 straight
  /// out of the maintainer; KsirEngine stamps it).
  std::uint64_t epoch = 0;
};

}  // namespace ksir

#endif  // KSIR_CORE_ADVANCE_SUMMARY_H_
