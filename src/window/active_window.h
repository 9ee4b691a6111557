// Sliding-window store of active elements (paper Section 3.1).
//
// Given window length T and current time t:
//   W_t = { e : e.ts in (t - T, t] }                      (integer timestamps,
//                                                          i.e. [t-T+1, t])
//   A_t = W_t  ∪  { e' : e in W_t and e' in e.ref }
//
// An element becomes INACTIVE when it is outside W_t AND no in-window
// element refers to it anymore ("never referred to by any element after time
// t - T + 1", Algorithm 1 lines 12-13). A_t is defined declaratively over
// the whole stream, so a *future* element may reference a currently inactive
// one and pull it back into A_t (in Table 1, e2 is unreferenced and outside
// the window at t = 6 yet belongs to A_8 via e7/e8). To honor that, inactive
// elements are retained in an archive for `archive_retention` time units and
// are resurrected when referenced again; references to elements older than
// the retention horizon are counted as dangling and ignored (DESIGN.md §3).
//
// For each active element e the store keeps I_t(e): the in-window elements
// referring to e, which is exactly the influenced set of the influence score
// (Eq. 4). Advance() reports every window change as a Touched record that
// already carries everything downstream maintenance needs — the element
// pointer, the final t_e, and the topic vectors of the referrers gained and
// lost this bucket — so the index maintainer never re-probes the window's
// hash table per element or per edge. All carried pointers are pool-stable
// and valid until the next Advance() call.
#ifndef KSIR_WINDOW_ACTIVE_WINDOW_H_
#define KSIR_WINDOW_ACTIVE_WINDOW_H_

#include <cstdint>
#include <deque>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash_map.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "common/types.h"
#include "stream/element.h"

namespace ksir {

/// One in-window referrer of an element: (referrer id, referral time).
struct Referrer {
  ElementId id;
  Timestamp ts;

  bool operator==(const Referrer&) const = default;
};

/// Referrer set I_t(e), in referral-time order. Inline storage covers the
/// typical in-degree; hubs spill to the heap.
using ReferrerList = SmallVector<Referrer, 4>;

/// Mutable sliding-window element store. Thread-compatible; the engine
/// serializes Advance() against queries with a shared_mutex.
class ActiveWindow {
 public:
  /// One element changed by an Advance() call, with the state downstream
  /// maintenance needs carried along (no window re-probing):
  ///  - `element` points at the pool-stable stored element,
  ///  - `te` is LastReferredAt(id) at the end of the call,
  ///  - the topic-vector spans list the referrers gained / lost this call
  ///    (referral-time order; empty for inserted / resurrected elements,
  ///    whose referrer sets are re-read wholesale at re-scoring).
  /// Pointers stay valid until the next Advance().
  struct Touched {
    ElementId id;
    const SocialElement* element = nullptr;
    Timestamp te = 0;
    const SparseVector* const* gained_topics = nullptr;
    std::uint32_t num_gained = 0;
    const SparseVector* const* lost_topics = nullptr;
    std::uint32_t num_lost = 0;
    /// Opaque per-element slot owned by the consumer (the maintainer parks
    /// its score-cache record here at insertion and reads it back on every
    /// later touch — the last per-element hash probe carried away). The
    /// window never interprets it; it lives as long as the entry.
    void** user_slot = nullptr;
  };

  /// Changes produced by one Advance() call, consumed by the ranked-list
  /// maintainer (Algorithm 1). The lists are disjoint: an id appears in at
  /// most one of them per call.
  struct UpdateResult {
    /// Newly inserted elements (in arrival order).
    std::vector<Touched> inserted;
    /// Archived elements pulled back into A_t by a new reference. Index
    /// maintenance treats them like insertions.
    std::vector<Touched> resurrected;
    /// Active elements that gained at least one referrer (they may have
    /// lost referrers too; both spans are populated).
    std::vector<Touched> gained_referrer;
    /// Active elements that lost at least one referrer to expiry but remain
    /// active (their influence score shrank) and gained none.
    std::vector<Touched> lost_referrer;
    /// Elements that left A_t (deactivated; removed from the ranked
    /// lists). Edge spans are empty; element/te/user_slot are carried
    /// (the entries stay alive through this call). The slot target is
    /// consumer-owned and the consumer may free it while handling the
    /// expiry — the maintainer's topic-sharded erase copies its hints out
    /// of the slot's record BEFORE releasing it, and nothing may read the
    /// slot after the consumer's own release.
    std::vector<Touched> expired;
    /// References whose target was neither active nor archived.
    std::int64_t dangling_refs = 0;
  };

  /// `window_length` is T (> 0). `archive_retention` is how long inactive
  /// elements stay resurrectable; <= 0 means "same as T".
  explicit ActiveWindow(Timestamp window_length,
                        Timestamp archive_retention = 0);

  /// Entries are pool-allocated; live ones are destroyed here.
  ~ActiveWindow();

  ActiveWindow(const ActiveWindow&) = delete;
  ActiveWindow& operator=(const ActiveWindow&) = delete;

  /// Advances time to `now` and ingests `bucket` (elements with
  /// ts in (previous now, now], sorted by ts, unique ids). Insertions are
  /// processed before expiry, so an element referred to by this bucket
  /// survives even if its own timestamp just left the window.
  StatusOr<UpdateResult> Advance(Timestamp now,
                                 std::vector<SocialElement> bucket);

  /// An active element together with the value of its consumer-owned
  /// slot (see Touched::user_slot).
  struct SlotView {
    const SocialElement* element = nullptr;
    const void* user_data = nullptr;
  };

  /// Active-element lookup; nullptr when the id is inactive or unknown.
  const SocialElement* Find(ElementId id) const;

  /// Find() that also returns the element's slot value, from the same
  /// table probe. Both fields are null when the id is inactive or unknown.
  SlotView FindWithSlot(ElementId id) const;

  /// True when the element belongs to A_t.
  bool IsActive(ElementId id) const;

  /// True when the element is active AND inside W_t (not merely referenced).
  bool IsInWindow(ElementId id) const;

  /// True when the element is retained in the archive (inactive but
  /// resurrectable). Exposed for tests.
  bool IsArchived(ElementId id) const;

  /// I_t(e): in-window referrers of `id` in referral-time order.
  /// Empty for unknown or inactive ids.
  const ReferrerList& ReferrersOf(ElementId id) const;

  /// Last time `id` was referred to, or its own ts when never referred
  /// (the t_e of the paper's ranked-list tuples). `id` must be active.
  Timestamp LastReferredAt(ElementId id) const;

  /// Invokes `fn(element)` for every active element (A_t), unspecified
  /// order; a `fn` that also takes a `const void*` receives the element's
  /// slot value as well, so a scan that needs it probes nothing.
  template <typename Fn>
  void ForEachActive(Fn&& fn) const {
    for (const auto& [id, entry] : entries_) {
      if (!entry->active) continue;
      if constexpr (std::is_invocable_v<Fn&, const SocialElement&,
                                        const void*>) {
        fn(entry->element, static_cast<const void*>(entry->user_data));
      } else {
        fn(entry->element);
      }
    }
  }

  /// Snapshot of active element ids, unspecified order.
  std::vector<ElementId> ActiveIds() const;

  /// n_t = |A_t|.
  std::size_t num_active() const { return num_active_; }

  /// Number of elements currently in W_t.
  std::size_t num_in_window() const { return window_order_.size(); }

  Timestamp now() const { return now_; }
  Timestamp window_length() const { return window_length_; }
  Timestamp archive_retention() const { return archive_retention_; }

 private:
  struct Entry {
    SocialElement element;
    ReferrerList referrers;   // in-window, sorted by ts
    Timestamp last_ref_time;  // max referral ts ever seen (or own ts)
    bool active = true;
    /// Time of the most recent deactivation (archive GC key).
    Timestamp deactivated_at = kMinTimestamp;
    /// Advance-epoch stamps deduplicating the gained/lost report lists
    /// without per-edge hash-set inserts (the entry is already in hand when
    /// an edge is registered).
    std::uint64_t gained_stamp = 0;
    std::uint64_t lost_stamp = 0;
    /// Per-bucket influence-edge stash: topic vectors of the referrers this
    /// element gained / lost in the current Advance (referral-time order).
    /// Lazily cleared via `stash_stamp`, and reported to the maintainer as
    /// the Touched spans — this is how edge deltas reach the score cache
    /// without a window probe per edge.
    SmallVector<const SparseVector*, 4> gained_stash;
    SmallVector<const SparseVector*, 4> lost_stash;
    std::uint64_t stash_stamp = 0;
    /// Entries of this element's non-dangling reference targets, resolved
    /// once at insertion. A live referral record keeps its target active
    /// (hence alive) until this element leaves the window — exactly when
    /// these pointers are consumed to drop the records, so the expiry
    /// phase performs zero target re-probes.
    SmallVector<Entry*, 4> ref_targets;
    /// Consumer-owned slot surfaced through Touched::user_slot.
    void* user_data = nullptr;
  };

  /// Clears the entry's edge stash on its first touch this epoch.
  void TouchStash(Entry* entry);

  /// Builds one report record from an entry.
  Touched MakeTouched(ElementId id, Entry* entry, bool with_edges) const;

  /// Marks the entry inactive if it no longer satisfies the A_t predicate.
  void MaybeDeactivate(ElementId id, Entry* entry, UpdateResult* result);

  Timestamp window_length_;
  Timestamp archive_retention_;
  Timestamp now_ = 0;
  /// Monotone Advance() counter backing the Entry dedup stamps.
  std::uint64_t advance_epoch_ = 0;
  /// Entries live in a free-list pool: an insert after a GC reuses a warm
  /// slot instead of hitting the allocator, the id table rehashes 8-byte
  /// pointers instead of whole entries, and entry addresses are stable
  /// across insertions (references survive rehash) — which is what makes
  /// the Touched pointers safe to hand out until the next Advance().
  ObjectPool<Entry> pool_;
  FlatHashMap<ElementId, Entry*> entries_;
  std::size_t num_active_ = 0;
  /// Ids of elements in W_t, ordered by ts (front = oldest).
  std::deque<ElementId> window_order_;
  /// Inactive elements by deactivation time (front = oldest) for GC.
  std::deque<std::pair<ElementId, Timestamp>> archive_queue_;

  /// ---- per-Advance scratch, cleared at the top of every call ----
  /// Retained across buckets so the steady-state hot path allocates
  /// nothing: the vectors keep their capacity, the sets their slot arrays.
  std::vector<std::pair<ElementId, Entry*>> inserted_scratch_;
  std::vector<std::pair<ElementId, Entry*>> gained_scratch_;
  std::vector<std::pair<ElementId, Entry*>> lost_scratch_;
  std::vector<std::pair<ElementId, Entry*>> leavers_;
  FlatHashSet<ElementId> resurrected_scratch_;
  FlatHashSet<ElementId> inserted_set_;
  FlatHashSet<ElementId> expired_set_;
  FlatHashSet<ElementId> drop_from_expired_;

  static const ReferrerList kNoReferrers;
};

}  // namespace ksir

#endif  // KSIR_WINDOW_ACTIVE_WINDOW_H_
