// Per-topic ranked lists (paper Section 4.1, Algorithm 1).
//
// RL_i keeps one tuple <delta_i(e), t_e> per active element with p_i(e) > 0,
// sorted by topic-wise representativeness score descending.
//
// Storage is a chunked sorted array (B-tree-leaf style): an ordered vector
// of fixed-capacity chunks, each holding a sorted run of keys. Insert and
// reposition binary-search the chunk directory and memmove within one chunk
// (a few cache lines), full chunks split and sparse neighbors merge, and the
// threshold traversal of Algorithms 2-3 walks contiguous memory. The t_e
// half of the paper's tuple is NOT stored here: it is identical across all
// of an element's lists, so RankedListIndex keeps it once per element and
// the maintenance pipeline updates it once per reposition — which lets a
// reposition that changes no score on a topic skip that topic's list
// entirely.
//
// Position state is carried through the maintenance pipeline as opaque
// Handles (stable chunk slot + generation) minted by Insert and refreshed
// by every mutation. A valid handle resolves an element's chunk with two
// array reads and one in-chunk binary search — no hashing. Because every
// mutation also carries the element's exact listed score, a stale handle
// falls back to the self-locating key: FindChunk(old key) is one binary
// search of the contiguous chunk directory, still no hashing. The lists
// therefore keep no id -> position table at all; Get/Contains by id are
// full-scan diagnostics.
#ifndef KSIR_CORE_RANKED_LIST_H_
#define KSIR_CORE_RANKED_LIST_H_

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/kernels/kernels.h"
#include "common/small_vector.h"
#include "common/types.h"

namespace ksir {

/// One topic's ranked list.
class RankedList {
 public:
  /// Ordering key: score descending, id ascending for determinism. Aliases
  /// the kernel layer's 16-byte key so the directory probes, in-chunk
  /// searches, and span moves run on the dispatched SIMD kernels without
  /// any type-punning at the call sites.
  using Key = kernels::Key16;
  static_assert(std::is_same_v<decltype(Key::id), ElementId>,
                "kernels::Key16 must carry the engine's element id type");

  /// Opaque position hint: the stable slot id of the chunk holding the
  /// element plus that chunk's incarnation generation. A handle is a HINT,
  /// never authority: resolution verifies the exact key is present in the
  /// hinted chunk and falls back to a directory search for the carried key
  /// otherwise, so a stale handle (its chunk split, merged, or died) costs
  /// one binary search, not correctness. The default-constructed handle
  /// always misses.
  struct Handle {
    static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
    std::uint32_t slot = kInvalidSlot;
    std::uint32_t gen = 0;

    bool operator==(const Handle&) const = default;
  };

  /// One reposition carried through the pipeline: the exact key currently
  /// listed (`old_score` — the ScoreCache's `listed` half), the new score,
  /// and the in/out handle slot the list reads the position hint from and
  /// writes the new position into (it points into the ScoreCache entry, so
  /// the refreshed hint is immediately durable).
  struct HandleUpdate {
    ElementId id;
    double old_score;
    double score;
    Handle* handle;
  };

  /// Everything the handle-based erase path needs to drop one list entry
  /// without re-deriving it: which list, the listed key, the position hint.
  struct ErasureHint {
    TopicId topic;
    double score;
    Handle handle;
  };

  /// Keys per chunk: 64 * 16 B = 1 KiB of contiguous keys per chunk; splits
  /// at capacity keep memmoves short while iteration stays sequential.
  static constexpr std::size_t kChunkCapacity = 64;

 private:
  struct Chunk {
    std::uint32_t size = 0;
    /// Stable index into slots_ (survives directory shifts).
    std::uint32_t slot = 0;
    /// Incarnation of this slot; handles minted against an earlier
    /// incarnation miss without touching the keys.
    std::uint32_t gen = 0;
    /// Current index in chunks_ / chunk_last_ (renumbered on split/merge).
    std::uint32_t pos = 0;
    std::array<Key, kChunkCapacity> keys;
  };
  using ChunkVector = std::vector<std::unique_ptr<Chunk>>;

 public:
  /// Forward iterator over the chunked storage in descending-score order.
  /// Invalidated by any mutation, like the node iterators it replaced.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Key;
    using difference_type = std::ptrdiff_t;
    using reference = const Key&;
    using pointer = const Key*;

    const_iterator() = default;

    const Key& operator*() const { return (*chunks_)[chunk_]->keys[offset_]; }
    const Key* operator->() const {
      return &(*chunks_)[chunk_]->keys[offset_];
    }

    const_iterator& operator++() {
      if (++offset_ == (*chunks_)[chunk_]->size) {
        ++chunk_;
        offset_ = 0;
      }
      return *this;
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.chunk_ == b.chunk_ && a.offset_ == b.offset_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    friend class RankedList;
    const_iterator(const ChunkVector* chunks, std::size_t chunk,
                   std::uint32_t offset)
        : chunks_(chunks), chunk_(chunk), offset_(offset) {}

    const ChunkVector* chunks_ = nullptr;
    std::size_t chunk_ = 0;
    std::uint32_t offset_ = 0;
  };

  /// Reusable scratch of the batched reposition paths (sorted removal and
  /// insertion runs). Owned by the caller so one buffer serves every list
  /// of an index; never shared across threads.
  struct BatchScratch {
    /// One pending insertion: the new key and the handle slot to refresh
    /// where it lands.
    struct PendingInsert {
      Key key;
      Handle* handle;
    };
    std::vector<Key> removals;
    std::vector<PendingInsert> insertions;
    /// Ops deferred to the per-element path (chunks the batch would
    /// overflow past capacity); almost always empty.
    std::vector<Key> deferred_removals;
    std::vector<PendingInsert> deferred_insertions;
  };

  /// Inserts a new element; it must not be present. Returns the minted
  /// position handle.
  Handle Insert(ElementId id, double score);

  /// Repositions one element through its carried handle and listed score;
  /// writes the refreshed handle back into *u.handle. The no-split
  /// common case (new key stays in the hinted chunk) performs zero
  /// directory searches.
  void UpdateHandle(const HandleUpdate& u);

  /// Repositions `n` existing elements (each present, each at most once)
  /// in one pass: the carried old and new keys are sorted and merged into
  /// the chunk sequence in a single sweep of the chunk directory, instead
  /// of `n` independent binary-search + memmove operations, and every
  /// element's refreshed handle is written back through its HandleUpdate.
  /// Equivalent to calling UpdateHandle once per update — the resulting
  /// key sequence is identical; only the (unobservable) chunk boundaries
  /// may differ.
  void ApplyBatchHandles(const HandleUpdate* updates, std::size_t n,
                         BatchScratch* scratch);

  /// Removes an element through its carried handle + listed score.
  void EraseHandle(ElementId id, double score, Handle handle);

  /// Diagnostics (full scan; tests and debugging only).
  bool Contains(ElementId id) const;

  /// Current score of a present element (full scan, as Contains).
  double Get(ElementId id) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Ordered traversal (descending score).
  const_iterator begin() const { return const_iterator(&chunks_, 0, 0); }
  const_iterator end() const {
    return const_iterator(&chunks_, chunks_.size(), 0);
  }

  /// Bulk read for cursor pulls: copies up to `n` keys starting at *pos
  /// into `out` (chunk-sized contiguous spans, no per-key iterator
  /// bookkeeping), advances *pos past them and returns how many were
  /// copied. 0 iff *pos is end().
  std::size_t DrainTop(const_iterator* pos, Key* out, std::size_t n) const;

  /// Diagnostic handle resolution (tests): kValid when the hinted chunk is
  /// alive, same incarnation, and contains exactly Key{score, id}.
  enum class HandleState { kValid, kStale };
  HandleState ProbeHandle(Handle handle, ElementId id, double score) const;

 private:
  /// Index of the chunk that does / should contain `key`. Binary search
  /// over the contiguous last-key directory (no chunk pointer chasing).
  std::size_t FindChunk(const Key& key) const;

  std::unique_ptr<Chunk> NewChunk();
  void FreeChunk(Chunk* chunk);
  /// Reassigns Chunk::pos for chunks_[from..] after a directory shift.
  void Renumber(std::size_t from);

  /// slots_[h.slot] when alive and same incarnation, else nullptr.
  Chunk* ResolveHandle(Handle h) const;
  /// In-chunk offset of `id` (linear scan over <= 64 contiguous keys).
  static std::uint32_t OffsetOfId(const Chunk* chunk, ElementId id);

  /// Locates the listed key {old_score, id}: through the handle when it
  /// resolves, else by a directory search for the key itself. Returns the
  /// chunk and writes the offset of the element's key.
  Chunk* Locate(ElementId id, double old_score, Handle handle,
                std::uint32_t* offset) const;

  /// Inserts `key`, splitting if needed; returns the chunk that received
  /// the key.
  Chunk* InsertKey(const Key& key);
  /// Erases the key at `offset` of `chunk`, merging / dropping the chunk
  /// when it runs dry.
  void EraseKeyAt(Chunk* chunk, std::uint32_t offset);
  /// Erase by key value (directory search + EraseKeyAt).
  void EraseKey(const Key& key);

  /// Repositions the key at `offset` of `chunk` to `new_key`; stays inside
  /// the chunk (local memmoves, no directory search) whenever the new key
  /// lands in the same chunk — the common case for hub elements nudged
  /// every bucket. Returns the chunk that holds the key afterwards.
  Chunk* MoveAt(Chunk* chunk, std::uint32_t offset, const Key& new_key);

  /// One-sweep merge of the removal/insertion runs in `scratch`.
  void MergeBatch(BatchScratch* scratch);

  /// Merges chunk `idx` with a neighbor when the pair fits in one chunk.
  void MaybeMerge(std::size_t idx);

  /// Chunk holding `id`, or nullptr (full scan).
  const Chunk* FindChunkOfId(ElementId id) const;

  ChunkVector chunks_;
  /// chunk_last_[i] == chunks_[i]->keys[size - 1]; the search directory.
  std::vector<Key> chunk_last_;
  /// Stable chunk registry: slot id -> live chunk (nullptr when free).
  std::vector<Chunk*> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t next_gen_ = 0;
  std::size_t size_ = 0;
};

/// The z ranked lists plus the per-element membership record: the topic
/// support needed to erase expired elements without consulting the
/// (already pruned) window, and the element's t_e — stored ONCE here
/// instead of once per (element, topic) list entry, so a reposition
/// updates it with one write instead of z.
class RankedListIndex {
 public:
  explicit RankedListIndex(std::size_t num_topics);

  /// Inserts `id` into the list of every (topic, score) pair. When
  /// `handles_out` is non-null it receives the minted handle of each list
  /// entry, in `topic_scores` order.
  void Insert(ElementId id,
              const std::vector<std::pair<TopicId, double>>& topic_scores,
              Timestamp te, RankedList::Handle* handles_out = nullptr);

  /// Serial half of the parallel fresh-insert path: records the membership
  /// row (`topics` must be the element's exact support, in its topic-vector
  /// order) and the entry count WITHOUT touching any list. The per-topic
  /// InsertListEntry calls supply the list halves; Insert == membership +
  /// one InsertListEntry per support topic, in the same order.
  void InsertMembership(ElementId id, const TopicId* topics, std::size_t n,
                        Timestamp te);

  /// Inserts one (id, score) into one topic's list and returns the minted
  /// handle. Touches ONLY that list, so topic-disjoint callers (the
  /// maintainer's parallel list stage) run concurrently without locks; the
  /// membership row must already exist (InsertMembership).
  RankedList::Handle InsertListEntry(TopicId topic, ElementId id,
                                     double score);

  /// Repositions one element on one topic's list through its carried
  /// handle and listed score (RankedList::UpdateHandle); the element must
  /// have `topic` in its insertion support.
  void UpdateHandle(TopicId topic, const RankedList::HandleUpdate& u);

  /// Applies `n` repositions destined for one topic's list: every update's
  /// element must have `topic` in its insertion support. `merge` selects
  /// the one-pass RankedList::ApplyBatchHandles sweep; false falls back to
  /// per-element UpdateHandle calls (profitable for lists with only a
  /// couple of pending repositions). Refreshed handles are written back.
  void BatchRepositionHandles(TopicId topic,
                              const RankedList::HandleUpdate* updates,
                              std::size_t n, bool merge,
                              RankedList::BatchScratch* scratch);

  /// Updates the element's t_e (one membership write; the lists are not
  /// touched). The maintenance pipeline's per-topic runs carry only score
  /// changes, so t_e moves through here.
  void TouchTime(ElementId id, Timestamp te);

  /// t_e of an indexed element.
  Timestamp TimeOf(ElementId id) const;

  /// Removes `id` using carried per-topic hints; `hints` must cover exactly
  /// the element's insertion support (debug-verified). Equivalent to
  /// EraseMembership + one EraseListEntry per hint, in hint order.
  void EraseWithHints(ElementId id, const RankedList::ErasureHint* hints,
                      std::size_t n);

  /// Serial half of the topic-sharded expiry path: drops `id`'s membership
  /// row and entry count WITHOUT touching any list (the mirror of
  /// InsertMembership). `topics` must be the element's exact insertion
  /// support in membership order (debug-verified). The per-topic
  /// EraseListEntry calls remove the list halves.
  void EraseMembership(ElementId id, const TopicId* topics, std::size_t n);

  /// Removes one carried (score, handle) entry from one topic's list.
  /// Touches ONLY that list, so topic-disjoint callers (the maintainer's
  /// parallel expiry stage) run concurrently without locks; the membership
  /// row is dropped separately (EraseMembership).
  void EraseListEntry(TopicId topic, ElementId id, double score,
                      RankedList::Handle handle);

  bool Contains(ElementId id) const { return membership_.contains(id); }

  const RankedList& list(TopicId topic) const;

  std::size_t num_topics() const { return lists_.size(); }

  /// Total tuples across all lists.
  std::size_t total_entries() const { return total_entries_; }

  /// Number of distinct indexed elements.
  std::size_t num_elements() const { return membership_.size(); }

 private:
  struct Membership {
    SmallVector<TopicId, 4> topics;
    Timestamp te = 0;
  };

  std::vector<RankedList> lists_;
  FlatHashMap<ElementId, Membership> membership_;
  std::size_t total_entries_ = 0;
};

}  // namespace ksir

#endif  // KSIR_CORE_RANKED_LIST_H_
