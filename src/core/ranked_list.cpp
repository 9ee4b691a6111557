#include "core/ranked_list.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ksir {

std::size_t RankedList::FindChunk(const Key& key) const {
  // First chunk whose last (greatest in comparator order, i.e. lowest-score)
  // key is not ordered before `key`; keys beyond every chunk map to the
  // final chunk. The dispatched kernel narrows branchily, then counts the
  // final span branchlessly — the probe keys are effectively random, so a
  // pure binary search mispredicts half its steps.
  const std::size_t idx =
      kernels::LowerBoundKeys(chunk_last_.data(), chunk_last_.size(), key);
  return idx == chunks_.size() ? idx - 1 : idx;
}

std::unique_ptr<RankedList::Chunk> RankedList::NewChunk() {
  auto chunk = std::make_unique<Chunk>();
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(nullptr);
  }
  chunk->slot = slot;
  chunk->gen = ++next_gen_;
  slots_[slot] = chunk.get();
  return chunk;
}

void RankedList::FreeChunk(Chunk* chunk) {
  KSIR_DCHECK(slots_[chunk->slot] == chunk);
  slots_[chunk->slot] = nullptr;
  free_slots_.push_back(chunk->slot);
}

void RankedList::Renumber(std::size_t from) {
  for (std::size_t i = from; i < chunks_.size(); ++i) {
    chunks_[i]->pos = static_cast<std::uint32_t>(i);
  }
}

RankedList::Chunk* RankedList::ResolveHandle(Handle h) const {
  if (h.slot >= slots_.size()) return nullptr;
  Chunk* chunk = slots_[h.slot];
  if (chunk == nullptr || chunk->gen != h.gen) return nullptr;
  return chunk;
}

std::uint32_t RankedList::OffsetOfId(const Chunk* chunk, ElementId id) {
  // Strided id scan over <= 64 contiguous keys (ids interleave with the
  // scores, stride 2 in 8-byte words).
  const std::size_t offset =
      kernels::FindId64(&chunk->keys[0].id, chunk->size, 2, id);
  KSIR_CHECK(offset < chunk->size && "element missing from its chunk");
  return static_cast<std::uint32_t>(offset);
}

RankedList::Chunk* RankedList::Locate(ElementId id, double old_score,
                                      Handle handle,
                                      std::uint32_t* offset) const {
  const Key key{old_score, id};
  Chunk* chunk = ResolveHandle(handle);
  if (chunk != nullptr) {
    const Key* const first = chunk->keys.data();
    const std::size_t pos = kernels::LowerBoundKeys(first, chunk->size, key);
    if (pos < chunk->size && first[pos] == key) {
      *offset = static_cast<std::uint32_t>(pos);
      return chunk;
    }
  }
  // Handle miss: the carried key is self-locating — one binary search of
  // the chunk directory, then of the chunk.
  KSIR_CHECK(!chunks_.empty());
  chunk = chunks_[FindChunk(key)].get();
  const Key* const first = chunk->keys.data();
  const std::size_t pos = kernels::LowerBoundKeys(first, chunk->size, key);
  KSIR_CHECK(pos < chunk->size && first[pos] == key);
  *offset = static_cast<std::uint32_t>(pos);
  return chunk;
}

RankedList::Chunk* RankedList::InsertKey(const Key& key) {
  if (chunks_.empty()) {
    chunks_.push_back(NewChunk());
    Chunk* chunk = chunks_[0].get();
    chunk->keys[0] = key;
    chunk->size = 1;
    chunk->pos = 0;
    chunk_last_.push_back(key);
    ++size_;
    return chunk;
  }
  std::size_t idx = FindChunk(key);
  Chunk* chunk = chunks_[idx].get();
  if (chunk->size == kChunkCapacity) {
    // Split into two halves, then re-aim at the half that owns `key`. The
    // lower half keeps its slot/generation (its elements' handles stay
    // valid); the upper half's elements change chunks, so their old
    // handles miss harmlessly.
    auto upper_owned = NewChunk();
    Chunk* upper = upper_owned.get();
    constexpr std::uint32_t kHalf = kChunkCapacity / 2;
    kernels::CopyKeys(upper->keys.data(), chunk->keys.data() + kHalf,
                      kChunkCapacity - kHalf);
    upper->size = kChunkCapacity - kHalf;
    chunk->size = kHalf;
    const auto offset = static_cast<std::ptrdiff_t>(idx);
    chunks_.insert(chunks_.begin() + offset + 1, std::move(upper_owned));
    chunk_last_.insert(chunk_last_.begin() + offset,
                       chunks_[idx]->keys[kHalf - 1]);
    Renumber(idx + 1);
    if (chunks_[idx + 1]->keys[0] < key) {
      ++idx;
    }
    chunk = chunks_[idx].get();
  }
  Key* const first = chunk->keys.data();
  const std::size_t pos = kernels::LowerBoundKeys(first, chunk->size, key);
  kernels::CopyKeysBackward(first + pos + 1, first + pos, chunk->size - pos);
  first[pos] = key;
  ++chunk->size;
  chunk_last_[idx] = chunk->keys[chunk->size - 1];
  ++size_;
  return chunk;
}

void RankedList::EraseKeyAt(Chunk* chunk, std::uint32_t offset) {
  const std::size_t idx = chunk->pos;
  KSIR_DCHECK(chunks_[idx].get() == chunk);
  Key* const first = chunk->keys.data();
  kernels::CopyKeys(first + offset, first + offset + 1,
                    chunk->size - offset - 1);
  --chunk->size;
  --size_;
  if (chunk->size == 0) {
    FreeChunk(chunk);
    const auto pos = static_cast<std::ptrdiff_t>(idx);
    chunks_.erase(chunks_.begin() + pos);
    chunk_last_.erase(chunk_last_.begin() + pos);
    Renumber(idx);
  } else {
    chunk_last_[idx] = chunk->keys[chunk->size - 1];
    if (chunk->size < kChunkCapacity / 4) MaybeMerge(idx);
  }
}

void RankedList::EraseKey(const Key& key) {
  KSIR_CHECK(!chunks_.empty());
  const std::size_t idx = FindChunk(key);
  Chunk* chunk = chunks_[idx].get();
  Key* const first = chunk->keys.data();
  const std::size_t pos = kernels::LowerBoundKeys(first, chunk->size, key);
  KSIR_CHECK(pos < chunk->size && first[pos] == key);
  EraseKeyAt(chunk, static_cast<std::uint32_t>(pos));
}

void RankedList::MaybeMerge(std::size_t idx) {
  // Fold the sparse chunk into a neighbor when the pair stays under
  // capacity, bounding the chunk count under sustained churn. The moved
  // elements' handles go stale and miss.
  const auto merge_into = [this](std::size_t dst, std::size_t src) {
    Chunk* a = chunks_[dst].get();
    Chunk* b = chunks_[src].get();
    kernels::CopyKeys(a->keys.data() + a->size, b->keys.data(), b->size);
    a->size += b->size;
    chunk_last_[dst] = a->keys[a->size - 1];
    FreeChunk(b);
    const auto offset = static_cast<std::ptrdiff_t>(src);
    chunks_.erase(chunks_.begin() + offset);
    chunk_last_.erase(chunk_last_.begin() + offset);
    Renumber(src);
  };
  const std::uint32_t self = chunks_[idx]->size;
  if (idx + 1 < chunks_.size() &&
      self + chunks_[idx + 1]->size <= kChunkCapacity) {
    merge_into(idx, idx + 1);
  } else if (idx > 0 && chunks_[idx - 1]->size + self <= kChunkCapacity) {
    merge_into(idx - 1, idx);
  }
}

RankedList::Handle RankedList::Insert(ElementId id, double score) {
  // A NaN key would violate Key's strict weak ordering and silently corrupt
  // chunk order; reject it at the boundary instead.
  KSIR_CHECK(!std::isnan(score));
  Chunk* chunk = InsertKey(Key{score, id});
  return Handle{chunk->slot, chunk->gen};
}

RankedList::Chunk* RankedList::MoveAt(Chunk* chunk, std::uint32_t offset,
                                      const Key& new_key) {
  const std::size_t idx = chunk->pos;
  // The new key stays in this chunk iff it sorts at or before the chunk's
  // last key and at or after the previous chunk's last key (with the old
  // key still counted as present, which only widens the chunk's span).
  const bool within =
      !(chunk->keys[chunk->size - 1] < new_key) &&
      (idx == 0 || chunk_last_[idx - 1] < new_key);
  if (!within) {
    EraseKeyAt(chunk, offset);
    return InsertKey(new_key);
  }
  Key* const first = chunk->keys.data();
  Key* const old_pos = first + offset;
  Key* const new_pos =
      first + kernels::LowerBoundKeys(first, chunk->size, new_key);
  if (new_pos == old_pos || new_pos == old_pos + 1) {
    *old_pos = new_key;  // neighbors unchanged: overwrite in place
  } else if (new_pos < old_pos) {
    kernels::CopyKeysBackward(new_pos + 1, new_pos,
                              static_cast<std::size_t>(old_pos - new_pos));
    *new_pos = new_key;
  } else {
    kernels::CopyKeys(old_pos, old_pos + 1,
                      static_cast<std::size_t>(new_pos - old_pos) - 1);
    *(new_pos - 1) = new_key;
  }
  chunk_last_[idx] = chunk->keys[chunk->size - 1];
  return chunk;
}

void RankedList::UpdateHandle(const HandleUpdate& u) {
  KSIR_CHECK(!std::isnan(u.score));
  std::uint32_t offset = 0;
  Chunk* chunk = Locate(u.id, u.old_score, *u.handle, &offset);
  if (chunk->keys[offset].score == u.score) {
    *u.handle = Handle{chunk->slot, chunk->gen};
    return;
  }
  Chunk* dest = MoveAt(chunk, offset, Key{u.score, u.id});
  *u.handle = Handle{dest->slot, dest->gen};
}

void RankedList::ApplyBatchHandles(const HandleUpdate* updates, std::size_t n,
                                   BatchScratch* scratch) {
  // The carried listed scores ARE the old keys, so the batch needs no
  // per-update resolution at all: the merge sweep removes the carried keys
  // (its own consistency checks verify every one was present), inserts the
  // new ones and mints the refreshed handles where they land.
  scratch->removals.clear();
  scratch->insertions.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const HandleUpdate& u = updates[i];
    KSIR_CHECK(!std::isnan(u.score));
    scratch->removals.push_back(Key{u.old_score, u.id});
    scratch->insertions.push_back(
        BatchScratch::PendingInsert{Key{u.score, u.id}, u.handle});
  }
  MergeBatch(scratch);
}

void RankedList::MergeBatch(BatchScratch* scratch) {
  auto& removals = scratch->removals;
  auto& insertions = scratch->insertions;
  auto& deferred_removals = scratch->deferred_removals;
  auto& deferred_insertions = scratch->deferred_insertions;
  deferred_removals.clear();
  deferred_insertions.clear();
  if (removals.empty()) return;
  std::sort(removals.begin(), removals.end());
  std::sort(insertions.begin(), insertions.end(),
            [](const BatchScratch::PendingInsert& a,
               const BatchScratch::PendingInsert& b) { return a.key < b.key; });

  // One sweep over the chunk directory: the sorted removal/insertion runs
  // are partitioned by the (original) chunk boundaries and each touched
  // chunk is rewritten by ONE in-place three-way merge — no allocation, no
  // directory search per key, untouched chunks never inspected. Keys are
  // unique across all three streams (ids are unique per list; a
  // repositioned id's old and new key differ), so the merge needs no
  // tie-breaking. A chunk the batch would grow past capacity defers its
  // ops to the per-element path below (rare: needs >capacity keys landing
  // in one chunk's span). Landed insertions mint their handle on the spot.
  std::size_t ri = 0;
  std::size_t ii = 0;
  bool any_small = false;
  for (std::size_t c = 0;
       c < chunks_.size() && (ri < removals.size() || ii < insertions.size());
       ++c) {
    Chunk* chunk = chunks_[c].get();
    const Key last = chunk_last_[c];
    const bool last_chunk = c + 1 == chunks_.size();
    std::size_t r_end = ri;
    std::size_t i_end = ii;
    if (last_chunk) {
      r_end = removals.size();  // removals are always present keys
      i_end = insertions.size();
    } else {
      while (r_end < removals.size() && !(last < removals[r_end])) ++r_end;
      while (i_end < insertions.size() && !(last < insertions[i_end].key)) {
        ++i_end;
      }
    }
    if (r_end == ri && i_end == ii) continue;
    const std::size_t new_size = chunk->size - (r_end - ri) + (i_end - ii);
    if (new_size > kChunkCapacity) {
      deferred_removals.insert(
          deferred_removals.end(),
          removals.begin() + static_cast<std::ptrdiff_t>(ri),
          removals.begin() + static_cast<std::ptrdiff_t>(r_end));
      deferred_insertions.insert(
          deferred_insertions.end(),
          insertions.begin() + static_cast<std::ptrdiff_t>(ii),
          insertions.begin() + static_cast<std::ptrdiff_t>(i_end));
      ri = r_end;
      ii = i_end;
      continue;
    }
    // Merge only the affected span [s, e): from the first event key to one
    // past the last. Repositions are typically small nudges clustered near
    // the top of the list, so the span is a fraction of the chunk.
    Key* const keys = chunk->keys.data();
    const std::uint32_t old_size = chunk->size;
    const Key lo =
        ri < r_end && (ii == i_end || removals[ri] < insertions[ii].key)
            ? removals[ri]
            : insertions[ii].key;
    const Key hi =
        r_end > ri && (i_end == ii ||
                       insertions[i_end - 1].key < removals[r_end - 1])
            ? removals[r_end - 1]
            : insertions[i_end - 1].key;
    const auto s = static_cast<std::uint32_t>(
        kernels::LowerBoundKeys(keys, old_size, lo));
    const auto e = static_cast<std::uint32_t>(
        kernels::UpperBoundKeys(keys, old_size, hi));
    const std::uint32_t old_span = e - s;
    const auto new_span = static_cast<std::uint32_t>(
        old_span - (r_end - ri) + (i_end - ii));
    std::array<Key, kChunkCapacity> tmp;
    // Three steps, each a kernel: (1) copy the span aside compacting the
    // removal run out of it, (2) shift the untouched suffix once, (3)
    // two-way merge of the kept keys with the insertion run back into
    // place. Handle minting needs only the destination chunk's slot/gen,
    // so it runs after the merge, off the hot key-move path.
    std::uint32_t kept = 0;
    for (std::uint32_t src = s; src < e; ++src) {
      if (ri < r_end && removals[ri] == keys[src]) {
        ++ri;
        continue;
      }
      tmp[kept++] = keys[src];
    }
    KSIR_CHECK(ri == r_end);
    if (new_span != old_span) {  // shift the untouched suffix once
      if (new_span < old_span) {
        kernels::CopyKeys(keys + s + new_span, keys + e, old_size - e);
      } else {
        kernels::CopyKeysBackward(keys + e + (new_span - old_span), keys + e,
                                  old_size - e);
      }
    }
    const auto ins_count = static_cast<std::uint32_t>(i_end - ii);
    KSIR_CHECK(kept + ins_count == new_span);
    std::array<Key, kChunkCapacity> ins_keys;
    for (std::uint32_t k = 0; k < ins_count; ++k) {
      ins_keys[k] = insertions[ii + k].key;
    }
    kernels::MergeKeys(keys + s, tmp.data(), kept, ins_keys.data(),
                       ins_count);
    for (; ii < i_end; ++ii) {
      *insertions[ii].handle = Handle{chunk->slot, chunk->gen};
    }
    chunk->size = static_cast<std::uint32_t>(new_size);
    if (new_size > 0) chunk_last_[c] = keys[new_size - 1];
    if (new_size < kChunkCapacity / 4) any_small = true;
  }
  KSIR_CHECK(ri == removals.size() && ii == insertions.size());

  if (any_small) {
    // Compaction pass mirroring the erase-path merge policy: drop emptied
    // chunks and fold runs of sparse neighbors together, bounding the
    // chunk count under sustained batched churn.
    std::size_t write = 0;
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      if (chunks_[c]->size == 0) {
        FreeChunk(chunks_[c].get());
        continue;
      }
      if (write > 0 &&
          chunks_[write - 1]->size < kChunkCapacity / 4 &&
          chunks_[write - 1]->size + chunks_[c]->size <= kChunkCapacity) {
        Chunk* dst = chunks_[write - 1].get();
        Chunk* src = chunks_[c].get();
        kernels::CopyKeys(dst->keys.data() + dst->size, src->keys.data(),
                          src->size);
        dst->size += src->size;
        chunk_last_[write - 1] = dst->keys[dst->size - 1];
        FreeChunk(src);
        continue;
      }
      if (write != c) {
        chunks_[write] = std::move(chunks_[c]);
        chunk_last_[write] = chunk_last_[c];
      }
      ++write;
    }
    chunks_.resize(write);
    chunk_last_.resize(write);
    Renumber(0);
  }
  // A reposition batch never changes the element count, but the deferred
  // per-element ops below bump size_ (+1 per InsertKey, -1 per EraseKeyAt)
  // while their in-place counterparts did not; pre-compensate so the two
  // halves cancel.
  size_ += deferred_removals.size();
  size_ -= deferred_insertions.size();
  for (const Key& key : deferred_removals) EraseKey(key);
  for (const BatchScratch::PendingInsert& ins : deferred_insertions) {
    Chunk* dest = InsertKey(ins.key);
    *ins.handle = Handle{dest->slot, dest->gen};
  }
}

void RankedList::EraseHandle(ElementId id, double score, Handle handle) {
  std::uint32_t offset = 0;
  Chunk* chunk = Locate(id, score, handle, &offset);
  EraseKeyAt(chunk, offset);
}

const RankedList::Chunk* RankedList::FindChunkOfId(ElementId id) const {
  for (const auto& chunk : chunks_) {
    for (std::uint32_t i = 0; i < chunk->size; ++i) {
      if (chunk->keys[i].id == id) return chunk.get();
    }
  }
  return nullptr;
}

bool RankedList::Contains(ElementId id) const {
  return FindChunkOfId(id) != nullptr;
}

double RankedList::Get(ElementId id) const {
  const Chunk* chunk = FindChunkOfId(id);
  KSIR_CHECK(chunk != nullptr);
  return chunk->keys[OffsetOfId(chunk, id)].score;
}

std::size_t RankedList::DrainTop(const_iterator* pos, Key* out,
                                 std::size_t n) const {
  KSIR_DCHECK(pos->chunks_ == &chunks_);
  std::size_t copied = 0;
  while (copied < n && pos->chunk_ < chunks_.size()) {
    const Chunk* chunk = chunks_[pos->chunk_].get();
    const auto avail = static_cast<std::size_t>(chunk->size - pos->offset_);
    const std::size_t take = std::min(avail, n - copied);
    kernels::CopyKeys(out + copied, chunk->keys.data() + pos->offset_, take);
    copied += take;
    pos->offset_ += static_cast<std::uint32_t>(take);
    if (pos->offset_ == chunk->size) {
      ++pos->chunk_;
      pos->offset_ = 0;
    }
  }
  return copied;
}

RankedList::HandleState RankedList::ProbeHandle(Handle handle, ElementId id,
                                                double score) const {
  const Chunk* chunk = ResolveHandle(handle);
  if (chunk == nullptr) return HandleState::kStale;
  const Key key{score, id};
  const Key* const first = chunk->keys.data();
  const std::size_t pos = kernels::LowerBoundKeys(first, chunk->size, key);
  return pos < chunk->size && first[pos] == key ? HandleState::kValid
                                                : HandleState::kStale;
}

RankedListIndex::RankedListIndex(std::size_t num_topics)
    : lists_(num_topics) {
  KSIR_CHECK(num_topics > 0);
}

void RankedListIndex::Insert(
    ElementId id, const std::vector<std::pair<TopicId, double>>& topic_scores,
    Timestamp te, RankedList::Handle* handles_out) {
  const auto [it, inserted] = membership_.try_emplace(id);
  KSIR_CHECK(inserted);
  Membership& member = it->second;
  member.te = te;
  member.topics.reserve(topic_scores.size());
  std::size_t i = 0;
  for (const auto& [topic, score] : topic_scores) {
    KSIR_CHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
    const RankedList::Handle handle =
        lists_[static_cast<std::size_t>(topic)].Insert(id, score);
    if (handles_out != nullptr) handles_out[i] = handle;
    member.topics.push_back(topic);
    ++total_entries_;
    ++i;
  }
}

void RankedListIndex::InsertMembership(ElementId id, const TopicId* topics,
                                       std::size_t n, Timestamp te) {
  const auto [it, inserted] = membership_.try_emplace(id);
  KSIR_CHECK(inserted);
  Membership& member = it->second;
  member.te = te;
  member.topics.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TopicId topic = topics[i];
    KSIR_CHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
    member.topics.push_back(topic);
  }
  total_entries_ += n;
}

RankedList::Handle RankedListIndex::InsertListEntry(TopicId topic,
                                                    ElementId id,
                                                    double score) {
  KSIR_DCHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
  return lists_[static_cast<std::size_t>(topic)].Insert(id, score);
}

void RankedListIndex::TouchTime(ElementId id, Timestamp te) {
  const auto it = membership_.find(id);
  KSIR_CHECK(it != membership_.end());
  it->second.te = te;
}

Timestamp RankedListIndex::TimeOf(ElementId id) const {
  const auto it = membership_.find(id);
  KSIR_CHECK(it != membership_.end());
  return it->second.te;
}

void RankedListIndex::UpdateHandle(TopicId topic,
                                   const RankedList::HandleUpdate& u) {
  KSIR_CHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
  KSIR_DCHECK(membership_.contains(u.id));
  lists_[static_cast<std::size_t>(topic)].UpdateHandle(u);
}

void RankedListIndex::BatchRepositionHandles(
    TopicId topic, const RankedList::HandleUpdate* updates, std::size_t n,
    bool merge, RankedList::BatchScratch* scratch) {
  KSIR_CHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
  RankedList& list = lists_[static_cast<std::size_t>(topic)];
#ifndef NDEBUG
  for (std::size_t i = 0; i < n; ++i) {
    KSIR_DCHECK(membership_.contains(updates[i].id));
  }
#endif
  if (merge) {
    list.ApplyBatchHandles(updates, n, scratch);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      list.UpdateHandle(updates[i]);
    }
  }
}

void RankedListIndex::EraseWithHints(ElementId id,
                                     const RankedList::ErasureHint* hints,
                                     std::size_t n) {
  const auto it = membership_.find(id);
  KSIR_CHECK(it != membership_.end());
  KSIR_CHECK(it->second.topics.size() == n);
  for (std::size_t i = 0; i < n; ++i) {
    KSIR_DCHECK(it->second.topics[i] == hints[i].topic);
    lists_[static_cast<std::size_t>(hints[i].topic)].EraseHandle(
        id, hints[i].score, hints[i].handle);
    --total_entries_;
  }
  membership_.erase(it);
}

void RankedListIndex::EraseMembership(ElementId id,
                                      [[maybe_unused]] const TopicId* topics,
                                      std::size_t n) {
  const auto it = membership_.find(id);
  KSIR_CHECK(it != membership_.end());
  KSIR_CHECK(it->second.topics.size() == n);
  for (std::size_t i = 0; i < n; ++i) {
    KSIR_DCHECK(it->second.topics[i] == topics[i]);
  }
  total_entries_ -= n;
  membership_.erase(it);
}

void RankedListIndex::EraseListEntry(TopicId topic, ElementId id,
                                     double score,
                                     RankedList::Handle handle) {
  KSIR_DCHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
  lists_[static_cast<std::size_t>(topic)].EraseHandle(id, score, handle);
}

const RankedList& RankedListIndex::list(TopicId topic) const {
  KSIR_CHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
  return lists_[static_cast<std::size_t>(topic)];
}

}  // namespace ksir
