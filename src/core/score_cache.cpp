#include "core/score_cache.h"

#include "common/check.h"

namespace ksir {

ScoreCache::ScoreCache(const ScoringContext* ctx) : ctx_(ctx) {
  KSIR_CHECK(ctx != nullptr);
}

ScoreCache::~ScoreCache() {
  for (auto& [id, entry] : entries_) pool_.Destroy(entry);
}

ScoreCache::TopicList& ScoreCache::AllocateEntry(const SocialElement& e) {
  TopicList*& slot = entries_[e.id];
  if (slot == nullptr) slot = pool_.Create();
  TopicList& topics = *slot;
  topics.clear();
  topics.reserve(e.topics.nnz());
  for (const auto& [topic, prob] : e.topics.entries()) {
    topics.emplace_back(
        TopicHalves{topic, prob, 0.0, 0.0, 0.0, RankedList::Handle{}});
  }
  return topics;
}

void ScoreCache::ComputeHalves(const SocialElement& e, TopicList* topics,
                               StampedAccumulator* acc) const {
  const double lambda = ctx_->params().lambda;
  const double influence_factor = ctx_->influence_factor();
  // I_{i,t}(e) for ALL support topics in one pass over the referrer set
  // (one window probe per referrer, not per (referrer, topic)): scatter
  // each referrer's topic vector into the dense accumulator, then
  // influence_i = p_i(e) * acc[i].
  const ActiveWindow& window = ctx_->window();
  const ReferrerList& referrers = window.ReferrersOf(e.id);
  const bool has_referrers = !referrers.empty();
  if (has_referrers) {
    if (acc->empty()) acc->Resize(ctx_->model().num_topics());
    acc->Begin();
    for (const Referrer& r : referrers) {
      const SocialElement* referrer = window.Find(r.id);
      KSIR_DCHECK(referrer != nullptr);
      if (referrer == nullptr) continue;
      const auto& entries = referrer->topics.entries();
      acc->AddEntries(entries.data(), entries.size());
    }
  }
  for (TopicHalves& half : *topics) {
    const double semantic = ctx_->SemanticScore(half.topic, e, half.topic_prob);
    const auto t = static_cast<std::size_t>(half.topic);
    half.semantic = semantic;
    half.influence = has_referrers && acc->Touched(t)
                         ? half.topic_prob * acc->Get(t)
                         : 0.0;
    half.listed = lambda * semantic + influence_factor * half.influence;
  }
}

void ScoreCache::Erase(ElementId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  pool_.Destroy(it->second);
  entries_.erase(it);
}

const ScoreCache::TopicList* ScoreCache::Find(ElementId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second;
}

}  // namespace ksir
