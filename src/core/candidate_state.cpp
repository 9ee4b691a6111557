#include "core/candidate_state.h"

#include <algorithm>

#include "common/check.h"

namespace ksir {

CandidateState::CandidateState(const ScoringContext* ctx,
                               const SparseVector* query)
    : ctx_(ctx) {
  KSIR_CHECK(ctx != nullptr);
  KSIR_CHECK(query != nullptr);
  topics_.reserve(query->nnz());
  for (const auto& [topic, weight] : query->entries()) {
    if (weight <= 0.0) continue;
    topics_.push_back(TopicState{topic, weight, {}, {}});
  }
}

CandidateState::SharedTopics CandidateState::GatherSharedTopics(
    const SocialElement& e) const {
  SharedTopics shared;
  for (std::size_t i = 0; i < topics_.size(); ++i) {
    const double p_e = e.topics.Get(topics_[i].topic);
    if (p_e > 0.0) shared.push_back(SharedTopic{i, p_e, 0.0, 0.0});
  }
  return shared;
}

double CandidateState::MarginalGain(const SocialElement& e) const {
  if (member_ids_.contains(e.id)) return 0.0;
  SharedTopics shared_topics = GatherSharedTopics(e);
  if (shared_topics.empty()) return 0.0;

  // Semantic gain: words where e's sigma beats the current best.
  for (SharedTopic& shared : shared_topics) {
    const TopicState& state = topics_[shared.index];
    for (const auto& [word, count] : e.doc.word_counts()) {
      const double sigma = ctx_->Sigma(state.topic, word, count, shared.p_e);
      if (sigma <= 0.0) continue;
      const auto it = state.best_sigma.find(word);
      const double best = it == state.best_sigma.end() ? 0.0 : it->second;
      if (sigma > best) shared.semantic += sigma - best;
    }
  }

  // Influence gain: residual coverage probability of e's referrers. Each
  // referrer is resolved once and feeds every shared topic's accumulator;
  // per topic the terms arrive in referrer order, as in a topic-major walk.
  for (const Referrer& r : ctx_->window().ReferrersOf(e.id)) {
    const SocialElement* referrer = ctx_->window().Find(r.id);
    KSIR_DCHECK(referrer != nullptr);
    if (referrer == nullptr) continue;
    for (SharedTopic& shared : shared_topics) {
      const TopicState& state = topics_[shared.index];
      const double p_edge = shared.p_e * referrer->topics.Get(state.topic);
      if (p_edge <= 0.0) continue;
      const auto it = state.survive.find(r.id);
      const double survive = it == state.survive.end() ? 1.0 : it->second;
      shared.influence += p_edge * survive;
    }
  }
  return SumGains(shared_topics);
}

double CandidateState::SumGains(const SharedTopics& shared_topics) const {
  double gain = 0.0;
  for (const SharedTopic& shared : shared_topics) {
    gain += topics_[shared.index].query_weight *
            (ctx_->params().lambda * shared.semantic +
             ctx_->influence_factor() * shared.influence);
  }
  return gain;
}

double CandidateState::Add(const SocialElement& e) {
  KSIR_CHECK(!member_ids_.contains(e.id));
  SharedTopics shared_topics = GatherSharedTopics(e);
  const auto& referrers = ctx_->window().ReferrersOf(e.id);
  for (SharedTopic& shared : shared_topics) {
    TopicState& state = topics_[shared.index];
    // Pre-size from the incoming element so the insertion loops below never
    // rehash mid-flight (and the capacity is reused across CELF/MTTS
    // add-rounds instead of being reallocated per evaluation).
    state.best_sigma.reserve(state.best_sigma.size() +
                             e.doc.word_counts().size());
    state.survive.reserve(state.survive.size() + referrers.size());

    for (const auto& [word, count] : e.doc.word_counts()) {
      const double sigma = ctx_->Sigma(state.topic, word, count, shared.p_e);
      if (sigma <= 0.0) continue;
      auto [it, inserted] = state.best_sigma.try_emplace(word, sigma);
      if (inserted) {
        shared.semantic += sigma;
      } else if (sigma > it->second) {
        shared.semantic += sigma - it->second;
        it->second = sigma;
      }
    }
  }

  for (const Referrer& r : referrers) {
    const SocialElement* referrer = ctx_->window().Find(r.id);
    KSIR_DCHECK(referrer != nullptr);
    if (referrer == nullptr) continue;
    for (SharedTopic& shared : shared_topics) {
      TopicState& state = topics_[shared.index];
      const double p_edge = shared.p_e * referrer->topics.Get(state.topic);
      if (p_edge <= 0.0) continue;
      auto [it, inserted] = state.survive.try_emplace(r.id, 1.0);
      shared.influence += p_edge * it->second;
      it->second *= (1.0 - p_edge);
    }
  }

  const double gain = SumGains(shared_topics);
  members_.push_back(e.id);
  member_ids_.insert(e.id);
  score_ += gain;
  return gain;
}

}  // namespace ksir
