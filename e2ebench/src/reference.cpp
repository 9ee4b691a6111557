#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace e2e {

double ReferenceScore(const ksir::TopicModel& model, double lambda, double eta,
                      const std::vector<ScoredMember>& members,
                      const SparseVector& x) {
  double total = 0.0;
  for (const auto& [topic, weight] : x.entries()) {
    if (weight <= 0.0) continue;
    // Eq. (3): each word counts once, at its best sigma over the set.
    std::unordered_map<ksir::WordId, double> best_sigma;
    // Eq. (4): each referrer r counts 1 - prod (1 - p_i(e) p_i(r)) over the
    // members it refers to.
    std::unordered_map<ElementId, double> not_covered;
    for (const ScoredMember& member : members) {
      const double p_e = member.element->topics.Get(topic);
      if (p_e <= 0.0) continue;
      for (const auto& [word, count] : member.element->doc.word_counts()) {
        const double p = model.WordProb(topic, word) * p_e;
        if (p <= 0.0) continue;
        const double sigma = -static_cast<double>(count) * p * std::log(p);
        double& best = best_sigma[word];
        best = std::max(best, sigma);
      }
      for (const SocialElement* referrer : member.referrers) {
        const double p_edge = p_e * referrer->topics.Get(topic);
        if (p_edge <= 0.0) continue;
        auto [it, inserted] = not_covered.try_emplace(referrer->id, 1.0);
        it->second *= 1.0 - p_edge;
      }
    }
    double word_coverage = 0.0;
    for (const auto& [word, sigma] : best_sigma) word_coverage += sigma;
    double influence = 0.0;
    for (const auto& [id, survive] : not_covered) influence += 1.0 - survive;
    total += weight * (lambda * word_coverage +
                       (1.0 - lambda) / eta * influence);
  }
  return total;
}

ReferenceWindow::ReferenceWindow(const std::vector<SocialElement>* elements,
                                 Timestamp window_length)
    : elements_(elements),
      window_length_(window_length),
      in_window_refs_(elements->size(), 0),
      referrers_(elements->size()) {
  for (const SocialElement& e : *elements_) {
    for (ElementId target : e.refs) {
      if (Known(target) && target != e.id) referrers_[target].push_back(e.id);
    }
  }
  for (auto& list : referrers_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

bool ReferenceWindow::Known(ElementId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < elements_->size();
}

void ReferenceWindow::Admit(std::size_t index) {
  const SocialElement& e = (*elements_)[index];
  for (ElementId target : e.refs) {
    if (!Known(target) || target == e.id) continue;
    // Generated references point strictly back in time, so the target is
    // either in W_t or already retired from it.
    if (in_window_refs_[target]++ == 0 && !InWindow(target)) {
      ++referenced_out_;
    }
  }
}

void ReferenceWindow::Retire(std::size_t index) {
  const SocialElement& e = (*elements_)[index];
  if (in_window_refs_[index] > 0) ++referenced_out_;
  for (ElementId target : e.refs) {
    if (!Known(target) || target == e.id) continue;
    if (--in_window_refs_[target] == 0 && !InWindow(target)) {
      --referenced_out_;
    }
  }
}

void ReferenceWindow::AdvanceTo(Timestamp now) {
  while (window_end_ < elements_->size() &&
         (*elements_)[window_end_].ts <= now) {
    Admit(window_end_);
    ++window_end_;
  }
  while (window_begin_ < window_end_ &&
         (*elements_)[window_begin_].ts <= now - window_length_) {
    ++window_begin_;
    Retire(window_begin_ - 1);
  }
}

bool ReferenceWindow::InWindow(ElementId id) const {
  return Known(id) && static_cast<std::size_t>(id) >= window_begin_ &&
         static_cast<std::size_t>(id) < window_end_;
}

bool ReferenceWindow::InActiveSet(ElementId id) const {
  return InWindow(id) ||
         (Known(id) && static_cast<std::size_t>(id) < window_begin_ &&
          in_window_refs_[id] > 0);
}

const SocialElement* ReferenceWindow::Find(ElementId id) const {
  return Known(id) ? &(*elements_)[id] : nullptr;
}

std::vector<const SocialElement*> ReferenceWindow::InWindowReferrers(
    ElementId id) const {
  std::vector<const SocialElement*> out;
  if (!Known(id)) return out;
  const std::vector<ElementId>& all = referrers_[id];
  auto it = std::lower_bound(all.begin(), all.end(),
                             static_cast<ElementId>(window_begin_));
  for (; it != all.end() && static_cast<std::size_t>(*it) < window_end_;
       ++it) {
    out.push_back(&(*elements_)[*it]);
  }
  return out;
}

bool WithinRelative(double a, double b, double rel) {
  return std::abs(a - b) <=
         std::max(rel * std::max(std::abs(a), std::abs(b)), 1e-300);
}

std::string CheckResult(const ksir::TopicModel& model, double lambda,
                        double eta, const ReferenceWindow& window,
                        const OwnerReferrers& owner_referrers,
                        const std::vector<ElementId>& ids, double score,
                        std::int32_t k, const SparseVector& x) {
  char buf[256];
  if (ids.size() > static_cast<std::size_t>(std::max(k, 0))) {
    std::snprintf(buf, sizeof(buf), "%zu ids for k = %d", ids.size(), k);
    return buf;
  }
  std::vector<ElementId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate id in result";
  }
  std::vector<ScoredMember> owned;
  std::vector<ScoredMember> all;
  for (ElementId id : ids) {
    if (!window.InActiveSet(id)) {
      std::snprintf(buf, sizeof(buf), "id %lld is not in A_t",
                    static_cast<long long>(id));
      return buf;
    }
    ScoredMember member{window.Find(id), {}};
    if (!owner_referrers(id, &member.referrers)) {
      std::snprintf(buf, sizeof(buf), "id %lld is active on no single shard",
                    static_cast<long long>(id));
      return buf;
    }
    owned.push_back(std::move(member));
    all.push_back(ScoredMember{window.Find(id), window.InWindowReferrers(id)});
  }
  const double owned_score = ReferenceScore(model, lambda, eta, owned, x);
  if (!WithinRelative(score, owned_score, 1e-9)) {
    std::snprintf(buf, sizeof(buf),
                  "reported f = %.17g, recomputed over the owning shards' "
                  "referrers = %.17g",
                  score, owned_score);
    return buf;
  }
  const double all_score = ReferenceScore(model, lambda, eta, all, x);
  if (score > all_score * (1.0 + 1e-9)) {
    std::snprintf(buf, sizeof(buf),
                  "reported f = %.17g exceeds the recomputation over all "
                  "in-window referrers = %.17g",
                  score, all_score);
    return buf;
  }
  return {};
}

bool ReplayDeltas(const std::vector<ElementId>& previous,
                  const std::vector<ksir::SubscriptionDelta>& deltas,
                  std::vector<ElementId>* next) {
  using Kind = ksir::SubscriptionDelta::Kind;
  std::vector<bool> moved(previous.size(), false);
  std::size_t leaves = 0;
  std::size_t enters = 0;
  for (const ksir::SubscriptionDelta& d : deltas) {
    if (d.kind == Kind::kEnter) {
      ++enters;
      continue;
    }
    if (d.old_rank < 0 ||
        static_cast<std::size_t>(d.old_rank) >= previous.size() ||
        previous[d.old_rank] != d.id || moved[d.old_rank]) {
      return false;
    }
    moved[d.old_rank] = true;
    if (d.kind == Kind::kLeave) ++leaves;
  }
  const std::size_t size = previous.size() - leaves + enters;
  std::vector<ElementId> out(size, ksir::kInvalidElementId);
  const auto place = [&](std::int32_t rank, ElementId id) {
    if (rank < 0 || static_cast<std::size_t>(rank) >= size ||
        out[rank] != ksir::kInvalidElementId) {
      return false;
    }
    out[rank] = id;
    return true;
  };
  for (std::size_t i = 0; i < previous.size(); ++i) {
    if (!moved[i] && !place(static_cast<std::int32_t>(i), previous[i])) {
      return false;
    }
  }
  for (const ksir::SubscriptionDelta& d : deltas) {
    if (d.kind != Kind::kLeave && !place(d.new_rank, d.id)) return false;
  }
  *next = std::move(out);
  return true;
}

}  // namespace e2e
