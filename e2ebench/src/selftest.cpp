// Self-test of the benchmark's reference scorer, window model and result
// checks on instances small enough to compute by hand. Run it with
//   python3 e2ebench/run.py --selftest
// It exits non-zero when any expectation fails.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "reference.h"

namespace e2e {
namespace {

int failures = 0;
int passed = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed;
  } else {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

SocialElement Element(ElementId id, Timestamp ts,
                      const std::vector<ksir::WordId>& words,
                      std::vector<SparseVector::Entry> topics,
                      std::vector<ElementId> refs = {}) {
  SocialElement e;
  e.id = id;
  e.ts = ts;
  e.doc = ksir::Document::FromWordIds(words);
  e.topics = SparseVector::FromEntries(std::move(topics));
  e.refs = std::move(refs);
  return e;
}

/// Two topics over two words: p_0 = (0.5, 0.5), p_1 = (0.9, 0.1).
ksir::TopicModel Model() {
  auto model = ksir::TopicModel::FromMatrix({{0.5, 0.5}, {0.9, 0.1}});
  return std::move(model).value();
}

/// Everything owned by one shard that holds the whole window.
OwnerReferrers OneShard(const ReferenceWindow& window) {
  return [&window](ElementId id, std::vector<const SocialElement*>* out) {
    if (!window.InActiveSet(id)) return false;
    *out = window.InWindowReferrers(id);
    return true;
  };
}

void TestHandComputedScore() {
  const ksir::TopicModel model = Model();
  // e1 = {w0, w1} wholly on topic 0; e2 = {w0, w0} half on topic 0; r
  // refers to e1 with p_0(r) = 0.8. Query x = topic 0, lambda = 0.5,
  // eta = 1. By hand:
  //   sigma_0(w0, e1) = sigma_0(w1, e1) = -0.5 ln 0.5 = 0.5 ln 2
  //   sigma_0(w0, e2) = -2 * 0.25 ln 0.25 = ln 2 (beats e1 on w0)
  //   R_0({e1, e2}) = ln 2 + 0.5 ln 2 = 1.5 ln 2
  //   I_0({e1, e2}) = 1 - (1 - 1.0 * 0.8) = 0.8
  //   f = 0.5 * 1.5 ln 2 + 0.5 * 0.8 = 0.75 ln 2 + 0.4
  const std::vector<SocialElement> stream = {
      Element(0, 1, {0, 1}, {{0, 1.0}}),
      Element(1, 2, {0, 0}, {{0, 0.5}, {1, 0.5}}),
      Element(2, 3, {1}, {{0, 0.8}, {1, 0.2}}, {0}),
  };
  ReferenceWindow window(&stream, 10);
  window.AdvanceTo(3);
  const SparseVector x = SparseVector::FromEntries({{0, 1.0}});
  const double expected = 0.75 * std::log(2.0) + 0.4;

  std::vector<ScoredMember> members;
  for (ElementId id : {0, 1}) {
    members.push_back(
        ScoredMember{window.Find(id), window.InWindowReferrers(id)});
  }
  const double f = ReferenceScore(model, 0.5, 1.0, members, x);
  Expect(std::abs(f - expected) < 1e-15,
         "f({e1, e2}) = 0.75 ln 2 + 0.4, got " + std::to_string(f));
  // Singletons: f({e2}) has no referrers, f({e1}) = 0.5 ln 2 + 0.4.
  const double f1 = ReferenceScore(model, 0.5, 1.0, {members[0]}, x);
  const double f2 = ReferenceScore(model, 0.5, 1.0, {members[1]}, x);
  Expect(std::abs(f1 - (0.5 * std::log(2.0) + 0.4)) < 1e-15, "f({e1})");
  Expect(std::abs(f2 - 0.5 * std::log(2.0)) < 1e-15, "f({e2})");

  const OwnerReferrers owner = OneShard(window);
  Expect(CheckResult(model, 0.5, 1.0, window, owner, {0, 1}, expected, 2, x)
             .empty(),
         "the exact result passes");
  Expect(CheckResult(model, 0.5, 1.0, window, owner, {1, 0},
                     expected * (1 + 1e-12), 2, x)
             .empty(),
         "a result within 1e-9 relative passes, in any order");
  Expect(!CheckResult(model, 0.5, 1.0, window, owner, {0, 1},
                      expected * 1.001, 2, x)
              .empty(),
         "a wrong score is rejected");
  Expect(!CheckResult(model, 0.5, 1.0, window, owner, {0, 0}, f1, 2, x)
              .empty(),
         "a duplicate id is rejected");
  Expect(!CheckResult(model, 0.5, 1.0, window, owner, {0, 1, 2}, expected,
                      2, x)
              .empty(),
         "more than k ids are rejected");
  // The owning shard holds no referrer of e1: its score is f without the
  // influence term, which the check accepts, and the unreduced f is then
  // rejected as a mismatch.
  const OwnerReferrers no_referrers = [&window](
      ElementId id, std::vector<const SocialElement*>*) {
    return window.InActiveSet(id);
  };
  Expect(CheckResult(model, 0.5, 1.0, window, no_referrers, {0, 1},
                     0.75 * std::log(2.0), 2, x)
             .empty(),
         "a score over the owning shard's referrers passes");
  Expect(!CheckResult(model, 0.5, 1.0, window, no_referrers, {0, 1},
                      expected, 2, x)
              .empty(),
         "a score counting referrers the owner lacks is rejected");
}

void TestProbabilisticCoverage() {
  const ksir::TopicModel model = Model();
  // r refers to both members: I_0 = 1 - (1 - 0.8)(1 - 0.5 * 0.8) = 0.88.
  const std::vector<SocialElement> stream = {
      Element(0, 1, {0, 1}, {{0, 1.0}}),
      Element(1, 2, {0, 0}, {{0, 0.5}, {1, 0.5}}),
      Element(2, 3, {1}, {{0, 0.8}, {1, 0.2}}, {0, 1}),
  };
  ReferenceWindow window(&stream, 10);
  window.AdvanceTo(3);
  std::vector<ScoredMember> members;
  for (ElementId id : {0, 1}) {
    members.push_back(
        ScoredMember{window.Find(id), window.InWindowReferrers(id)});
  }
  const SparseVector x = SparseVector::FromEntries({{0, 1.0}});
  const double f = ReferenceScore(model, 0.5, 1.0, members, x);
  Expect(std::abs(f - (0.75 * std::log(2.0) + 0.44)) < 1e-15,
         "a shared referrer counts once, as 1 - prod(1 - p)");
}

void TestWindowModel() {
  const ksir::TopicModel model = Model();
  // T = 10. e0 (ts 1) is referred to by e2 (ts 5); e1 (ts 2) by nobody.
  const std::vector<SocialElement> stream = {
      Element(0, 1, {0}, {{0, 1.0}}),
      Element(1, 2, {0}, {{0, 1.0}}),
      Element(2, 5, {1}, {{0, 1.0}}, {0}),
      Element(3, 14, {1}, {{0, 1.0}}),
  };
  ReferenceWindow window(&stream, 10);
  window.AdvanceTo(5);
  Expect(window.window_size() == 3 && window.active_size() == 3, "t = 5");
  window.AdvanceTo(12);  // e0 and e1 leave W_t; e2 still refers to e0
  Expect(window.window_size() == 1 && window.active_size() == 2, "t = 12");
  Expect(window.InActiveSet(0) && !window.InWindow(0), "e0 is referenced");
  Expect(!window.InActiveSet(1), "e1 left A_t");
  Expect(window.InWindowReferrers(0).size() == 1, "I_t(e0) = {e2}");
  const OwnerReferrers owner = OneShard(window);
  const SparseVector x = SparseVector::FromEntries({{0, 1.0}});
  Expect(!CheckResult(model, 0.5, 1.0, window, owner, {1}, 0.0, 1, x).empty(),
         "an id outside A_t is rejected");
  window.AdvanceTo(16);  // e2 leaves: e0 loses its last referrer
  Expect(window.window_size() == 1 && window.active_size() == 1, "t = 16");
  Expect(!window.InActiveSet(0), "e0 left A_t with its last referrer");
}

void TestReplayDeltas() {
  using Kind = ksir::SubscriptionDelta::Kind;
  // [10, 11, 12] -> [13, 10, 12]: 11 leaves, 13 enters at 0, 10 moves to 1,
  // 12 keeps rank 2 and gets no delta.
  const std::vector<ksir::SubscriptionDelta> deltas = {
      {Kind::kLeave, 11, 1, -1},
      {Kind::kEnter, 13, -1, 0},
      {Kind::kReorder, 10, 0, 1},
  };
  std::vector<ElementId> next;
  Expect(ReplayDeltas({10, 11, 12}, deltas, &next) &&
             next == std::vector<ElementId>{13, 10, 12},
         "deltas replay onto the previous result");
  std::vector<ksir::SubscriptionDelta> corrupted = deltas;
  corrupted[0].id = 12;
  Expect(!ReplayDeltas({10, 11, 12}, corrupted, &next),
         "a leave naming the wrong id is rejected");
  corrupted = deltas;
  corrupted[1].new_rank = 2;
  Expect(!ReplayDeltas({10, 11, 12}, corrupted, &next),
         "two elements at one rank are rejected");
  Expect(ReplayDeltas({}, {{Kind::kEnter, 7, -1, 0}}, &next) &&
             next == std::vector<ElementId>{7},
         "a first delivery is all enters");
}

}  // namespace
}  // namespace e2e

int main() {
  e2e::TestHandComputedScore();
  e2e::TestProbabilisticCoverage();
  e2e::TestWindowModel();
  e2e::TestReplayDeltas();
  std::printf("e2e selftest: %d passed, %d failed\n", e2e::passed,
              e2e::failures);
  return e2e::failures == 0 ? 0 : 1;
}
