// Unit tests for the per-topic ranked lists, Algorithm 1 maintenance
// (including the Figure 5 golden state) and the traversal cursor. The t_e
// half of the paper's tuple lives once per element in RankedListIndex
// (TimeOf); the lists themselves store only the ordering keys.
#include <limits>
#include <map>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/ranked_list.h"
#include "core/traversal.h"
#include "paper_fixture.h"

namespace ksir {
namespace {

using ::ksir::testing::BalancedQueryVector;
using ::ksir::testing::MakePaperEngineAtT8;

// ------------------------------------------------------------ RankedList --

TEST(RankedListTest, InsertKeepsDescendingOrder) {
  RankedList list;
  list.Insert(1, 0.3);
  list.Insert(2, 0.9);
  list.Insert(3, 0.5);
  std::vector<ElementId> order;
  for (const auto& key : list) order.push_back(key.id);
  EXPECT_EQ(order, (std::vector<ElementId>{2, 3, 1}));
}

TEST(RankedListTest, TiesBreakById) {
  RankedList list;
  list.Insert(7, 0.5);
  list.Insert(3, 0.5);
  std::vector<ElementId> order;
  for (const auto& key : list) order.push_back(key.id);
  EXPECT_EQ(order, (std::vector<ElementId>{3, 7}));
}

TEST(RankedListTest, UpdateRepositions) {
  RankedList list;
  RankedList::Handle h1 = list.Insert(1, 0.3);
  list.Insert(2, 0.9);
  list.UpdateHandle({1, 0.3, 1.5, &h1});
  EXPECT_EQ(list.begin()->id, 1);
  EXPECT_DOUBLE_EQ(list.Get(1), 1.5);
  EXPECT_EQ(list.ProbeHandle(h1, 1, 1.5), RankedList::HandleState::kValid);
}

TEST(RankedListTest, EraseRemoves) {
  RankedList list;
  list.Insert(1, 0.3);
  const RankedList::Handle h2 = list.Insert(2, 0.9);
  list.EraseHandle(2, 0.9, h2);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_FALSE(list.Contains(2));
  EXPECT_TRUE(list.Contains(1));
}

TEST(RankedListTest, EqualScoresDistinctElementsCoexist) {
  RankedList list;
  const RankedList::Handle h1 = list.Insert(1, 0.5);
  list.Insert(2, 0.5);
  list.EraseHandle(1, 0.5, h1);
  EXPECT_TRUE(list.Contains(2));
  EXPECT_DOUBLE_EQ(list.Get(2), 0.5);
}

// ------------------------------------------------------- RankedListIndex --

TEST(RankedListIndexTest, InsertSpansTopics) {
  RankedListIndex index(3);
  index.Insert(1, {{0, 0.9}, {2, 0.1}}, 5);
  EXPECT_TRUE(index.Contains(1));
  EXPECT_TRUE(index.list(0).Contains(1));
  EXPECT_FALSE(index.list(1).Contains(1));
  EXPECT_TRUE(index.list(2).Contains(1));
  EXPECT_EQ(index.total_entries(), 2u);
  EXPECT_EQ(index.num_elements(), 1u);
  EXPECT_EQ(index.TimeOf(1), 5);
}

TEST(RankedListIndexTest, EraseClearsAllLists) {
  RankedListIndex index(3);
  RankedList::Handle handles[2];
  index.Insert(1, {{0, 0.9}, {1, 0.5}}, 5, handles);
  const RankedList::ErasureHint hints[] = {{0, 0.9, handles[0]},
                                           {1, 0.5, handles[1]}};
  index.EraseWithHints(1, hints, 2);
  EXPECT_FALSE(index.Contains(1));
  EXPECT_EQ(index.total_entries(), 0u);
  EXPECT_TRUE(index.list(0).empty());
}

TEST(RankedListIndexTest, UpdateRepositionsAcrossListsAndMovesTime) {
  RankedListIndex index(2);
  RankedList::Handle handles[2];
  index.Insert(1, {{0, 0.9}, {1, 0.1}}, 5, handles);
  index.Insert(2, {{0, 0.5}, {1, 0.5}}, 6);
  index.UpdateHandle(0, {1, 0.9, 0.2, &handles[0]});
  index.UpdateHandle(1, {1, 0.1, 0.8, &handles[1]});
  index.TouchTime(1, 7);
  EXPECT_EQ(index.list(0).begin()->id, 2);
  EXPECT_EQ(index.list(1).begin()->id, 1);
  EXPECT_EQ(index.TimeOf(1), 7);
  EXPECT_EQ(index.TimeOf(2), 6);
}

TEST(RankedListIndexTest, TouchTimeUpdatesWithoutListWork) {
  RankedListIndex index(2);
  const RankedList::Handle handle = [&] {
    RankedList::Handle h;
    index.Insert(1, {{0, 0.9}}, 5, &h);
    return h;
  }();
  index.TouchTime(1, 9);
  EXPECT_EQ(index.TimeOf(1), 9);
  EXPECT_DOUBLE_EQ(index.list(0).Get(1), 0.9);
  // The list entry (and so its handle) was not touched.
  EXPECT_EQ(index.list(0).ProbeHandle(handle, 1, 0.9),
            RankedList::HandleState::kValid);
}

// --------------------------------------------- Figure 5 golden list state --

class Figure5Test : public ::testing::Test {
 protected:
  void SetUp() override { fixture_ = MakePaperEngineAtT8(); }
  ksir::testing::PaperEngine fixture_;
};

TEST_F(Figure5Test, RankedList1MatchesPaper) {
  // Figure 5 RL_1 (score, t_e); e1/e7 are a near-tie at 0.0565 vs 0.0563 —
  // exact arithmetic orders e1 first, and the figure's tuple *values*
  // <0.06,5>, <0.06,7> match (e1: t_e=5, e7: t_e=7); only the paper's row
  // labels are swapped. t_e is per element (identical across lists) and
  // read from the index.
  const RankedList& list = fixture_.engine->index().list(0);
  struct Row {
    ElementId id;
    double score;
    Timestamp te;
  };
  const std::vector<Row> expected = {
      {3, 0.65, 8}, {6, 0.48, 8}, {8, 0.17, 8}, {2, 0.10, 8},
      {1, 0.06, 5}, {7, 0.06, 7}, {5, 0.05, 5},
  };
  ASSERT_EQ(list.size(), expected.size());
  std::size_t i = 0;
  for (const auto& key : list) {
    EXPECT_EQ(key.id, expected[i].id) << "position " << i;
    EXPECT_NEAR(key.score, expected[i].score, 0.005) << "position " << i;
    EXPECT_EQ(fixture_.engine->index().TimeOf(key.id), expected[i].te)
        << "position " << i;
    ++i;
  }
}

TEST_F(Figure5Test, RankedList2MatchesPaper) {
  const RankedList& list = fixture_.engine->index().list(1);
  struct Row {
    ElementId id;
    double score;
    Timestamp te;
  };
  const std::vector<Row> expected = {
      {1, 0.56, 5}, {2, 0.48, 8}, {5, 0.27, 5}, {7, 0.18, 7},
      {8, 0.16, 8}, {6, 0.13, 8}, {3, 0.03, 8},
  };
  ASSERT_EQ(list.size(), expected.size());
  std::size_t i = 0;
  for (const auto& key : list) {
    EXPECT_EQ(key.id, expected[i].id) << "position " << i;
    EXPECT_NEAR(key.score, expected[i].score, 0.005) << "position " << i;
    EXPECT_EQ(fixture_.engine->index().TimeOf(key.id), expected[i].te)
        << "position " << i;
    ++i;
  }
}

TEST_F(Figure5Test, ExpiredElementAbsentFromLists) {
  EXPECT_FALSE(fixture_.engine->index().Contains(4));
  EXPECT_EQ(fixture_.engine->index().num_elements(), 7u);
}

TEST_F(Figure5Test, ScoresNonIncreasingInEveryList) {
  for (TopicId t = 0; t < 2; ++t) {
    const RankedList& list = fixture_.engine->index().list(t);
    double prev = std::numeric_limits<double>::infinity();
    for (const auto& key : list) {
      EXPECT_LE(key.score, prev);
      prev = key.score;
    }
  }
}

// ------------------------------------------------------ RankedListCursor --

TEST_F(Figure5Test, CursorPopsInWeightedScoreOrder) {
  const SparseVector x = BalancedQueryVector();
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  // Initial UB(x) = 0.5 * 0.647 + 0.5 * 0.560 = 0.604 (paper: 0.61).
  EXPECT_NEAR(cursor.UpperBound(), 0.604, 0.005);
  // Pop order: e3 (0.324), e1 (0.280), e2 (0.240), e6 (0.239), ...
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(3));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(1));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(2));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(6));
  EXPECT_EQ(cursor.num_retrieved(), 4u);
  // After popping the strong elements the bound collapses to ~0.22.
  EXPECT_NEAR(cursor.UpperBound(), 0.221, 0.005);
}

TEST_F(Figure5Test, CursorVisitsEachElementOnce) {
  const SparseVector x = BalancedQueryVector();
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  std::vector<ElementId> popped;
  while (auto id = cursor.PopNext()) popped.push_back(*id);
  std::vector<ElementId> sorted = popped;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<ElementId>{1, 2, 3, 5, 6, 7, 8}));
  EXPECT_TRUE(cursor.Exhausted());
  EXPECT_DOUBLE_EQ(cursor.UpperBound(), 0.0);
  EXPECT_EQ(cursor.PopNext(), std::nullopt);
}

TEST_F(Figure5Test, CursorUpperBoundMonotoneNonIncreasing) {
  const SparseVector x = BalancedQueryVector();
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  double prev = cursor.UpperBound();
  while (auto id = cursor.PopNext()) {
    const double ub = cursor.UpperBound();
    EXPECT_LE(ub, prev + 1e-12);
    prev = ub;
  }
}

TEST_F(Figure5Test, CursorUpperBoundDominatesUnpopped) {
  // Soundness: UB(x) >= delta(e, x) for every not-yet-popped element.
  const SparseVector x = BalancedQueryVector();
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  std::vector<ElementId> remaining = {1, 2, 3, 5, 6, 7, 8};
  while (!remaining.empty()) {
    const double ub = cursor.UpperBound();
    for (ElementId id : remaining) {
      const SocialElement* e = fixture_.engine->window().Find(id);
      ASSERT_NE(e, nullptr);
      EXPECT_GE(ub + 1e-12, fixture_.engine->scoring().ElementScore(*e, x));
    }
    const auto popped = cursor.PopNext();
    ASSERT_TRUE(popped.has_value());
    std::erase(remaining, *popped);
  }
}

TEST_F(Figure5Test, SingleTopicQueryWalksOneList) {
  const SparseVector x = SparseVector::FromEntries({{0, 1.0}});
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(3));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(6));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(8));
}

TEST_F(Figure5Test, PopWhileAtLeastMatchesSinglePops) {
  const SparseVector x = BalancedQueryVector();
  RankedListCursor bulk(&fixture_.engine->index(), &x);
  RankedListCursor single(&fixture_.engine->index(), &x);
  // Threshold rounds mirroring MTTD's retrieve loop.
  for (const double tau : {0.3, 0.2, 0.1, 0.0}) {
    std::vector<ElementId> bulk_ids;
    bulk.PopWhileAtLeast(tau, &bulk_ids);
    std::vector<ElementId> single_ids;
    while (!single.Exhausted() && single.UpperBound() >= tau) {
      const auto popped = single.PopNext();
      ASSERT_TRUE(popped.has_value());
      single_ids.push_back(*popped);
    }
    EXPECT_EQ(bulk_ids, single_ids) << "tau=" << tau;
    EXPECT_DOUBLE_EQ(bulk.UpperBound(), single.UpperBound());
  }
  EXPECT_TRUE(bulk.Exhausted());
}

TEST(CursorEdgeTest, EmptyIndexIsExhausted) {
  RankedListIndex index(2);
  const SparseVector x = SparseVector::FromEntries({{0, 0.7}, {1, 0.3}});
  RankedListCursor cursor(&index, &x);
  EXPECT_TRUE(cursor.Exhausted());
  EXPECT_DOUBLE_EQ(cursor.UpperBound(), 0.0);
  EXPECT_EQ(cursor.PopNext(), std::nullopt);
}

TEST(CursorEdgeTest, QueryTopicBeyondIndexIsIgnored) {
  RankedListIndex index(2);
  index.Insert(1, {{0, 0.5}}, 1);
  const SparseVector x = SparseVector::FromEntries({{0, 0.5}, {9, 0.5}});
  RankedListCursor cursor(&index, &x);
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(1));
  EXPECT_TRUE(cursor.Exhausted());
}

// ------------------------------------------- Chunked storage under churn --

TEST(RankedListChurnTest, MatchesOrderedReferenceAcrossSplitsAndMerges) {
  // Drive the chunked backing store through thousands of inserts, updates
  // and erases (far beyond one chunk's capacity) and require iteration to
  // match an std::set reference at every checkpoint.
  struct Shadow {
    double score;
    RankedList::Handle handle;
  };
  RankedList list;
  std::set<RankedList::Key> reference;
  std::map<ElementId, Shadow> shadow;
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> score_dist(0.0, 1.0);

  const auto verify = [&]() {
    ASSERT_EQ(list.size(), reference.size());
    auto ref_it = reference.begin();
    for (const auto& key : list) {
      ASSERT_NE(ref_it, reference.end());
      EXPECT_EQ(key.id, ref_it->id);
      EXPECT_DOUBLE_EQ(key.score, ref_it->score);
      ++ref_it;
    }
    EXPECT_EQ(ref_it, reference.end());
  };

  ElementId next_id = 0;
  for (int round = 0; round < 6000; ++round) {
    const double action = score_dist(rng);
    if (action < 0.5 || shadow.empty()) {
      const ElementId id = next_id++;
      const double score = score_dist(rng);
      shadow[id] = Shadow{score, list.Insert(id, score)};
      reference.insert(RankedList::Key{score, id});
    } else if (action < 0.8) {
      auto it = shadow.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng() % shadow.size()));
      Shadow& s = it->second;
      const double score = score_dist(rng);
      reference.erase(RankedList::Key{s.score, it->first});
      reference.insert(RankedList::Key{score, it->first});
      list.UpdateHandle({it->first, s.score, score, &s.handle});
      s.score = score;
    } else {
      auto it = shadow.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng() % shadow.size()));
      list.EraseHandle(it->first, it->second.score, it->second.handle);
      reference.erase(RankedList::Key{it->second.score, it->first});
      shadow.erase(it);
    }
    if (round % 500 == 499) verify();
  }
  verify();
  // Drain to empty through the erase/merge path.
  while (!shadow.empty()) {
    const auto it = shadow.begin();
    list.EraseHandle(it->first, it->second.score, it->second.handle);
    reference.erase(RankedList::Key{it->second.score, it->first});
    shadow.erase(it);
  }
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.begin(), list.end());
}

TEST(RankedListChurnTest, GetSurvivesRepositioning) {
  RankedList list;
  std::vector<RankedList::Handle> handles(300);
  for (ElementId id = 0; id < 300; ++id) {
    handles[id] = list.Insert(id, static_cast<double>(id % 7));
  }
  for (ElementId id = 0; id < 300; id += 3) {
    list.UpdateHandle({id, static_cast<double>(id % 7),
                       static_cast<double>(id % 11) + 0.5, &handles[id]});
  }
  for (ElementId id = 0; id < 300; ++id) {
    if (id % 3 == 0) {
      EXPECT_DOUBLE_EQ(list.Get(id), static_cast<double>(id % 11) + 0.5);
    } else {
      EXPECT_DOUBLE_EQ(list.Get(id), static_cast<double>(id % 7));
    }
  }
}

// ---------------------------------------------------- ApplyBatchHandles --

/// Twin lists with carried per-element state: `batched` repositions through
/// one ApplyBatchHandles call, `single` through per-element UpdateHandle.
struct BatchTwin {
  RankedList batched;
  RankedList single;
  std::map<ElementId, double> scores;
  std::map<ElementId, RankedList::Handle> batched_handles;
  std::map<ElementId, RankedList::Handle> single_handles;

  void Insert(ElementId id, double score) {
    scores[id] = score;
    batched_handles[id] = batched.Insert(id, score);
    single_handles[id] = single.Insert(id, score);
  }
};

/// Applies (id, new score) `moves` to both twins, then requires identical
/// key sequences.
void CheckBatchMatchesSingle(
    BatchTwin* twin, const std::vector<std::pair<ElementId, double>>& moves) {
  std::vector<RankedList::HandleUpdate> updates;
  for (const auto& [id, score] : moves) {
    updates.push_back(
        {id, twin->scores[id], score, &twin->batched_handles[id]});
    twin->single.UpdateHandle(
        {id, twin->scores[id], score, &twin->single_handles[id]});
    twin->scores[id] = score;
  }
  RankedList::BatchScratch scratch;
  twin->batched.ApplyBatchHandles(updates.data(), updates.size(), &scratch);
  ASSERT_EQ(twin->batched.size(), twin->single.size());
  auto single_it = twin->single.begin();
  for (const auto& key : twin->batched) {
    EXPECT_EQ(key.id, single_it->id);
    EXPECT_EQ(key.score, single_it->score);  // bitwise-identical doubles
    ++single_it;
  }
  EXPECT_EQ(single_it, twin->single.end());
  for (const auto& [id, score] : moves) {
    EXPECT_EQ(twin->batched.Get(id), score);
  }
}

TEST(RankedListBatchTest, BatchEqualsSingleOnSmallList) {
  BatchTwin twin;
  for (ElementId id = 0; id < 10; ++id) {
    twin.Insert(id, static_cast<double>(id));
  }
  // Mix of upward moves, downward moves, a no-op score and a tie with an
  // untouched element.
  CheckBatchMatchesSingle(&twin, {{3, 12.0}, {7, 0.5}, {5, 5.0}, {1, 6.0}});
}

TEST(RankedListBatchTest, BatchAcrossManyChunksMatchesReference) {
  // Enough keys for dozens of chunks; batches repeatedly reposition random
  // subsets and the result must match a per-element UpdateHandle twin and
  // an std::set reference at every step.
  BatchTwin twin;
  std::set<RankedList::Key> reference;
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> score_dist(0.0, 1.0);
  for (ElementId id = 0; id < 2000; ++id) {
    const double score = score_dist(rng);
    twin.Insert(id, score);
    reference.insert(RankedList::Key{score, id});
  }
  for (int round = 0; round < 40; ++round) {
    // Batch sizes sweep from a couple of keys to a large fraction of the
    // list (collisions with chunk boundaries, emptied chunks, clustered
    // and spread targets all occur across rounds).
    const std::size_t batch_size = 2 + (rng() % 400);
    std::vector<std::pair<ElementId, double>> moves;
    std::set<ElementId> used;
    for (std::size_t i = 0; i < batch_size; ++i) {
      const ElementId id = static_cast<ElementId>(rng() % 2000);
      if (!used.insert(id).second) continue;
      // Occasionally cluster scores to exercise near-equal keys.
      const double score = (rng() % 4 == 0)
                               ? 0.5
                               : score_dist(rng);
      moves.emplace_back(id, score);
      reference.erase(RankedList::Key{twin.scores[id], id});
      reference.insert(RankedList::Key{score, id});
    }
    ASSERT_NO_FATAL_FAILURE(CheckBatchMatchesSingle(&twin, moves));
    ASSERT_EQ(twin.batched.size(), reference.size());
    auto ref_it = reference.begin();
    for (const auto& key : twin.batched) {
      ASSERT_EQ(key.id, ref_it->id);
      ASSERT_EQ(key.score, ref_it->score);
      ++ref_it;
    }
  }
}

TEST(RankedListBatchTest, WholeListRepositionedInOneBatch) {
  BatchTwin twin;
  std::vector<std::pair<ElementId, double>> moves;
  for (ElementId id = 0; id < 500; ++id) {
    twin.Insert(id, static_cast<double>(id));
    // Reverse the entire order in one sweep.
    moves.emplace_back(id, static_cast<double>(500 - id));
  }
  CheckBatchMatchesSingle(&twin, moves);
}

TEST(RankedListBatchTest, NoOpScoresLeaveOrderUntouched) {
  RankedList list;
  std::vector<RankedList::Handle> handles(100);
  for (ElementId id = 0; id < 100; ++id) {
    handles[id] = list.Insert(id, static_cast<double>(id));
  }
  std::vector<RankedList::HandleUpdate> updates;
  for (ElementId id = 0; id < 100; id += 7) {
    updates.push_back({id, static_cast<double>(id), static_cast<double>(id),
                       &handles[id]});
  }
  RankedList::BatchScratch scratch;
  list.ApplyBatchHandles(updates.data(), updates.size(), &scratch);
  ElementId expected = 99;
  for (const auto& key : list) {
    EXPECT_EQ(key.id, expected--);
  }
}

// ---------------------------------------------------- Handles & DrainTop --

TEST(RankedListHandleTest, InsertMintsResolvingHandle) {
  RankedList list;
  const auto h = list.Insert(7, 0.5);
  EXPECT_EQ(list.ProbeHandle(h, 7, 0.5), RankedList::HandleState::kValid);
  // A default handle and a wrong key both miss.
  EXPECT_EQ(list.ProbeHandle(RankedList::Handle{}, 7, 0.5),
            RankedList::HandleState::kStale);
  EXPECT_EQ(list.ProbeHandle(h, 7, 0.6), RankedList::HandleState::kStale);
}

TEST(RankedListHandleTest, NoSplitRepositionRefreshesHandles) {
  // Repositions whose new key stays in the handle's chunk: the single and
  // batched flavors both leave every carried handle resolving exactly.
  RankedList list;
  RankedList::Handle h1 = list.Insert(1, 0.10);
  RankedList::Handle h2 = list.Insert(2, 0.20);
  RankedList::Handle h3 = list.Insert(3, 0.30);

  // Single-update flavor: moves within the only chunk. Batched flavor:
  // one move plus a no-op score.
  list.UpdateHandle({1, 0.10, 0.25, &h1});
  RankedList::HandleUpdate updates[] = {
      {2, 0.20, 0.05, &h2},
      {3, 0.30, 0.30, &h3},
  };
  RankedList::BatchScratch scratch;
  list.ApplyBatchHandles(updates, 2, &scratch);

  EXPECT_EQ(list.ProbeHandle(h1, 1, 0.25), RankedList::HandleState::kValid);
  EXPECT_EQ(list.ProbeHandle(h2, 2, 0.05), RankedList::HandleState::kValid);
  EXPECT_EQ(list.ProbeHandle(h3, 3, 0.30), RankedList::HandleState::kValid);
  EXPECT_EQ(list.Get(1), 0.25);
  EXPECT_EQ(list.Get(2), 0.05);
  EXPECT_EQ(list.Get(3), 0.30);
}

TEST(RankedListHandleTest, StaleHandleFallsBackToSelfLocatingKey) {
  // Force chunk splits so early handles go stale, then reposition and
  // erase through them: the operations must still land exactly, located by
  // the carried key alone.
  RankedList list;
  std::vector<RankedList::Handle> handles(300);
  std::vector<double> scores(300);
  for (ElementId id = 0; id < 300; ++id) {
    scores[id] = static_cast<double>(id) / 300.0;
    handles[id] = list.Insert(id, scores[id]);
  }
  std::size_t stale = 0;
  for (ElementId id = 0; id < 300; ++id) {
    if (list.ProbeHandle(handles[id], id, scores[id]) ==
        RankedList::HandleState::kStale) {
      ++stale;
    }
    list.UpdateHandle({id, scores[id], scores[id] + 2.0, &handles[id]});
    scores[id] += 2.0;
    // The refreshed handle must resolve.
    EXPECT_EQ(list.ProbeHandle(handles[id], id, scores[id]),
              RankedList::HandleState::kValid);
  }
  EXPECT_GT(stale, 0u);  // splits actually invalidated some handles
  for (ElementId id = 0; id < 300; ++id) {
    EXPECT_DOUBLE_EQ(list.Get(id), scores[id]);
  }
  // A handle that never resolved (default-constructed) still erases.
  for (ElementId id = 0; id < 300; id += 2) {
    list.EraseHandle(id, scores[id], RankedList::Handle{});
  }
  EXPECT_EQ(list.size(), 150u);
  EXPECT_FALSE(list.Contains(0));
  EXPECT_TRUE(list.Contains(1));
}

TEST(RankedListHandleTest, ChurnPropertyEveryLiveHandleResolvesOrFallsBack) {
  // Random churn across every mutation flavor (insert / handle update /
  // update that leaves the stored handle stale / handle erase / erase
  // through a dead handle / batched handle repositions, with splits and
  // merges throughout). Invariants after every step:
  //  - each live element's stored handle either resolves exactly or
  //    reports a miss AND the next operation through it lands correctly;
  //  - Get always matches the shadow model;
  //  - the full key sequence matches an std::set reference.
  struct Shadow {
    double score;
    RankedList::Handle handle;
  };
  RankedList list;
  std::map<ElementId, Shadow> shadow;
  std::set<RankedList::Key> reference;
  std::mt19937_64 rng(777);
  std::uniform_real_distribution<double> score_dist(0.0, 1.0);

  const auto pick = [&](std::mt19937_64& r) {
    auto it = shadow.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(r() % shadow.size()));
    return it;
  };

  ElementId next_id = 0;
  RankedList::BatchScratch scratch;
  for (int round = 0; round < 4000; ++round) {
    const double action = score_dist(rng);
    if (action < 0.35 || shadow.size() < 4) {
      const ElementId id = next_id++;
      const double score = score_dist(rng);
      const auto handle = list.Insert(id, score);
      shadow[id] = Shadow{score, handle};
      reference.insert(RankedList::Key{score, id});
    } else if (action < 0.55) {
      auto it = pick(rng);
      Shadow& s = it->second;
      const double score = score_dist(rng);
      reference.erase(RankedList::Key{s.score, it->first});
      reference.insert(RankedList::Key{score, it->first});
      list.UpdateHandle({it->first, s.score, score, &s.handle});
      s.score = score;
      // A just-refreshed handle must resolve exactly.
      ASSERT_EQ(list.ProbeHandle(s.handle, it->first, s.score),
                RankedList::HandleState::kValid);
    } else if (action < 0.65) {
      // Update through a copy: the stored handle is NOT refreshed and may
      // go stale; later handle ops must fall back.
      auto it = pick(rng);
      Shadow& s = it->second;
      const double score = score_dist(rng);
      reference.erase(RankedList::Key{s.score, it->first});
      reference.insert(RankedList::Key{score, it->first});
      RankedList::Handle copy = s.handle;
      list.UpdateHandle({it->first, s.score, score, &copy});
      s.score = score;
    } else if (action < 0.80) {
      // Batched handle repositions over a random subset.
      std::vector<RankedList::HandleUpdate> updates;
      std::set<ElementId> used;
      const std::size_t batch = 1 + rng() % 24;
      for (std::size_t i = 0; i < batch && !shadow.empty(); ++i) {
        auto it = pick(rng);
        if (!used.insert(it->first).second) continue;
        Shadow& s = it->second;
        const double score = rng() % 5 == 0 ? s.score : score_dist(rng);
        reference.erase(RankedList::Key{s.score, it->first});
        reference.insert(RankedList::Key{score, it->first});
        updates.push_back({it->first, s.score, score, &s.handle});
        s.score = score;
      }
      list.ApplyBatchHandles(updates.data(), updates.size(), &scratch);
    } else if (action < 0.90) {
      auto it = pick(rng);
      list.EraseHandle(it->first, it->second.score, it->second.handle);
      reference.erase(RankedList::Key{it->second.score, it->first});
      shadow.erase(it);
    } else {
      auto it = pick(rng);
      list.EraseHandle(it->first, it->second.score, RankedList::Handle{});
      reference.erase(RankedList::Key{it->second.score, it->first});
      shadow.erase(it);
    }

    if (round % 200 == 199) {
      ASSERT_EQ(list.size(), reference.size());
      auto ref_it = reference.begin();
      for (const auto& key : list) {
        ASSERT_EQ(key.id, ref_it->id);
        ASSERT_EQ(key.score, ref_it->score);
        ++ref_it;
      }
      for (const auto& [id, s] : shadow) {
        ASSERT_EQ(list.Get(id), s.score) << "id=" << id;
        // The stored handle is a hint: valid or stale, never wrong.
        const auto state = list.ProbeHandle(s.handle, id, s.score);
        ASSERT_TRUE(state == RankedList::HandleState::kValid ||
                    state == RankedList::HandleState::kStale);
      }
    }
  }
}

TEST(RankedListHandleTest, DiagnosticLookupsSeeHandleChurn) {
  // Every mutation resolves through the carried handle or the
  // self-locating carried key, across splits and merges; the full-scan
  // diagnostics (Contains / Get) then see the final state.
  RankedList list;
  std::vector<RankedList::Handle> handles(500);
  std::vector<double> scores(500);
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> score_dist(0.0, 1.0);
  for (ElementId id = 0; id < 500; ++id) {
    scores[id] = score_dist(rng);
    handles[id] = list.Insert(id, scores[id]);
  }
  RankedList::BatchScratch scratch;
  for (int round = 0; round < 20; ++round) {
    std::vector<RankedList::HandleUpdate> updates;
    for (ElementId id = round % 3; id < 500; id += 3) {
      const double score = score_dist(rng);
      updates.push_back({id, scores[id], score, &handles[id]});
      scores[id] = score;
    }
    list.ApplyBatchHandles(updates.data(), updates.size(), &scratch);
  }
  for (ElementId id = 0; id < 500; id += 50) {
    list.UpdateHandle({id, scores[id], scores[id] * 0.5, &handles[id]});
    scores[id] *= 0.5;
  }
  for (ElementId id = 0; id < 500; id += 7) {
    list.EraseHandle(id, scores[id], handles[id]);
  }
  EXPECT_FALSE(list.Contains(0));
  EXPECT_TRUE(list.Contains(1));
  EXPECT_DOUBLE_EQ(list.Get(1), scores[1]);
  // Ordering stayed intact throughout.
  double prev = std::numeric_limits<double>::infinity();
  for (const auto& key : list) {
    EXPECT_LE(key.score, prev);
    prev = key.score;
  }
}

TEST(RankedListDrainTest, DrainTopEqualsRepeatedSinglePops) {
  // DrainTop(n) must yield exactly the keys of n iterator increments, for
  // every block size, across chunk boundaries.
  RankedList list;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> score_dist(0.0, 1.0);
  for (ElementId id = 0; id < 500; ++id) {
    list.Insert(id, score_dist(rng));
  }
  for (const std::size_t block : {1u, 3u, 32u, 64u, 100u, 1000u}) {
    std::vector<RankedList::Key> drained;
    auto pos = list.begin();
    std::vector<RankedList::Key> buffer(block);
    while (true) {
      const std::size_t n = list.DrainTop(&pos, buffer.data(), block);
      if (n == 0) break;
      drained.insert(drained.end(), buffer.begin(),
                     buffer.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_EQ(pos, list.end());
    std::vector<RankedList::Key> singles;
    for (auto it = list.begin(); it != list.end(); ++it) {
      singles.push_back(*it);
    }
    ASSERT_EQ(drained.size(), singles.size()) << "block=" << block;
    for (std::size_t i = 0; i < singles.size(); ++i) {
      EXPECT_EQ(drained[i].id, singles[i].id) << "block=" << block;
      EXPECT_EQ(drained[i].score, singles[i].score);
    }
  }
  // Empty list: zero keys, iterator stays at end.
  RankedList empty;
  auto pos = empty.begin();
  RankedList::Key out;
  EXPECT_EQ(empty.DrainTop(&pos, &out, 1), 0u);
  EXPECT_EQ(pos, empty.end());
}

// ------------------------------------------------------------- NaN guard --

TEST(RankedListDeathTest, InsertRejectsNaNScore) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RankedList list;
  EXPECT_DEATH(list.Insert(1, nan), "isnan");
}

TEST(RankedListDeathTest, UpdateRejectsNaNScore) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RankedList list;
  RankedList::Handle handle = list.Insert(1, 0.5);
  EXPECT_DEATH(list.UpdateHandle({1, 0.5, nan, &handle}), "isnan");
}

TEST(RankedListDeathTest, ApplyBatchRejectsNaNScore) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RankedList list;
  RankedList::Handle handle = list.Insert(1, 0.5);
  const RankedList::HandleUpdate update{1, 0.5, nan, &handle};
  RankedList::BatchScratch scratch;
  EXPECT_DEATH(list.ApplyBatchHandles(&update, 1, &scratch), "isnan");
}

// --------------------------------------------------- Refresh mode (paper) --

TEST(RankedListIndexTest, SplitInsertMatchesCombinedInsert) {
  // The parallel maintenance pipeline inserts fresh elements in two
  // halves: InsertMembership (serial) then one InsertListEntry per support
  // topic (topic-sharded). The result — membership, t_e, entry counts,
  // list keys AND minted handles — must be exactly what the combined
  // Insert produces.
  RankedListIndex combined(3);
  RankedListIndex split(3);
  const std::vector<std::pair<TopicId, double>> support = {
      {0, 0.9}, {2, 0.4}};
  std::vector<RankedList::Handle> combined_handles(support.size());
  combined.Insert(7, support, /*te=*/42, combined_handles.data());

  const TopicId topics[] = {0, 2};
  split.InsertMembership(7, topics, 2, /*te=*/42);
  std::vector<RankedList::Handle> split_handles;
  for (const auto& [topic, score] : support) {
    split_handles.push_back(split.InsertListEntry(topic, 7, score));
  }

  EXPECT_EQ(split.num_elements(), combined.num_elements());
  EXPECT_EQ(split.total_entries(), combined.total_entries());
  EXPECT_EQ(split.TimeOf(7), combined.TimeOf(7));
  for (std::size_t i = 0; i < support.size(); ++i) {
    EXPECT_EQ(split_handles[i], combined_handles[i]) << "entry " << i;
    const TopicId topic = support[i].first;
    ASSERT_EQ(split.list(topic).size(), combined.list(topic).size());
    EXPECT_EQ(split.list(topic).Get(7), combined.list(topic).Get(7));
    EXPECT_EQ(split.list(topic).ProbeHandle(split_handles[i], 7,
                                            support[i].second),
              RankedList::HandleState::kValid);
  }
  EXPECT_TRUE(split.list(1).empty());
}

TEST(RefreshModeTest, PaperModeKeepsStaleUpperBound) {
  // Build a stream where an element loses a referrer with no gain in the
  // same bucket: with kPaper the list score stays stale-high; with kExact
  // it drops to the true value.
  auto model = TopicModel::FromMatrix({{0.5, 0.5}});
  ASSERT_TRUE(model.ok());
  for (const RefreshMode mode : {RefreshMode::kExact, RefreshMode::kPaper}) {
    EngineConfig config;
    config.scoring.lambda = 0.5;
    config.scoring.eta = 2.0;
    config.window_length = 4;
    config.bucket_length = 1;
    config.refresh_mode = mode;
    KsirEngine engine(config, &*model);

    auto mk = [](ElementId id, Timestamp ts, std::vector<ElementId> refs) {
      SocialElement e;
      e.id = id;
      e.ts = ts;
      e.doc = Document::FromWordIds({0});
      e.refs = std::move(refs);
      e.topics = SparseVector::FromEntries({{0, 1.0}});
      return e;
    };
    ASSERT_TRUE(engine.AdvanceTo(1, {mk(1, 1, {})}).ok());
    ASSERT_TRUE(engine.AdvanceTo(2, {mk(2, 2, {1})}).ok());
    ASSERT_TRUE(engine.AdvanceTo(5, {mk(3, 5, {1})}).ok());
    // t=6: e2 (ts 2) leaves the window; e1 loses its referral, e3 remains.
    ASSERT_TRUE(engine.AdvanceTo(6, {}).ok());
    const double listed = engine.index().list(0).Get(1);
    const SocialElement* e1 = engine.window().Find(1);
    ASSERT_NE(e1, nullptr);
    const double exact = engine.scoring().TopicScore(0, *e1);
    if (mode == RefreshMode::kExact) {
      EXPECT_NEAR(listed, exact, 1e-12);
    } else {
      EXPECT_GT(listed, exact);  // stale but still a sound upper bound
    }
  }
}

}  // namespace
}  // namespace ksir
