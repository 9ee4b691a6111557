// Component microbenchmarks (google-benchmark): ranked-list operations,
// marginal-gain evaluation, cursor traversal, topic inference, and window
// advancement — the building blocks whose costs the paper's complexity
// analysis (Sections 4.1-4.3) is written in terms of.
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/candidate_state.h"
#include "core/ranked_list.h"
#include "core/traversal.h"
#include "stream/generator.h"
#include "topic/inference.h"
#include "core/engine.h"

namespace ksir {
namespace {

// Shared generated stream + engine, built once (google-benchmark re-enters
// the benchmark body many times).
struct SharedSetup {
  GeneratedStream stream;
  std::unique_ptr<KsirEngine> engine;
  SparseVector query;

  SharedSetup() : stream(MakeStream()) {
    EngineConfig config;
    config.scoring.eta = 20.0;
    config.window_length = 24 * 3600;
    config.bucket_length = 15 * 60;
    engine = std::make_unique<KsirEngine>(config, &stream.model);
    KSIR_CHECK(engine->Append(stream.elements).ok());
    query = SparseVector::FromEntries({{0, 0.4}, {1, 0.3}, {2, 0.3}});
  }

  static GeneratedStream MakeStream() {
    StreamProfile profile = RedditSimProfile();
    profile.num_elements = 8000;
    auto stream = GenerateStream(profile);
    KSIR_CHECK(stream.ok());
    return std::move(stream).value();
  }
};

SharedSetup& Setup() {
  static auto* const kSetup = new SharedSetup();
  return *kSetup;
}

// Both list benches carry each element's listed score and handle, as the
// maintenance pipeline does; slot id % n holds the live element's state.
void BM_RankedListInsertErase(benchmark::State& state) {
  RankedList list;
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> scores(n);
  std::vector<RankedList::Handle> handles(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = rng.NextDouble();
    handles[i] = list.Insert(static_cast<ElementId>(i), scores[i]);
  }
  ElementId next = static_cast<ElementId>(n);
  for (auto _ : state) {
    const auto slot = static_cast<std::size_t>(next) % n;
    list.EraseHandle(next - static_cast<ElementId>(n), scores[slot],
                     handles[slot]);
    scores[slot] = rng.NextDouble();
    handles[slot] = list.Insert(next, scores[slot]);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankedListInsertErase)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RankedListUpdate(benchmark::State& state) {
  RankedList list;
  Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> scores(n);
  std::vector<RankedList::Handle> handles(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = rng.NextDouble();
    handles[i] = list.Insert(static_cast<ElementId>(i), scores[i]);
  }
  for (auto _ : state) {
    const auto id = static_cast<std::size_t>(rng.NextUint64(n));
    const double score = rng.NextDouble();
    list.UpdateHandle(RankedList::HandleUpdate{
        static_cast<ElementId>(id), scores[id], score, &handles[id]});
    scores[id] = score;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankedListUpdate)->Arg(1000)->Arg(100000);

void BM_MarginalGain(benchmark::State& state) {
  SharedSetup& setup = Setup();
  const auto& window = setup.engine->window();
  CandidateState candidate(&setup.engine->scoring(), &setup.query);
  std::vector<ElementId> ids = window.ActiveIds();
  std::sort(ids.begin(), ids.end());
  // Partially fill the candidate so gains exercise the overlap maps.
  for (std::size_t i = 0; i < std::min<std::size_t>(5, ids.size()); ++i) {
    candidate.Add(*window.Find(ids[i * 7 % ids.size()]));
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    const SocialElement* e = window.Find(ids[cursor++ % ids.size()]);
    benchmark::DoNotOptimize(candidate.MarginalGain(*e));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MarginalGain);

void BM_ElementScore(benchmark::State& state) {
  SharedSetup& setup = Setup();
  const auto& window = setup.engine->window();
  std::vector<ElementId> ids = window.ActiveIds();
  std::size_t cursor = 0;
  for (auto _ : state) {
    const SocialElement* e = window.Find(ids[cursor++ % ids.size()]);
    benchmark::DoNotOptimize(
        setup.engine->scoring().ElementScore(*e, setup.query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElementScore);

void BM_CursorFullTraversal(benchmark::State& state) {
  SharedSetup& setup = Setup();
  for (auto _ : state) {
    RankedListCursor cursor(&setup.engine->index(), &setup.query);
    std::size_t popped = 0;
    while (cursor.PopNext().has_value()) ++popped;
    benchmark::DoNotOptimize(popped);
  }
}
BENCHMARK(BM_CursorFullTraversal);

void BM_TopicInference(benchmark::State& state) {
  SharedSetup& setup = Setup();
  TopicInferencer inferencer(&setup.stream.model);
  const Document& doc = setup.stream.elements[42].doc;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inferencer.InferSparse(doc, salt++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopicInference);

void BM_QueryMtts(benchmark::State& state) {
  SharedSetup& setup = Setup();
  KsirQuery query;
  query.k = 10;
  query.x = setup.query;
  query.algorithm = Algorithm::kMtts;
  query.epsilon = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.engine->Query(query)->score);
  }
}
BENCHMARK(BM_QueryMtts);

void BM_QueryMttd(benchmark::State& state) {
  SharedSetup& setup = Setup();
  KsirQuery query;
  query.k = 10;
  query.x = setup.query;
  query.algorithm = Algorithm::kMttd;
  query.epsilon = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.engine->Query(query)->score);
  }
}
BENCHMARK(BM_QueryMttd);

void BM_WindowAdvance(benchmark::State& state) {
  // Measures pure window + index maintenance by replaying a stream chunk.
  StreamProfile profile = TwitterSimProfile();
  profile.num_elements = 4000;
  auto stream = GenerateStream(profile);
  KSIR_CHECK(stream.ok());
  for (auto _ : state) {
    state.PauseTiming();
    EngineConfig config;
    config.scoring.eta = 200.0;
    config.window_length = 24 * 3600;
    config.bucket_length = 15 * 60;
    KsirEngine engine(config, &stream->model);
    state.ResumeTiming();
    KSIR_CHECK(engine.Append(stream->elements).ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(profile.num_elements));
}
BENCHMARK(BM_WindowAdvance)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ksir

BENCHMARK_MAIN();
