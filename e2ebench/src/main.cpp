// End-to-end benchmark of the sharded k-SIR service (KsirService).
//
// A single-process, closed-loop load generator with one client. It feeds a
// generated stream through the service one bucket at a time and, for every
// measured bucket, times three phases from outside through public calls:
//   1. ingestion: AdvanceTo (standing queries are not evaluated inside it);
//   2. the subscription round: standing_queries().AfterAdvance over the
//      shards' last_advance_summary() at epoch(), the calls the service
//      makes itself when it drives its subscriptions;
//   3. the bucket's batch of ad-hoc Query calls.
// Queries never overlap ingestion, so the cache hit/miss pattern is a
// function of the seed alone. Every phase reports wall time beside process
// CPU time (all threads); the CPU figures stay steady when the host steals
// cycles. Stream generation, query inference and the correctness checks
// run outside every timed region.
//
// Usage:
//   ksir_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--out-dir DIR]
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a kTracing service run in lockstep with a kOff
// one; the traced run also writes its Chrome traces and registry dump to
// --out-dir).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "reference.h"
#include "service/service.h"
#include "workloads.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using ksir::KsirQuery;
using ksir::KsirService;
using ksir::QueryResult;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Skipped subscriptions re-queried per round, and delivered groups whose
/// scores are recomputed per round.
constexpr std::size_t kSkippedChecks = 4;
constexpr std::size_t kGroupScoreChecks = 16;
/// Block sizes of the CPU medians of means (see Phase::CpuPerUnit): ten
/// buckets or rounds, and 24 queries (one query_mix batch; eight of each
/// algorithm on the one-query-per-bucket workloads).
constexpr std::size_t kBlock = 10;
constexpr std::size_t kQueryBlock = 24;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host steal time so far in seconds (the 8th field of /proc/stat's cpu
/// line, in USER_HZ ticks); negative when unavailable.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long fields[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1.0;
  for (long long& f : fields) {
    if (!(in >> f)) return -1.0;
  }
  return static_cast<double>(fields[7]) / 100.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Linear-interpolation quantile (numpy's default) of unsorted values.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : Sum(values) / static_cast<double>(values.size());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/e2e_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1 &&
         (args->trace == 0 || args->trace == 1);
}

/// Subscription updates of one round, copied out of the callbacks.
struct Recorder {
  struct Delivery {
    std::int64_t subscription_id;
    std::size_t delta_begin, delta_count, id_begin, id_count;
    double score;
  };
  std::vector<Delivery> deliveries;
  std::vector<ksir::SubscriptionDelta> deltas;
  std::vector<ElementId> ids;

  void Clear() {
    deliveries.clear();
    deltas.clear();
    ids.clear();
  }

  void Record(const ksir::SubscriptionUpdate& u) {
    const auto& result_ids = u.result->element_ids;
    deliveries.push_back(Delivery{u.subscription_id, deltas.size(),
                                  u.num_deltas, ids.size(), result_ids.size(),
                                  u.result->score});
    deltas.insert(deltas.end(), u.deltas, u.deltas + u.num_deltas);
    ids.insert(ids.end(), result_ids.begin(), result_ids.end());
  }
};

/// One service under test with its subscription bookkeeping.
struct Instance {
  /// Declared before the service, whose subscription callbacks write to it.
  Recorder recorder;
  std::unique_ptr<KsirService> service;
  /// Service subscription id -> subscription index in the workload.
  std::unordered_map<std::int64_t, std::size_t> sub_index;
  ksir::Counter* cache_hits = nullptr;
};

using Bucket = std::vector<SocialElement>;

Bucket CopyBucket(const Workload& w, std::size_t b) {
  return Bucket(w.stream.elements.begin() + w.bucket_begin[b],
                w.stream.elements.begin() + w.bucket_begin[b + 1]);
}

ksir::Status SubscriptionRound(Instance* inst) {
  KsirService& service = *inst->service;
  std::vector<ksir::AdvanceSummary> summaries(service.num_shards());
  for (std::size_t i = 0; i < service.num_shards(); ++i) {
    summaries[i] = service.shard(i).last_advance_summary();
  }
  return service.standing_queries().AfterAdvance(summaries, service.epoch());
}

/// Service creation, subscription registration, warm-up ingest of the
/// first window and the subscriptions' first round: the timed set-up.
ksir::StatusOr<std::unique_ptr<Instance>> SetUp(const Workload& w,
                                                ksir::ServiceConfig config,
                                                std::vector<Bucket> warmup) {
  auto inst = std::make_unique<Instance>();
  auto created = KsirService::Create(std::move(config), &w.stream.model);
  if (!created.ok()) return created.status();
  inst->service = std::move(created).value();
  Recorder* recorder = &inst->recorder;
  for (std::size_t s = 0; s < w.subscriptions.size(); ++s) {
    const std::int64_t id = inst->service->standing_queries().Subscribe(
        w.subscriptions[s],
        [recorder](const ksir::SubscriptionUpdate& u) { recorder->Record(u); });
    inst->sub_index[id] = s;
  }
  for (std::size_t b = 0; b < w.warmup_buckets; ++b) {
    KSIR_RETURN_NOT_OK(
        inst->service->AdvanceTo(w.bucket_end[b], std::move(warmup[b])));
  }
  KSIR_RETURN_NOT_OK(SubscriptionRound(inst.get()));
  inst->cache_hits =
      inst->service->telemetry().registry().GetCounter("ksir_cache_hits_total");
  return inst;
}

/// Counter and histogram movement of one registry between snapshots,
/// accumulated over a phase's repetitions.
class RegistryDelta {
 public:
  void Add(const ksir::RegistrySnapshot& before,
           const ksir::RegistrySnapshot& after) {
    for (const ksir::MetricSnapshot& m : after.metrics) {
      const ksir::MetricSnapshot* b = before.Find(m.name);
      if (m.type == ksir::MetricType::kCounter) {
        counters_[m.name] += m.value - (b != nullptr ? b->value : 0);
      } else if (m.type == ksir::MetricType::kHistogram) {
        ksir::HistogramSnapshot& h = histograms_[m.name];
        h.counts.resize(m.histogram.counts.size(), 0);
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          h.counts[i] += m.histogram.counts[i] -
                         (b != nullptr ? b->histogram.counts[i] : 0);
        }
        h.count += m.histogram.count - (b != nullptr ? b->histogram.count : 0);
        h.sum += m.histogram.sum - (b != nullptr ? b->histogram.sum : 0.0);
      }
    }
  }

  double Counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
  }

  ksir::HistogramSnapshot Histogram(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? ksir::HistogramSnapshot{} : it->second;
  }

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, ksir::HistogramSnapshot> histograms_;
};

/// Timings of one phase over the measured buckets, one entry per
/// operation (an AdvanceTo, a round or a Query).
struct Phase {
  std::vector<double> wall_s;
  std::vector<double> op_cpu_s;
  /// Work units per operation: elements for ingestion, else 1.
  std::vector<double> units;
  double cpu_s = 0.0;
  double total_wall_s = 0.0;

  void Add(double wall, double cpu, double work) {
    wall_s.push_back(wall);
    op_cpu_s.push_back(cpu);
    units.push_back(work);
    total_wall_s += wall;
    cpu_s += cpu;
  }

  /// CPU per work unit as a median of means: the operations are cut into
  /// consecutive blocks of `block`, each block's CPU is divided by its
  /// units, and the median block is reported. Every block still mixes all
  /// the phase's operation kinds (hits and misses, every algorithm), while
  /// blocks that a burst of host contention inflated fall to the tail.
  double CpuPerUnit(std::size_t block) const {
    std::vector<double> means;
    for (std::size_t i = 0; i + block <= op_cpu_s.size(); i += block) {
      double cpu = 0.0;
      double work = 0.0;
      for (std::size_t j = i; j < i + block; ++j) {
        cpu += op_cpu_s[j];
        work += units[j];
      }
      if (work > 0.0) means.push_back(cpu / work);
    }
    return Quantile(means, 0.5);
  }
};

/// A span of the benchmark's own trace (Chrome "X" event).
struct Span {
  const char* name;
  double ts_us;
  double dur_us;
  std::int64_t id;
};

/// One measured bucket's three phases against one instance.
struct BucketOutcome {
  std::vector<QueryResult> results;
  std::vector<bool> hits;
  int failed_ops = 0;
};

class Runner {
 public:
  Runner(const Workload& w, const Args& args) : w_(w), args_(args) {}

  int Run();

 private:
  // --- measurement ---
  BucketOutcome MeasureBucket(Instance* inst, std::size_t m, Bucket bucket,
                              Phase phases[3], RegistryDelta deltas[3],
                              bool traced);
  ksir::RegistrySnapshot Snap(Instance* inst) const {
    return inst->service->telemetry().registry().Snapshot();
  }
  void AddSpan(const char* name, Clock::time_point a, Clock::time_point b,
               std::int64_t id) {
    using Micros = std::chrono::duration<double, std::micro>;
    spans_.push_back(
        Span{name, Micros(a - t0_).count(), Micros(b - a).count(), id});
  }

  // --- checks ---
  void Check(bool ok, const std::string& what);
  void CheckOne(const std::vector<ElementId>& ids, double score,
                const KsirQuery& q, const char* where);
  void CheckBucket(Instance* inst, std::size_t b);
  void CheckQueries(std::size_t m, const BucketOutcome& outcome);
  void CheckRound(Instance* inst, std::size_t round);
  void CheckShards(Instance* inst, std::size_t m, bool traced);

  /// Prints the per-layer table of the traced run and returns its
  /// metrics as JSON members.
  std::string PerLayer(const Phase traced[3], const RegistryDelta deltas[3],
                       double trace_overhead_pct);
  void WriteTraces(Instance* inst);

  const Workload& w_;
  const Args& args_;
  std::unique_ptr<ReferenceWindow> ref_;
  OwnerReferrers owner_;
  Instance* checked_ = nullptr;
  std::int64_t checks_ = 0;
  std::int64_t check_failures_ = 0;
  /// Last delivered result per subscription index.
  std::vector<std::vector<ElementId>> last_result_;
  /// Per-layer inputs (traced run).
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::int64_t next_span_id_ = 0;
  std::map<ksir::Algorithm, std::vector<double>> shard_query_ms_;
  /// Threshold rounds of the sampled per-shard MTTD queries (the planner's
  /// merged QueryResult does not carry the shards' round counts).
  std::vector<double> mttd_rounds_;
  std::vector<double> active_total_;
  std::vector<double> active_skew_;
  std::vector<QueryResult> planned_;
  std::vector<double> planned_active_;
  double useful_group_evals_ = 0.0;
  std::size_t elements_measured_ = 0;
};

void Runner::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  if (++check_failures_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Runner::CheckOne(const std::vector<ElementId>& ids, double score,
                      const KsirQuery& q, const char* where) {
  const auto& scoring = w_.config.engine.scoring;
  const std::string why = CheckResult(w_.stream.model, scoring.lambda,
                                      scoring.eta, *ref_, owner_, ids, score,
                                      q.k, q.x);
  Check(why.empty(), std::string(where) + ": " + why);
}

void Runner::CheckBucket(Instance* inst, std::size_t b) {
  const KsirService& service = *inst->service;
  std::size_t active = 0;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < service.num_shards(); ++i) {
    const std::size_t n = service.shard(i).num_active();
    active += n;
    largest = std::max(largest, n);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "bucket %zu: shards hold %zu active, W_t %zu, A_t %zu", b,
                active, ref_->window_size(), ref_->active_size());
  Check(active >= ref_->window_size() && active <= ref_->active_size(), buf);
  const auto ingested = service.stats().ingestion.elements_ingested;
  Check(ingested == static_cast<std::int64_t>(w_.bucket_begin[b + 1]),
        "bucket " + std::to_string(b) + ": service ingested " +
            std::to_string(ingested) + " elements, fed " +
            std::to_string(w_.bucket_begin[b + 1]));
  active_total_.push_back(static_cast<double>(active));
  const double shards = static_cast<double>(service.num_shards());
  active_skew_.push_back(active == 0 ? 1.0
                                     : static_cast<double>(largest) * shards /
                                           static_cast<double>(active));
}

void Runner::CheckQueries(std::size_t m, const BucketOutcome& outcome) {
  const auto& queries = w_.adhoc[m];
  for (std::size_t q = 0; q < outcome.results.size(); ++q) {
    CheckOne(outcome.results[q].element_ids, outcome.results[q].score,
             queries[q], "ad-hoc query");
    if (!outcome.hits[q]) {
      planned_.push_back(outcome.results[q]);
      planned_active_.push_back(active_total_.back());
    }
  }
}

void Runner::CheckRound(Instance* inst, std::size_t round) {
  const Recorder& rec = inst->recorder;
  std::vector<bool> delivered(w_.subscriptions.size(), false);
  std::vector<bool> group_checked;
  std::vector<bool> group_useful;
  std::size_t scored = 0;
  for (const Recorder::Delivery& d : rec.deliveries) {
    const auto it = inst->sub_index.find(d.subscription_id);
    Check(it != inst->sub_index.end(), "delivery to an unknown subscription");
    if (it == inst->sub_index.end()) continue;
    const std::size_t s = it->second;
    const KsirQuery& q = w_.subscriptions[s];
    const std::uint32_t g = w_.subscription_group[s];
    if (g >= group_checked.size()) {
      group_checked.resize(g + 1, false);
      group_useful.resize(g + 1, false);
    }
    Check(!delivered[s], "two deliveries to one subscription in a round");
    delivered[s] = true;
    const std::vector<ElementId> ids(rec.ids.begin() + d.id_begin,
                                     rec.ids.begin() + d.id_begin + d.id_count);
    const std::vector<ksir::SubscriptionDelta> deltas(
        rec.deltas.begin() + d.delta_begin,
        rec.deltas.begin() + d.delta_begin + d.delta_count);
    std::vector<ElementId> replayed;
    Check(ReplayDeltas(last_result_[s], deltas, &replayed) && replayed == ids,
          "subscription deltas do not reproduce the delivered result");
    if (d.delta_count > 0) group_useful[g] = true;
    // Members of a group share one result: score it once per group, for a
    // rotating sample of groups; every delivery gets the cheap shape check.
    if (!group_checked[g] && scored < kGroupScoreChecks &&
        (g + round) % 7 == 0) {
      group_checked[g] = true;
      ++scored;
      CheckOne(ids, d.score, q, "standing result");
    } else {
      std::vector<ElementId> sorted = ids;
      std::sort(sorted.begin(), sorted.end());
      bool ok =
          ids.size() <= static_cast<std::size_t>(q.k) &&
          std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
      for (ElementId id : ids) ok = ok && ref_->InActiveSet(id);
      Check(ok, "standing result is not well formed");
    }
    last_result_[s] = ids;
  }
  if (round > 0) {
    for (bool useful : group_useful) useful_group_evals_ += useful ? 1.0 : 0.0;
  }
  // A subscription the round skipped must still hold the current answer.
  const std::size_t n = w_.subscriptions.size();
  std::size_t probed = 0;
  for (std::size_t j = 0; j < n && probed < kSkippedChecks; ++j) {
    const std::size_t s = (round * 7919 + j * 104729) % n;
    if (delivered[s]) continue;
    ++probed;
    auto fresh = inst->service->Query(w_.subscriptions[s]);
    Check(fresh.ok() && fresh->element_ids == last_result_[s],
          "a skipped subscription's fresh query differs from its last "
          "delivered result");
  }
}

void Runner::CheckShards(Instance* inst, std::size_t m, bool traced) {
  KsirService& service = *inst->service;
  const SparseVector& x =
      w_.sample_vectors[(m / w_.sample_every) % w_.sample_vectors.size()];
  const ksir::Algorithm algorithms[] = {ksir::Algorithm::kMtts,
                                        ksir::Algorithm::kMttd,
                                        ksir::Algorithm::kCelf};
  std::vector<std::map<ksir::Algorithm, double>> shard_score(
      service.num_shards());
  for (ksir::Algorithm algorithm : algorithms) {
    KsirQuery q;
    q.k = 10;
    q.x = x;
    q.algorithm = algorithm;
    q.epsilon = 0.1;
    double best = 0.0;
    const std::int64_t id = next_span_id_++;
    for (std::size_t i = 0; i < service.num_shards(); ++i) {
      const auto a = Clock::now();
      auto r = service.shard(i).Query(q);
      const auto b = Clock::now();
      if (traced) {
        AddSpan("shard.Query", a, b, id);
        shard_query_ms_[algorithm].push_back(1e3 * Seconds(a, b));
      }
      Check(r.ok(), "shard query failed");
      if (!r.ok()) continue;
      CheckOne(r->element_ids, r->score, q, "shard result");
      if (algorithm == ksir::Algorithm::kMttd) {
        mttd_rounds_.push_back(
            static_cast<double>(r->stats.num_candidates_or_rounds));
      }
      shard_score[i][algorithm] = r->score;
      best = std::max(best, r->score);
    }
    auto merged = service.Query(q);
    Check(merged.ok(), "service query failed");
    if (!merged.ok()) continue;
    CheckOne(merged->element_ids, merged->score, q, "service result");
    Check(merged->score >= best * (1.0 - 1e-12),
          "service score " + std::to_string(merged->score) +
              " below the best shard's " + std::to_string(best));
  }
  // Theorems 4.2/4.4 with CELF's score standing in for OPT from below.
  const double eps = 0.1;
  for (std::size_t i = 0; i < service.num_shards(); ++i) {
    auto& s = shard_score[i];
    const double celf = s[ksir::Algorithm::kCelf];
    Check(s[ksir::Algorithm::kMttd] >= (1.0 - 1.0 / std::exp(1.0) - eps) * celf,
          "MTTD below (1 - 1/e - eps) of CELF on shard " + std::to_string(i));
    Check(s[ksir::Algorithm::kMtts] >= (0.5 - eps) * celf,
          "MTTS below (1/2 - eps) of CELF on shard " + std::to_string(i));
  }
}

BucketOutcome Runner::MeasureBucket(Instance* inst, std::size_t m,
                                    Bucket bucket, Phase phases[3],
                                    RegistryDelta deltas[3], bool traced) {
  KsirService& service = *inst->service;
  const std::size_t b = w_.warmup_buckets + m;
  // The bucket's ingestion and round spans share one id; every query
  // gets its own.
  const std::int64_t span_id = traced ? next_span_id_++ : 0;
  BucketOutcome out;
  ksir::RegistrySnapshot before;

  // Phase 1: ingestion.
  if (traced) before = Snap(inst);
  double c0 = CpuSeconds();
  auto t0 = Clock::now();
  const ksir::Status advanced =
      service.AdvanceTo(w_.bucket_end[b], std::move(bucket));
  auto t1 = Clock::now();
  double c1 = CpuSeconds();
  phases[0].Add(Seconds(t0, t1), c1 - c0,
                static_cast<double>(w_.bucket_begin[b + 1] -
                                    w_.bucket_begin[b]));
  if (traced) {
    deltas[0].Add(before, Snap(inst));
    AddSpan("AdvanceTo", t0, t1, span_id);
  }
  if (!advanced.ok()) {
    ++out.failed_ops;
    std::fprintf(stderr, "AdvanceTo failed: %s\n", advanced.ToString().c_str());
  }

  // Phase 2: the subscription round.
  inst->recorder.Clear();
  if (traced) before = Snap(inst);
  c0 = CpuSeconds();
  t0 = Clock::now();
  const ksir::Status round = SubscriptionRound(inst);
  t1 = Clock::now();
  c1 = CpuSeconds();
  phases[1].Add(Seconds(t0, t1), c1 - c0, 1.0);
  if (traced) {
    deltas[1].Add(before, Snap(inst));
    AddSpan("AfterAdvance", t0, t1, span_id);
  }
  if (!round.ok()) {
    ++out.failed_ops;
    std::fprintf(stderr, "AfterAdvance failed: %s\n", round.ToString().c_str());
  }

  // Phase 3: the ad-hoc batch.
  const auto& queries = w_.adhoc[m];
  out.results.reserve(queries.size());
  if (traced) before = Snap(inst);
  for (const KsirQuery& q : queries) {
    const std::int64_t hits = inst->cache_hits->Value();
    c0 = CpuSeconds();
    t0 = Clock::now();
    auto r = service.Query(q);
    t1 = Clock::now();
    c1 = CpuSeconds();
    phases[2].Add(Seconds(t0, t1), c1 - c0, 1.0);
    if (traced) AddSpan("Query", t0, t1, next_span_id_++);
    out.hits.push_back(inst->cache_hits->Value() > hits);
    if (r.ok()) {
      out.results.push_back(std::move(r).value());
    } else {
      ++out.failed_ops;
      out.results.emplace_back();
    }
  }
  if (traced) deltas[2].Add(before, Snap(inst));
  return out;
}

std::string Runner::PerLayer(const Phase traced[3],
                             const RegistryDelta deltas[3],
                             double trace_overhead_pct) {
  const RegistryDelta& ingest = deltas[0];
  const RegistryDelta& sub = deltas[1];
  const RegistryDelta& query = deltas[2];
  const double buckets = static_cast<double>(w_.measured_buckets());
  const double elements = static_cast<double>(elements_measured_);
  const auto all_counter = [&deltas](const char* name) {
    return deltas[0].Counter(name) + deltas[1].Counter(name) +
           deltas[2].Counter(name);
  };
  const auto p50_ms = [](const ksir::HistogramSnapshot& h) {
    return 1e3 * h.Percentile(0.5);
  };
  const auto per_bucket_ms = [&](const char* name) {
    return 1e3 * ingest.Histogram(name).sum / buckets;
  };
  const auto mean_stat = [this](std::size_t ksir::QueryStats::*field) {
    std::vector<double> v;
    for (const QueryResult& r : planned_) {
      v.push_back(static_cast<double>(r.stats.*field));
    }
    return Mean(v);
  };
  std::vector<double> eval_ratio;
  for (std::size_t i = 0; i < planned_.size(); ++i) {
    eval_ratio.push_back(static_cast<double>(planned_[i].stats.num_evaluated) /
                         std::max(1.0, planned_active_[i]));
  }
  // Fan-out straggler: slowest minus fastest shard by mean fan-out time.
  double slowest = 0.0;
  double fastest = 1e300;
  for (std::size_t i = 0; i < w_.config.num_shards; ++i) {
    const auto h = query.Histogram("ksir_planner_shard_fanout_seconds_" +
                                   std::to_string(i));
    const double mean =
        h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
    slowest = std::max(slowest, mean);
    fastest = std::min(fastest, mean);
  }
  ksir::HistogramSnapshot tasks = deltas[0].Histogram("ksir_pool_task_seconds");
  for (int p = 1; p < 3; ++p) {
    const auto h = deltas[p].Histogram("ksir_pool_task_seconds");
    tasks.counts.resize(std::max(tasks.counts.size(), h.counts.size()), 0);
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      tasks.counts[i] += h.counts[i];
    }
    tasks.count += h.count;
    tasks.sum += h.sum;
  }
  const double evaluations = sub.Counter("ksir_sub_evaluations_total");
  const double lookups = query.Counter("ksir_cache_hits_total") +
                         query.Counter("ksir_cache_misses_total");
  const double plans = query.Counter("ksir_planner_plans_total");

  const auto per_bucket = [buckets](const RegistryDelta& d, const char* c) {
    return d.Counter(c) / buckets;
  };
  const auto ratio = [](double num, double den) {
    return num / std::max(1.0, den);
  };
  const auto cpu_per_wall = [traced](int p) {
    return traced[p].cpu_s / traced[p].total_wall_s;
  };
  using ksir::Algorithm;
  using ksir::QueryStats;

  struct Row {
    const char* layer;
    const char* name;
    double value;
    const char* unit;
  };
  const Row rows[] = {
      {"ingest", "ingest.shard_advance_p50_ms",
       p50_ms(ingest.Histogram("ksir_engine_advance_seconds")), "ms"},
      {"ingest", "ingest.shard_active_skew", Mean(active_skew_), "ratio"},
      {"ingest", "ingest.cross_shard_refs_per_kelem",
       1e3 * ingest.Counter("ksir_ingest_cross_shard_refs_total") / elements,
       "count"},
      {"maintain", "maintain.expiry_ms",
       per_bucket_ms("ksir_maintainer_stage_expiry_seconds"), "ms"},
      {"maintain", "maintain.score_ms",
       per_bucket_ms("ksir_maintainer_stage_score_seconds"), "ms"},
      {"maintain", "maintain.gather_ms",
       per_bucket_ms("ksir_maintainer_stage_gather_seconds"), "ms"},
      {"maintain", "maintain.list_apply_ms",
       per_bucket_ms("ksir_maintainer_stage_list_apply_seconds"), "ms"},
      {"maintain", "maintain.touched",
       per_bucket(ingest, "ksir_maintainer_elements_touched_total"), "count"},
      {"maintain", "maintain.repositions",
       per_bucket(ingest, "ksir_maintainer_repositions_total"), "count"},
      {"maintain", "maintain.elisions",
       per_bucket(ingest, "ksir_maintainer_elisions_total"), "count"},
      {"maintain", "maintain.expired",
       per_bucket(ingest, "ksir_maintainer_expired_total"), "count"},
      {"window", "window.active", Mean(active_total_), "count"},
      {"query", "query.mtts_shard_p50_ms",
       Quantile(shard_query_ms_[Algorithm::kMtts], 0.5), "ms"},
      {"query", "query.mttd_shard_p50_ms",
       Quantile(shard_query_ms_[Algorithm::kMttd], 0.5), "ms"},
      {"query", "query.celf_shard_p50_ms",
       Quantile(shard_query_ms_[Algorithm::kCelf], 0.5), "ms"},
      {"query", "query.evaluated", mean_stat(&QueryStats::num_evaluated),
       "count"},
      {"query", "query.retrieved", mean_stat(&QueryStats::num_retrieved),
       "count"},
      {"query", "query.gain_evals",
       mean_stat(&QueryStats::num_gain_evaluations), "count"},
      {"query", "query.rounds", Mean(mttd_rounds_), "count"},
      {"query", "query.eval_ratio", Mean(eval_ratio), "ratio"},
      {"planner", "planner.plan_p50_ms",
       p50_ms(query.Histogram("ksir_planner_plan_seconds")), "ms"},
      {"planner", "planner.merge_p50_ms",
       p50_ms(query.Histogram("ksir_planner_merge_seconds")), "ms"},
      {"planner", "planner.fanout_straggler_ms", 1e3 * (slowest - fastest),
       "ms"},
      {"planner", "planner.merge_win_ratio",
       ratio(query.Counter("ksir_planner_merge_wins_total"), plans), "ratio"},
      {"cache", "cache.hit_ratio",
       ratio(query.Counter("ksir_cache_hits_total"), lookups), "ratio"},
      {"cache", "cache.lookup_p50_us",
       1e6 * query.Histogram("ksir_service_cache_lookup_seconds")
                 .Percentile(0.5),
       "us"},
      {"cache", "cache.evictions",
       all_counter("ksir_cache_evictions_total") / buckets, "count"},
      {"sub", "sub.activated", per_bucket(sub, "ksir_sub_activated_total"),
       "count"},
      {"sub", "sub.skipped", per_bucket(sub, "ksir_sub_skipped_total"),
       "count"},
      {"sub", "sub.evaluations", evaluations / buckets, "count"},
      {"sub", "sub.shared_hits", per_bucket(sub, "ksir_sub_shared_hits_total"),
       "count"},
      {"sub", "sub.deltas", per_bucket(sub, "ksir_sub_deltas_total"), "count"},
      {"sub", "sub.useful_eval_ratio", ratio(useful_group_evals_, evaluations),
       "ratio"},
      {"sub", "sub.ms_per_evaluation",
       ratio(1e3 * traced[1].total_wall_s, evaluations), "ms"},
      {"pool", "pool.tasks_per_bucket",
       all_counter("ksir_pool_tasks_total") / buckets, "count"},
      {"pool", "pool.task_p50_us", 1e6 * tasks.Percentile(0.5), "us"},
      {"pool", "pool.steals", all_counter("ksir_pool_steals_total") / buckets,
       "count"},
      {"pool", "pool.cpu_per_wall.ingest", cpu_per_wall(0), "ratio"},
      {"pool", "pool.cpu_per_wall.sub", cpu_per_wall(1), "ratio"},
      {"pool", "pool.cpu_per_wall.query", cpu_per_wall(2), "ratio"},
      {"telemetry", "telemetry.trace_overhead_pct", trace_overhead_pct, "%"},
  };
  std::printf("%-10s %-36s %16s %s\n", "layer", "metric", "value", "unit");
  std::string json;
  for (const Row& row : rows) {
    std::printf("%-10s %-36s %16.6g %s\n", row.layer, row.name, row.value,
                row.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", row.name, row.value, row.unit);
    json += buf;
  }
  return json;
}

void Runner::WriteTraces(Instance* inst) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(args_.out_dir) /
                       (w_.name + "-seed" + std::to_string(args_.seed));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return;
  }
  {
    std::ofstream out(dir / "bench_trace.json");
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                    "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"id\": %lld}}",
                    i == 0 ? "" : ",", spans_[i].name, spans_[i].ts_us,
                    spans_[i].dur_us, static_cast<long long>(spans_[i].id));
      out << buf;
    }
    out << "\n]}\n";
  }
  std::ofstream(dir / "service_trace.json") << inst->service->TraceJson();
  std::ofstream(dir / "metrics.json") << inst->service->MetricsJsonDump();
  std::printf("traces and registry dump written to %s\n", dir.c_str());
}

int Runner::Run() {
  const bool traced = args_.trace == 1;
  const double steal0 = StealSeconds();
  const auto run_start = Clock::now();
  ref_ = std::make_unique<ReferenceWindow>(&w_.stream.elements,
                                           w_.config.engine.window_length);
  last_result_.assign(w_.subscriptions.size(), {});
  const auto warmup = [this]() {
    std::vector<Bucket> buckets;
    for (std::size_t b = 0; b < w_.warmup_buckets; ++b) {
      buckets.push_back(CopyBucket(w_, b));
    }
    return buckets;
  };

  // --- Set-up (timed): kSetups times, keeping the last instance. The
  // traced run sets up one kOff and one kTracing instance, once each. ---
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;     // kOff instance
  std::unique_ptr<Instance> tr_inst;  // kTracing instance (traced run)
  for (int rep = 0; rep < (traced ? 1 : kSetups); ++rep) {
    inst.reset();
    std::vector<Bucket> buckets = warmup();
    const auto a = Clock::now();
    auto created = SetUp(w_, w_.config, std::move(buckets));
    setup_s.push_back(Seconds(a, Clock::now()));
    if (!created.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    inst = std::move(created).value();
  }
  if (traced) {
    ksir::ServiceConfig config = w_.config;
    config.telemetry.level = ksir::TelemetryLevel::kTracing;
    config.telemetry.trace_sample_period = 8;
    config.telemetry.trace_capacity = 1 << 18;
    auto created = SetUp(w_, config, warmup());
    if (!created.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    tr_inst = std::move(created).value();
  }
  checked_ = traced ? tr_inst.get() : inst.get();
  owner_ = [this](ElementId id, std::vector<const SocialElement*>* out) {
    const KsirService& service = *checked_->service;
    int owners = 0;
    for (std::size_t i = 0; i < service.num_shards(); ++i) {
      const ksir::ActiveWindow& window = service.shard(i).window();
      if (!window.IsActive(id)) continue;
      ++owners;
      for (const SocialElement* r : ref_->InWindowReferrers(id)) {
        if (window.IsInWindow(r->id)) out->push_back(r);
      }
    }
    return owners == 1;
  };
  ref_->AdvanceTo(w_.bucket_end[w_.warmup_buckets - 1]);
  CheckRound(checked_, 0);  // the set-up's first round: all enters

  // --- Measured buckets. ---
  Phase phases[3];
  Phase tr_phases[3];
  RegistryDelta deltas[3];
  RegistryDelta unused[3];
  std::int64_t failed = 0;
  std::int64_t queries = 0;
  double checks_s = 0.0;
  const std::size_t measured = w_.measured_buckets();
  for (std::size_t m = 0; m < measured; ++m) {
    const std::size_t b = w_.warmup_buckets + m;
    elements_measured_ += w_.bucket_begin[b + 1] - w_.bucket_begin[b];
    queries += static_cast<std::int64_t>(w_.adhoc[m].size());
    const auto measure_plain = [&]() {
      return MeasureBucket(inst.get(), m, CopyBucket(w_, b), phases, unused,
                           false);
    };
    const auto measure_traced = [&]() {
      return MeasureBucket(tr_inst.get(), m, CopyBucket(w_, b), tr_phases,
                           deltas, true);
    };
    BucketOutcome outcome;
    if (!traced) {
      outcome = measure_plain();
    } else {
      // Lockstep, alternating which instance goes first.
      BucketOutcome plain;
      if (m % 2 == 0) {
        plain = measure_plain();
        outcome = measure_traced();
      } else {
        outcome = measure_traced();
        plain = measure_plain();
      }
      for (std::size_t q = 0; q < outcome.results.size(); ++q) {
        Check(plain.results[q].element_ids ==
                      outcome.results[q].element_ids &&
                  plain.results[q].score == outcome.results[q].score,
              "kOff and kTracing services answered differently");
      }
      failed += plain.failed_ops;
    }
    failed += outcome.failed_ops;

    // --- Checks (untimed). ---
    const auto checks_start = Clock::now();
    ref_->AdvanceTo(w_.bucket_end[b]);
    CheckBucket(checked_, b);
    CheckRound(checked_, m + 1);
    CheckQueries(m, outcome);
    if (m % w_.sample_every == 0) CheckShards(checked_, m, traced);
    checks_s += Seconds(checks_start, Clock::now());
  }
  const double steal = steal0 >= 0.0 ? StealSeconds() - steal0 : -1.0;
  const double run_s = Seconds(run_start, Clock::now());

  // Every bucket is one ingestion and one round; each service in the run
  // attempts all of them.
  const auto buckets = static_cast<std::int64_t>(measured);
  const std::int64_t attempted =
      (traced ? 2 : 1) * (2 * buckets + queries);
  double timed_s = 0.0;
  for (int p = 0; p < 3; ++p) {
    timed_s += phases[p].total_wall_s + tr_phases[p].total_wall_s;
  }
  std::printf("workload %s seed %llu: %zu warm-up + %zu measured buckets, "
              "%zu elements, %zu subscriptions\n",
              w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
              w_.warmup_buckets, measured, w_.stream.elements.size(),
              w_.subscriptions.size());
  std::printf("operations: buckets %lld, rounds %lld, queries %lld "
              "(failed %lld); checks %lld (failed %lld)\n",
              static_cast<long long>(buckets), static_cast<long long>(buckets),
              static_cast<long long>(queries), static_cast<long long>(failed),
              static_cast<long long>(checks_),
              static_cast<long long>(check_failures_));
  std::printf("wall time: set-up %.2f s, timed phases %.2f s, checks %.2f s\n",
              Sum(setup_s), timed_s, checks_s);
  if (steal >= 0.0) {
    std::printf("host steal during the run: %.2f s over %.1f s\n", steal,
                run_s);
  } else {
    std::printf("host steal during the run: unavailable\n");
  }

  std::string metrics;
  const auto add = [&metrics](const char* name, double value,
                              const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, value, unit);
    metrics += buf;
  };
  if (!traced) {
    const double elements = static_cast<double>(elements_measured_);
    const double nq = static_cast<double>(queries);
    // Wall-clock figures: printed for the reader, kept out of the metric
    // set because host steal moves them far more than it moves CPU time.
    std::printf(
        "wall clock: ingest %.1f elem/s, bucket p50 %.4f ms, p95 %.4f ms; "
        "round p50 %.4f ms, p95 %.4f ms; query p50 %.4f ms, p95 %.4f ms, "
        "%.1f q/s\n",
        elements / phases[0].total_wall_s,
        1e3 * Quantile(phases[0].wall_s, 0.5),
        1e3 * Quantile(phases[0].wall_s, 0.95),
        1e3 * Quantile(phases[1].wall_s, 0.5),
        1e3 * Quantile(phases[1].wall_s, 0.95),
        1e3 * Quantile(phases[2].wall_s, 0.5),
        1e3 * Quantile(phases[2].wall_s, 0.95), nq / phases[2].total_wall_s);
    add("setup_s", Quantile(setup_s, 0.5), "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    add("ingest_cpu_us_per_element", 1e6 * phases[0].CpuPerUnit(kBlock),
        "us");
    add("sub_round_cpu_ms", 1e3 * phases[1].CpuPerUnit(kBlock), "ms");
    add("query_cpu_ms", 1e3 * phases[2].CpuPerUnit(kQueryBlock), "ms");
  } else {
    double plain_cpu = 0.0;
    double traced_cpu = 0.0;
    for (int p = 0; p < 3; ++p) {
      plain_cpu += phases[p].cpu_s;
      traced_cpu += tr_phases[p].cpu_s;
    }
    metrics = PerLayer(tr_phases, deltas,
                       100.0 * (traced_cpu - plain_cpu) / plain_cpu);
    WriteTraces(tr_inst.get());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              check_failures_ == 0 ? "true" : "false",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ksir_e2e --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out-dir DIR]\n");
    return 2;
  }
  const auto start = std::chrono::steady_clock::now();
  auto workload = e2e::MakeWorkload(args.workload, args.seed, args.seconds);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  std::printf("inputs generated in %.2f s\n",
              e2e::Seconds(start, std::chrono::steady_clock::now()));
  e2e::Runner runner(*workload, args);
  return runner.Run();
}
