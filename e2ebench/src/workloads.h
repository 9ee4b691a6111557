// The benchmark's workloads: generated streams, service configuration,
// standing subscriptions and the ad-hoc query schedule, all derived from a
// workload name and a seed. Nothing here is timed.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "service/service.h"
#include "stream/generator.h"

namespace e2e {

struct Workload {
  std::string name;
  /// Stream plus its ground-truth topic model (the model the service uses).
  ksir::GeneratedStream stream;
  /// Untraced service configuration: 4 shards, 4 workers, standing queries
  /// driven by the benchmark rather than by AdvanceTo.
  ksir::ServiceConfig config;
  /// Bucket b ingests elements [bucket_begin[b], bucket_begin[b + 1]) and
  /// ends at bucket_end[b]; the first `warmup_buckets` cover the first
  /// window length and belong to set-up.
  std::vector<ksir::Timestamp> bucket_end;
  std::vector<std::size_t> bucket_begin;
  std::size_t warmup_buckets = 0;
  /// One entry per subscription, and the group (distinct query) it joins.
  std::vector<ksir::KsirQuery> subscriptions;
  std::vector<std::uint32_t> subscription_group;
  /// Ad-hoc queries issued after measured bucket m, in order.
  std::vector<std::vector<ksir::KsirQuery>> adhoc;
  /// Query vectors of the per-shard approximation sample, checked every
  /// `sample_every` measured buckets (one vector per checked bucket, in
  /// rotation).
  std::vector<ksir::SparseVector> sample_vectors;
  std::size_t sample_every = 1;

  std::size_t measured_buckets() const {
    return bucket_end.size() - warmup_buckets;
  }
};

/// Builds workload `name` from `seed`; `seconds` sizes the measured part.
ksir::StatusOr<Workload> MakeWorkload(const std::string& name,
                                      std::uint64_t seed, int seconds);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
