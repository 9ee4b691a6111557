#!/usr/bin/env python3
"""Validator for the service's Prometheus text exposition.

Run against a metrics dump produced by a live service (CI feeds it the
query_server_sim output). Three layers of checks, any failure exits 1:

  1. Well-formedness: every non-comment line is `name[{labels}] value`,
     every sample belongs to a family announced by a `# TYPE` header, and
     histogram series are internally consistent (cumulative bucket counts
     are non-decreasing, the `+Inf` bucket equals `_count`).
  2. Catalogue: the metric names every layer of the engine is supposed to
     populate during an ingest+query run are present with plausible
     values (counters non-negative, the load-bearing ones non-zero).
  3. Stage accounting: the per-stage maintenance histograms decompose the
     bucket-apply histogram, so their summed `_sum` must land within
     STAGE_SUM_TOLERANCE of the bucket-apply `_sum` (the stages nest
     inside the apply scope; a large gap means a stage lost its timer).

Usage: check_metrics_exposition.py METRICS.prom
"""

import re
import sys

# Relative gap allowed between sum(stage _sum) and the bucket-apply _sum.
STAGE_SUM_TOLERANCE = 0.20

# Metric families an ingest+query run must populate. Maps name -> minimum
# expected value ("> 0" for load-bearing counts, ">= 0" for situational
# ones that may legitimately stay zero on a given workload).
REQUIRED_COUNTERS_POSITIVE = [
    "ksir_ingest_elements_total",
    "ksir_ingest_buckets_total",
    "ksir_ingest_update_nanos_total",
    "ksir_maintainer_fresh_total",
    "ksir_maintainer_repositions_total",
    "ksir_service_queries_total",
    "ksir_planner_plans_total",
    "ksir_pool_tasks_total",
    # The subscription engine: query_server_sim registers 48 standing
    # subscriptions over 16 distinct queries, so registrations, activated
    # rounds, evaluations and delta events must all have happened.
    "ksir_sub_registered_total",
    "ksir_sub_activated_total",
    "ksir_sub_evaluations_total",
    "ksir_sub_deltas_total",
    # Per-algorithm query work: the sim's ad-hoc MTTS and MTTD queries and
    # the MTTD standing rounds all run through KsirEngine::Query.
    "ksir_query_mtts_evaluated_total",
    "ksir_query_mtts_retrieved_total",
    "ksir_query_mttd_evaluated_total",
    "ksir_query_mttd_retrieved_total",
    "ksir_query_mttd_gain_evaluations_total",
    "ksir_query_mttd_rounds_total",
]
REQUIRED_COUNTERS_NONNEGATIVE = [
    "ksir_maintainer_expired_total",
    "ksir_maintainer_elements_touched_total",
    "ksir_maintainer_elisions_total",
    "ksir_cache_hits_total",
    "ksir_cache_misses_total",
    "ksir_cache_evictions_total",
    "ksir_cache_invalidated_total",
    "ksir_cache_stale_inserts_total",
    "ksir_planner_epoch_retries_total",
    "ksir_planner_merge_wins_total",
    "ksir_planner_best_shard_wins_total",
    # Situational on a given workload: skips need an untouched-topic round,
    # shared hits need >1 subscription in an activated group that round.
    "ksir_sub_skipped_total",
    "ksir_sub_shared_hits_total",
] + [
    # Every engine registers all four work counters of every algorithm.
    f"ksir_query_{algorithm}_{work}_total"
    for algorithm in ("mtts", "mttd", "celf", "greedy", "sieve_streaming",
                      "topk_representative", "brute_force")
    for work in ("evaluated", "retrieved", "gain_evaluations", "rounds")
]
REQUIRED_HISTOGRAMS_POPULATED = [
    "ksir_maintainer_bucket_apply_seconds",
    "ksir_maintainer_stage_expiry_seconds",
    "ksir_maintainer_stage_list_apply_seconds",
    "ksir_engine_advance_seconds",
    "ksir_ingest_bucket_seconds",
    "ksir_planner_plan_seconds",
    "ksir_service_query_seconds",
    "ksir_service_cache_lookup_seconds",
    "ksir_pool_task_seconds",
    "ksir_sub_evaluate_seconds",
]
STAGE_HISTOGRAMS = [
    "ksir_maintainer_stage_expiry_seconds",
    "ksir_maintainer_stage_score_seconds",
    "ksir_maintainer_stage_gather_seconds",
    "ksir_maintainer_stage_list_apply_seconds",
]
BUCKET_APPLY_HISTOGRAM = "ksir_maintainer_bucket_apply_seconds"

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[0-9.eE+-]+|NaN)$")
HEADER_RE = re.compile(
    r"^# (?P<kind>HELP|TYPE) (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?: (?P<rest>.*))?$")


def fail(errors):
    for error in errors:
        print(f"FAIL: {error}")
    return 1


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], "r", encoding="utf-8") as f:
        lines = f.read().splitlines()

    errors = []
    types = {}     # family name -> counter|gauge|histogram
    samples = {}   # full sample name -> [(labels-dict, value)]
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            header = HEADER_RE.match(line)
            if header is None:
                errors.append(f"line {i}: malformed comment header: {line!r}")
            elif header.group("kind") == "TYPE":
                types[header.group("name")] = (header.group("rest") or
                                               "").strip()
            continue
        sample = SAMPLE_RE.match(line)
        if sample is None:
            errors.append(f"line {i}: malformed sample line: {line!r}")
            continue
        labels = {}
        if sample.group("labels"):
            for pair in sample.group("labels").split(","):
                key, _, raw = pair.partition("=")
                labels[key.strip()] = raw.strip().strip('"')
        samples.setdefault(sample.group("name"), []).append(
            (labels, float(sample.group("value"))))

    # Every sample must belong to a declared family (histograms expose
    # their samples under _bucket/_sum/_count suffixes).
    for name in samples:
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in types and family not in types:
            errors.append(f"sample {name} has no # TYPE header")

    def scalar(name):
        if name not in samples or len(samples[name]) != 1:
            return None
        return samples[name][0][1]

    for name in REQUIRED_COUNTERS_POSITIVE:
        value = scalar(name)
        if value is None:
            errors.append(f"required counter {name} missing")
        elif value <= 0:
            errors.append(f"counter {name} = {value}, expected > 0")
    for name in REQUIRED_COUNTERS_NONNEGATIVE:
        value = scalar(name)
        if value is None:
            errors.append(f"required counter {name} missing")
        elif value < 0:
            errors.append(f"counter {name} = {value}, expected >= 0")

    def histogram_ok(family):
        count = scalar(f"{family}_count")
        total = scalar(f"{family}_sum")
        buckets = samples.get(f"{family}_bucket", [])
        if count is None or total is None or not buckets:
            errors.append(f"histogram {family} missing series")
            return None
        cumulative = -1.0
        inf_count = None
        for labels, value in buckets:
            if value < cumulative:
                errors.append(
                    f"{family}_bucket not cumulative at le={labels.get('le')}")
            cumulative = value
            if labels.get("le") == "+Inf":
                inf_count = value
        if inf_count != count:
            errors.append(f"{family}: +Inf bucket {inf_count} != "
                          f"_count {count}")
        return count, total

    populated = {}
    for family in set(REQUIRED_HISTOGRAMS_POPULATED + STAGE_HISTOGRAMS +
                      [BUCKET_APPLY_HISTOGRAM]):
        populated[family] = histogram_ok(family)
    for family in REQUIRED_HISTOGRAMS_POPULATED:
        if populated.get(family) and populated[family][0] <= 0:
            errors.append(f"histogram {family} has zero observations "
                          f"(telemetry level not kCounters?)")

    # Stage accounting: the stage sums decompose the bucket-apply sum.
    apply_series = populated.get(BUCKET_APPLY_HISTOGRAM)
    if apply_series and apply_series[1] > 0:
        apply_sum = apply_series[1]
        stage_sum = sum(populated[f][1] for f in STAGE_HISTOGRAMS
                        if populated.get(f))
        gap = abs(stage_sum - apply_sum) / apply_sum
        print(f"stage sums: {stage_sum:.6f} s of {apply_sum:.6f} s "
              f"bucket-apply ({100.0 * stage_sum / apply_sum:.1f}%, "
              f"gap limit {STAGE_SUM_TOLERANCE * 100.0:.0f}%)")
        if gap > STAGE_SUM_TOLERANCE:
            errors.append(
                f"stage sums {stage_sum:.6f} s deviate from bucket-apply "
                f"{apply_sum:.6f} s by {gap * 100.0:.1f}% "
                f"(> {STAGE_SUM_TOLERANCE * 100.0:.0f}%)")

    if errors:
        return fail(errors)
    print(f"OK: {len(samples)} sample families well-formed, catalogue "
          f"complete, stage accounting consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
