// mScopeFlow bulk materializer throughput: reconstructs every request's
// causal path in one columnar pass and races it against the per-ID
// TraceReconstructor oracle (tests/oracle/) over the same warehouse. The tentpole claim:
// cell-identical output at >= 50x the oracle's throughput on a 50k-request
// run. The oracle is O(ids x rows) — running it over all 50k ids would take
// minutes — so it is timed over a deterministic sample of ids, verified
// cell-for-cell on that sample, and its full-run cost extrapolated
// linearly (each reconstruct() scans every row regardless of the id, so
// per-id cost is constant and the extrapolation is exact in expectation).
//
// Absolute speedups are only asserted in optimized, unsanitized builds;
// sanitized builds still verify parity. `--smoke N` shrinks the request
// count for CI.

#include "bench_common.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>

#include "db/database.h"
#include "flow/attribution.h"
#include "flow/materializer.h"
#include "oracle/trace_reconstructor.h"
#include "util/id_codec.h"

using namespace mscope;
using namespace mscope::bench;

namespace {

#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

db::Schema event_schema(bool with_second_pair) {
  db::Schema s = {{"req_id", db::DataType::kText},
                  {"ua_usec", db::DataType::kInt},
                  {"ud_usec", db::DataType::kInt},
                  {"ds_usec", db::DataType::kInt},
                  {"dr_usec", db::DataType::kInt}};
  if (with_second_pair) {
    s[3].name = "ds0_usec";
    s[4].name = "dr0_usec";
    s.push_back({"ds1_usec", db::DataType::kInt});
    s.push_back({"dr1_usec", db::DataType::kInt});
  }
  return s;
}

/// Builds a RUBBoS-shaped 4-tier warehouse (replicated MySQL) with
/// `n` requests and seals every table into columnar segments.
flow::Deployment build_warehouse(db::Database& db, std::uint64_t n) {
  auto& apache = db.create_table("ev_apache_web1", event_schema(false));
  auto& tomcat = db.create_table("ev_tomcat_app1", event_schema(true));
  auto& cjdbc = db.create_table("ev_cjdbc_cj1", event_schema(false));
  auto& db1 = db.create_table("ev_mysql_db1", event_schema(false));
  auto& db2 = db.create_table("ev_mysql_db2", event_schema(false));

  std::mt19937_64 rng(2017);
  std::uniform_int_distribution<std::int64_t> svc(100, 2000);
  for (std::uint64_t id = 1; id <= n; ++id) {
    const db::Value hex{util::IdCodec::encode(id)};
    const std::int64_t t0 = static_cast<std::int64_t>(id) * 500;
    const std::int64_t work = svc(rng);
    apache.insert({hex, db::Value{t0}, db::Value{t0 + work + 600},
                   db::Value{t0 + 50}, db::Value{t0 + work + 550}});
    tomcat.insert({hex, db::Value{t0 + 60}, db::Value{t0 + work + 540},
                   db::Value{t0 + 80}, db::Value{t0 + 200},
                   db::Value{t0 + 250}, db::Value{t0 + work + 500}});
    cjdbc.insert({hex, db::Value{t0 + 90}, db::Value{t0 + 190},
                  db::Value{t0 + 100}, db::Value{t0 + 180}});
    (id % 2 == 0 ? db1 : db2)
        .insert({hex, db::Value{t0 + 105}, db::Value{t0 + 175}, db::Value{},
                 db::Value{}});
  }
  for (const auto& name : db.table_names()) db.get(name).seal_all();

  flow::Deployment dep;
  dep.event_tables = {{"ev_apache_web1"},
                      {"ev_tomcat_app1"},
                      {"ev_cjdbc_cj1"},
                      {"ev_mysql_db1", "ev_mysql_db2"}};
  dep.services = {"apache", "tomcat", "cjdbc", "mysql"};
  return dep;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t requests = 50'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 && i + 1 < argc) {
      requests = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    }
  }

  db::Database db;
  const flow::Deployment dep = build_warehouse(db, requests);

  // Bulk path: one columnar pass over all tables, then warehouse tables.
  const double t0 = now_sec();
  const flow::Materializer mat(db, dep);
  const flow::Result result = mat.run();
  const double bulk_sec = now_sec() - t0;
  const double t1 = now_sec();
  flow::Materializer::materialize(result, db);
  const double mat_sec = now_sec() - t1;

  // Oracle path: per-ID reconstruct over a deterministic sample, verified
  // cell-identical, extrapolated to the full id population.
  const std::uint64_t sample = std::min<std::uint64_t>(requests, 200);
  const std::uint64_t stride = std::max<std::uint64_t>(requests / sample, 1);
  const auto oracle =
      core::TraceReconstructor::for_groups(db, dep.event_tables, dep.services);
  std::uint64_t sampled = 0;
  std::uint64_t cell_mismatches = 0;
  const double t2 = now_sec();
  for (std::uint64_t id = 1; id <= requests; id += stride) {
    const auto want = oracle.reconstruct(id);
    ++sampled;
    const flow::RequestRec* got = result.find(id);
    if (!want || got == nullptr) {
      ++cell_mismatches;
      continue;
    }
    const core::Trace bulk = result.trace(*got);
    if (bulk.spans.size() != want->spans.size()) {
      ++cell_mismatches;
      continue;
    }
    for (std::size_t s = 0; s < want->spans.size(); ++s) {
      const auto& b = bulk.spans[s];
      const auto& o = want->spans[s];
      if (b.tier != o.tier || b.visit != o.visit || b.ua != o.ua ||
          b.ud != o.ud || b.calls != o.calls || b.service != o.service) {
        ++cell_mismatches;
      }
    }
  }
  const double oracle_sample_sec = now_sec() - t2;
  const double oracle_full_sec =
      oracle_sample_sec * static_cast<double>(requests) /
      static_cast<double>(sampled);
  const double speedup = oracle_full_sec / std::max(bulk_sec, 1e-9);

  std::printf("# flow materializer: %llu requests, %zu spans, %zu tables\n",
              static_cast<unsigned long long>(requests), result.spans.size(),
              result.table_tier.size());
  std::printf("bulk_run_sec\t%.4f\n", bulk_sec);
  std::printf("bulk_materialize_sec\t%.4f\n", mat_sec);
  std::printf("bulk_requests_per_sec\t%.0f\n",
              static_cast<double>(requests) / std::max(bulk_sec, 1e-9));
  std::printf("oracle_sample_ids\t%llu\n",
              static_cast<unsigned long long>(sampled));
  std::printf("oracle_sample_sec\t%.4f\n", oracle_sample_sec);
  std::printf("oracle_full_sec_extrapolated\t%.1f\n", oracle_full_sec);
  std::printf("speedup_vs_oracle\t%.1fx\n", speedup);

  // The materialized analytics should see every request it just built.
  const flow::Attribution attr =
      flow::attribute(result, util::sec(1), /*top_k=*/1);
  std::size_t bucketed = 0;
  for (const auto& b : attr.buckets) bucketed += b.requests;

  check(cell_mismatches == 0, "bulk output cell-identical to oracle sample");
  check(result.requests.size() == requests, "every request materialized");
  check(bucketed == requests, "attribution buckets cover every request");
  check(db.exists(flow::Materializer::kRequestsTable) &&
            db.get(flow::Materializer::kRequestsTable).row_count() == requests,
        "mscope_flow_requests has one row per request");
  if (kOptimizedBuild) {
    check(speedup >= 50.0, "bulk >= 50x per-ID oracle throughput");
  } else {
    std::printf("# unoptimized/sanitized build: speedup floor not asserted\n");
  }
  return finish("flow_materialize");
}
