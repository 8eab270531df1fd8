#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/trace.h"
#include "db/catalog.h"
#include "db/database.h"
#include "util/simtime.h"

namespace mscope::flow {

using util::SimTime;

/// The deployment slice mScopeFlow works over: every tier's replica event
/// tables, front to back. A request visits exactly one replica per tier, so
/// the union of a tier's tables holds each request's records exactly once.
struct Deployment {
  std::vector<std::vector<std::string>> event_tables;  ///< [tier][replica]
  std::vector<std::string> services;                   ///< one per tier
  /// Replica node names, parallel to event_tables. May be left empty: the
  /// node is then derived from the table name ("ev_<service>_<node>").
  std::vector<std::vector<std::string>> nodes;

  /// Builds the flow deployment from the diagnoser's table map.
  [[nodiscard]] static Deployment from(const core::Diagnoser::Tables& t,
                                       std::vector<std::string> services);
};

/// One tier visit in the bulk-materialized form: plain 64/32-bit fields plus
/// a range into a shared (ds, dr) call pool — no per-span allocation, so 50k
/// requests' worth of spans sort and scan at memory speed.
struct SpanRec {
  std::uint64_t req_id = 0;
  std::int32_t tier = -1;
  std::int32_t table = -1;  ///< flat source-table index (service/node lookup)
  std::int32_t visit = 0;
  SimTime ua = -1;
  SimTime ud = -1;
  std::uint32_t calls_begin = 0;  ///< into Result::calls
  std::uint32_t calls_end = 0;
};

/// One request: a range of spans (ordered exactly as the per-ID oracle in
/// tests/oracle/ orders them) plus the whole-run aggregates the attribution
/// layer reads.
struct RequestRec {
  std::uint64_t req_id = 0;
  std::uint32_t span_begin = 0;  ///< into Result::spans
  std::uint32_t span_end = 0;
  SimTime rt = 0;          ///< front-tier inclusive time (0 if tier 0 absent)
  SimTime completed = -1;  ///< front span's ud; max ud of any span if holed
  bool complete = false;   ///< every tier contributed at least one span
};

/// The whole run's causal paths, reconstructed in one pass: the one request
/// model every request-level view (Fig. 5 traces, per-tier contributions,
/// attribution, drill-down) reads. Requests are sorted by req_id; spans are
/// grouped per request, within a request in (tier, visit, row) order, so
/// `trace(r)` is cell-identical to what the per-ID reference reconstructor
/// (the test oracle) builds for r.req_id.
class Result {
 public:
  std::vector<SpanRec> spans;
  std::vector<core::Call> calls;  ///< pooled (ds, dr)
  std::vector<RequestRec> requests;

  // Flat source-table metadata, indexed by SpanRec::table.
  std::vector<int> table_tier;
  std::vector<std::string> table_service;
  std::vector<std::string> table_node;
  std::size_t tiers = 0;

  /// Spans whose timestamps ran backwards (ud < ua or dr < ds) — clamped to
  /// zero duration by the core::span_* rule, counted here and in
  /// `flow.skewed_spans`.
  std::uint64_t skewed_spans = 0;

  /// `s`'s (ds, dr) calls in the shared pool.
  [[nodiscard]] std::span<const core::Call> calls_of(const SpanRec& s) const {
    return std::span<const core::Call>(calls).subspan(
        s.calls_begin, s.calls_end - s.calls_begin);
  }

  /// Label per tier: the service of its first table ("t<N>" for a tier with
  /// no table).
  [[nodiscard]] std::vector<std::string> tier_services() const;

  /// Materializes one span in core::TraceSpan form (calls copied out).
  [[nodiscard]] core::TraceSpan span(const SpanRec& s) const;

  /// Materializes one request's full core::Trace (Fig. 5).
  [[nodiscard]] core::Trace trace(const RequestRec& r) const;

  /// Binary-searches a request by id; nullptr if absent.
  [[nodiscard]] const RequestRec* find(std::uint64_t req_id) const;

  /// Sum of exclusive time over `r`'s spans of one tier.
  [[nodiscard]] SimTime tier_exclusive(const RequestRec& r, int tier) const;

  /// Node that served `r` at `tier` ("" when the tier is absent).
  [[nodiscard]] const std::string& node_of(const RequestRec& r,
                                           int tier) const;
};

/// The vectorized bulk trace materializer: reconstructs *every* request's
/// causal path in one columnar pass over the event tables — sealed segments
/// are decoded column-at-a-time (request-id dictionaries decoded once per
/// distinct entry, timestamp columns once per column), span records are
/// sort-merged on the propagated req_id across tiers — instead of per-ID
/// point lookups that re-scan every table for every id. Same cells, orders
/// of magnitude less work at fleet scale.
class Materializer {
 public:
  static constexpr const char* kSpansTable = "mscope_flow_spans";
  static constexpr const char* kRequestsTable = "mscope_flow_requests";

  Materializer(const db::Catalog& db, Deployment dep);

  [[nodiscard]] const Deployment& deployment() const { return dep_; }

  /// The bulk pass: every request's trace, one scan per event table.
  [[nodiscard]] Result run() const;

  /// Drops and rewrites the two flow tables from `r` into `out` (for a
  /// sharded fleet warehouse, pass any one shard — Catalog::find serves a
  /// single-shard table directly).
  ///
  /// mscope_flow_spans: req_id, tier, service, node, visit, ua_usec,
  ///   ud_usec, calls, wait_usec, incl_usec, excl_usec — one row per tier
  ///   visit, grouped by request (req_id ascending). Absent timestamps are
  ///   -1, mirroring TraceSpan's sentinel.
  /// mscope_flow_requests: req_id, begin_usec, end_usec, rt_usec,
  ///   completed_usec, spans, tiers, complete, excl_<service>_usec per tier.
  static void materialize(const Result& r, db::Database& out);

 private:
  static void scan_table(const db::Table& t, std::int32_t flat, Result& out);

  const db::Catalog& db_;
  Deployment dep_;
};

}  // namespace mscope::flow
