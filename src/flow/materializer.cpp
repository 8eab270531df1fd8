#include "flow/materializer.h"

#include <algorithm>
#include <cstddef>

#include "db/column_batch.h"
#include "db/sqlengine/vec.h"
#include "db/table.h"
#include "db/value.h"
#include "obs/metrics.h"
#include "util/id_codec.h"

namespace mscope::flow {
namespace {

/// Decodes a request-id cell string exactly the way the per-ID oracle
/// matches it: the oracle compares against IdCodec::encode(id) (12
/// uppercase hex), so only strings that round-trip to themselves count —
/// lowercase hex decodes but would never match the oracle's string compare.
bool decode_canonical(const std::string& s, std::uint64_t* out) {
  const auto id = util::IdCodec::decode(s);
  if (!id || util::IdCodec::encode(*id) != s) return false;
  *out = *id;
  return true;
}

/// Emission-time builder: one span per event-table row. Absent columns are
/// empty views, whose cells read as NULL.
struct Emitter {
  Result* out;
  std::int32_t tier;
  std::int32_t flat;

  void push(std::uint64_t id, const db::sqlengine::ColumnVec& visit,
            const db::sqlengine::ColumnVec& ua,
            const db::sqlengine::ColumnVec& ud,
            const std::vector<db::sqlengine::ColumnVec>& calls,
            std::size_t row) {
    SpanRec s;
    s.req_id = id;
    s.tier = tier;
    s.table = flat;
    if (const auto x = visit.as_int(row)) {
      s.visit = static_cast<std::int32_t>(*x);
    }
    if (const auto x = ua.as_int(row)) s.ua = *x;
    if (const auto x = ud.as_int(row)) s.ud = *x;
    s.calls_begin = static_cast<std::uint32_t>(out->calls.size());
    for (std::size_t c = 0; c + 1 < calls.size(); c += 2) {
      const auto a = calls[c].as_int(row);
      const auto b = calls[c + 1].as_int(row);
      if (a && b) out->calls.emplace_back(*a, *b);
    }
    s.calls_end = static_cast<std::uint32_t>(out->calls.size());
    if (core::span_skewed(s.ua, s.ud, out->calls_of(s))) ++out->skewed_spans;
    out->spans.push_back(s);
  }
};

/// Derives "<node>" from "ev_<service>_<node>" when Deployment::nodes was
/// left empty.
std::string node_from_table(const std::string& table) {
  const auto us = table.rfind('_');
  return us == std::string::npos ? table : table.substr(us + 1);
}

/// Writes one table's rows as column chunks of at most kChunkRows rows
/// (one WAL frame's worth), each appended through Table::append, so the
/// store and the journal take column ranges instead of boxed rows. One
/// batch's arrays are reused from chunk to chunk: the transient memory is
/// one chunk, not the whole flow result. Every column is Int or Text and no
/// cell is NULL; a row is its cells in column order, then end_row().
class ChunkWriter {
 public:
  static constexpr std::size_t kChunkRows = 4096;

  explicit ChunkWriter(db::Table& t) : table_(t) {
    batch_.schema = t.schema();
    batch_.columns.resize(t.column_count());
    for (std::size_t c = 0; c < t.column_count(); ++c) {
      batch_.columns[c].type = t.schema()[c].type;
    }
  }

  ChunkWriter& text(const db::TextRef& v) {
    db::ColumnBatch::Column& col = batch_.columns[next_++];
    col.valid.push_back(1);
    col.texts.emplace_back(v);
    return *this;
  }

  ChunkWriter& integer(std::int64_t v) {
    db::ColumnBatch::Column& col = batch_.columns[next_++];
    col.valid.push_back(1);
    col.ints.push_back(v);
    return *this;
  }

  void end_row() {
    next_ = 0;
    if (++batch_.rows == kChunkRows) flush();
  }

  /// Appends the rows written since the last flush.
  void flush() {
    if (batch_.rows == 0) return;
    table_.append(batch_, 0, batch_.rows);
    for (db::ColumnBatch::Column& col : batch_.columns) col.clear();
    batch_.rows = 0;
  }

 private:
  db::Table& table_;
  db::ColumnBatch batch_;
  std::size_t next_ = 0;  ///< the column the next cell goes to
};

}  // namespace

Deployment Deployment::from(const core::Diagnoser::Tables& t,
                            std::vector<std::string> services) {
  Deployment d;
  d.event_tables = t.event_tables;
  d.nodes = t.nodes;
  d.services = std::move(services);
  return d;
}

std::vector<std::string> Result::tier_services() const {
  std::vector<std::string> labels(tiers);
  for (std::size_t tier = 0; tier < tiers; ++tier) {
    labels[tier] = "t" + std::to_string(tier);
    for (std::size_t t = 0; t < table_tier.size(); ++t) {
      if (table_tier[t] == static_cast<int>(tier)) {
        labels[tier] = table_service[t];
        break;
      }
    }
  }
  return labels;
}

core::TraceSpan Result::span(const SpanRec& s) const {
  core::TraceSpan out;
  out.tier = s.tier;
  out.service = s.table >= 0 ? table_service[static_cast<std::size_t>(s.table)]
                             : std::string("?");
  out.visit = s.visit;
  out.ua = s.ua;
  out.ud = s.ud;
  const auto c = calls_of(s);
  out.calls.assign(c.begin(), c.end());
  return out;
}

core::Trace Result::trace(const RequestRec& r) const {
  core::Trace t;
  t.req_id = r.req_id;
  t.spans.reserve(r.span_end - r.span_begin);
  for (std::uint32_t i = r.span_begin; i < r.span_end; ++i) {
    t.spans.push_back(span(spans[i]));
  }
  return t;
}

const RequestRec* Result::find(std::uint64_t req_id) const {
  const auto it = std::lower_bound(
      requests.begin(), requests.end(), req_id,
      [](const RequestRec& r, std::uint64_t id) { return r.req_id < id; });
  if (it == requests.end() || it->req_id != req_id) return nullptr;
  return &*it;
}

SimTime Result::tier_exclusive(const RequestRec& r, int tier) const {
  SimTime sum = 0;
  for (std::uint32_t i = r.span_begin; i < r.span_end; ++i) {
    const SpanRec& s = spans[i];
    if (s.tier == tier) sum += core::span_exclusive(s.ua, s.ud, calls_of(s));
  }
  return sum;
}

const std::string& Result::node_of(const RequestRec& r, int tier) const {
  static const std::string kEmpty;
  for (std::uint32_t i = r.span_begin; i < r.span_end; ++i) {
    if (spans[i].tier == tier && spans[i].table >= 0) {
      return table_node[static_cast<std::size_t>(spans[i].table)];
    }
  }
  return kEmpty;
}

Materializer::Materializer(const db::Catalog& db, Deployment dep)
    : db_(db), dep_(std::move(dep)) {}

void Materializer::scan_table(const db::Table& t, std::int32_t flat,
                              Result& out) {
  const core::EventColumns cols = core::event_columns(t);
  if (!cols.req_id) return;

  Emitter emit{&out, out.table_tier[static_cast<std::size_t>(flat)], flat};

  // One pass per storage run (sealed segments, then the tail), columnar on
  // both: the req_id dictionary is decoded once per *distinct* id string,
  // the timestamp columns once per column — this is where the 50x over
  // per-ID row scans comes from.
  using db::sqlengine::ColumnVec;
  const db::segment::SegmentStore& store = t.storage();
  std::vector<ColumnVec> calls(cols.calls.size() * 2);
  ColumnVec visit, ua, ud;
  std::vector<std::uint64_t> dict_id;
  std::vector<char> dict_ok;
  for (std::size_t k = 0; k < store.run_count(); ++k) {
    const db::segment::SegmentStore::Run run = store.run(k);
    const auto view = [&](std::size_t c) {
      return ColumnVec::from_run(store, run, c);
    };
    if (cols.visit) visit = view(*cols.visit);
    if (cols.ua) ua = view(*cols.ua);
    if (cols.ud) ud = view(*cols.ud);
    for (std::size_t c = 0; c < cols.calls.size(); ++c) {
      calls[2 * c] = view(cols.calls[c].first);
      calls[2 * c + 1] = view(cols.calls[c].second);
    }
    const ColumnVec rid = view(*cols.req_id);
    if (rid.type() == db::DataType::kText) {
      const auto dict = rid.dict();
      dict_id.assign(dict.size(), 0);
      dict_ok.assign(dict.size(), 0);
      for (std::size_t d = 0; d < dict.size(); ++d) {
        dict_ok[d] = decode_canonical(dict[d].str(), &dict_id[d]) ? 1 : 0;
      }
      const auto codes = rid.codes();
      for (std::size_t i = 0; i < run.rows; ++i) {
        const std::uint32_t code = codes[i];
        if (code == db::segment::TextChunk::kNullCode || !dict_ok[code]) {
          continue;
        }
        emit.push(dict_id[code], visit, ua, ud, calls, i);
      }
    } else {
      // Rare: a req_id column that inferred as numeric (all-digit hex).
      // Per-cell materialization with the same canonical-string guard keeps
      // oracle equivalence; throughput does not matter on this path.
      for (std::size_t i = 0; i < run.rows; ++i) {
        const db::Value v = rid.get(i);
        std::uint64_t id = 0;
        if (db::is_null(v) || !decode_canonical(db::value_to_string(v), &id)) {
          continue;
        }
        emit.push(id, visit, ua, ud, calls, i);
      }
    }
  }
}

Result Materializer::run() const {
  Result out;

  // Flatten the deployment: one scan per (tier, replica) table, in the same
  // tier-major order the oracle visits tables, so the stable sort below
  // reproduces its span order exactly.
  out.tiers = dep_.event_tables.size();
  for (std::size_t tier = 0; tier < dep_.event_tables.size(); ++tier) {
    for (std::size_t rep = 0; rep < dep_.event_tables[tier].size(); ++rep) {
      const std::string& name = dep_.event_tables[tier][rep];
      const std::int32_t flat = static_cast<std::int32_t>(out.table_tier.size());
      out.table_tier.push_back(static_cast<int>(tier));
      out.table_service.push_back(
          tier < dep_.services.size() ? dep_.services[tier] : "?");
      out.table_node.push_back(
          tier < dep_.nodes.size() && rep < dep_.nodes[tier].size()
              ? dep_.nodes[tier][rep]
              : node_from_table(name));
      const db::Table* t = db_.find(name);
      if (t != nullptr) scan_table(*t, flat, out);
    }
  }

  // Sort-merge on req_id. stable_sort preserves the (tier, table, row)
  // emission order inside each request, and the second per-request pass is
  // the oracle's own (tier, visit) stable sort — so trace(r) comes out
  // cell-identical to the per-ID reconstruction of r.req_id.
  std::stable_sort(out.spans.begin(), out.spans.end(),
                   [](const SpanRec& a, const SpanRec& b) {
                     return a.req_id < b.req_id;
                   });

  std::vector<char> tier_seen(out.tiers, 0);
  for (std::size_t begin = 0; begin < out.spans.size();) {
    std::size_t end = begin;
    while (end < out.spans.size() &&
           out.spans[end].req_id == out.spans[begin].req_id) {
      ++end;
    }
    std::stable_sort(out.spans.begin() + static_cast<std::ptrdiff_t>(begin),
                     out.spans.begin() + static_cast<std::ptrdiff_t>(end),
                     [](const SpanRec& a, const SpanRec& b) {
                       if (a.tier != b.tier) return a.tier < b.tier;
                       return a.visit < b.visit;
                     });

    RequestRec r;
    r.req_id = out.spans[begin].req_id;
    r.span_begin = static_cast<std::uint32_t>(begin);
    r.span_end = static_cast<std::uint32_t>(end);
    std::fill(tier_seen.begin(), tier_seen.end(), 0);
    SimTime max_ud = -1;
    for (std::size_t i = begin; i < end; ++i) {
      const SpanRec& s = out.spans[i];
      if (s.tier >= 0 && static_cast<std::size_t>(s.tier) < out.tiers) {
        tier_seen[static_cast<std::size_t>(s.tier)] = 1;
      }
      if (s.ud > max_ud) max_ud = s.ud;
    }
    const SpanRec& front = out.spans[begin];
    if (front.tier == 0) {
      r.rt = core::span_inclusive(front.ua, front.ud);
      r.completed = front.ud >= 0 ? front.ud : max_ud;
    } else {
      r.completed = max_ud;
    }
    r.complete =
        out.tiers > 0 &&
        std::all_of(tier_seen.begin(), tier_seen.end(),
                    [](char seen) { return seen != 0; });
    out.requests.push_back(r);
    begin = end;
  }

  auto& reg = obs::Registry::global();
  reg.counter("flow.spans").add(out.spans.size());
  reg.counter("flow.requests").add(out.requests.size());
  reg.counter("flow.skewed_spans").add(out.skewed_spans);
  return out;
}

void Materializer::materialize(const Result& r, db::Database& out) {
  out.drop(kSpansTable);
  out.drop(kRequestsTable);

  db::Schema span_schema = {
      {"req_id", db::DataType::kText},   {"tier", db::DataType::kInt},
      {"service", db::DataType::kText},  {"node", db::DataType::kText},
      {"visit", db::DataType::kInt},     {"ua_usec", db::DataType::kInt},
      {"ud_usec", db::DataType::kInt},   {"calls", db::DataType::kInt},
      {"wait_usec", db::DataType::kInt}, {"incl_usec", db::DataType::kInt},
      {"excl_usec", db::DataType::kInt}};
  db::Table& spans = out.create_table(kSpansTable, std::move(span_schema));
  spans.reserve(r.spans.size());

  db::Schema req_schema = {{"req_id", db::DataType::kText},
                           {"begin_usec", db::DataType::kInt},
                           {"end_usec", db::DataType::kInt},
                           {"rt_usec", db::DataType::kInt},
                           {"completed_usec", db::DataType::kInt},
                           {"spans", db::DataType::kInt},
                           {"tiers", db::DataType::kInt},
                           {"complete", db::DataType::kInt}};
  // Per-tier exclusive contribution columns, named by the tier's service.
  for (const std::string& service : r.tier_services()) {
    req_schema.push_back({"excl_" + service + "_usec", db::DataType::kInt});
  }
  db::Table& reqs = out.create_table(kRequestsTable, std::move(req_schema));
  reqs.reserve(r.requests.size());

  // Per-table constants: one pooled TextRef each, shared by every span.
  const std::vector<db::TextRef> table_service(r.table_service.begin(),
                                               r.table_service.end());
  const std::vector<db::TextRef> table_node(r.table_node.begin(),
                                            r.table_node.end());
  // Every request id before any row: the long-lived strings are allocated
  // together instead of between rows that the seals below free again.
  std::vector<db::TextRef> hexes;
  hexes.reserve(r.requests.size());
  for (const RequestRec& req : r.requests) {
    hexes.emplace_back(util::IdCodec::encode(req.req_id));
  }

  ChunkWriter span_rows(spans);
  ChunkWriter req_rows(reqs);
  for (std::size_t q = 0; q < r.requests.size(); ++q) {
    const RequestRec& req = r.requests[q];
    const db::TextRef& hex = hexes[q];
    SimTime begin = -1;
    SimTime end = -1;
    std::size_t distinct_tiers = 0;
    std::vector<char> tier_seen(r.tiers, 0);
    for (std::uint32_t i = req.span_begin; i < req.span_end; ++i) {
      const SpanRec& s = r.spans[i];
      if (s.ua >= 0 && (begin < 0 || s.ua < begin)) begin = s.ua;
      if (s.ud > end) end = s.ud;
      if (s.tier >= 0 && static_cast<std::size_t>(s.tier) < r.tiers &&
          !tier_seen[static_cast<std::size_t>(s.tier)]) {
        tier_seen[static_cast<std::size_t>(s.tier)] = 1;
        ++distinct_tiers;
      }

      const auto calls = r.calls_of(s);
      const SimTime incl = core::span_inclusive(s.ua, s.ud);
      const SimTime excl = core::span_exclusive(s.ua, s.ud, calls);
      const SimTime wait = core::span_wait(calls);
      span_rows.text(hex)
          .integer(s.tier)
          .text(table_service[static_cast<std::size_t>(s.table)])
          .text(table_node[static_cast<std::size_t>(s.table)])
          .integer(s.visit)
          .integer(s.ua)
          .integer(s.ud)
          .integer(s.calls_end - s.calls_begin)
          .integer(wait)
          .integer(incl)
          .integer(excl)
          .end_row();
    }

    req_rows.text(hex)
        .integer(begin)
        .integer(end)
        .integer(req.rt)
        .integer(req.completed)
        .integer(req.span_end - req.span_begin)
        .integer(static_cast<std::int64_t>(distinct_tiers))
        .integer(req.complete ? 1 : 0);
    for (std::size_t tier = 0; tier < r.tiers; ++tier) {
      req_rows.integer(r.tier_exclusive(req, static_cast<int>(tier)));
    }
    req_rows.end_row();
  }
  span_rows.flush();
  req_rows.flush();

  spans.seal_all();
  reqs.seal_all();
}

}  // namespace mscope::flow
