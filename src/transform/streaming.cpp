#include "transform/streaming.h"

#include <algorithm>
#include <stdexcept>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transform/fastparse/parse_pool.h"

namespace mscope::transform {

namespace {

/// Builds the time indexes mScopeSQL's scan pushdown bounds row ranges with
/// (ts_usec, ua_usec, ud_usec); each insert then maintains them
/// incrementally.
void prewarm_time_indexes(const db::Table& table) {
  for (const char* name : {"ts_usec", "ua_usec", "ud_usec"}) {
    if (table.column_index(name)) {
      (void)table.time_index(name);  // builds on miss, no-op for Text columns
    }
  }
}

}  // namespace

StreamingTransformer::StreamingTransformer(db::Database& db, Config cfg)
    : db_(db), cfg_(cfg) {}

StreamingTransformer::~StreamingTransformer() = default;

StreamingTransformer::FileState& StreamingTransformer::file_state(
    const std::string& node, const std::string& file) {
  auto& files = nodes_[node];
  auto it = files.find(file);
  if (it == files.end()) {
    // First sight of this (node, file): stage-1 declaration lookup, then
    // the declaration's compiled parser. Compiling first means a
    // declaration no parser can honor throws before the file is tracked.
    const Declaration* decl = registry_.match(file);
    const fastparse::FastParser* parser = nullptr;
    if (decl != nullptr) {
      auto& compiled = parsers_[decl];
      if (compiled == nullptr) compiled = fastparse::FastParser::compile(*decl);
      parser = compiled.get();
    }
    it = files.emplace(file, FileState{}).first;
    ++stats_.files;
    FileState& st = it->second;
    st.decl = decl;
    st.parser = parser;
    if (decl == nullptr) ++stats_.unmatched_files;
  }
  return it->second;
}

void StreamingTransformer::ingest(const std::string& node,
                                  const std::string& file,
                                  std::string_view data) {
  FileState& st = file_state(node, file);
  ++stats_.chunks;
  stats_.bytes += data.size();
  // Unknown format or failed file: nothing to transform.
  if (st.decl == nullptr || st.parse_error) return;
  st.content.append(data);
}

void StreamingTransformer::ingest(const std::string& node,
                                  const std::string& file,
                                  std::string&& data) {
  FileState& st = file_state(node, file);
  ++stats_.chunks;
  stats_.bytes += data.size();
  if (st.decl == nullptr || st.parse_error) return;

  if (st.content.empty()) {
    // Adopt the shipped buffer instead of copying it — the collector is done
    // with it, and it becomes the in-place parse subject.
    st.content = std::move(data);
  } else {
    st.content.append(data);
  }
}

void StreamingTransformer::note_gap(const std::string& node,
                                    const std::string& file,
                                    std::uint64_t bytes) {
  ++stats_.gaps;
  stats_.gap_bytes += bytes;
  static obs::Counter& gaps_c =
      obs::Registry::global().counter("transform.gaps");
  static obs::Counter& gap_bytes_c =
      obs::Registry::global().counter("transform.gap_bytes");
  gaps_c.inc();
  gap_bytes_c.add(bytes);
  std::string msg = "data loss: " + std::to_string(bytes) + " byte(s) of " +
                    node + "/" + file +
                    " lost in transit (batch abandoned after retries)";
  obs::Log::warn(msg);
  warnings_.push_back(std::move(msg));
  auto node_it = nodes_.find(node);
  if (node_it == nodes_.end()) return;
  auto it = node_it->second.find(file);
  if (it == node_it->second.end()) return;
  FileState& st = it->second;
  // Terminate the dangling partial line: the fragment before the hole and
  // the fragment after it must not concatenate into one well-formed-looking
  // record. Each side becomes a malformed stub the parser rejects on its
  // own, which is loud (row-count deficit + this warning) instead of wrong.
  if (!st.content.empty() && st.content.back() != '\n') {
    st.content.push_back('\n');
  }
}

void StreamingTransformer::parse_all() {
  std::vector<ParseTask> tasks;
  for (auto& [node, files] : nodes_) {
    for (auto& [file, st] : files) {
      ParseTask t = prepare_parse(node, file, st, /*final_pass=*/false);
      if (t.scheduled) tasks.push_back(std::move(t));
    }
  }
  run_tasks(tasks);
  // Reconcile in collection order (sorted maps) — identical warehouse at
  // any worker count.
  for (auto& t : tasks) reconcile_parse(t);
}

StreamingTransformer::ParseTask StreamingTransformer::prepare_parse(
    const std::string& node, const std::string& file, FileState& st,
    bool final_pass) {
  ParseTask t;
  t.node = &node;
  t.file = &file;
  t.st = &st;
  if (st.decl == nullptr || st.parse_error) return t;
  // Mid-run, parse up to the last complete line only; a trailing fragment
  // would produce a bogus row that a later pass could not retract. The
  // final pass takes everything, exactly like the batch pipeline reading
  // the file, and ends the file even when no new bytes arrived.
  std::size_t end = st.content.size();
  if (!final_pass) {
    const auto nl = st.content.rfind('\n');
    end = (nl == std::string::npos) ? 0 : nl + 1;
    if (end <= st.parsed_bytes) return t;
  }
  t.begin = st.parsed_bytes;
  t.end = end;
  t.final_pass = final_pass;
  t.scheduled = true;
  return t;
}

void StreamingTransformer::run_parse(ParseTask& t) const {
  // Reads the file's in-place buffer and advances only this file's parse
  // state. Safe on a pool worker because each task owns a distinct file
  // and no ingest/note_gap can run while run_tasks() holds the caller (the
  // zero-copy lifetime rule).
  FileState& st = *t.st;
  try {
    if (t.end > t.begin) {
      const std::string_view piece =
          std::string_view(st.content).substr(t.begin, t.end - t.begin);
      t.batch = st.parser->parse_more(st.parse_state, piece, t.stats);
    }
    // Ends the file before its last rows load: a document that never
    // closes loads no rows from this pass.
    if (t.final_pass) st.parser->finish(st.parse_state);
  } catch (const std::exception& e) {
    // A hole in a lossy stream can make a file unparseable; keep the rows
    // loaded so far rather than losing the file.
    t.error = e.what();
  }
}

void StreamingTransformer::run_tasks(std::vector<ParseTask>& tasks) {
  if (tasks.empty()) return;
  const unsigned workers = cfg_.transform.parse_workers;
  if (workers == 1 || tasks.size() == 1) {
    for (auto& t : tasks) run_parse(t);
    return;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<fastparse::ParsePool>(workers);
  }
  std::vector<std::function<void()>> fns;
  fns.reserve(tasks.size());
  for (auto& t : tasks) {
    fns.emplace_back([this, &t] { run_parse(t); });
  }
  pool_->run(fns);
}

void StreamingTransformer::reconcile_parse(ParseTask& task) {
  FileState& st = *task.st;
  if (task.error) {
    // The file is failed for the run: its loaded rows stay, its bytes go.
    st.parse_error = std::move(task.error);
    st.content = std::string();
    ++stats_.parse_deferrals;
    static obs::Counter& deferrals =
        obs::Registry::global().counter("transform.parse_deferrals");
    deferrals.inc();
    return;
  }
  if (task.end == task.begin) return;  // the final pass only ended the file
  obs::Tracer::Span span =
      tracer_ != nullptr
          ? tracer_->span("parse " + *task.node + "/" + *task.file,
                          "transform")
          : obs::Tracer::Span();
  static obs::Counter& passes =
      obs::Registry::global().counter("transform.parse_passes");
  static obs::Counter& parsed_bytes_c =
      obs::Registry::global().counter("transform.parsed_bytes");
  static obs::Counter& fast_passes =
      obs::Registry::global().counter("transform.parse.fast_passes");
  const auto count_pass = [&](std::size_t bytes) {
    ++stats_.parse_passes;
    stats_.parsed_bytes += bytes;
    passes.inc();
    parsed_bytes_c.add(bytes);
    fast_passes.inc();
  };
  count_pass(task.end - task.begin);

  if (const std::uint64_t rejected = task.stats.rejected; rejected > 0) {
    stats_.rejected_lines += rejected;
    static obs::Counter& rejected_c =
        obs::Registry::global().counter("transform.parse.rejected");
    rejected_c.add(rejected);
    obs::Registry::global()
        .counter("transform.parse.rejected." + st.decl->source)
        .add(rejected);
  }

  st.parsed_bytes = task.end;
  db::ColumnBatch& batch = task.batch;
  if (batch.schema.empty()) return;  // no rows yet

  if (st.table.empty()) {
    std::string table = st.decl->table_prefix + "_" + *task.node;
    const std::string owner = *task.node + "/" + *task.file;
    const auto [it, fresh] = table_owner_.emplace(table, owner);
    if (!fresh) {
      throw std::invalid_argument("StreamingTransformer: " + owner + " and " +
                                  it->second + " both load table " + table);
    }
    if (db_.exists(table)) {
      throw std::invalid_argument("StreamingTransformer: " + owner +
                                  ": table exists: " + table);
    }
    st.table = std::move(table);
  }

  // The batch holds the file's rows [first_row, first_row + batch.rows).
  std::size_t first_row = st.rows_in_table;
  db::Table* table = db_.find(st.table);
  const bool schema_changed = table != nullptr && st.schema != batch.schema;
  if (table != nullptr && schema_changed) {
    // Widened type or new column: earlier rows must be re-typed. Exact
    // widenings (Int -> Double, all-NULL columns, appended columns) apply
    // in place — sealed columnar segments re-encode only the affected
    // columns and warm indexes survive, so streaming never re-inserts a
    // sealed row. Inexact changes (e.g. "042" re-typed to Text) fall back
    // to drop + rebuild from the raw bytes. Rows already announced to the
    // observer stay announced (rows_notified survives either path).
    static obs::Counter& widens_c =
        obs::Registry::global().counter("transform.schema_widenings");
    widens_c.inc();
    // A "-0" stored as Int 0 would re-type to +0.0 in place, where a
    // one-pass parse reads it as -0.0: that Int -> Double is inexact.
    bool exact = true;
    for (std::size_t c = 0; c < st.schema.size(); ++c) {
      if (st.schema[c].type == db::DataType::kInt &&
          batch.schema[c].type == db::DataType::kDouble &&
          st.parse_state.builder.stored_negative_zero(
              static_cast<fastparse::BatchBuilder::ColId>(c))) {
        exact = false;
      }
    }
    if (exact && table->try_widen(batch.schema)) {
      ++stats_.schema_rebuilds;  // counts schema-change events of both kinds
      ++stats_.inplace_widens;
      // A widened schema can introduce new *_usec columns; make sure their
      // indexes are warm before rows stream in.
      prewarm_time_indexes(*table);
    } else {
      if (first_row > 0) {
        // Earlier passes' rows are typed at the old schema: re-parse the
        // file from byte 0 with a fresh state. Same bytes, so the same
        // schema.
        fastparse::FastParser::State fresh;
        fastparse::ParseStats ignored;
        batch = st.parser->parse_more(
            fresh, std::string_view(st.content).substr(0, task.end), ignored);
        count_pass(task.end);
        first_row = 0;
      }
      db_.drop(st.table);
      table = nullptr;
      stats_.rows_live -= st.rows_in_table;
      st.rows_in_table = 0;
      ++stats_.schema_rebuilds;
    }
  }
  if (table == nullptr) {
    table = &db_.create_table(st.table, batch.schema);
    // Warm the time indexes on the empty table: every row streamed in from
    // here on (including all rows re-inserted after a schema-widening
    // rebuild, which passes through this branch again) maintains them
    // incrementally, so the live queue-depth queries never pay a rebuild.
    prewarm_time_indexes(*table);
  }
  st.schema = batch.schema;

  // first_row == st.rows_in_table here (a rebuild reset both to 0).
  table->append(batch, 0, batch.rows);
  stats_.rows_inserted += batch.rows;
  stats_.rows_live += batch.rows;
  static obs::Counter& rows_c =
      obs::Registry::global().counter("transform.rows_inserted");
  rows_c.add(batch.rows);
  const std::size_t end_row = first_row + batch.rows;
  st.rows_in_table = end_row;
  if (observer_ && end_row > std::max(st.rows_notified, first_row)) {
    observer_(st.table, batch,
              std::max(st.rows_notified, first_row) - first_row, batch.rows);
  }
  st.rows_notified = std::max(st.rows_notified, end_row);
}

void StreamingTransformer::finalize() {
  // Phase 1: fan the final parses out across the pool.
  std::vector<ParseTask> scheduled;
  for (auto& [node, files] : nodes_) {
    for (auto& [file, st] : files) {
      ParseTask t = prepare_parse(node, file, st, /*final_pass=*/true);
      if (t.scheduled) scheduled.push_back(std::move(t));
    }
  }
  run_tasks(scheduled);

  // Phase 2: reconcile + record metadata, walking (node, file) in sorted
  // order, so static-table rows land in the same order at any worker count
  // and any ingest interleaving.
  std::size_t si = 0;
  for (auto& [node, files] : nodes_) {
    for (auto& [file, st] : files) {
      if (st.decl == nullptr) continue;
      if (si < scheduled.size() && scheduled[si].st == &st) {
        reconcile_parse(scheduled[si]);
        ++si;
      }
      if (st.table.empty() || !db_.exists(st.table)) continue;

      const db::Table& table = db_.get(st.table);
      const db::segment::ZoneMap span = table.anchor_span();
      db_.record_load(node + "/" + file, st.table,
                      static_cast<std::int64_t>(table.row_count()), span.min,
                      span.max);
      db_.record_deployment(node, st.decl->monitor_name, file, 0);
    }
  }
}

StreamingTransformer::FileOutcome StreamingTransformer::outcome(
    const std::string& node, const std::string& file) const {
  FileOutcome out;
  const auto node_it = nodes_.find(node);
  if (node_it == nodes_.end()) return out;
  const auto it = node_it->second.find(file);
  if (it == node_it->second.end()) return out;
  const FileState& st = it->second;
  out.table = st.table;
  out.rows = st.rows_in_table;
  out.parse_error = st.parse_error;
  return out;
}

}  // namespace mscope::transform
