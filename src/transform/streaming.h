#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "db/column_batch.h"
#include "db/database.h"
#include "transform/declaration.h"
#include "transform/fastparse/fast_parser.h"
#include "transform/transform_config.h"

namespace mscope::obs {
class Tracer;
}

namespace mscope::transform {

namespace fastparse {
class ParsePool;
}

/// The transform engine: ingests raw log *bytes* as they arrive from the
/// collector and keeps mScopeDB continuously loaded. The batch
/// DataTransformer is a wrapper over it: one ingest per complete file, then
/// finalize().
///
/// Each shipped byte is parsed once, by the file's compiled scanner
/// (FastParser): each file keeps a parse State — next line number, columns
/// with their running best-match types, and the format's carried context
/// (tomcat call columns, the sar text / collectl csv header, iostat's
/// current timestamp, sar XML's open elements and pending sample) — and
/// each parse_all() pass parses, in place in the file's accumulated buffer,
/// only the bytes between the last pass and the last complete line,
/// appending just their rows. Parsing a file piece by piece yields exactly
/// the schema and rows of one parse of the whole file, so the final table
/// is identical to a batch run's. ingest() only appends; the collectors
/// call parse_all() on their parse tick. A sar XML document streams like
/// the line formats: each timestamp's row lands once its element closes.
///
/// With Config::transform.parse_workers > 1, parse_all() and finalize() fan
/// the per-file parse passes out across a worker pool (batch-granular work
/// stealing); table reconciliation always happens on the calling thread in
/// sorted (node, file) order, so the warehouse is byte-identical at any
/// worker count.
///
/// Each pass's cells are typed where they are scanned: a parse pass yields
/// a db::ColumnBatch (typed on the pool worker when there is one), and the
/// serial reconcile appends it to the file's table with Table::append —
/// no cell is rendered to text and parsed back on the way.
///
/// Schema widening on the fly: the XMLtoCSV "best match" type of a column
/// can widen as data arrives (Int -> Double -> Text), and new columns can
/// appear. Exact widenings apply in place (Table::try_widen). An inexact
/// one (e.g. "042" read as Int 42, later re-typed to Text, or a "-0" stored
/// as Int 0 in a column that widens to Double) drops the table and rebuilds
/// it from the retained raw bytes: the file is re-parsed from byte 0 with a
/// fresh State and every row re-inserted at the new schema.
///
/// A parse that throws (only a malformed sar XML document can) fails its
/// file for the rest of the run: the rows already loaded stay, later bytes
/// are neither kept nor parsed, and the message is the file's
/// outcome().parse_error (a live stream with holes tolerates it, a batch
/// run rethrows it).
///
/// Each dynamic table belongs to one (node, file): a file whose declaration
/// maps onto a table another file of this transformer created, or onto one
/// already in the database, is a configuration error (std::invalid_argument),
/// not a merge.
///
/// finalize() parses what is left of each file (including a trailing line
/// with no newline), ends each file (FastParser::finish) before loading its
/// tail rows, and records ms_load_catalog / ms_monitor_deployment entries in
/// sorted (node, file) order, each with its table's anchor span —
/// byte-for-byte parity with a batch load, and with the regex/XML oracle,
/// is asserted by tests/collector_test.cpp.
class StreamingTransformer {
 public:
  struct Config {
    TransformConfig transform;  ///< parse worker pool
  };

  struct Stats {
    std::uint64_t bytes = 0;            ///< raw bytes ingested
    std::uint64_t chunks = 0;           ///< ingest() calls
    std::uint64_t parse_passes = 0;     ///< parse calls (resumed pieces
                                        ///< and rebuilds)
    std::uint64_t parsed_bytes = 0;     ///< bytes those calls parsed
    std::uint64_t parse_deferrals = 0;  ///< files whose parse threw (each
                                        ///< is failed for the run)
    std::uint64_t rows_live = 0;        ///< rows currently in dynamic tables
    std::uint64_t rows_inserted = 0;    ///< inserts incl. rebuild re-inserts
    std::uint64_t schema_rebuilds = 0;  ///< schema-change events (in-place
                                        ///< widen or drop+rebuild)
    std::uint64_t inplace_widens = 0;   ///< subset applied without a rebuild
    std::uint64_t files = 0;            ///< distinct (node, file) seen
    std::uint64_t unmatched_files = 0;  ///< no declaration: bytes discarded
    std::uint64_t gaps = 0;             ///< stream holes reported (note_gap)
    std::uint64_t gap_bytes = 0;        ///< log bytes lost in those holes
    std::uint64_t rejected_lines = 0;   ///< malformed lines that matched no
                                        ///< instruction
  };

  /// Fires for rows [first, end) of `batch` the moment they become visible
  /// in a dynamic table mid-run: each row once (rebuild re-inserts do not
  /// re-fire). The batch's schema names and types its columns.
  using RowObserver = std::function<void(const std::string& table,
                                         const db::ColumnBatch& batch,
                                         std::size_t first, std::size_t end)>;

  StreamingTransformer(db::Database& db, Config cfg);
  explicit StreamingTransformer(db::Database& db)
      : StreamingTransformer(db, Config{}) {}
  ~StreamingTransformer();

  /// The declaration registry used for stage-1 matching (add custom formats
  /// before the first ingest).
  [[nodiscard]] DeclarationRegistry& declarations() { return registry_; }

  void set_row_observer(RowObserver obs) { observer_ = std::move(obs); }

  /// Optional span tracer for per-file parse spans (single-threaded — spans
  /// are recorded only from the serial reconcile stage).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Appends raw bytes of `file` on `node` (in offset order — the collector
  /// guarantees this). Parsing happens in parse_all() and finalize(). The
  /// first ingest of a file compiles its declaration's parser, and throws
  /// std::invalid_argument naming the file and the parser id if it cannot.
  void ingest(const std::string& node, const std::string& file,
              std::string_view data);

  /// Move overload: when `file`'s accumulation buffer is empty, the shipped
  /// batch buffer is adopted wholesale instead of copied — the zero-copy
  /// handoff from the collector (the buffer then IS the parse subject).
  void ingest(const std::string& node, const std::string& file,
              std::string&& data);

  /// Disambiguates string literals onto the view overload (a literal could
  /// otherwise convert to either std::string_view or std::string&&).
  void ingest(const std::string& node, const std::string& file,
              const char* data) {
    ingest(node, file, std::string_view(data));
  }

  /// Reports a hole in `file`'s byte stream (the collector abandoned a
  /// batch after exhausting retries): `bytes` log bytes between what was
  /// ingested so far and the next ingest are gone. The current partial line
  /// is terminated so the bytes on either side of the hole can never splice
  /// into one plausible-but-wrong row, and the loss is counted in stats()
  /// and warnings() instead of being silently misparsed.
  void note_gap(const std::string& node, const std::string& file,
                std::uint64_t bytes);

  /// One human-readable line per data-loss event (see note_gap).
  [[nodiscard]] const std::vector<std::string>& warnings() const {
    return warnings_;
  }

  /// Parses every resumable file's complete lines since its last pass and
  /// loads their rows (bounds signal staleness for online consumers). Fans
  /// out across the parse pool when Config::transform.parse_workers != 1.
  void parse_all();

  /// End of stream: parses each file's remaining bytes, ends each file,
  /// loads the tails, and records load-catalog + deployment metadata. A
  /// parse that throws here fails its file like any other (see outcome()),
  /// so finalize() does not rethrow it.
  void finalize();

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// What one file has loaded so far.
  struct FileOutcome {
    std::string table;     ///< "" until the file yields a row
    std::size_t rows = 0;  ///< rows of the file in `table`
    /// what() of the parse that failed the file, if one threw.
    std::optional<std::string> parse_error;
  };

  /// Outcome of (node, file); a default FileOutcome if it was never
  /// ingested.
  [[nodiscard]] FileOutcome outcome(const std::string& node,
                                    const std::string& file) const;

 private:
  struct FileState {
    const Declaration* decl = nullptr;  ///< nullptr: no declaration matched
    const fastparse::FastParser* parser = nullptr;  ///< set with decl
    fastparse::FastParser::State parse_state;  ///< resume point
    std::string content;            ///< full byte stream so far
    std::size_t parsed_bytes = 0;   ///< prefix already parsed
    std::size_t rows_in_table = 0;
    std::size_t rows_notified = 0;
    db::Schema schema;
    std::string table;
    std::optional<std::string> parse_error;  ///< see FileOutcome
  };

  /// One scheduled parse pass over bytes [begin, end) of a file: the pure
  /// parse stage (run_parse) may execute on a pool worker; reconcile_parse
  /// always runs on the calling thread. The final pass also ends the file,
  /// and may parse no bytes.
  struct ParseTask {
    const std::string* node = nullptr;
    const std::string* file = nullptr;
    FileState* st = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool final_pass = false;
    bool scheduled = false;  ///< false: nothing to do this pass
    db::ColumnBatch batch;
    fastparse::ParseStats stats;
    std::optional<std::string> error;  ///< what() if the parse threw
  };

  /// The byte range the next pass parses. Returns a task with
  /// scheduled=false when there is nothing to do.
  ParseTask prepare_parse(const std::string& node, const std::string& file,
                          FileState& st, bool final_pass);
  /// The pure parse stage — safe on a pool worker: touches only the task
  /// and its file's parse state.
  void run_parse(ParseTask& t) const;
  /// Serial stage: counters, schema reconciliation, batch append, observer.
  void reconcile_parse(ParseTask& t);
  /// Runs every scheduled task, on the pool when configured.
  void run_tasks(std::vector<ParseTask>& tasks);

  FileState& file_state(const std::string& node, const std::string& file);

  db::Database& db_;
  DeclarationRegistry registry_;
  Config cfg_;
  RowObserver observer_;
  obs::Tracer* tracer_ = nullptr;
  /// Compiled parsers by declaration; touched only by the calling thread.
  std::map<const Declaration*, std::unique_ptr<const fastparse::FastParser>>
      parsers_;
  std::unique_ptr<fastparse::ParsePool> pool_;
  // node -> file -> state; both levels sorted so finalize() records the
  // load catalog in (node, file) order.
  std::map<std::string, std::map<std::string, FileState>> nodes_;
  std::map<std::string, std::string> table_owner_;  ///< table -> "node/file"
  Stats stats_;
  std::vector<std::string> warnings_;
};

}  // namespace mscope::transform
