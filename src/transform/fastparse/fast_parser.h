#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "transform/declaration.h"
#include "transform/fastparse/builder.h"
#include "transform/fastparse/pattern.h"

namespace mscope::transform {

/// Normalizes a raw header token into a column name:
/// "%user" -> "user_pct", "[CPU]User%" -> "cpu_user_pct", "kB_read/s" ->
/// "kb_read_s".
[[nodiscard]] std::string sanitize_column(std::string_view raw);

/// Converts a raw timestamp string per encoding into relative microseconds;
/// returns false if unparseable.
[[nodiscard]] bool convert_time(std::string_view raw, TimeEncoding enc,
                                std::int64_t& out_usec);

}  // namespace mscope::transform

namespace mscope::transform::fastparse {

/// Per-parse tallies. `rejected` counts candidate lines (for sar XML:
/// timestamp elements) that survived the format's structural skip rules
/// (banner/comment/blank) but produced no entry.
struct ParseStats {
  std::uint64_t lines = 0;
  std::uint64_t rejected = 0;
};

/// A specialized byte-scanning parser compiled from one Declaration —
/// stages 2-3 of the transformer (paper Fig. 3: add semantics, then
/// XMLtoCSV) in one pass, with no XML materialized and std::regex off the
/// hot path. Each cell is typed once, where it is scanned (BatchBuilder),
/// and the result is a typed db::ColumnBatch ready for Table::append.
///
/// compile() translates each TokenInstruction's regex into a
/// CompiledPattern (pattern.h); instructions outside the supported regex
/// subset keep a std::regex fallback, matched over the raw byte range (no
/// per-line std::string copies either way). The structured formats
/// (sar_text, sar_xml, iostat, collectl) are hand-rolled scanners. parse()
/// is required — and tested against the regex/XML oracle in tests/oracle/
/// — to produce the schema of the paper's mScopeParser -> XML -> XMLtoCSV
/// chain on the same bytes, and cells equal to that chain's read through
/// db::parse_as at their column types, and to throw exactly when that chain
/// throws (only sar XML can: a malformed document).
///
/// Parsing is resumable: parse_more() continues a file where the previous
/// call stopped, carrying everything a later piece depends on in a State,
/// and finish() closes the file. Column typing is a running join, so
/// parsing a file in pieces yields exactly the schema, cells and stats of
/// one parse of the whole file (tested).
///
/// Instances are immutable after compile() and safe to share across
/// threads; all mutable state lives in the caller's State and per-call
/// scratch.
class FastParser {
 public:
  /// Lazily-resolved column ids for one output field: one id for the
  /// time-normalized name, one for the raw name. Resolving at first
  /// emission (not at compile) preserves the reference's first-appearance
  /// column order.
  struct SlotIds {
    static constexpr BatchBuilder::ColId kNone = 0xFFFFFFFFu;
    BatchBuilder::ColId time_id = kNone;
    BatchBuilder::ColId raw_id = kNone;
  };

  /// One column of a header-driven format (sar text, collectl).
  struct HeaderCol {
    std::string name;
    bool is_time = false;
    SlotIds ids;
  };

  /// A sar XML document between pieces. Rows come from the `timestamp`
  /// children of the root's first `host` child's first `statistics` child.
  /// That route runs root, host, statistics, timestamp, cpu-load, cpu (the
  /// first cpu-load's first cpu); `path` counts the open elements on it.
  struct SarXmlState {
    std::string carry;              ///< a construct a piece boundary cut
    std::vector<std::string> open;  ///< open element names, root first
    std::size_t path = 0;
    /// seen[d]: the route's element at depth d has started (for the
    /// timestamp's cpu-load and cpu: in the pending timestamp).
    std::array<bool, 6> seen{};
    std::optional<std::string> time;  ///< the pending timestamp's
    std::vector<std::pair<std::string, std::string>> cpu;  ///< ... its cpu
    /// Column ids: ts_usec, and one per cpu attribute name.
    BatchBuilder::ColId ts_col = SlotIds::kNone;
    std::map<std::string, BatchBuilder::ColId, std::less<>> cols;
  };

  /// Everything one file's parse carries from one piece to the next.
  struct State {
    std::size_t next_line = 0;  ///< index of the next piece's first line
    BatchBuilder builder;  ///< columns and their running types
    /// tomcat: dsN/drN column ids keyed by the call index digits.
    std::map<std::string,
             std::pair<BatchBuilder::ColId, BatchBuilder::ColId>,
             std::less<>>
        tomcat_calls;
    /// sar text / collectl: the header the next data line belongs to.
    std::vector<HeaderCol> header;
    /// iostat: the timestamp the next device line belongs to (-1: none yet).
    std::int64_t iostat_ts = -1;
    /// sar XML: where the document stands.
    SarXmlState xml;
  };

  /// Compiles a parser for `decl`. Throws std::invalid_argument naming the
  /// file and the parser id when the id is unknown or the declaration
  /// cannot be honored (a tomcat declaration without token instructions).
  /// All needed declaration state is copied; the registry may
  /// grow/reallocate afterwards.
  [[nodiscard]] static std::unique_ptr<const FastParser> compile(
      const Declaration& decl);

  /// Parses a whole file (read in place, never copied) into a batch:
  /// parse_more() on a fresh State, then finish().
  [[nodiscard]] db::ColumnBatch parse(std::string_view content,
                                      ParseStats& stats) const;

  /// Parses the next `piece` of a file whose earlier pieces went through
  /// `state`. For the line formats every piece but the file's last must
  /// end with '\n'; sar XML pieces may end at any byte. Returns the
  /// cumulative schema (every column seen so far, at its running type) and
  /// only this piece's rows, typed to that schema; adds this piece's
  /// tallies to `stats`. Throws std::runtime_error on a malformed sar XML
  /// document; after a throw `state` is unusable.
  [[nodiscard]] db::ColumnBatch parse_more(State& state,
                                           std::string_view piece,
                                           ParseStats& stats) const;

  /// End of the file whose pieces went through `state`. A no-op for the
  /// line formats; for sar XML, throws std::runtime_error if the document
  /// never closed its root or ends inside a construct.
  void finish(const State& state) const;

 private:
  enum class Kind : std::uint8_t {
    kTokenLines,
    kTomcat,
    kSarText,
    kIostat,
    kCollectlCsv,
    kCollectlPlain,
    kSarXml,
  };

  /// One declared output field of a token instruction.
  struct FieldSpec {
    std::string name;
    TimeEncoding enc = TimeEncoding::kNone;  ///< kNone = not a timestamp
    std::string time_name;                   ///< "<name>_usec" form
  };

  /// One compiled TokenInstruction.
  struct InstrSpec {
    std::unique_ptr<CompiledPattern> fast;
    std::unique_ptr<std::regex> fallback;  ///< when `fast` is null
    std::vector<FieldSpec> fields;
    std::size_t emit_count = 0;  ///< min(fields, capture groups)
  };

  FastParser() = default;

  // Each scanner parses one piece starting at line st.next_line and returns
  // the number of lines it walked.
  std::size_t parse_token_lines(std::string_view piece, State& st,
                                ParseStats& stats) const;
  std::size_t parse_tomcat(std::string_view piece, State& st,
                           ParseStats& stats) const;
  std::size_t parse_sar_text(std::string_view piece, State& st,
                             ParseStats& stats) const;
  std::size_t parse_iostat(std::string_view piece, State& st,
                           ParseStats& stats) const;
  std::size_t parse_collectl(std::string_view piece, State& st,
                             ParseStats& stats, bool csv) const;
  /// Returns the number of '\n' it consumed instead of lines walked.
  std::size_t parse_sar_xml(std::string_view piece, State& st,
                            ParseStats& stats) const;

  Kind kind_ = Kind::kTokenLines;
  std::size_t skip_lines_ = 0;
  std::string comment_prefix_;
  std::vector<InstrSpec> instrs_;
};

}  // namespace mscope::transform::fastparse
