#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "transform/declaration.h"
#include "transform/fastparse/builder.h"
#include "transform/fastparse/pattern.h"
#include "transform/xml_to_csv.h"

namespace mscope::transform {
struct ParseContext;
}

namespace mscope::transform::fastparse {

/// Per-parse tallies. `rejected` counts candidate lines that survived the
/// format's structural skip rules (banner/comment/blank) but produced no
/// entry — the lines the reference parsers used to drop silently.
struct ParseStats {
  std::uint64_t lines = 0;
  std::uint64_t rejected = 0;
};

/// A specialized byte-scanning parser compiled from one Declaration —
/// stage 2 of the transformer with the XML materialization and std::regex
/// removed from the hot path.
///
/// compile() translates each TokenInstruction's regex into a
/// CompiledPattern (pattern.h); instructions outside the supported regex
/// subset keep a std::regex fallback, matched over the raw byte range (no
/// per-line std::string copies either way). The structured formats
/// (sar_text, iostat, collectl) become hand-rolled scanners that mirror the
/// reference implementations line for line. parse() is required — and
/// tested — to produce a Conversion cell-for-cell identical to the
/// reference parser + XmlToCsvConverter on the same bytes.
///
/// Parsing is resumable: parse_more() continues a file where the previous
/// call stopped, carrying everything a later line depends on in a State.
/// Every input format is line-oriented and its best-match column typing is
/// a running join, so parsing a file in line-aligned pieces yields exactly
/// the schema, rows and stats of one parse of the whole file (tested).
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
    static constexpr ConversionBuilder::ColId kNone = 0xFFFFFFFFu;
    ConversionBuilder::ColId time_id = kNone;
    ConversionBuilder::ColId raw_id = kNone;
  };

  /// One column of a header-driven format (sar text, collectl).
  struct HeaderCol {
    std::string name;
    bool is_time = false;
    SlotIds ids;
  };

  /// Everything one file's parse carries from one piece to the next.
  struct State {
    std::size_t next_line = 0;  ///< index of the next piece's first line
    ConversionBuilder builder;  ///< columns and their running types
    /// tomcat: dsN/drN column ids keyed by the call index digits.
    std::map<std::string,
             std::pair<ConversionBuilder::ColId, ConversionBuilder::ColId>,
             std::less<>>
        tomcat_calls;
    /// sar text / collectl: the header the next data line belongs to.
    std::vector<HeaderCol> header;
    /// iostat: the timestamp the next device line belongs to (-1: none yet).
    std::int64_t iostat_ts = -1;
  };

  /// Compiles a fast parser for `decl`. Returns nullptr when the
  /// declaration's parser has no fast path (sar_xml, unknown parser ids,
  /// declarations the byte-scanners cannot honor) — the caller then keeps
  /// the reference path. All needed declaration state is copied; the
  /// registry may grow/reallocate afterwards.
  [[nodiscard]] static std::shared_ptr<const FastParser> compile(
      const Declaration& decl);

  /// Parses `content` (read in place, never copied) into a Conversion:
  /// one parse_more() call on a fresh State.
  [[nodiscard]] Conversion parse(std::string_view content,
                                 const ParseContext& ctx,
                                 ParseStats& stats) const;

  /// Parses the next `piece` of a file whose earlier pieces went through
  /// `state`. Every piece but the file's last must end with '\n'. Returns
  /// the cumulative schema (every column seen so far, at its running type)
  /// and only this piece's rows, padded to that schema's width; adds this
  /// piece's tallies to `stats`. If it throws, `state` is unusable.
  [[nodiscard]] Conversion parse_more(State& state, std::string_view piece,
                                      const ParseContext& ctx,
                                      ParseStats& stats) const;

 private:
  enum class Kind : std::uint8_t {
    kTokenLines,
    kTomcat,
    kSarText,
    kIostat,
    kCollectlCsv,
    kCollectlPlain,
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

  Kind kind_ = Kind::kTokenLines;
  std::size_t skip_lines_ = 0;
  std::string comment_prefix_;
  std::string source_;
  std::vector<InstrSpec> instrs_;
};

}  // namespace mscope::transform::fastparse
