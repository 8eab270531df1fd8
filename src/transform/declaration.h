#pragma once

#include <map>
#include <string>
#include <vector>

#include "db/value.h"

namespace mscope::transform {

/// How a raw timestamp field is encoded in a native log. The parsers
/// normalize every encoding to *relative microseconds since experiment
/// start* so mScopeDB can align series from different monitors.
enum class TimeEncoding {
  kNone,           ///< not a timestamp
  kHmsMilli,       ///< "00:00:12.345" (sar text, cjdbc, collectl)
  kApacheClf,      ///< "[01/Jan/2017:00:00:12.345 +0000]"
  kMysqlDateTime,  ///< "2017-01-01 00:00:12.345678"
  kEpochUsec,      ///< absolute usec since the experiment epoch (Fig. 5 raw)
};

/// A "specific string tokens" instruction (paper Section III-B.1): a regular
/// expression whose capture groups 1..N map to `fields` by position. A
/// parser tries its instructions in order and keeps the first match.
struct TokenInstruction {
  std::string regex;
  std::vector<std::string> fields;
};

/// A parsing declaration: which parser handles a log file and how it should
/// inject semantics (paper Section III-B.1: "mScopeDataTransformer maintains
/// a mapping between input log files and their specific mScopeParser, along
/// with instructions for how the parser should inject semantics").
struct Declaration {
  std::string parser_id;      ///< which compiled scanner parses the file
  std::string file_name;      ///< log file this declaration applies to
  std::string source;         ///< logical source, e.g. "apache", "collectl"
  std::string table_prefix;   ///< dynamic-table prefix, e.g. "ev_apache"
  std::string monitor_name;   ///< for ms_monitor_deployment metadata

  // "sequence of lines in a file" instructions:
  int skip_lines = 0;             ///< unconditional banner lines to skip
  std::string comment_prefix;     ///< skip lines starting with this

  // "specific string tokens" instructions:
  std::vector<TokenInstruction> tokens;

  /// Fields that are timestamps, with their encodings. The field is emitted
  /// as "<name>_usec" holding relative microseconds (unless the name already
  /// ends in "_usec").
  std::map<std::string, TimeEncoding> time_fields;
};

/// The registry of parsing declarations — stage 1 of the transformer.
/// Construction installs the defaults for every mScopeMonitor in this repo;
/// users add declarations for their own log formats.
class DeclarationRegistry {
 public:
  DeclarationRegistry();

  void add(Declaration d) { declarations_.push_back(std::move(d)); }

  /// Finds the declaration for a file name (exact match); nullptr if the
  /// file is unknown to the registry (the pipeline then skips it).
  [[nodiscard]] const Declaration* match(const std::string& file_name) const;

  [[nodiscard]] const std::vector<Declaration>& all() const {
    return declarations_;
  }

 private:
  std::vector<Declaration> declarations_;
};

}  // namespace mscope::transform
