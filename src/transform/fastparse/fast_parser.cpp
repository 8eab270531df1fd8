#include "transform/fastparse/fast_parser.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "transform/fastparse/scan.h"
#include "util/simtime.h"
#include "util/strings.h"
#include "util/time_format.h"

namespace mscope::transform {

std::string sanitize_column(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 4);
  bool pct = false;
  for (char c : raw) {
    if (c == '%') {
      pct = true;
      continue;
    }
    if (c == '[') continue;
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      if (!out.empty() && out.back() != '_') out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (pct) out += "_pct";
  if (out.empty()) out = "col";
  return out;
}

bool convert_time(std::string_view raw, TimeEncoding enc,
                  std::int64_t& out_usec) {
  using util::TimeFormat;
  switch (enc) {
    case TimeEncoding::kNone:
      return false;
    case TimeEncoding::kHmsMilli: {
      const auto t = TimeFormat::parse_hms(raw);
      if (!t) return false;
      out_usec = *t;
      return true;
    }
    case TimeEncoding::kApacheClf: {
      const auto t = TimeFormat::parse_apache_clf(raw);
      if (!t) return false;
      out_usec = *t;
      return true;
    }
    case TimeEncoding::kMysqlDateTime: {
      const auto t = TimeFormat::parse_mysql(raw);
      if (!t) return false;
      out_usec = *t;
      return true;
    }
    case TimeEncoding::kEpochUsec: {
      const auto v = util::parse_int(raw);
      if (!v) return false;
      out_usec = *v - TimeFormat::kEpochUnixSec * util::kSec;
      return true;
    }
  }
  return false;
}

}  // namespace mscope::transform

namespace mscope::transform::fastparse {

namespace {

using SlotIds = FastParser::SlotIds;
constexpr BatchBuilder::ColId kNoCol = SlotIds::kNone;

/// Strict fixed-layout decode first; anything it can't express defers to
/// the general convert_time, so both decode every input identically.
bool convert_time_fast(std::string_view raw, TimeEncoding enc,
                       std::int64_t& usec) {
  const char* b = raw.data();
  const char* e = b + raw.size();
  switch (enc) {
    case TimeEncoding::kHmsMilli:
      if (scan_hms(b, e, usec)) return true;
      break;
    case TimeEncoding::kApacheClf:
      if (scan_apache_clf(b, e, usec)) return true;
      break;
    case TimeEncoding::kMysqlDateTime:
      if (scan_mysql_datetime(b, e, usec)) return true;
      break;
    case TimeEncoding::kEpochUsec:
      if (scan_epoch_usec(b, e, usec)) return true;
      break;
    case TimeEncoding::kNone:
      return false;
  }
  return convert_time(raw, enc, usec);
}

bool trim_empty(std::string_view s) { return util::trim(s).empty(); }

/// Iterates '\n'-separated lines without materializing them, numbering
/// them from `first_index`; returns how many it walked. A trailing newline
/// yields no final empty line — the same candidate set as the reference's
/// split + pop-trailing-blanks — so line-aligned pieces number their lines
/// exactly as one walk over the whole content does.
template <typename Fn>
std::size_t for_each_line(std::string_view content, std::size_t first_index,
                          Fn&& fn) {
  const char* p = content.data();
  const char* end = p + content.size();
  std::size_t index = first_index;
  while (p < end) {
    const char* nl =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* le = nl != nullptr ? nl : end;
    fn(index, std::string_view(p, static_cast<std::size_t>(le - p)));
    ++index;
    if (nl == nullptr) break;
    p = nl + 1;
  }
  return index - first_index;
}

void split_ws_into(std::string_view s, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  const std::size_t n = s.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const std::size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
}

void split_char_into(std::string_view s, char sep,
                     std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
}

}  // namespace

std::unique_ptr<const FastParser> FastParser::compile(const Declaration& decl) {
  std::unique_ptr<FastParser> fp(new FastParser());
  fp->skip_lines_ = static_cast<std::size_t>(std::max(decl.skip_lines, 0));
  fp->comment_prefix_ = decl.comment_prefix;

  const auto compile_instr = [&decl](const TokenInstruction& t) {
    InstrSpec spec;
    spec.fast = CompiledPattern::compile(t.regex);
    std::size_t groups;
    if (spec.fast != nullptr) {
      groups = spec.fast->group_count();
    } else {
      spec.fallback = std::make_unique<std::regex>(t.regex);
      groups = spec.fallback->mark_count();
    }
    for (const std::string& name : t.fields) {
      FieldSpec f;
      f.name = name;
      const auto it = decl.time_fields.find(name);
      if (it != decl.time_fields.end()) {
        f.enc = it->second;
        f.time_name = util::ends_with(name, "_usec") ? name : name + "_usec";
      }
      spec.fields.push_back(std::move(f));
    }
    spec.emit_count = std::min(spec.fields.size(), groups);
    return spec;
  };

  if (decl.parser_id == "token_lines") {
    fp->kind_ = Kind::kTokenLines;
    for (const auto& t : decl.tokens) fp->instrs_.push_back(compile_instr(t));
  } else if (decl.parser_id == "tomcat") {
    if (decl.tokens.empty()) {
      throw std::invalid_argument("FastParser: " + decl.file_name +
                                  ": parser 'tomcat' needs token "
                                  "instructions");
    }
    fp->kind_ = Kind::kTomcat;
    for (const auto& t : decl.tokens) fp->instrs_.push_back(compile_instr(t));
  } else if (decl.parser_id == "sar_text") {
    fp->kind_ = Kind::kSarText;
  } else if (decl.parser_id == "iostat") {
    fp->kind_ = Kind::kIostat;
  } else if (decl.parser_id == "collectl_csv") {
    fp->kind_ = Kind::kCollectlCsv;
  } else if (decl.parser_id == "collectl_plain") {
    fp->kind_ = Kind::kCollectlPlain;
  } else if (decl.parser_id == "sar_xml") {
    fp->kind_ = Kind::kSarXml;
  } else {
    throw std::invalid_argument("FastParser: " + decl.file_name +
                                ": unknown parser_id '" + decl.parser_id +
                                "'");
  }
  return fp;
}

db::ColumnBatch FastParser::parse(std::string_view content,
                                  ParseStats& stats) const {
  State st;
  db::ColumnBatch b = parse_more(st, content, stats);
  finish(st);
  return b;
}

db::ColumnBatch FastParser::parse_more(State& st, std::string_view piece,
                                       ParseStats& stats) const {
  std::size_t lines = 0;
  switch (kind_) {
    case Kind::kTokenLines:
      lines = parse_token_lines(piece, st, stats);
      break;
    case Kind::kTomcat:
      lines = parse_tomcat(piece, st, stats);
      break;
    case Kind::kSarText:
      lines = parse_sar_text(piece, st, stats);
      break;
    case Kind::kIostat:
      lines = parse_iostat(piece, st, stats);
      break;
    case Kind::kCollectlCsv:
      lines = parse_collectl(piece, st, stats, /*csv=*/true);
      break;
    case Kind::kCollectlPlain:
      lines = parse_collectl(piece, st, stats, /*csv=*/false);
      break;
    case Kind::kSarXml:
      lines = parse_sar_xml(piece, st, stats);
      break;
  }
  st.next_line += lines;
  return st.builder.take();
}

// --------------------------- token_lines ------------------------------------

std::size_t FastParser::parse_token_lines(std::string_view piece, State& st,
                                          ParseStats& stats) const {
  BatchBuilder& b = st.builder;
  std::vector<std::vector<SlotIds>> slots(instrs_.size());
  for (std::size_t i = 0; i < instrs_.size(); ++i) {
    slots[i].resize(instrs_[i].emit_count);
  }
  CompiledPattern::Groups groups;
  std::cmatch m;

  return for_each_line(piece, st.next_line, [&](std::size_t index,
                                                 std::string_view line) {
    if (index < skip_lines_) return;
    if (trim_empty(line)) return;
    if (!comment_prefix_.empty() && util::starts_with(line, comment_prefix_)) {
      return;
    }
    ++stats.lines;
    const char* lb = line.data();
    const char* le = lb + line.size();
    for (std::size_t ti = 0; ti < instrs_.size(); ++ti) {
      const InstrSpec& instr = instrs_[ti];
      bool ok;
      if (instr.fast != nullptr) {
        ok = instr.fast->match(lb, le, groups);
      } else {
        ok = std::regex_match(lb, le, m, *instr.fallback);
      }
      if (!ok) continue;
      b.begin_entry();
      for (std::size_t g = 0; g < instr.emit_count; ++g) {
        std::string_view v;
        if (instr.fast != nullptr) {
          if (groups[g].begin != nullptr) v = groups[g].view();
        } else {
          const auto& sub = m[g + 1];
          if (sub.matched) {
            v = std::string_view(sub.first,
                                 static_cast<std::size_t>(sub.length()));
          }
        }
        const FieldSpec& f = instr.fields[g];
        SlotIds& ids = slots[ti][g];
        if (f.enc != TimeEncoding::kNone) {
          std::int64_t usec = 0;
          if (convert_time_fast(v, f.enc, usec)) {
            if (ids.time_id == kNoCol) ids.time_id = b.column(f.time_name);
            b.set_int(ids.time_id, usec);
            continue;
          }
        }
        if (ids.raw_id == kNoCol) ids.raw_id = b.column(f.name);
        b.set(ids.raw_id, v);
      }
      return;  // first matching instruction wins
    }
    ++stats.rejected;
  });
}

// ------------------------------ tomcat --------------------------------------

namespace {

/// One " dsN=<usec> drN=<usec>" pair found in a tomcat tail.
struct TomcatCall {
  std::string_view idx;
  std::string_view ds;
  std::string_view dr;
  const char* end = nullptr;
};

/// Hand-rolled equivalent of regex_search over `( ds(\d+)=(\d+) dr\d+=(\d+))`:
/// leftmost match at or after `p`, non-overlapping continuation from its end.
bool find_tomcat_call(const char* p, const char* end, TomcatCall& out) {
  const auto digits = [end](const char*& r) {
    const char* s = r;
    while (r < end && is_digit(*r)) ++r;
    return r > s;
  };
  while (p < end) {
    p = static_cast<const char*>(std::memchr(p, ' ', end - p));
    if (p == nullptr) return false;
    const char* r = p + 1;
    if (end - r >= 2 && r[0] == 'd' && r[1] == 's') {
      r += 2;
      const char* idx_b = r;
      if (digits(r) && r < end && *r == '=') {
        out.idx = {idx_b, static_cast<std::size_t>(r - idx_b)};
        ++r;
        const char* ds_b = r;
        if (digits(r) && r < end && *r == ' ') {
          out.ds = {ds_b, static_cast<std::size_t>(r - ds_b)};
          ++r;
          if (end - r >= 2 && r[0] == 'd' && r[1] == 'r') {
            r += 2;
            if (digits(r) && r < end && *r == '=') {
              ++r;
              const char* dr_b = r;
              if (digits(r)) {
                out.dr = {dr_b, static_cast<std::size_t>(r - dr_b)};
                out.end = r;
                return true;
              }
            }
          }
        }
      }
    }
    ++p;  // candidate failed: resume the search one byte further on
  }
  return false;
}

}  // namespace

std::size_t FastParser::parse_tomcat(std::string_view piece, State& st,
                                     ParseStats& stats) const {
  BatchBuilder& b = st.builder;
  const InstrSpec& head = instrs_[0];
  const InstrSpec* baseline = instrs_.size() > 1 ? &instrs_[1] : nullptr;
  std::vector<std::vector<SlotIds>> slots(instrs_.size());
  for (std::size_t i = 0; i < instrs_.size(); ++i) {
    slots[i].resize(instrs_[i].emit_count);
  }
  // dsN/drN column ids are keyed by the call index digits (dynamic names).
  auto& call_ids = st.tomcat_calls;
  CompiledPattern::Groups groups;
  std::cmatch m;

  const auto emit_fields = [&](const InstrSpec& instr,
                               std::vector<SlotIds>& ids_for_instr,
                               bool used_fast) {
    for (std::size_t g = 0; g < instr.emit_count; ++g) {
      std::string_view v;
      if (used_fast) {
        if (groups[g].begin != nullptr) v = groups[g].view();
      } else {
        const auto& sub = m[g + 1];
        if (sub.matched) {
          v = std::string_view(sub.first,
                               static_cast<std::size_t>(sub.length()));
        }
      }
      const FieldSpec& f = instr.fields[g];
      SlotIds& ids = ids_for_instr[g];
      if (f.enc != TimeEncoding::kNone) {
        std::int64_t usec = 0;
        if (convert_time_fast(v, f.enc, usec)) {
          if (ids.time_id == kNoCol) ids.time_id = b.column(f.time_name);
          b.set_int(ids.time_id, usec);
          continue;
        }
      }
      if (ids.raw_id == kNoCol) ids.raw_id = b.column(f.name);
      b.set(ids.raw_id, v);
    }
  };

  return for_each_line(piece, st.next_line, [&](std::size_t index,
                                                 std::string_view line) {
    if (index < skip_lines_) return;
    if (trim_empty(line)) return;
    if (!comment_prefix_.empty() && util::starts_with(line, comment_prefix_)) {
      return;
    }
    ++stats.lines;
    const char* lb = line.data();
    const char* le = lb + line.size();
    const char* tail = nullptr;
    bool head_ok;
    if (head.fast != nullptr) {
      head_ok = head.fast->match_prefix(lb, le, groups, &tail);
    } else {
      head_ok = std::regex_search(lb, le, m, *head.fallback);
      if (head_ok) tail = m[0].second;
    }
    if (head_ok) {
      b.begin_entry();
      emit_fields(head, slots[0], head.fast != nullptr);
      TomcatCall call;
      const char* p = tail;
      while (find_tomcat_call(p, le, call)) {
        p = call.end;
        std::int64_t ds = 0, dr = 0;
        if (convert_time_fast(call.ds, TimeEncoding::kEpochUsec, ds) &&
            convert_time_fast(call.dr, TimeEncoding::kEpochUsec, dr)) {
          auto it = call_ids.find(call.idx);
          if (it == call_ids.end()) {
            const std::string idx(call.idx);
            // Sequenced separately: ds must register before dr to preserve
            // first-appearance column order (function-argument evaluation
            // order is unspecified).
            const auto ds_id = b.column("ds" + idx + "_usec");
            const auto dr_id = b.column("dr" + idx + "_usec");
            it = call_ids.emplace(idx, std::make_pair(ds_id, dr_id)).first;
          }
          b.set_int(it->second.first, ds);
          b.set_int(it->second.second, dr);
        }
      }
      return;
    }
    if (baseline != nullptr) {
      bool base_ok;
      if (baseline->fast != nullptr) {
        base_ok = baseline->fast->match(lb, le, groups);
      } else {
        base_ok = std::regex_match(lb, le, m, *baseline->fallback);
      }
      if (base_ok) {
        b.begin_entry();
        emit_fields(*baseline, slots[1], baseline->fast != nullptr);
        return;
      }
    }
    ++stats.rejected;
  });
}

// ------------------------------ sar_text ------------------------------------

std::size_t FastParser::parse_sar_text(std::string_view piece, State& st,
                                       ParseStats& stats) const {
  // Data rows are emitted under the most recent header, which may sit in an
  // earlier piece. Column ids resolve lazily at first emission to preserve
  // first-appearance order.
  BatchBuilder& b = st.builder;
  std::vector<HeaderCol>& header = st.header;
  std::vector<std::string_view> tokens;
  return for_each_line(piece, st.next_line, [&](std::size_t /*index*/,
                                                std::string_view line) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || util::starts_with(trimmed, "Linux")) return;
    split_ws_into(trimmed, tokens);
    bool has_pct = false;
    for (const auto t : tokens) {
      if (!t.empty() && t.front() == '%') has_pct = true;
    }
    if (has_pct) {
      header.clear();
      for (const auto t : tokens) {
        HeaderCol col;
        col.name = sanitize_column(t);
        header.push_back(std::move(col));
      }
      if (!header.empty()) header[0].name = "ts";  // first column: time
      for (auto& col : header) col.is_time = col.name == "ts";
      return;
    }
    ++stats.lines;
    if (header.empty()) {
      ++stats.rejected;  // data row before any header
      return;
    }
    if (tokens.size() != header.size()) {
      ++stats.rejected;  // malformed row
      return;
    }
    b.begin_entry();
    for (std::size_t f = 0; f < header.size(); ++f) {
      HeaderCol& col = header[f];
      if (col.is_time) {
        std::int64_t usec = 0;
        if (convert_time_fast(tokens[f], TimeEncoding::kHmsMilli, usec)) {
          if (col.ids.time_id == kNoCol) col.ids.time_id = b.column("ts_usec");
          b.set_int(col.ids.time_id, usec);
          continue;
        }
      }
      if (col.ids.raw_id == kNoCol) col.ids.raw_id = b.column(col.name);
      b.set(col.ids.raw_id, tokens[f]);
    }
  });
}

// ------------------------------- iostat -------------------------------------

std::size_t FastParser::parse_iostat(std::string_view piece, State& st,
                                     ParseStats& stats) const {
  static constexpr const char* kFields[] = {"device",    "tps",   "read_kbs",
                                            "write_kbs", "queue", "util_pct"};
  BatchBuilder& b = st.builder;
  SlotIds ts_ids;
  SlotIds field_ids[6];
  std::int64_t& current_ts = st.iostat_ts;
  std::vector<std::string_view> toks;

  return for_each_line(piece, st.next_line, [&](std::size_t index,
                                                std::string_view line) {
    if (index < skip_lines_) return;
    if (trim_empty(line)) return;
    if (!comment_prefix_.empty() && util::starts_with(line, comment_prefix_)) {
      return;
    }
    const auto trimmed = util::trim(line);
    if (util::starts_with(trimmed, "Linux")) return;
    if (util::starts_with(trimmed, "Device:")) return;
    ++stats.lines;
    std::int64_t usec = 0;
    if (convert_time_fast(trimmed, TimeEncoding::kHmsMilli, usec)) {
      current_ts = usec;
      return;
    }
    split_ws_into(trimmed, toks);
    if (toks.size() != 6 || current_ts < 0) {
      ++stats.rejected;
      return;
    }
    b.begin_entry();
    if (ts_ids.time_id == kNoCol) ts_ids.time_id = b.column("ts_usec");
    b.set_int(ts_ids.time_id, current_ts);
    for (std::size_t f = 0; f < 6; ++f) {
      if (field_ids[f].raw_id == kNoCol) {
        field_ids[f].raw_id = b.column(kFields[f]);
      }
      b.set(field_ids[f].raw_id, toks[f]);
    }
  });
}

// ------------------------------ collectl ------------------------------------

std::size_t FastParser::parse_collectl(std::string_view piece, State& st,
                                       ParseStats& stats, bool csv) const {
  static constexpr const char* kPlainCols[] = {"ts",        "user_pct",
                                               "sys_pct",   "wait_pct",
                                               "read_kbs",  "write_kbs",
                                               "util_pct"};
  BatchBuilder& b = st.builder;
  // csv: the last '#' header line, possibly from an earlier piece. plain: a
  // fixed header, set up by the file's first piece and never replaced.
  std::vector<HeaderCol>& header = st.header;
  if (!csv && header.empty()) {
    for (std::size_t f = 0; f < std::size(kPlainCols); ++f) {
      HeaderCol col;
      col.name = kPlainCols[f];
      col.is_time = f == 0;
      header.push_back(std::move(col));
    }
  }
  std::vector<std::string_view> toks;

  return for_each_line(piece, st.next_line, [&](std::size_t /*index*/,
                                                std::string_view line) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) return;
    if (trimmed.front() == '#') {
      if (csv) {
        header.clear();
        split_char_into(trimmed.substr(1), ',', toks);
        for (const auto col : toks) {
          HeaderCol h;
          h.name = sanitize_column(col);
          h.is_time = h.name == "time";
          header.push_back(std::move(h));
        }
      }
      return;
    }
    ++stats.lines;
    if (header.empty()) {
      ++stats.rejected;  // csv data row before any header
      return;
    }
    if (csv) {
      split_char_into(trimmed, ',', toks);
    } else {
      split_ws_into(trimmed, toks);
    }
    if (toks.size() != header.size()) {
      ++stats.rejected;
      return;
    }
    b.begin_entry();
    for (std::size_t f = 0; f < header.size(); ++f) {
      HeaderCol& col = header[f];
      if (col.is_time) {
        std::int64_t usec = 0;
        if (convert_time_fast(toks[f], TimeEncoding::kHmsMilli, usec)) {
          if (col.ids.time_id == kNoCol) col.ids.time_id = b.column("ts_usec");
          b.set_int(col.ids.time_id, usec);
          continue;
        }
      }
      if (col.ids.raw_id == kNoCol) col.ids.raw_id = b.column(col.name);
      b.set(col.ids.raw_id, toks[f]);
    }
  });
}

// ------------------------------- sar_xml ------------------------------------
//
// sar's native XML (sadf -x). The scanner accepts exactly the documents the
// XML DOM of the test oracle (tests/oracle/xml.h) accepts: whitespace,
// <?...?> and <!--...--> around one root element; inside it, elements,
// attributes quoted either way, text and comments, with matching closing
// tags. It emits each timestamp's row when that element closes, so a
// document still being written streams its samples. A construct that a
// piece boundary cuts in two is carried over.

namespace {

constexpr std::size_t kNpos = std::string_view::npos;

bool xml_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool xml_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '-' || c == '.' || c == ':';
}

std::string attr_value(std::string_view raw) {
  return raw.find('&') == kNpos ? std::string(raw) : util::xml_unescape(raw);
}

/// Scans one piece (with any carried construct in front) of a document.
class SarXmlScanner {
 public:
  SarXmlScanner(std::string_view text, std::size_t first_line,
                FastParser::SarXmlState& x, BatchBuilder& b,
                ParseStats& stats)
      : text_(text), first_line_(first_line), x_(x), b_(b), stats_(stats) {}

  /// Scans the whole text, carrying an unfinished construct into the
  /// state; returns the number of '\n' in what it consumed.
  std::size_t run() {
    const std::size_t n = text_.size();
    while (pos_ < n) {
      std::size_t end;
      if (x_.open.empty()) {  // before or after the root element
        if (xml_space(text_[pos_])) {
          ++pos_;
          continue;
        }
        const char* after_root = "content after the root element";
        if (text_[pos_] != '<') fail(x_.seen[0] ? after_root : "expected '<'");
        if (pos_ + 1 == n) break;
        const char c = text_[pos_ + 1];
        if (c == '?') {
          end = skip_past("?>");
        } else if (c == '!') {
          end = comment();
        } else if (x_.seen[0]) {
          fail(after_root);
        } else {
          end = start_tag();
        }
      } else {  // element content: text is skipped
        const void* lt = std::memchr(text_.data() + pos_, '<', n - pos_);
        if (lt == nullptr) {
          pos_ = n;
          break;
        }
        pos_ = static_cast<std::size_t>(static_cast<const char*>(lt) -
                                        text_.data());
        if (pos_ + 1 == n) break;
        const char c = text_[pos_ + 1];
        end = c == '!' ? comment() : c == '/' ? end_tag() : start_tag();
      }
      if (end == kNpos) break;
      pos_ = end;
    }
    if (pos_ < n) x_.carry.assign(text_.substr(pos_));
    return line_at(pos_) - first_line_ - 1;
  }

 private:
  /// 1-based line of text_[p]; p never decreases between calls.
  std::size_t line_at(std::size_t p) {
    newlines_ += static_cast<std::size_t>(
        std::count(text_.begin() + static_cast<std::ptrdiff_t>(counted_),
                   text_.begin() + static_cast<std::ptrdiff_t>(p), '\n'));
    counted_ = p;
    return first_line_ + newlines_ + 1;
  }

  [[noreturn]] void fail(const char* why) {
    throw std::runtime_error(std::string("sar xml: ") + why + " at line " +
                             std::to_string(line_at(pos_)));
  }

  std::size_t skip_space(std::size_t p) const {
    while (p < text_.size() && xml_space(text_[p])) ++p;
    return p;
  }

  std::size_t name_end(std::size_t p) const {
    while (p < text_.size() && xml_name_char(text_[p])) ++p;
    return p;
  }

  /// End of the construct at pos_ closed by `term`, searched from the '<'.
  std::size_t skip_past(std::string_view term) const {
    const std::size_t e = text_.find(term, pos_);
    return e == kNpos ? kNpos : e + term.size();
  }

  std::size_t comment() {
    constexpr std::string_view kOpen = "<!--";
    const std::size_t have = std::min(text_.size() - pos_, kOpen.size());
    if (text_.substr(pos_, have) != kOpen.substr(0, have)) {
      fail("expected a name");
    }
    return have < kOpen.size() ? kNpos : skip_past("-->");
  }

  std::size_t start_tag() {
    const std::size_t n = text_.size();
    std::size_t p = pos_ + 1;
    std::size_t e = name_end(p);
    if (e == n) return kNpos;
    if (e == p) fail("expected a name");
    name_ = text_.substr(p, e - p);
    attrs_.clear();
    for (p = e;;) {
      p = skip_space(p);
      if (p == n) return kNpos;
      if (text_[p] == '/' || text_[p] == '>') {
        const bool self_closing = text_[p] == '/';
        if (self_closing && p + 1 == n) return kNpos;
        if (self_closing && text_[p + 1] != '>') fail("expected a name");
        on_start(self_closing);
        return p + (self_closing ? 2 : 1);
      }
      e = name_end(p);
      if (e == n) return kNpos;
      if (e == p) fail("expected a name");
      const std::string_view key = text_.substr(p, e - p);
      p = skip_space(e);
      if (p == n) return kNpos;
      if (text_[p] != '=') fail("expected '='");
      p = skip_space(p + 1);
      if (p == n) return kNpos;
      const char quote = text_[p];
      if (quote != '"' && quote != '\'') fail("expected a quoted value");
      const std::size_t close = text_.find(quote, p + 1);
      if (close == kNpos) return kNpos;
      attrs_.emplace_back(key, text_.substr(p + 1, close - p - 1));
      p = close + 1;
    }
  }

  std::size_t end_tag() {
    const std::size_t n = text_.size();
    const std::size_t p = pos_ + 2;
    const std::size_t e = name_end(p);
    if (e == n) return kNpos;
    if (e == p) fail("expected a name");
    if (text_.substr(p, e - p) != x_.open.back()) fail("mismatched end tag");
    const std::size_t q = skip_space(e);
    if (q == n) return kNpos;
    if (text_[q] != '>') fail("expected '>'");
    const std::size_t k = x_.open.size() - 1;
    x_.open.pop_back();
    if (x_.path == k + 1) {  // a route element closed
      x_.path = k;
      if (k == 3) end_timestamp();
    }
    return q + 1;
  }

  /// A complete start tag name_/attrs_ at pos_. An element joins the route
  /// only as the next route element under the route's deepest open one.
  void on_start(bool self_closing) {
    static constexpr std::string_view kRoute[] = {
        "", "host", "statistics", "timestamp", "cpu-load", "cpu"};
    const std::size_t d = x_.open.size();  // depth of the new element
    bool on_route = false;
    // A root of any name; then each route element's first occurrence,
    // except timestamps, which all count.
    if (d == 0 || (d == x_.path && d < 6 && name_ == kRoute[d] &&
                   (d == 3 || !x_.seen[d]))) {
      x_.seen[d] = true;
      on_route = d < 5;  // nothing below the cpu matters
      if (d == 3) begin_timestamp();
      if (d == 5) keep_cpu_attrs();
    }
    if (self_closing) {
      if (on_route && d == 3) end_timestamp();
      return;
    }
    x_.open.emplace_back(name_);
    if (on_route) x_.path = d + 1;
  }

  void begin_timestamp() {
    ++stats_.lines;
    x_.time.reset();
    for (const auto& [k, v] : attrs_) {
      if (k == "time") x_.time = attr_value(v);  // a repeat: last value
    }
    x_.seen[4] = x_.seen[5] = false;
    x_.cpu.clear();
  }

  /// A repeated attribute keeps its first position and its last value.
  void keep_cpu_attrs() {
    for (const auto& [k, v] : attrs_) {
      auto it = std::find_if(x_.cpu.begin(), x_.cpu.end(),
                             [k = k](const auto& a) { return a.first == k; });
      if (it != x_.cpu.end()) {
        it->second = attr_value(v);
      } else {
        x_.cpu.emplace_back(std::string(k), attr_value(v));
      }
    }
  }

  void end_timestamp() {
    if (!x_.time || !x_.seen[5]) {
      ++stats_.rejected;
      return;
    }
    b_.begin_entry();
    std::int64_t usec = 0;
    if (convert_time_fast(*x_.time, TimeEncoding::kHmsMilli, usec)) {
      if (x_.ts_col == kNoCol) x_.ts_col = b_.column("ts_usec");
      b_.set_int(x_.ts_col, usec);
    }
    for (auto& [k, v] : x_.cpu) {
      if (k == "number") continue;
      auto it = x_.cols.find(k);
      if (it == x_.cols.end()) {
        it = x_.cols.emplace(k, b_.column(sanitize_column(k) + "_pct")).first;
      }
      b_.set_owned(it->second, std::move(v));
    }
  }

  std::string_view text_;
  std::size_t first_line_;
  FastParser::SarXmlState& x_;
  BatchBuilder& b_;
  ParseStats& stats_;
  std::size_t pos_ = 0;
  std::size_t counted_ = 0;
  std::size_t newlines_ = 0;
  std::string_view name_;
  std::vector<std::pair<std::string_view, std::string_view>> attrs_;
};

}  // namespace

std::size_t FastParser::parse_sar_xml(std::string_view piece, State& st,
                                      ParseStats& stats) const {
  std::string joined;
  if (!st.xml.carry.empty()) {
    joined = std::move(st.xml.carry);
    st.xml.carry.clear();
    joined.append(piece);
    piece = joined;
  }
  return SarXmlScanner(piece, st.next_line, st.xml, st.builder, stats).run();
}

void FastParser::finish(const State& st) const {
  if (kind_ != Kind::kSarXml) return;
  const SarXmlState& x = st.xml;
  if (!x.carry.empty()) {
    throw std::runtime_error("sar xml: document ends inside a construct");
  }
  if (!x.seen[0]) throw std::runtime_error("sar xml: no root element");
  if (!x.open.empty()) {
    throw std::runtime_error("sar xml: unterminated element " +
                             x.open.back());
  }
}

}  // namespace mscope::transform::fastparse
