#include "transform/fastparse/fast_parser.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <utility>

#include "transform/fastparse/scan.h"
#include "transform/parsers.h"
#include "util/strings.h"

namespace mscope::transform::fastparse {

namespace {

using SlotIds = FastParser::SlotIds;
constexpr ConversionBuilder::ColId kNoCol = SlotIds::kNone;

/// Strict fixed-layout decode first; anything it can't express defers to
/// the reference convert_time so the two paths agree byte-for-byte.
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

std::shared_ptr<const FastParser> FastParser::compile(const Declaration& decl) {
  std::shared_ptr<FastParser> fp(new FastParser());
  fp->skip_lines_ = static_cast<std::size_t>(std::max(decl.skip_lines, 0));
  fp->comment_prefix_ = decl.comment_prefix;
  fp->source_ = decl.source;

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
    if (decl.tokens.empty()) return nullptr;  // reference throws; keep it
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
  } else {
    return nullptr;  // sar_xml / unknown ids keep the reference path
  }
  return fp;
}

Conversion FastParser::parse(std::string_view content, const ParseContext& ctx,
                             ParseStats& stats) const {
  State st;
  return parse_more(st, content, ctx, stats);
}

Conversion FastParser::parse_more(State& st, std::string_view piece,
                                  const ParseContext& ctx,
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
  }
  st.next_line += lines;
  return st.builder.take(source_, ctx.node, ctx.file);
}

// --------------------------- token_lines ------------------------------------

std::size_t FastParser::parse_token_lines(std::string_view piece, State& st,
                                          ParseStats& stats) const {
  ConversionBuilder& b = st.builder;
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
      b.begin_entry(static_cast<std::uint32_t>(index + 1));
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
            b.set_known_int(ids.time_id, std::to_string(usec));
            continue;
          }
        }
        if (ids.raw_id == kNoCol) ids.raw_id = b.column(f.name);
        b.set(ids.raw_id, std::string(v));
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
  ConversionBuilder& b = st.builder;
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
          b.set_known_int(ids.time_id, std::to_string(usec));
          continue;
        }
      }
      if (ids.raw_id == kNoCol) ids.raw_id = b.column(f.name);
      b.set(ids.raw_id, std::string(v));
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
      b.begin_entry(static_cast<std::uint32_t>(index + 1));
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
          b.set_known_int(it->second.first, std::to_string(ds));
          b.set_known_int(it->second.second, std::to_string(dr));
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
        b.begin_entry(static_cast<std::uint32_t>(index + 1));
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
  ConversionBuilder& b = st.builder;
  std::vector<HeaderCol>& header = st.header;
  std::vector<std::string_view> tokens;
  return for_each_line(piece, st.next_line, [&](std::size_t index,
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
    b.begin_entry(static_cast<std::uint32_t>(index + 1));
    for (std::size_t f = 0; f < header.size(); ++f) {
      HeaderCol& col = header[f];
      if (col.is_time) {
        std::int64_t usec = 0;
        if (convert_time_fast(tokens[f], TimeEncoding::kHmsMilli, usec)) {
          if (col.ids.time_id == kNoCol) col.ids.time_id = b.column("ts_usec");
          b.set_known_int(col.ids.time_id, std::to_string(usec));
          continue;
        }
      }
      if (col.ids.raw_id == kNoCol) col.ids.raw_id = b.column(col.name);
      b.set(col.ids.raw_id, std::string(tokens[f]));
    }
  });
}

// ------------------------------- iostat -------------------------------------

std::size_t FastParser::parse_iostat(std::string_view piece, State& st,
                                     ParseStats& stats) const {
  static constexpr const char* kFields[] = {"device",    "tps",   "read_kbs",
                                            "write_kbs", "queue", "util_pct"};
  ConversionBuilder& b = st.builder;
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
    b.begin_entry(static_cast<std::uint32_t>(index + 1));
    if (ts_ids.time_id == kNoCol) ts_ids.time_id = b.column("ts_usec");
    b.set_known_int(ts_ids.time_id, std::to_string(current_ts));
    for (std::size_t f = 0; f < 6; ++f) {
      if (field_ids[f].raw_id == kNoCol) {
        field_ids[f].raw_id = b.column(kFields[f]);
      }
      b.set(field_ids[f].raw_id, std::string(toks[f]));
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
  ConversionBuilder& b = st.builder;
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

  return for_each_line(piece, st.next_line, [&](std::size_t index,
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
    b.begin_entry(static_cast<std::uint32_t>(index + 1));
    for (std::size_t f = 0; f < header.size(); ++f) {
      HeaderCol& col = header[f];
      if (col.is_time) {
        std::int64_t usec = 0;
        if (convert_time_fast(toks[f], TimeEncoding::kHmsMilli, usec)) {
          if (col.ids.time_id == kNoCol) col.ids.time_id = b.column("ts_usec");
          b.set_known_int(col.ids.time_id, std::to_string(usec));
          continue;
        }
      }
      if (col.ids.raw_id == kNoCol) col.ids.raw_id = b.column(col.name);
      b.set(col.ids.raw_id, std::string(toks[f]));
    }
  });
}

}  // namespace mscope::transform::fastparse
