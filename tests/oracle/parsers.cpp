#include "oracle/parsers.h"

#include <regex>
#include <stdexcept>

#include "oracle/xml_to_csv.h"
#include "util/strings.h"

namespace mscope::transform {

namespace {

std::unique_ptr<XmlNode> make_logfile_root(const ParseContext& ctx) {
  auto root = std::make_unique<XmlNode>();
  root->name = "logfile";
  root->set_attribute("source", ctx.decl->source);
  root->set_attribute("node", ctx.node);
  root->set_attribute("file", ctx.file);
  return root;
}

XmlNode& add_entry(XmlNode& root, std::size_t n) {
  XmlNode& e = root.add_child("log");
  e.set_attribute("n", std::to_string(n));
  return e;
}

void add_field(XmlNode& entry, std::string name, std::string value) {
  XmlNode& f = entry.add_child("field");
  f.set_attribute("name", std::move(name));
  f.set_attribute("value", std::move(value));
}

/// Adds `name=value`, applying the declaration's time normalization: time
/// fields are emitted as "<name>_usec" in relative microseconds.
void add_field_normalized(XmlNode& entry, const Declaration& decl,
                          const std::string& name, std::string value) {
  const auto it = decl.time_fields.find(name);
  if (it != decl.time_fields.end()) {
    std::int64_t usec = 0;
    if (convert_time(value, it->second, usec)) {
      const std::string out_name =
          util::ends_with(name, "_usec") ? name : name + "_usec";
      add_field(entry, out_name, std::to_string(usec));
      return;
    }
    // Unparseable timestamp: keep the raw token under its original name so
    // nothing is silently dropped.
  }
  add_field(entry, name, std::move(value));
}

std::vector<std::string_view> split_lines(std::string_view content) {
  auto lines = util::split(content, '\n');
  while (!lines.empty() && util::trim(lines.back()).empty()) lines.pop_back();
  return lines;
}

bool skip_line(const Declaration& decl, std::size_t index,
               std::string_view line) {
  if (static_cast<int>(index) < decl.skip_lines) return true;
  if (util::trim(line).empty()) return true;
  if (!decl.comment_prefix.empty() &&
      util::starts_with(line, decl.comment_prefix)) {
    return true;
  }
  return false;
}

// ------------------------- token_lines parser ------------------------------

std::unique_ptr<XmlNode> token_lines_parser(std::string_view content,
                                            const ParseContext& ctx) {
  const Declaration& decl = *ctx.decl;
  std::vector<std::regex> compiled;
  compiled.reserve(decl.tokens.size());
  for (const auto& t : decl.tokens) compiled.emplace_back(t.regex);

  auto root = make_logfile_root(ctx);
  const auto lines = split_lines(content);
  std::size_t n = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (skip_line(decl, i, lines[i])) continue;
    const std::string line(lines[i]);
    std::smatch m;
    for (std::size_t ti = 0; ti < compiled.size(); ++ti) {
      if (!std::regex_match(line, m, compiled[ti])) continue;
      XmlNode& entry = add_entry(*root, ++n);
      const auto& fields = decl.tokens[ti].fields;
      for (std::size_t g = 0; g < fields.size() && g + 1 < m.size(); ++g) {
        add_field_normalized(entry, decl, fields[g], m[g + 1].str());
      }
      break;
    }
  }
  return root;
}

// ----------------------------- tomcat parser -------------------------------

std::unique_ptr<XmlNode> tomcat_parser(std::string_view content,
                                       const ParseContext& ctx) {
  const Declaration& decl = *ctx.decl;
  if (decl.tokens.empty())
    throw std::invalid_argument("tomcat parser: no token instructions");
  const std::regex head(decl.tokens[0].regex);
  const std::regex baseline(
      decl.tokens.size() > 1 ? decl.tokens[1].regex : "$^");
  // The variable-width tail: one (dsN=..., drN=...) pair per JDBC call.
  const std::regex call_re(R"( ds(\d+)=(\d+) dr\d+=(\d+))");

  auto root = make_logfile_root(ctx);
  const auto lines = split_lines(content);
  std::size_t n = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (skip_line(decl, i, lines[i])) continue;
    const std::string line(lines[i]);
    std::smatch m;
    if (std::regex_search(line, m, head)) {
      XmlNode& entry = add_entry(*root, ++n);
      const auto& fields = decl.tokens[0].fields;
      for (std::size_t g = 0; g < fields.size() && g + 1 < m.size(); ++g) {
        add_field_normalized(entry, decl, fields[g], m[g + 1].str());
      }
      const std::string tail = m.suffix().str();
      for (auto it = std::sregex_iterator(tail.begin(), tail.end(), call_re);
           it != std::sregex_iterator(); ++it) {
        const std::string idx = (*it)[1].str();
        std::int64_t ds = 0, dr = 0;
        if (convert_time((*it)[2].str(), TimeEncoding::kEpochUsec, ds) &&
            convert_time((*it)[3].str(), TimeEncoding::kEpochUsec, dr)) {
          add_field(entry, "ds" + idx + "_usec", std::to_string(ds));
          add_field(entry, "dr" + idx + "_usec", std::to_string(dr));
        }
      }
      continue;
    }
    if (decl.tokens.size() > 1 && std::regex_match(line, m, baseline)) {
      XmlNode& entry = add_entry(*root, ++n);
      const auto& fields = decl.tokens[1].fields;
      for (std::size_t g = 0; g < fields.size() && g + 1 < m.size(); ++g) {
        add_field_normalized(entry, decl, fields[g], m[g + 1].str());
      }
    }
  }
  return root;
}

// ---------------------------- sar_text parser -------------------------------
// The paper's customized SAR parser (Section III-B.2): generic instructions
// were insufficient because sar interleaves banners, repeated column-header
// lines and data rows. Pass 1 classifies lines and tracks the current header;
// pass 2 emits one entry per data row, named by the most recent header.

std::unique_ptr<XmlNode> sar_text_parser(std::string_view content,
                                         const ParseContext& ctx) {
  const auto lines = split_lines(content);

  enum class LineClass { kSkip, kHeader, kData };
  struct Classified {
    LineClass cls = LineClass::kSkip;
    std::vector<std::string> tokens;
  };

  // Pass 1: classify.
  std::vector<Classified> classified(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto trimmed = util::trim(lines[i]);
    if (trimmed.empty() || util::starts_with(trimmed, "Linux")) continue;
    const auto toks = util::split_ws(trimmed);
    Classified c;
    for (const auto& t : toks) c.tokens.emplace_back(t);
    bool has_pct = false;
    for (const auto& t : c.tokens) {
      if (!t.empty() && t.front() == '%') has_pct = true;
    }
    c.cls = has_pct ? LineClass::kHeader : LineClass::kData;
    classified[i] = std::move(c);
  }

  // Pass 2: emit entries under the most recent header.
  auto root = make_logfile_root(ctx);
  std::vector<std::string> header;
  std::size_t n = 0;
  for (auto& c : classified) {
    if (c.cls == LineClass::kHeader) {
      header.clear();
      for (const auto& t : c.tokens) header.push_back(sanitize_column(t));
      if (!header.empty()) header[0] = "ts";  // first column is the time
      continue;
    }
    if (c.cls != LineClass::kData || header.empty()) continue;
    if (c.tokens.size() != header.size()) continue;  // malformed row
    XmlNode& entry = add_entry(*root, ++n);
    for (std::size_t f = 0; f < header.size(); ++f) {
      if (header[f] == "ts") {
        std::int64_t usec = 0;
        if (convert_time(c.tokens[f], TimeEncoding::kHmsMilli, usec)) {
          add_field(entry, "ts_usec", std::to_string(usec));
          continue;
        }
      }
      add_field(entry, header[f], c.tokens[f]);
    }
  }
  return root;
}

// ----------------------------- sar_xml adapter ------------------------------

std::unique_ptr<XmlNode> sar_xml_parser(std::string_view content,
                                        const ParseContext& ctx) {
  const auto doc = xml_parse(content);
  auto root = make_logfile_root(ctx);
  const XmlNode* host = doc->child("host");
  if (host == nullptr) return root;
  const XmlNode* stats = host->child("statistics");
  if (stats == nullptr) return root;
  std::size_t n = 0;
  for (const XmlNode* ts : stats->children_named("timestamp")) {
    const std::string* time = ts->attribute("time");
    const XmlNode* load = ts->child("cpu-load");
    if (time == nullptr || load == nullptr) continue;
    const XmlNode* cpu = load->child("cpu");
    if (cpu == nullptr) continue;
    XmlNode& entry = add_entry(*root, ++n);
    std::int64_t usec = 0;
    if (convert_time(*time, TimeEncoding::kHmsMilli, usec)) {
      add_field(entry, "ts_usec", std::to_string(usec));
    }
    for (const auto& [k, v] : cpu->attributes) {
      if (k == "number") continue;
      add_field(entry, sanitize_column(k) + "_pct", v);
    }
  }
  return root;
}

// ------------------------------ iostat parser -------------------------------

std::unique_ptr<XmlNode> iostat_parser(std::string_view content,
                                       const ParseContext& ctx) {
  const Declaration& decl = *ctx.decl;
  auto root = make_logfile_root(ctx);
  const auto lines = split_lines(content);
  std::int64_t current_ts = -1;
  std::size_t n = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (skip_line(decl, i, lines[i])) continue;
    const auto trimmed = util::trim(lines[i]);
    if (util::starts_with(trimmed, "Linux")) continue;
    if (util::starts_with(trimmed, "Device:")) continue;
    // Timestamp lines are bare "HH:MM:SS.mmm".
    std::int64_t usec = 0;
    if (convert_time(trimmed, TimeEncoding::kHmsMilli, usec)) {
      current_ts = usec;
      continue;
    }
    // Otherwise a device data row: name tps kB_read/s kB_wrtn/s avgqu %util.
    const auto toks = util::split_ws(trimmed);
    if (toks.size() != 6 || current_ts < 0) continue;
    XmlNode& entry = add_entry(*root, ++n);
    add_field(entry, "ts_usec", std::to_string(current_ts));
    add_field(entry, "device", std::string(toks[0]));
    add_field(entry, "tps", std::string(toks[1]));
    add_field(entry, "read_kbs", std::string(toks[2]));
    add_field(entry, "write_kbs", std::string(toks[3]));
    add_field(entry, "queue", std::string(toks[4]));
    add_field(entry, "util_pct", std::string(toks[5]));
  }
  return root;
}

// --------------------------- collectl parsers -------------------------------

std::unique_ptr<XmlNode> collectl_csv_parser(std::string_view content,
                                             const ParseContext& ctx) {
  auto root = make_logfile_root(ctx);
  const auto lines = split_lines(content);
  std::vector<std::string> header;
  std::size_t n = 0;
  for (const auto line : lines) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '#') {
      header.clear();
      for (const auto col : util::split(trimmed.substr(1), ',')) {
        header.push_back(sanitize_column(col));
      }
      continue;
    }
    if (header.empty()) continue;
    const auto fields = util::split(trimmed, ',');
    if (fields.size() != header.size()) continue;
    XmlNode& entry = add_entry(*root, ++n);
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (header[f] == "time") {
        std::int64_t usec = 0;
        if (convert_time(fields[f], TimeEncoding::kHmsMilli, usec)) {
          add_field(entry, "ts_usec", std::to_string(usec));
          continue;
        }
      }
      add_field(entry, header[f], std::string(fields[f]));
    }
  }
  return root;
}

std::unique_ptr<XmlNode> collectl_plain_parser(std::string_view content,
                                               const ParseContext& ctx) {
  auto root = make_logfile_root(ctx);
  const auto lines = split_lines(content);
  // Brief mode fixed columns (second '#' header line names them).
  static const char* kCols[] = {"ts",       "user_pct",  "sys_pct",
                                "wait_pct", "read_kbs",  "write_kbs",
                                "util_pct"};
  constexpr std::size_t kNumCols = std::size(kCols);
  std::size_t n = 0;
  for (const auto line : lines) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto toks = util::split_ws(trimmed);
    if (toks.size() != kNumCols) continue;
    XmlNode& entry = add_entry(*root, ++n);
    for (std::size_t f = 0; f < kNumCols; ++f) {
      if (f == 0) {
        std::int64_t usec = 0;
        if (convert_time(toks[f], TimeEncoding::kHmsMilli, usec)) {
          add_field(entry, "ts_usec", std::to_string(usec));
          continue;
        }
      }
      add_field(entry, kCols[f], std::string(toks[f]));
    }
  }
  return root;
}

}  // namespace

ParserFn ParserRegistry::get(const std::string& parser_id) {
  if (parser_id == "token_lines") return token_lines_parser;
  if (parser_id == "tomcat") return tomcat_parser;
  if (parser_id == "sar_text") return sar_text_parser;
  if (parser_id == "sar_xml") return sar_xml_parser;
  if (parser_id == "iostat") return iostat_parser;
  if (parser_id == "collectl_csv") return collectl_csv_parser;
  if (parser_id == "collectl_plain") return collectl_plain_parser;
  throw std::out_of_range("ParserRegistry: unknown parser " + parser_id);
}

bool ParserRegistry::knows(const std::string& parser_id) {
  static const char* kKnown[] = {"token_lines",  "tomcat",
                                 "sar_text",     "sar_xml",
                                 "iostat",       "collectl_csv",
                                 "collectl_plain"};
  for (const char* k : kKnown) {
    if (parser_id == k) return true;
  }
  return false;
}

Conversion reference_parse(std::string_view content,
                           const ParseContext& ctx) {
  return XmlToCsvConverter::convert(
      *ParserRegistry::get(ctx.decl->parser_id)(content, ctx));
}

}  // namespace mscope::transform
