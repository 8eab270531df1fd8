#include "oracle/xml.h"

#include <cctype>
#include <stdexcept>

#include "util/strings.h"

namespace mscope::transform {

const std::string* XmlNode::attribute(std::string_view key) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) return &v;
  }
  return nullptr;
}

const XmlNode* XmlNode::child(std::string_view child_name) const {
  for (const auto& c : children) {
    if (c->name == child_name) return c.get();
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::children_named(
    std::string_view child_name) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children) {
    if (c->name == child_name) out.push_back(c.get());
  }
  return out;
}

XmlNode& XmlNode::add_child(std::string child_name) {
  children.push_back(std::make_unique<XmlNode>());
  children.back()->name = std::move(child_name);
  return *children.back();
}

void XmlNode::set_attribute(std::string key, std::string value) {
  for (auto& [k, v] : attributes) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attributes.emplace_back(std::move(key), std::move(value));
}

namespace {

void serialize_node(const XmlNode& n, std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth), ' ');
  out += '<';
  out += n.name;
  for (const auto& [k, v] : n.attributes) {
    out += ' ';
    out += k;
    out += "=\"";
    out += util::xml_escape(v);
    out += '"';
  }
  if (n.children.empty() && n.text.empty()) {
    out += "/>\n";
    return;
  }
  out += '>';
  if (!n.text.empty()) out += util::xml_escape(n.text);
  if (!n.children.empty()) {
    out += '\n';
    for (const auto& c : n.children) serialize_node(*c, out, depth + 1);
    out.append(static_cast<std::size_t>(depth), ' ');
  }
  out += "</";
  out += n.name;
  out += ">\n";
}

/// Recursive-descent XML parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::unique_ptr<XmlNode> parse() {
    skip_misc();
    auto root = parse_element();
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw std::runtime_error("xml_parse: " + why + " at line " +
                             std::to_string(line));
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return eof() ? '\0' : text_[pos_]; }
  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }
  [[nodiscard]] bool looking_at(std::string_view s) const {
    return text_.substr(pos_, s.size()) == s;
  }
  void expect(std::string_view s) {
    if (!looking_at(s)) fail("expected '" + std::string(s) + "'");
    pos_ += s.size();
  }
  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  /// Skips whitespace, XML declarations, processing instructions, comments.
  void skip_misc() {
    for (;;) {
      skip_ws();
      if (looking_at("<?")) {
        const auto end = text_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated declaration");
        pos_ = end + 2;
      } else if (looking_at("<!--")) {
        const auto end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else {
        return;
      }
    }
  }

  [[nodiscard]] static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (!eof() && is_name_char(peek())) ++pos_;
    if (pos_ == start) fail("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string parse_attr_value() {
    const char quote = take();
    if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
    const std::size_t start = pos_;
    while (!eof() && peek() != quote) ++pos_;
    const std::string raw(text_.substr(start, pos_ - start));
    expect(std::string_view(&quote, 1));
    return util::xml_unescape(raw);
  }

  std::unique_ptr<XmlNode> parse_element() {
    expect("<");
    auto node = std::make_unique<XmlNode>();
    node->name = parse_name();
    for (;;) {
      skip_ws();
      if (looking_at("/>")) {
        pos_ += 2;
        return node;
      }
      if (peek() == '>') {
        ++pos_;
        break;
      }
      std::string key = parse_name();
      skip_ws();
      expect("=");
      skip_ws();
      node->set_attribute(std::move(key), parse_attr_value());
    }
    // Content: text and child elements until the closing tag.
    for (;;) {
      const std::size_t lt = text_.find('<', pos_);
      if (lt == std::string_view::npos) fail("unterminated element " + node->name);
      if (lt > pos_) {
        const std::string chunk =
            util::xml_unescape(text_.substr(pos_, lt - pos_));
        const auto trimmed = util::trim(chunk);
        if (!trimmed.empty()) node->text += trimmed;
        pos_ = lt;
      }
      if (looking_at("<!--")) {
        const auto end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (looking_at("</")) {
        pos_ += 2;
        const std::string closing = parse_name();
        if (closing != node->name)
          fail("mismatched closing tag " + closing + " for " + node->name);
        skip_ws();
        expect(">");
        return node;
      }
      node->children.push_back(parse_element());
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string xml_serialize(const XmlNode& root, bool declaration) {
  std::string out;
  if (declaration) out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  serialize_node(root, out, 0);
  return out;
}

std::unique_ptr<XmlNode> xml_parse(std::string_view text) {
  Parser p(text);
  return p.parse();
}

}  // namespace mscope::transform
