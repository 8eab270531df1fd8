#include "oracle/xml_to_csv.h"

#include <map>

namespace mscope::transform {

Conversion XmlToCsvConverter::convert(const XmlNode& root) {
  Conversion c;
  if (const std::string* s = root.attribute("source")) c.source = *s;
  if (const std::string* s = root.attribute("node")) c.node = *s;
  if (const std::string* s = root.attribute("file")) c.file = *s;

  // Union of field names in first-appearance order, with narrowest-type
  // accumulation.
  std::vector<std::string> order;
  std::map<std::string, db::DataType> types;
  std::map<std::string, std::size_t> index;

  const auto entries = root.children_named("log");
  for (const XmlNode* entry : entries) {
    for (const XmlNode* f : entry->children_named("field")) {
      const std::string* name = f->attribute("name");
      const std::string* value = f->attribute("value");
      if (name == nullptr || value == nullptr) continue;
      auto it = types.find(*name);
      if (it == types.end()) {
        index[*name] = order.size();
        order.push_back(*name);
        types[*name] = db::infer_type(*value);
      } else {
        it->second = db::widen(it->second, db::infer_type(*value));
      }
    }
  }
  for (const auto& name : order) {
    db::DataType t = types[name];
    if (t == db::DataType::kNull) t = db::DataType::kText;  // all-empty column
    c.schema.push_back({name, t});
  }

  c.rows.reserve(entries.size());
  for (const XmlNode* entry : entries) {
    std::vector<std::string> row(order.size());
    for (const XmlNode* f : entry->children_named("field")) {
      const std::string* name = f->attribute("name");
      const std::string* value = f->attribute("value");
      if (name == nullptr || value == nullptr) continue;
      row[index[*name]] = *value;
    }
    c.rows.push_back(std::move(row));
  }
  return c;
}

}  // namespace mscope::transform
