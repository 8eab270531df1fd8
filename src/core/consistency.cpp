#include "core/consistency.h"

#include <algorithm>
#include <map>

#include "core/trace.h"

namespace mscope::core {

std::string WarehouseValidator::Report::summary() const {
  std::string out = "checked " + std::to_string(rows_checked) + " rows, " +
                    std::to_string(edges_checked) + " causal edges: ";
  if (violations.empty()) {
    out += "consistent";
    return out;
  }
  out += std::to_string(violations.size()) + " violation(s); first: " +
         violations.front().table + "[" +
         std::to_string(violations.front().row) + "] " +
         violations.front().what;
  return out;
}

namespace {

/// All (ds, dr) downstream windows of one event row.
std::vector<std::pair<std::int64_t, std::int64_t>> downstream_windows(
    const EventColumns& cols, const std::vector<db::Value>& row) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (const auto& [ds, dr] : cols.calls) {
    const auto a = db::as_int(row[ds]);
    const auto b = db::as_int(row[dr]);
    if (a && b) out.emplace_back(*a, *b);
  }
  return out;
}

}  // namespace

void WarehouseValidator::check_row_order(const db::Catalog& db,
                                         const std::string& table,
                                         Report& report) const {
  const db::Table* t = db.find(table);
  if (t == nullptr) {
    report.violations.push_back({table, 0, "table missing"});
    return;
  }
  const EventColumns cols = event_columns(*t);
  if (!cols.ua || !cols.ud) {
    report.violations.push_back({table, 0, "no ua/ud columns"});
    return;
  }
  for (db::RowCursor cur = t->scan(); cur.next();) {
    if (full(report)) return;
    ++report.rows_checked;
    const std::size_t r = cur.row_id();
    const auto a = db::as_int(cur.row()[*cols.ua]);
    const auto d = db::as_int(cur.row()[*cols.ud]);
    if (!a || !d) continue;  // baseline rows carry no event timestamps
    if (*a > *d) {
      report.violations.push_back({table, r, "ua > ud"});
      continue;
    }
    for (const auto& [s, e] : downstream_windows(cols, cur.row())) {
      if (s < *a) report.violations.push_back({table, r, "ds < ua"});
      if (e < s) report.violations.push_back({table, r, "dr < ds"});
      if (*d < e) report.violations.push_back({table, r, "ud < dr"});
    }
  }
}

void WarehouseValidator::check_nesting(
    const db::Catalog& db, const std::vector<std::string>& parents,
    const std::vector<std::string>& children, Report& report) const {
  // Collect the parents' downstream windows per request id.
  std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>>
      windows;
  std::string parent_name;
  for (const auto& pt : parents) {
    const db::Table* p = db.find(pt);
    if (p == nullptr) continue;
    parent_name = pt;
    const EventColumns cols = event_columns(*p);
    if (!cols.req_id) continue;
    for (db::RowCursor cur = p->scan(); cur.next();) {
      const db::Value& id = cur.row()[*cols.req_id];
      if (db::is_null(id)) continue;
      auto& w = windows[db::value_to_string(id)];
      for (const auto& win : downstream_windows(cols, cur.row())) {
        w.push_back(win);
      }
    }
  }

  for (const auto& ct : children) {
    const db::Table* c = db.find(ct);
    if (c == nullptr) continue;
    const EventColumns cols = event_columns(*c);
    if (!cols.req_id || !cols.ua || !cols.ud) continue;
    for (db::RowCursor cur = c->scan(); cur.next();) {
      if (full(report)) return;
      const std::size_t r = cur.row_id();
      const db::Value& id = cur.row()[*cols.req_id];
      const auto a = db::as_int(cur.row()[*cols.ua]);
      const auto d = db::as_int(cur.row()[*cols.ud]);
      if (db::is_null(id) || !a || !d) continue;
      const auto it = windows.find(db::value_to_string(id));
      if (it == windows.end()) {
        // The parent record may be missing because the request was still in
        // flight upstream at the end of collection — not a violation.
        continue;
      }
      ++report.edges_checked;
      bool nested = false;
      for (const auto& [s, e] : it->second) {
        if (*a >= s - cfg_.nesting_slack && *d <= e + cfg_.nesting_slack) {
          nested = true;
          break;
        }
      }
      if (!nested) {
        report.violations.push_back(
            {ct, r, "visit not nested in any downstream window of " +
                        parent_name});
      }
    }
  }
}

void WarehouseValidator::check_catalog(const db::Catalog& db,
                                       Report& report) const {
  const db::Table& catalog = db.get(db::Database::kLoadCatalogTable);
  const auto name_col = catalog.column_index("table_name");
  const auto rows_col = catalog.column_index("rows");
  for (db::RowCursor cur = catalog.scan(); cur.next();) {
    if (full(report)) return;
    const std::size_t r = cur.row_id();
    const std::string table = db::value_to_string(cur.row()[*name_col]);
    const auto rows = db::as_int(cur.row()[*rows_col]);
    const db::Table* t = db.find(table);
    if (t == nullptr) {
      report.violations.push_back(
          {catalog.name(), r, "cataloged table missing: " + table});
      continue;
    }
    if (rows && static_cast<std::size_t>(*rows) != t->row_count()) {
      report.violations.push_back(
          {catalog.name(), r,
           "catalog row count " + std::to_string(*rows) + " != actual " +
               std::to_string(t->row_count()) + " for " + table});
    }
  }
}

WarehouseValidator::Report WarehouseValidator::validate(
    const db::Catalog& db,
    const std::vector<std::vector<std::string>>& event_tables) const {
  Report report;
  check_catalog(db, report);
  for (const auto& tier : event_tables) {
    for (const auto& table : tier) {
      if (full(report)) return report;
      check_row_order(db, table, report);
    }
  }
  for (std::size_t tier = 0; tier + 1 < event_tables.size(); ++tier) {
    if (full(report)) return report;
    check_nesting(db, event_tables[tier], event_tables[tier + 1], report);
  }
  return report;
}

}  // namespace mscope::core
