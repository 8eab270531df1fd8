#include "transform/pipeline.h"

#include <algorithm>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "transform/importer.h"
#include "transform/parsers.h"
#include "transform/xml_to_csv.h"

namespace mscope::transform {

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("DataTransformer: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& p, std::string_view content) {
  fs::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out)
    throw std::runtime_error("DataTransformer: cannot write " + p.string());
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// Stages 1-3 result, ready for the (serial) import stage.
struct Prepared {
  DataTransformer::FileReport report;
  Conversion conv;
  const Declaration* decl = nullptr;
  fs::path out_dir;
  bool importable = false;
};

}  // namespace

DataTransformer::DataTransformer() : DataTransformer(Config{}) {}

DataTransformer::DataTransformer(Config cfg) : cfg_(cfg) {}

namespace {

/// Stage 1 (declaration lookup), stage 2 (mScopeParser -> annotated XML)
/// and stage 3 (XMLtoCSV). Pure per file apart from writing this file's own
/// intermediate artifacts, hence safe to run on worker threads.
///
/// With write_intermediates off, stages 2+3 collapse into one zero-copy
/// pass over the raw bytes (transform/fastparse/) — no XML document is ever
/// built. Every <log> entry becomes exactly one row, so report.entries is
/// the row count either way.
Prepared prepare_file(const DeclarationRegistry& registry,
                      const DataTransformer::Config& cfg, ParserCache& cache,
                      const fs::path& file, const std::string& node) {
  Prepared out;
  out.report.node = node;
  out.report.file = file.filename().string();

  const Declaration* decl = registry.match(out.report.file);
  if (decl == nullptr) return out;  // unknown file: skipped, not an error
  out.report.matched = true;
  out.decl = decl;

  ParseContext ctx{node, out.report.file, decl};
  const std::string content = read_file(file);
  out.out_dir = file.parent_path().parent_path() / "transformed" / node;

  static obs::Counter& fast_passes =
      obs::Registry::global().counter("transform.parse.fast_passes");
  static obs::Counter& ref_passes =
      obs::Registry::global().counter("transform.parse.ref_passes");
  if (cfg.write_intermediates) {
    // The XML intermediates come from the reference parser: one pass.
    const ParserFn parser = ParserRegistry::get(decl->parser_id);
    const auto annotated = parser(content, ctx);
    ref_passes.inc();
    out.report.entries = annotated->children_named("log").size();
    write_file(out.out_dir / (out.report.file + ".xml"),
               xml_serialize(*annotated));
    out.conv = XmlToCsvConverter::convert(*annotated);
  } else {
    ParseResult r = parse_to_conversion(content, ctx, cfg.transform, cache);
    out.conv = std::move(r.conv);
    out.report.entries = out.conv.rows.size();
    (r.fast ? fast_passes : ref_passes).inc();
    if (r.fast && r.stats.rejected > 0) {
      static obs::Counter& rejected_c =
          obs::Registry::global().counter("transform.parse.rejected");
      rejected_c.add(r.stats.rejected);
      obs::Registry::global()
          .counter("transform.parse.rejected." + decl->source)
          .add(r.stats.rejected);
    }
  }

  if (cfg.write_intermediates || cfg.import_from_files) {
    write_file(out.out_dir / (out.report.file + ".csv"),
               XmlToCsvConverter::to_csv(out.conv));
    write_file(out.out_dir / (out.report.file + ".schema"),
               XmlToCsvConverter::schema_sidecar(out.conv));
  }
  out.importable = !out.conv.schema.empty();
  return out;
}

}  // namespace

DataTransformer::FileReport DataTransformer::transform_file(
    const fs::path& file, const std::string& node, db::Database& db) const {
  Prepared p = prepare_file(registry_, cfg_, parser_cache_, file, node);
  if (!p.importable) return p.report;

  // Stage 4: Data Importer -> dynamic table.
  p.report.table = p.decl->table_prefix + "_" + node;
  if (cfg_.import_from_files) {
    const Conversion reread = XmlToCsvConverter::from_csv(
        read_file(p.out_dir / (p.report.file + ".csv")),
        read_file(p.out_dir / (p.report.file + ".schema")));
    Conversion with_meta = reread;
    with_meta.source = p.conv.source;
    with_meta.node = p.conv.node;
    with_meta.file = p.conv.file;
    DataImporter::import(db, p.report.table, with_meta);
  } else {
    DataImporter::import(db, p.report.table, p.conv);
  }
  db.record_deployment(node, p.decl->monitor_name, p.report.file, 0);
  return p.report;
}

DataTransformer::Report DataTransformer::run(const fs::path& run_dir,
                                             db::Database& db) const {
  Report report;
  if (!fs::exists(run_dir))
    throw std::invalid_argument("DataTransformer: no such directory: " +
                                run_dir.string());
  std::vector<std::pair<fs::path, std::string>> files;  // (file, node)
  std::vector<fs::path> node_dirs;
  for (const auto& e : fs::directory_iterator(run_dir)) {
    if (e.is_directory() && e.path().filename() != "transformed") {
      node_dirs.push_back(e.path());
    }
  }
  std::sort(node_dirs.begin(), node_dirs.end());
  for (const auto& dir : node_dirs) {
    std::vector<fs::path> in_dir;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.is_regular_file()) in_dir.push_back(e.path());
    }
    std::sort(in_dir.begin(), in_dir.end());
    for (auto& f : in_dir) files.emplace_back(std::move(f), dir.filename().string());
  }

  const unsigned workers =
      cfg_.parallelism == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : cfg_.parallelism;

  const auto import_prepared = [&](Prepared& p) {
    if (p.report.matched && p.importable) {
      p.report.table = p.decl->table_prefix + "_" + p.report.node;
      if (cfg_.import_from_files) {
        const Conversion reread = XmlToCsvConverter::from_csv(
            read_file(p.out_dir / (p.report.file + ".csv")),
            read_file(p.out_dir / (p.report.file + ".schema")));
        Conversion with_meta = reread;
        with_meta.source = p.conv.source;
        with_meta.node = p.conv.node;
        with_meta.file = p.conv.file;
        DataImporter::import(db, p.report.table, with_meta);
      } else {
        DataImporter::import(db, p.report.table, p.conv);
      }
      db.record_deployment(p.report.node, p.decl->monitor_name, p.report.file,
                           0);
      ++report.tables_created;
      report.rows_loaded += db.get(p.report.table).row_count();
    }
    report.files.push_back(std::move(p.report));
  };

  if (workers <= 1) {
    for (const auto& [file, node] : files) {
      Prepared p = prepare_file(registry_, cfg_, parser_cache_, file, node);
      import_prepared(p);
    }
    return report;
  }

  // Parse/convert on worker threads; import serially in file order so the
  // resulting warehouse is identical to a serial run.
  std::vector<std::future<Prepared>> futures;
  futures.reserve(files.size());
  for (const auto& [file, node] : files) {
    futures.push_back(std::async(
        std::launch::async,
        [this, file = file, node = node] {
          return prepare_file(registry_, cfg_, parser_cache_, file, node);
        }));
    // Bound the number of in-flight tasks.
    if (futures.size() >= files.size() ||
        futures.size() - report.files.size() >= workers) {
      Prepared p = futures[report.files.size()].get();
      import_prepared(p);
    }
  }
  while (report.files.size() < files.size()) {
    Prepared p = futures[report.files.size()].get();
    import_prepared(p);
  }
  return report;
}

}  // namespace mscope::transform
