#include "transform/pipeline.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "transform/streaming.h"

namespace mscope::transform {

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("DataTransformer: cannot read " + p.string());
  std::string out(fs::file_size(p), '\0');
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  out.resize(static_cast<std::size_t>(in.gcount()));
  return out;
}

}  // namespace

DataTransformer::DataTransformer() : DataTransformer(Config{}) {}

DataTransformer::DataTransformer(Config cfg) : cfg_(cfg) {}

DataTransformer::Report DataTransformer::run(const fs::path& run_dir,
                                             db::Database& db) const {
  if (!fs::exists(run_dir))
    throw std::invalid_argument("DataTransformer: no such directory: " +
                                run_dir.string());
  Report report;
  std::vector<fs::path> node_dirs;
  for (const auto& e : fs::directory_iterator(run_dir)) {
    if (e.is_directory()) node_dirs.push_back(e.path());
  }
  std::sort(node_dirs.begin(), node_dirs.end());

  StreamingTransformer stream(db, {cfg_.transform});
  stream.declarations() = registry_;
  for (const auto& dir : node_dirs) {
    std::vector<fs::path> in_dir;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.is_regular_file()) in_dir.push_back(e.path());
    }
    std::sort(in_dir.begin(), in_dir.end());
    for (const auto& path : in_dir) {
      FileReport& f = report.files.emplace_back();
      f.node = dir.filename().string();
      f.file = path.filename().string();
      f.matched = registry_.match(f.file) != nullptr;
      if (f.matched) stream.ingest(f.node, f.file, read_file(path));
    }
  }
  stream.finalize();

  for (FileReport& f : report.files) {
    if (!f.matched) continue;
    StreamingTransformer::FileOutcome o = stream.outcome(f.node, f.file);
    if (o.parse_error) {
      throw std::runtime_error("DataTransformer: " + f.node + "/" + f.file +
                               ": " + *o.parse_error);
    }
    f.entries = o.rows;
    if (o.table.empty()) continue;
    f.table = std::move(o.table);
    ++report.tables_created;
    report.rows_loaded += o.rows;
  }
  return report;
}

}  // namespace mscope::transform
