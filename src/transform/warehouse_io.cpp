#include "transform/warehouse_io.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "db/segment/snapshot.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/io_file.h"

namespace mscope::transform {

namespace fs = std::filesystem;

namespace {

bool is_static_table(const std::string& name) {
  return name == db::Database::kExperimentTable ||
         name == db::Database::kNodeTable ||
         name == db::Database::kDeploymentTable ||
         name == db::Database::kLoadCatalogTable;
}

/// Writes `bytes` to `<final_path>.tmp`, flushes, and renames into place.
/// Goes through util::io::File so the fault injector sees every step; a
/// crash anywhere leaves the previous file under `final_path` untouched.
void atomic_write(const fs::path& final_path, std::string_view bytes) {
  fs::path tmp = final_path;
  tmp += ".tmp";
  util::io::File f;
  f.open(tmp);
  f.write(bytes);
  f.flush();
  f.close();
  util::io::File::rename_file(tmp, final_path);
}

/// Merges a table decoded from a snapshot into the warehouse: static tables
/// append rows, dynamic tables are adopted wholesale. Throws on conflicts.
void merge_loaded_table(db::Database& db, db::Table table) {
  const std::string name = table.name();
  if (is_static_table(name)) {
    db::Table& dst = db.get(name);
    if (dst.schema() != table.schema())
      throw std::runtime_error("WarehouseIO: static schema mismatch for " +
                               name);
    for (db::RowCursor cur = table.scan(); cur.next();) {
      dst.insert(cur.row());
    }
  } else {
    db.adopt_table(std::move(table));
  }
}

/// Host-side duration of `fn`, recorded into the named histogram.
template <typename Fn>
auto timed(const char* hist_name, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto done = [&t0, hist_name] {
    const auto dt = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    obs::Registry::global().histogram(hist_name).record(dt);
  };
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    done();
  } else {
    auto r = fn();
    done();
    return r;
  }
}

std::vector<fs::path> files_with_extension(const fs::path& dir,
                                           const char* ext) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ext) {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

void WarehouseIO::save_snapshot(const db::Database& db, const fs::path& dir) {
  timed("db.snapshot.save_usec", [&] {
    fs::create_directories(dir);
    for (const auto& name : db.table_names()) {
      std::ostringstream out(std::ios::binary);
      db::segment::write_table(out, db.get(name));
      atomic_write(dir / (name + ".mseg"), out.str());
    }
  });
  obs::Registry::global().counter("db.snapshot.saves").inc();
}

std::vector<std::string> WarehouseIO::load_snapshot(db::Database& db,
                                                    const fs::path& dir) {
  if (!fs::exists(dir))
    throw std::invalid_argument("WarehouseIO: no such directory: " +
                                dir.string());
  std::vector<std::string> loaded;
  timed("db.snapshot.load_usec", [&] {
    for (const auto& path : files_with_extension(dir, ".mseg")) {
      std::ifstream in(path, std::ios::binary);
      if (!in)
        throw std::runtime_error("WarehouseIO: cannot read " + path.string());
      db::Table table = [&] {
        try {
          return db::segment::read_table(in);
        } catch (const std::exception& e) {
          // Re-throw with the file name prepended; read_table knows the byte
          // offset and chunk but not which file it was handed.
          throw std::runtime_error(path.string() + ": " + e.what());
        }
      }();
      merge_loaded_table(db, std::move(table));
      loaded.push_back(path.stem().string());
    }
  });
  obs::Registry::global().counter("db.snapshot.loads").inc();
  return loaded;
}

void WarehouseIO::checkpoint(const db::Database& db, const fs::path& dir,
                             db::wal::WalWriter& wal) {
  // 1. Make everything journaled so far durable in the log.
  wal.commit();
  // 2. Publish a snapshot containing that commit (per-table atomic renames).
  save_snapshot(db, dir);
  // 3. Only now truncate the log. A crash before this step recovers from
  //    the new snapshot + old log (idempotent replay); after it, from the
  //    new snapshot + empty log carrying the commit id in its header.
  wal.reset();
}

RecoveryStats WarehouseIO::recover(db::Database& db, const fs::path& dir) {
  RecoveryStats stats;
  // Recovery degradations go to both the stats (API) and the leveled log —
  // a skipped snapshot is exactly the kind of quiet data loss an operator
  // should hear about without reading RecoveryStats.
  const auto warn = [&stats](std::string msg) {
    obs::Log::warn(msg);
    stats.warnings.push_back(std::move(msg));
  };
  if (!fs::exists(dir)) {
    warn("recover: no such directory: " + dir.string());
    return stats;
  }

  // Phase 1: load every readable snapshot, skipping corrupt files. A
  // leftover *.mseg.tmp from a mid-snapshot crash is ignored by the
  // extension filter — the previous good file still sits under the final
  // name.
  for (const auto& path : files_with_extension(dir, ".mseg")) {
    try {
      std::ifstream in(path, std::ios::binary);
      if (!in)
        throw std::runtime_error("cannot open for reading");
      merge_loaded_table(db, db::segment::read_table(in));
      ++stats.tables_loaded;
    } catch (const std::exception& e) {
      ++stats.tables_skipped;
      warn("recover: skipping snapshot " + path.string() + ": " + e.what());
    }
  }

  // Phase 2: replay the write-ahead log up to its last valid commit.
  const fs::path wal = wal_path(dir);
  db::wal::ReplayStats rs = db::wal::replay(wal, db);
  stats.wal_frames_applied = rs.frames_applied;
  stats.wal_frames_discarded = rs.frames_discarded;
  stats.wal_inserts_applied = rs.inserts_applied;
  stats.wal_inserts_skipped = rs.inserts_skipped;
  stats.wal_torn_bytes = rs.torn_bytes;
  stats.last_commit_id = rs.last_commit_id;
  for (auto& w : rs.warnings) stats.warnings.push_back(std::move(w));

  // Phase 3: physically drop the torn/uncommitted tail so a WalWriter can
  // resume appending right after the last commit marker.
  std::error_code ec;
  if (fs::exists(wal, ec)) {
    if (rs.durable_bytes == 0) {
      // Header never landed (or is corrupt): the file is useless as a log.
      fs::remove(wal, ec);
      if (ec)
        warn("recover: cannot remove bad WAL " + wal.string() + ": " +
             ec.message());
    } else if (fs::file_size(wal, ec) > rs.durable_bytes) {
      fs::resize_file(wal, rs.durable_bytes, ec);
      if (ec)
        warn("recover: cannot truncate WAL " + wal.string() + ": " +
             ec.message());
    }
  }
  return stats;
}

}  // namespace mscope::transform
