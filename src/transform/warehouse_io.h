#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/wal/wal.h"

namespace mscope::transform {

/// Outcome of WarehouseIO::recover: what was salvaged and what was not.
struct RecoveryStats {
  std::size_t tables_loaded = 0;   ///< tables restored from snapshot files
  std::size_t tables_skipped = 0;  ///< corrupt snapshot files skipped
  std::uint64_t wal_frames_applied = 0;
  std::uint64_t wal_frames_discarded = 0;  ///< valid but uncommitted frames
  std::uint64_t wal_inserts_applied = 0;  ///< rows replayed
  std::uint64_t wal_inserts_skipped = 0;  ///< rows already held (idempotent)
  std::uint64_t wal_torn_bytes = 0;       ///< torn tail truncated off the log
  /// The commit the recovered warehouse corresponds to: every mutation up
  /// to this group commit is present, nothing after it is. 0 = no commit
  /// was ever durable (the warehouse recovered empty).
  std::uint64_t last_commit_id = 0;
  /// One human-readable line per degradation (corrupt table skipped, torn
  /// WAL tail truncated, ...). Empty on an exact, complete recovery.
  std::vector<std::string> warnings;
};

/// Persists mScopeDB to a directory and restores it — one binary segment
/// snapshot (<table>.mseg) per table. This is what lets a collected and
/// transformed run be archived and re-analyzed later without re-running the
/// parsers.
///
/// All writers use the temp-file + atomic-rename pattern: a crash mid-save
/// leaves the previous good snapshot intact, never a torn file under the
/// final name. Together with the write-ahead log (db/wal) this gives the
/// warehouse crash durability: `checkpoint` snapshots and truncates the
/// log, `recover` restores newest-valid snapshot + committed log suffix.
class WarehouseIO {
 public:
  /// Writes every table (static and dynamic) under `dir` as a binary
  /// segment snapshot (<table>.mseg); the directory is created. Sealed
  /// columnar segments stream their encoded chunks directly, so saving
  /// skips rendering and loading skips parsing and re-encoding. The format
  /// carries a version byte (db::segment::kSnapshotVersion) and, from v2 on,
  /// per-chunk CRC32C checksums plus a file-footer checksum; cells reload
  /// bit-exact. Each file is written to <table>.mseg.tmp and renamed into
  /// place, so a crash never destroys the previous good snapshot.
  static void save_snapshot(const db::Database& db,
                            const std::filesystem::path& dir);

  /// Loads every <name>.mseg in `dir` into `db`: static metadata tables are
  /// *merged* (rows appended), dynamic tables adopt the sealed storage
  /// wholesale and must not already exist (std::invalid_argument). Returns
  /// the names of the tables loaded. Throws std::invalid_argument if `dir`
  /// does not exist, and std::runtime_error (with byte offset and
  /// table/chunk context) on the first corrupt file — use recover() to
  /// degrade gracefully instead.
  static std::vector<std::string> load_snapshot(
      db::Database& db, const std::filesystem::path& dir);

  /// The write-ahead log a durable warehouse keeps next to its snapshots.
  [[nodiscard]] static std::filesystem::path wal_path(
      const std::filesystem::path& dir) {
    return dir / "wal.log";
  }

  /// Durability checkpoint: group-commits the log, writes a fresh atomic
  /// snapshot of every table, then truncates the log to an empty file whose
  /// header records the committed id. Crash-safe at every step — a kill
  /// between the snapshot renames and the log truncation replays the old
  /// log idempotently over the new snapshot on recovery.
  static void checkpoint(const db::Database& db,
                         const std::filesystem::path& dir,
                         db::wal::WalWriter& wal);

  /// Crash recovery: loads the newest valid snapshot of every table
  /// (skipping corrupt files with a warning instead of aborting the
  /// warehouse), replays the write-ahead log up to its last valid commit,
  /// and truncates the log's uncommitted/torn tail so appends can resume.
  /// The result is the warehouse exactly as of `RecoveryStats::last_commit_id`
  /// — cell-identical to the uncrashed run at that commit. Never throws on
  /// damaged inputs; degradations are reported in the stats.
  static RecoveryStats recover(db::Database& db,
                               const std::filesystem::path& dir);
};

}  // namespace mscope::transform
