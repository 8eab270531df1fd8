#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "db/table.h"
#include "util/io_file.h"

namespace mscope::db::wal {

/// On-disk WAL format version ("MWAL" magic + this byte + base commit id).
/// Writers emit version 2 only; replay reads versions 1 and 2.
inline constexpr std::uint8_t kWalVersion = 2;

/// Most rows one append frame holds (the default SegmentConfig::seal_rows).
/// The writer splits a longer range, so a frame stays far below the 1 GiB
/// replay limit whatever the caller appends.
inline constexpr std::size_t kMaxFrameRows = 4096;

/// The write-ahead log of mScopeDB's streaming path. Every warehouse
/// mutation (create_table / insert / append / try_widen / drop) is framed
/// as a CRC32C-checked, length-prefixed record and appended *before* the
/// mutation touches storage; a group commit writes a commit marker and
/// flushes, making everything up to it durable. After a crash,
/// `replay` applies the log up to the last valid commit marker — torn
/// tails (a partial frame, a bit flip, frames past the last commit)
/// are detected by the framing and never replayed, never crash.
///
/// Rows travel as column ranges, the store's own layout: Table::append
/// journals its range as frames of at most kMaxFrameRows rows, all written
/// before any row lands, and Table::insert journals a one-row frame — the
/// same bytes as a one-row append of that row. Frame layout (all
/// little-endian):
///   u32 payload_len | u32 crc32c(payload) | payload
///   payload = u8 record_type | body
///   rows body = str table | u64 first_row | u32 rows | u32 columns
///               | column*
///   column    = u8 type | validity bitmap (bit i = row i, ceil(rows / 8)
///               bytes) | values
///   values    = Int: rows x u64 | Double: rows x u64 raw bits
///               | Text: u32 n | n x str (the frame's dictionary, in
///               first-use order) | rows x u32 code | Null: nothing
///   str       = u32 len | bytes
/// A column carries the table's type, so Int cells bound for a Double
/// column are written as the doubles the store will hold; NULL slots hold
/// 0. Doubles keep their bits (-0.0, NaN). Version 1 logs carry one boxed
/// row per insert frame instead; replay still reads them.
/// File header: "MWAL" | u8 version | u64 base_commit_id.
///
/// `base_commit_id` is the commit the enclosing snapshot already contains:
/// the checkpoint protocol (WarehouseIO::checkpoint) commits, snapshots,
/// then atomically replaces the log with a fresh header carrying that
/// commit id — so recovery always knows which commit the recovered
/// warehouse corresponds to, even when the log is empty.
///
/// Replay is idempotent by construction: a rows frame carries its first
/// row's table-global index, and replay applies only the rows from the
/// table's row_count() on (a frame that starts past row_count() skips the
/// table with a warning). A crash between the snapshot renames and the WAL
/// reset therefore replays the old epoch's log over the new snapshot
/// without duplicating a single row (mixed-generation recovery).
class WalWriter final : public MutationJournal {
 public:
  struct Stats {
    std::uint64_t frames = 0;   ///< mutation frames written (excl. commits)
    std::uint64_t commits = 0;  ///< commit markers written
    std::uint64_t bytes = 0;    ///< file bytes written (incl. headers)
  };

  /// Opens a fresh log at `path` (truncating), with `base_commit_id` as the
  /// commit the warehouse state at open time corresponds to. With
  /// `append` = true the existing file is extended instead — the resume
  /// path; the caller must have truncated any uncommitted tail first
  /// (WarehouseIO::recover does). Resuming throws std::runtime_error when
  /// the existing file is not a version-2 log, so one file never mixes
  /// versions.
  explicit WalWriter(std::filesystem::path path,
                     std::uint64_t base_commit_id = 0, bool append = false);
  ~WalWriter() override;

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // --- MutationJournal (frames are written immediately, unflushed) ---------
  void on_create_table(const std::string& name, const Schema& schema) override;
  void on_drop_table(const std::string& name) override;
  /// A one-row frame: the bytes on_append writes for a one-row append of
  /// the same row.
  void on_insert(const std::string& table, const Schema& schema,
                 std::size_t row_index,
                 const std::vector<Value>& row) override;
  void on_append(const std::string& table, const Schema& schema,
                 std::size_t row_index, const ColumnBatch& batch,
                 std::size_t first, std::size_t end) override;
  void on_widen(const std::string& table, const Schema& wider) override;

  /// Group commit: appends a commit marker and flushes. Everything journaled
  /// so far is durable once this returns. No-op (returning the last id) when
  /// nothing was journaled since the previous commit, so a periodic commit
  /// tick costs nothing on an idle stream. Returns the commit id.
  std::uint64_t commit();

  /// True when mutations were journaled since the last commit marker.
  [[nodiscard]] bool dirty() const { return dirty_; }
  [[nodiscard]] std::uint64_t last_commit_id() const { return commit_id_; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Checkpoint epilogue: atomically replaces the log with a fresh header
  /// whose base commit id is the current commit — call only after the
  /// snapshot that contains that commit has fully landed. Uses the
  /// temp-file + rename pattern, so a crash leaves either the old log
  /// (idempotent replay) or the new empty one, never a torn log.
  void reset();

 private:
  void write_header(util::io::File& f, std::uint64_t base_commit_id);
  /// Starts a frame of `type` in buf_; write_frame() completes it.
  void begin_frame(std::uint8_t type);
  /// Writes buf_ as one frame (one io::File::write).
  void write_frame();
  /// A mutation frame: write_frame(), counted in stats and dirtying.
  void journal_frame();
  /// Rows [first, end) of `src` as one frame column of `type`.
  void put_column(DataType type, const ColumnBatch::Column& src,
                  std::size_t first, std::size_t end);

  std::filesystem::path path_;
  util::io::File file_;
  /// The frame being built, an insert's row as a one-row batch, and a Text
  /// column's codes and dictionary (views into the batch being journaled);
  /// all reused from frame to frame.
  std::string buf_;
  ColumnBatch row_;
  std::vector<std::uint32_t> codes_;
  std::vector<std::string_view> dict_;
  std::unordered_map<std::string_view, std::uint32_t> lookup_;
  std::uint64_t commit_id_ = 0;
  bool dirty_ = false;
  Stats stats_;
};

/// Outcome of replaying a WAL into a Database (see `replay`).
struct ReplayStats {
  std::uint64_t frames_applied = 0;    ///< mutation frames replayed
  std::uint64_t frames_discarded = 0;  ///< valid frames past the last commit
  std::uint64_t inserts_applied = 0;  ///< rows appended
  std::uint64_t inserts_skipped = 0;  ///< rows skipped: already held (idempotent)
  std::uint64_t commits_seen = 0;
  std::uint64_t last_commit_id = 0;  ///< base id when the log has no commits
  /// File offset just past the last valid commit frame — the truncation
  /// point for resuming appends (bytes beyond it are torn or uncommitted).
  std::uint64_t durable_bytes = 0;
  std::uint64_t torn_bytes = 0;  ///< bytes discarded past durable_bytes
  std::vector<std::string> warnings;
};

/// Replays the WAL at `path` into `db`, applying records strictly up to the
/// last valid commit marker. Never throws on a damaged log: a missing file,
/// bad header, torn tail or checksum mismatch simply bounds what is
/// replayed, and per-table inconsistencies (e.g. the log resumes at row N
/// of a table whose snapshot was lost) skip that table with a warning
/// instead of aborting the warehouse.
[[nodiscard]] ReplayStats replay(const std::filesystem::path& path,
                                 Database& db);

}  // namespace mscope::db::wal
