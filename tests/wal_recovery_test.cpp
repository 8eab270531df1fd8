// Durability tests: WAL framing/replay semantics, the checkpoint protocol,
// and the crash-point matrix — a deterministic mutation driver is killed by
// the fault injector at *every* physical write/flush/rename the durability
// layer performs (plus a torn-write variant of each), and after each kill
// WarehouseIO::recover must rebuild the warehouse cell-identical to the
// uncrashed run at the last durable group commit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "catalog_equal.h"
#include "core/milliscope.h"
#include "core/online_collection.h"
#include "crash_at_injector.h"
#include "db/column_batch.h"
#include "db/database.h"
#include "db/wal/wal.h"
#include "flow/materializer.h"
#include "scratch_dir.h"
#include "transform/warehouse_io.h"
#include "util/crc32c.h"
#include "util/io_file.h"

namespace mscope {
namespace {

namespace fs = std::filesystem;
using test::CrashAtInjector;
using transform::RecoveryStats;
using transform::WarehouseIO;
using util::io::CrashError;
using util::io::FaultInjector;
using util::io::File;

// A warehouse rendered to strings: schema line + every cell per table.
// Comparing these proves cell-identity without caring about storage layout.
using DbState = std::map<std::string, std::vector<std::string>>;

DbState db_state(const db::Database& db) {
  DbState s;
  for (const auto& name : db.table_names()) {
    const db::Table& t = db.get(name);
    std::vector<std::string>& lines = s[name];
    std::string header;
    for (const auto& c : t.schema()) {
      header += c.name + ":" + std::string(to_string(c.type)) + " ";
    }
    lines.push_back(header);
    for (db::RowCursor cur = t.scan(); cur.next();) {
      std::string line;
      for (std::size_t c = 0; c < t.column_count(); ++c) {
        line += db::value_to_string(cur.row()[c]) + "|";
      }
      lines.push_back(line);
    }
  }
  return s;
}

db::Schema narrow_schema() {
  return {{"id", db::DataType::kInt}, {"val", db::DataType::kInt}};
}

db::Schema wide_schema() {
  return {{"id", db::DataType::kInt},
          {"val", db::DataType::kDouble},
          {"tag", db::DataType::kText}};
}

std::string file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A batch of `rows` rows in column form: id Int (row index), d Double
/// (-0.0 every 10th row, one NaN, NULL every 13th), w Int (NULL every 7th;
/// mixed_schema() stores it as Double), tag Text (three values, NULL every
/// 11th).
db::ColumnBatch mixed_batch(std::size_t rows) {
  db::ColumnBatch b;
  b.schema = {{"id", db::DataType::kInt},
              {"d", db::DataType::kDouble},
              {"w", db::DataType::kInt},
              {"tag", db::DataType::kText}};
  b.rows = rows;
  b.columns.resize(4);
  for (std::size_t c = 0; c < 4; ++c) b.columns[c].type = b.schema[c].type;
  const db::TextRef tags[] = {db::TextRef("read"), db::TextRef("write"),
                              db::TextRef("sync")};
  for (std::size_t r = 0; r < rows; ++r) {
    const auto i = static_cast<std::int64_t>(r);
    b.columns[0].valid.push_back(1);
    b.columns[0].ints.push_back(i);
    b.columns[1].valid.push_back(r % 13 == 4 ? 0 : 1);
    b.columns[1].doubles.push_back(
        r % 10 == 0 ? -0.0
        : r == 77   ? std::numeric_limits<double>::quiet_NaN()
                    : static_cast<double>(i) * 0.25);
    b.columns[2].valid.push_back(r % 7 == 3 ? 0 : 1);
    b.columns[2].ints.push_back(i * 1000 + 1);
    b.columns[3].valid.push_back(r % 11 == 5 ? 0 : 1);
    b.columns[3].texts.push_back(r % 11 == 5 ? std::nullopt
                                             : std::optional(tags[r % 3]));
  }
  return b;
}

/// The table mixed_batch() appends into: its w column is Double.
db::Schema mixed_schema() {
  return {{"id", db::DataType::kInt},
          {"d", db::DataType::kDouble},
          {"w", db::DataType::kDouble},
          {"tag", db::DataType::kText}};
}

/// A version-1 log built by hand: the format before column-range frames,
/// with one boxed row per insert frame.
class V1Log {
 public:
  explicit V1Log(std::uint64_t base_commit_id) {
    bytes_ = "MWAL";
    bytes_.push_back(1);
    u64(bytes_, base_commit_id);
  }

  void create(const std::string& name, const db::Schema& schema) {
    std::string p(1, 1);
    str(p, name);
    put_schema(p, schema);
    frame(p);
  }
  void drop(const std::string& name) {
    std::string p(1, 2);
    str(p, name);
    frame(p);
  }
  void widen(const std::string& name, const db::Schema& wider) {
    std::string p(1, 3);
    str(p, name);
    put_schema(p, wider);
    frame(p);
  }
  void insert(const std::string& name, std::uint64_t row_index,
              const db::Table::Row& row) {
    std::string p(1, 4);
    str(p, name);
    u64(p, row_index);
    u32(p, static_cast<std::uint32_t>(row.size()));
    for (const db::Value& v : row) {
      p.push_back(static_cast<char>(db::type_of(v)));
      switch (db::type_of(v)) {
        case db::DataType::kNull: break;
        case db::DataType::kInt:
          u64(p, static_cast<std::uint64_t>(std::get<std::int64_t>(v)));
          break;
        case db::DataType::kDouble: {
          std::uint64_t bits;
          const double d = std::get<double>(v);
          std::memcpy(&bits, &d, sizeof(bits));
          u64(p, bits);
          break;
        }
        case db::DataType::kText: str(p, std::get<db::TextRef>(v).str()); break;
      }
    }
    frame(p);
  }
  void commit(std::uint64_t id) {
    std::string p(1, 5);
    u64(p, id);
    frame(p);
  }

  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  static void u32(std::string& b, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) b.push_back(static_cast<char>(v >> (8 * i)));
  }
  static void u64(std::string& b, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) b.push_back(static_cast<char>(v >> (8 * i)));
  }
  static void str(std::string& b, const std::string& s) {
    u32(b, static_cast<std::uint32_t>(s.size()));
    b += s;
  }
  static void put_schema(std::string& b, const db::Schema& schema) {
    u32(b, static_cast<std::uint32_t>(schema.size()));
    for (const auto& c : schema) {
      str(b, c.name);
      b.push_back(static_cast<char>(c.type));
    }
  }
  void frame(const std::string& payload) {
    u32(bytes_, static_cast<std::uint32_t>(payload.size()));
    u32(bytes_, util::Crc32c::of(payload));
    bytes_ += payload;
  }

  std::string bytes_;
};

// --- WAL unit tests ---------------------------------------------------------

TEST(Wal, RoundTripReplaysEveryMutationKind) {
  const fs::path dir = test::fresh_scratch_dir("wal_roundtrip");
  db::Database db;
  {
    db::wal::WalWriter wal(WarehouseIO::wal_path(dir));
    db.set_journal(&wal);
    db.record_node("web1", "apache", 4);  // static-table insert
    db::Table& t = db.create_table("ev_t", narrow_schema());
    for (std::int64_t i = 0; i < 10; ++i) {
      t.insert({db::Value{i}, db::Value{i * 7}});
    }
    ASSERT_TRUE(t.try_widen(wide_schema()));
    t.insert({db::Value{std::int64_t{10}}, db::Value{1.5},
              db::Value{db::TextRef("x")}});
    t.insert({db::Value{std::int64_t{11}}, db::Value{}, db::Value{}});
    db.create_table("doomed", narrow_schema());
    db.drop("doomed");
    EXPECT_EQ(wal.commit(), 1u);
    EXPECT_FALSE(wal.dirty());
  }
  db::Database recovered;
  const db::wal::ReplayStats rs =
      db::wal::replay(WarehouseIO::wal_path(dir), recovered);
  EXPECT_EQ(rs.commits_seen, 1u);
  EXPECT_EQ(rs.last_commit_id, 1u);
  EXPECT_EQ(rs.inserts_applied, 13u);  // 10 + 2 + ms_node row
  EXPECT_EQ(rs.torn_bytes, 0u);
  EXPECT_TRUE(rs.warnings.empty());
  EXPECT_FALSE(recovered.exists("doomed"));
  EXPECT_EQ(db_state(recovered), db_state(db));
  fs::remove_all(dir);
}

TEST(Wal, UncommittedFramesAreNeverReplayed) {
  const fs::path dir = test::fresh_scratch_dir("wal_uncommitted");
  db::Database db;
  {
    db::wal::WalWriter wal(WarehouseIO::wal_path(dir));
    db.set_journal(&wal);
    db::Table& t = db.create_table("ev_t", narrow_schema());
    t.insert({db::Value{std::int64_t{1}}, db::Value{std::int64_t{2}}});
    // no commit: the frames are valid on disk but not durable
  }
  db::Database recovered;
  const auto rs = db::wal::replay(WarehouseIO::wal_path(dir), recovered);
  EXPECT_EQ(rs.frames_applied, 0u);
  EXPECT_EQ(rs.frames_discarded, 2u);
  EXPECT_EQ(rs.last_commit_id, 0u);
  EXPECT_FALSE(recovered.exists("ev_t"));
  fs::remove_all(dir);
}

TEST(Wal, TornTailIsTruncatedNotFatal) {
  const fs::path dir = test::fresh_scratch_dir("wal_torn");
  db::Database db;
  {
    db::wal::WalWriter wal(WarehouseIO::wal_path(dir));
    db.set_journal(&wal);
    db::Table& t = db.create_table("ev_t", narrow_schema());
    t.insert({db::Value{std::int64_t{1}}, db::Value{std::int64_t{2}}});
    wal.commit();
  }
  // A torn frame: half a length prefix and garbage, as a crash mid-append
  // would leave.
  {
    std::ofstream out(WarehouseIO::wal_path(dir),
                      std::ios::binary | std::ios::app);
    out.write("\xff\x13garbage", 9);
  }
  db::Database recovered;
  const auto rs = db::wal::replay(WarehouseIO::wal_path(dir), recovered);
  EXPECT_EQ(rs.commits_seen, 1u);
  EXPECT_EQ(rs.torn_bytes, 9u);
  ASSERT_FALSE(rs.warnings.empty());
  EXPECT_NE(rs.warnings.front().find("torn tail"), std::string::npos);
  ASSERT_TRUE(recovered.exists("ev_t"));
  EXPECT_EQ(recovered.get("ev_t").row_count(), 1u);
  fs::remove_all(dir);
}

TEST(Wal, BitFlipBoundsReplayAtLastValidCommit) {
  const fs::path dir = test::fresh_scratch_dir("wal_bitflip");
  db::Database db;
  std::uint64_t first_commit_frames = 0;
  {
    db::wal::WalWriter wal(WarehouseIO::wal_path(dir));
    db.set_journal(&wal);
    db::Table& t = db.create_table("ev_t", narrow_schema());
    t.insert({db::Value{std::int64_t{1}}, db::Value{std::int64_t{1}}});
    wal.commit();
    first_commit_frames = wal.stats().bytes;
    t.insert({db::Value{std::int64_t{2}}, db::Value{std::int64_t{2}}});
    t.insert({db::Value{std::int64_t{3}}, db::Value{std::int64_t{3}}});
    wal.commit();
  }
  // Flip one bit in a frame of the second commit's batch.
  {
    std::fstream f(WarehouseIO::wal_path(dir),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(first_commit_frames) + 12);
    char b = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(first_commit_frames) + 12);
    f.put(static_cast<char>(b ^ 0x40));
  }
  db::Database recovered;
  const auto rs = db::wal::replay(WarehouseIO::wal_path(dir), recovered);
  EXPECT_EQ(rs.commits_seen, 1u);  // the second commit is unreachable
  EXPECT_EQ(rs.last_commit_id, 1u);
  EXPECT_GT(rs.torn_bytes, 0u);
  EXPECT_EQ(recovered.get("ev_t").row_count(), 1u);
  fs::remove_all(dir);
}

TEST(Wal, BaseCommitIdSurvivesEmptyLog) {
  const fs::path dir = test::fresh_scratch_dir("wal_baseid");
  { db::wal::WalWriter wal(WarehouseIO::wal_path(dir), 7); }
  db::Database recovered;
  const auto rs = db::wal::replay(WarehouseIO::wal_path(dir), recovered);
  EXPECT_EQ(rs.last_commit_id, 7u);
  EXPECT_EQ(rs.commits_seen, 0u);
  fs::remove_all(dir);
}

TEST(Wal, ReplayOverNewerSnapshotIsIdempotent) {
  // The checkpoint crash window: snapshot renames landed, WAL reset did not.
  // The old epoch's log replays over the new snapshot without duplicating
  // a row.
  const fs::path dir = test::fresh_scratch_dir("wal_idempotent");
  db::Database db;
  {
    db::wal::WalWriter wal(WarehouseIO::wal_path(dir));
    db.set_journal(&wal);
    db::Table& t = db.create_table("ev_t", narrow_schema());
    for (std::int64_t i = 0; i < 6; ++i) {
      t.insert({db::Value{i}, db::Value{i}});
    }
    wal.commit();
    WarehouseIO::save_snapshot(db, dir);  // snapshot lands...
    // ...crash before wal.reset(): the log still holds all 6 inserts.
  }
  db::Database recovered;
  const RecoveryStats rs = WarehouseIO::recover(recovered, dir);
  EXPECT_EQ(rs.wal_inserts_skipped, 6u);
  EXPECT_EQ(rs.wal_inserts_applied, 0u);
  EXPECT_EQ(rs.last_commit_id, 1u);
  EXPECT_EQ(db_state(recovered), db_state(db));
  fs::remove_all(dir);
}

TEST(Wal, RecoverTruncatesLogSoAppendsCanResume) {
  const fs::path dir = test::fresh_scratch_dir("wal_resume");
  db::Database db;
  {
    db::wal::WalWriter wal(WarehouseIO::wal_path(dir));
    db.set_journal(&wal);
    db::Table& t = db.create_table("ev_t", narrow_schema());
    t.insert({db::Value{std::int64_t{0}}, db::Value{std::int64_t{0}}});
    wal.commit();
    t.insert({db::Value{std::int64_t{1}}, db::Value{std::int64_t{1}}});
    // uncommitted insert: must be physically dropped by recover()
  }
  db::Database recovered;
  const RecoveryStats rs = WarehouseIO::recover(recovered, dir);
  EXPECT_EQ(rs.last_commit_id, 1u);

  // Resume: append more committed work to the truncated log, then recover
  // again — the resumed epoch must replay cleanly on top.
  {
    db::wal::WalWriter wal(WarehouseIO::wal_path(dir), rs.last_commit_id,
                           /*append=*/true);
    recovered.set_journal(&wal);
    recovered.get("ev_t").insert(
        {db::Value{std::int64_t{1}}, db::Value{std::int64_t{11}}});
    wal.commit();
    recovered.set_journal(nullptr);
  }
  db::Database again;
  const RecoveryStats rs2 = WarehouseIO::recover(again, dir);
  EXPECT_EQ(rs2.last_commit_id, 2u);
  ASSERT_TRUE(again.exists("ev_t"));
  ASSERT_EQ(again.get("ev_t").row_count(), 2u);
  EXPECT_EQ(db::value_to_string(again.get("ev_t").at(1, 1)), "11");
  fs::remove_all(dir);
}

TEST(Wal, Version1LogStillReplays) {
  const fs::path dir = test::fresh_scratch_dir("wal_v1");
  // The same mutations, applied directly and written as a v1 log.
  db::Database live;
  V1Log log(0);
  const auto insert = [&](const std::string& name, db::Table::Row row) {
    db::Table& t = live.get(name);
    log.insert(name, t.row_count(), row);
    t.insert(std::move(row));
  };
  live.create_table("ev_t", narrow_schema());
  log.create("ev_t", narrow_schema());
  for (std::int64_t i = 0; i < 5; ++i) {
    insert("ev_t", {db::Value{i}, db::Value{i * 7}});
  }
  ASSERT_TRUE(live.get("ev_t").try_widen(wide_schema()));
  log.widen("ev_t", wide_schema());
  insert("ev_t", {db::Value{std::int64_t{5}}, db::Value{-0.0},
                  db::Value{db::TextRef("x")}});
  insert("ev_t", {db::Value{std::int64_t{6}}, db::Value{}, db::Value{}});
  insert("ev_t", {db::Value{std::int64_t{7}}, db::Value{2.5},
                  db::Value{db::TextRef("x")}});
  live.create_table("doomed", narrow_schema());
  log.create("doomed", narrow_schema());
  live.drop("doomed");
  log.drop("doomed");
  log.commit(1);
  // Past the last commit: never replayed.
  log.insert("ev_t", 8, {db::Value{std::int64_t{8}}, db::Value{1.0},
                         db::Value{}});
  write_file(WarehouseIO::wal_path(dir), log.bytes());

  db::Database recovered;
  const db::wal::ReplayStats rs =
      db::wal::replay(WarehouseIO::wal_path(dir), recovered);
  EXPECT_TRUE(rs.warnings.empty());
  EXPECT_EQ(rs.commits_seen, 1u);
  EXPECT_EQ(rs.last_commit_id, 1u);
  EXPECT_EQ(rs.inserts_applied, 8u);
  EXPECT_EQ(rs.frames_applied, 12u);
  EXPECT_EQ(rs.frames_discarded, 1u);
  EXPECT_FALSE(recovered.exists("doomed"));
  test::expect_identical_catalogs(recovered, live);
  EXPECT_TRUE(std::signbit(std::get<double>(recovered.get("ev_t").at(5, 1))));
  fs::remove_all(dir);
}

TEST(Wal, InsertAndOneRowAppendWriteTheSameBytes) {
  const fs::path dir = test::fresh_scratch_dir("wal_one_row");
  const db::ColumnBatch batch = mixed_batch(12);
  const auto log_of = [&](bool by_insert) {
    const fs::path path = dir / (by_insert ? "insert.wal" : "append.wal");
    db::Database db;
    db::wal::WalWriter wal(path);
    db.set_journal(&wal);
    db::Table& t = db.create_table("ev_m", mixed_schema());
    for (std::size_t r = 0; r < batch.rows; ++r) {
      if (by_insert) {
        db::Table::Row row;
        for (std::size_t c = 0; c < batch.columns.size(); ++c) {
          row.push_back(batch.cell(r, c));
        }
        t.insert(std::move(row));
      } else {
        t.append(batch, r, r + 1);
      }
    }
    wal.commit();
    db.set_journal(nullptr);
    return file_bytes(path);
  };
  const std::string inserted = log_of(true);
  EXPECT_GT(inserted.size(), 100u);
  EXPECT_EQ(inserted, log_of(false));
  fs::remove_all(dir);
}

TEST(Wal, LargeAppendOverlappingSnapshotReplaysOnlyMissingRows) {
  const fs::path dir = test::fresh_scratch_dir("wal_large_append");
  const db::ColumnBatch batch = mixed_batch(10'000);
  db::Database live;
  {
    db::wal::WalWriter wal(WarehouseIO::wal_path(dir));
    live.set_journal(&wal);
    live.create_table("ev_m", mixed_schema()).append(batch, 0, batch.rows);
    // create + three frames of at most kMaxFrameRows rows
    EXPECT_EQ(wal.stats().frames, 4u);
    wal.commit();
    live.set_journal(nullptr);
  }
  // A snapshot holding rows [0, 6000): its boundary falls inside the second
  // frame (rows [4096, 8192)).
  {
    db::Database older;
    older.create_table("ev_m", mixed_schema()).append(batch, 0, 6000);
    WarehouseIO::save_snapshot(older, dir);
  }
  db::Database recovered;
  const RecoveryStats rs = WarehouseIO::recover(recovered, dir);
  EXPECT_TRUE(rs.warnings.empty());
  EXPECT_EQ(rs.last_commit_id, 1u);
  EXPECT_EQ(rs.wal_inserts_skipped, 6000u);
  EXPECT_EQ(rs.wal_inserts_applied, 4000u);
  test::expect_identical_catalogs(recovered, live);
  fs::remove_all(dir);
}

TEST(Wal, ResumeRefusesAnOlderLog) {
  const fs::path dir = test::fresh_scratch_dir("wal_resume_v1");
  const fs::path path = WarehouseIO::wal_path(dir);
  V1Log log(3);
  log.create("ev_t", narrow_schema());
  log.insert("ev_t", 0, {db::Value{std::int64_t{1}}, db::Value{std::int64_t{2}}});
  log.commit(4);
  write_file(path, log.bytes());
  EXPECT_THROW(db::wal::WalWriter(path, 4, /*append=*/true),
               std::runtime_error);
  EXPECT_EQ(file_bytes(path), log.bytes());  // left as it was
  // Not a log at all: refused too.
  write_file(path, "MW");
  EXPECT_THROW(db::wal::WalWriter(path, 4, /*append=*/true),
               std::runtime_error);
  // A version-2 log resumes.
  { db::wal::WalWriter fresh(path, 4); }
  EXPECT_NO_THROW(db::wal::WalWriter(path, 4, /*append=*/true));
  fs::remove_all(dir);
}

// --- crash-point matrix -----------------------------------------------------

/// Counts the durability layer's physical operations without failing any —
/// the first pass that sizes the matrix.
struct CountingInjector final : FaultInjector {
  std::size_t count = 0;
  Decision on_op(const Event&) override {
    ++count;
    return {};
  }
};

/// The deterministic mutation driver: every kind of journaled mutation
/// (create, insert, a multi-frame append, widen, drop + recreate,
/// static-table rows), group commits, and two mid-run checkpoints. Records the rendered warehouse at
/// every commit id so a crashed run can be checked for exactness. Returns
/// normally or via CrashError.
std::map<std::uint64_t, DbState> run_driver(const fs::path& dir) {
  std::map<std::uint64_t, DbState> states;
  db::Database db;
  db::wal::WalWriter wal(WarehouseIO::wal_path(dir));
  db.set_journal(&wal);
  states[0] = db_state(db);

  const auto commit_and_record = [&] {
    wal.commit();
    states[wal.last_commit_id()] = db_state(db);
  };

  db.record_node("web1", "apache", 4);
  db::Table& t1 = db.create_table("ev_a", narrow_schema());
  for (std::int64_t i = 0; i < 8; ++i) {
    t1.insert({db::Value{i}, db::Value{i * 3}});
    if (i % 3 == 2) commit_and_record();
  }
  // Checkpoint mid-run: snapshot + WAL truncation, all injectable.
  WarehouseIO::checkpoint(db, dir, wal);
  states[wal.last_commit_id()] = db_state(db);

  t1.try_widen(wide_schema());
  t1.insert({db::Value{std::int64_t{8}}, db::Value{2.5},
             db::Value{db::TextRef("w")}});
  commit_and_record();

  db.create_table("ev_b", narrow_schema());
  db.get("ev_b").insert({db::Value{std::int64_t{1}}, db::Value{std::int64_t{1}}});
  db.drop("ev_b");
  db.create_table("ev_b", wide_schema());
  db.get("ev_b").insert(
      {db::Value{std::int64_t{2}}, db::Value{0.5}, db::Value{db::TextRef("y")}});
  commit_and_record();

  // One append of two frames (NULLs, -0.0, NaN, Int cells into a Double
  // column, text), so kills and torn writes land inside batch frames.
  db::Table& t3 = db.create_table("ev_c", mixed_schema());
  const db::ColumnBatch batch = mixed_batch(db::wal::kMaxFrameRows + 300);
  t3.append(batch, 0, batch.rows);
  t3.insert({db::Value{std::int64_t{-1}}, db::Value{-0.0},
             db::Value{std::int64_t{3}}, db::Value{}});
  commit_and_record();

  WarehouseIO::checkpoint(db, dir, wal);
  states[wal.last_commit_id()] = db_state(db);
  db.set_journal(nullptr);
  return states;
}

TEST(CrashMatrix, EveryKillPointRecoversExactly) {
  // Reference pass: no faults; learn the op count and the per-commit states.
  const fs::path ref_dir = test::fresh_scratch_dir("wal_matrix_ref");
  CountingInjector counter;
  File::set_fault_injector(&counter);
  const std::map<std::uint64_t, DbState> states = run_driver(ref_dir);
  File::set_fault_injector(nullptr);
  fs::remove_all(ref_dir);
  ASSERT_GT(counter.count, 30u) << "driver should exercise many ops";
  ASSERT_GT(states.size(), 5u);

  // Matrix: kill at every op, clean and torn. Every recovery must land
  // exactly on one of the committed states — the one recover() reports.
  for (const bool torn : {false, true}) {
    for (std::size_t op = 0; op < counter.count; ++op) {
      SCOPED_TRACE((torn ? "torn write, op " : "clean kill, op ") +
                   std::to_string(op));
      const fs::path dir = test::fresh_scratch_dir("wal_matrix_run");
      CrashAtInjector inj(op, torn);
      File::set_fault_injector(&inj);
      bool crashed = false;
      try {
        run_driver(dir);
      } catch (const CrashError&) {
        crashed = true;
      }
      File::set_fault_injector(nullptr);  // the restart
      ASSERT_TRUE(crashed);

      db::Database recovered;
      const RecoveryStats rs = WarehouseIO::recover(recovered, dir);
      const auto it = states.find(rs.last_commit_id);
      ASSERT_NE(it, states.end())
          << "recovered to unknown commit " << rs.last_commit_id;
      EXPECT_EQ(db_state(recovered), it->second)
          << "warehouse differs from the uncrashed run at commit "
          << rs.last_commit_id;
      fs::remove_all(dir);
    }
  }
}

TEST(CrashMatrix, UncrashedDirectoryRecoversToFinalCommit) {
  const fs::path dir = test::fresh_scratch_dir("wal_matrix_clean");
  const auto states = run_driver(dir);
  db::Database recovered;
  const RecoveryStats rs = WarehouseIO::recover(recovered, dir);
  EXPECT_EQ(rs.last_commit_id, states.rbegin()->first);
  EXPECT_EQ(db_state(recovered), states.rbegin()->second);
  EXPECT_TRUE(rs.warnings.empty());
  EXPECT_EQ(rs.tables_skipped, 0u);
  fs::remove_all(dir);
}

// --- OnlineCollection durability wiring -------------------------------------

TEST(DurableCollection, FinishedRunRecoversIdentically) {
  core::TestbedConfig cfg;
  cfg.workload = 400;
  cfg.duration = util::sec(4);
  cfg.log_dir = test::scratch_dir("durable_logs");
  cfg.capture_messages = false;

  const fs::path dur_dir = test::fresh_scratch_dir("wal_collection");
  core::Testbed testbed(cfg);
  db::Database live;
  core::OnlineCollection::Config oc;
  oc.durability = core::OnlineCollection::Config::Durability{
      .dir = dur_dir, .commit_interval = 500 * util::kMsec};
  core::OnlineCollection online(testbed, live, nullptr, oc);
  ASSERT_NE(online.wal(), nullptr);
  testbed.run();
  online.finish();
  EXPECT_GT(online.wal()->stats().commits, 2u) << "group commits should tick";
  fs::remove_all(cfg.log_dir);

  // finish() checkpoints, so the directory recovers to the complete run.
  db::Database recovered;
  const RecoveryStats rs = WarehouseIO::recover(recovered, dur_dir);
  EXPECT_TRUE(rs.warnings.empty());
  EXPECT_EQ(db_state(recovered), db_state(live));
  fs::remove_all(dur_dir);
}

TEST(DurableCollection, FlowTablesRecoverIdentically) {
  // mScopeBench's online_durable check: after finish() checkpoints, the flow
  // tables land through the WAL alone, are committed, and recover.
  core::TestbedConfig cfg;
  cfg.workload = 1200;
  cfg.duration = util::sec(5);
  cfg.log_dir = test::scratch_dir("durable_flow_logs");
  cfg.capture_messages = false;

  const fs::path dur_dir = test::fresh_scratch_dir("wal_collection_flow");
  core::Experiment exp(cfg);
  db::Database live;
  core::OnlineCollection::Config oc;
  oc.durability = core::OnlineCollection::Config::Durability{
      .dir = dur_dir, .commit_interval = 500 * util::kMsec,
      .checkpoint_every = 4};
  const auto online = exp.start_online(live, nullptr, oc);
  exp.run();
  online->finish();
  fs::remove_all(cfg.log_dir);

  const flow::Result flows =
      flow::Materializer(live, flow::Deployment::from(
                                   exp.tables(), core::Testbed::services()))
          .run();
  ASSERT_GT(flows.spans.size(), db::wal::kMaxFrameRows)
      << "the spans table should take more than one chunk";
  flow::Materializer::materialize(flows, live);
  online->wal()->commit();

  db::Database recovered;
  const RecoveryStats rs = WarehouseIO::recover(recovered, dur_dir);
  EXPECT_TRUE(rs.warnings.empty());
  EXPECT_EQ(rs.last_commit_id, online->wal()->last_commit_id());
  EXPECT_EQ(rs.wal_inserts_applied,
            flows.spans.size() + flows.requests.size());
  test::expect_identical_catalogs(recovered, live);
  fs::remove_all(dur_dir);
}

TEST(DurableCollection, MidRunCrashRecoversToACommit) {
  core::TestbedConfig cfg;
  cfg.workload = 400;
  cfg.duration = util::sec(4);
  cfg.log_dir = test::scratch_dir("durable_crash_logs");
  cfg.capture_messages = false;

  const fs::path dur_dir = test::fresh_scratch_dir("wal_collection_crash");
  core::Testbed testbed(cfg);
  db::Database live;
  core::OnlineCollection::Config oc;
  oc.durability = core::OnlineCollection::Config::Durability{
      .dir = dur_dir,
      .commit_interval = 250 * util::kMsec,
      .checkpoint_every = 4};
  core::OnlineCollection online(testbed, live, nullptr, oc);

  // Let a few commits (and one checkpoint) land, then kill the next 200th
  // physical durability op mid-run — the "power cable" moment.
  CrashAtInjector inj(200, /*torn_write=*/true);
  File::set_fault_injector(&inj);
  bool crashed = false;
  try {
    testbed.run();
    online.finish();
  } catch (const CrashError&) {
    crashed = true;
  }
  File::set_fault_injector(nullptr);
  fs::remove_all(cfg.log_dir);
  ASSERT_TRUE(crashed) << "the injector should have fired mid-run";

  db::Database recovered;
  const RecoveryStats rs = WarehouseIO::recover(recovered, dur_dir);
  EXPECT_GT(rs.last_commit_id, 0u);
  EXPECT_GT(recovered.table_names().size(), 4u)
      << "dynamic tables should have survived";
  // Recovery is deterministic: a second recovery of the same directory
  // lands on the same state (the truncated log stays stable).
  db::Database again;
  const RecoveryStats rs2 = WarehouseIO::recover(again, dur_dir);
  EXPECT_EQ(rs2.last_commit_id, rs.last_commit_id);
  EXPECT_EQ(db_state(again), db_state(recovered));
  fs::remove_all(dur_dir);
}

}  // namespace
}  // namespace mscope
