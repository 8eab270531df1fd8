// Snapshot integrity properties: the v2 checksummed `.mseg` format must turn
// every torn write and every bit flip into a clean, located error — never a
// crash, never silently-wrong cells — while v1 files keep loading and
// recover() degrades per-table instead of aborting the warehouse.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/segment/snapshot.h"
#include "scratch_dir.h"
#include "transform/warehouse_io.h"
#include "util/io_file.h"
#include "util/rng.h"

namespace mscope {
namespace {

namespace fs = std::filesystem;
using transform::WarehouseIO;

/// A table with all value kinds, enough rows to seal columnar segments and
/// leave a row-major tail — so fuzzing hits every chunk codec.
db::Table make_table(const std::string& name, std::size_t rows) {
  db::Table t(name, {{"id", db::DataType::kInt},
                     {"score", db::DataType::kDouble},
                     {"tag", db::DataType::kText},
                     {"opt", db::DataType::kInt}});
  for (std::size_t i = 0; i < rows; ++i) {
    db::Table::Row row;
    row.push_back(db::Value{static_cast<std::int64_t>(i)});
    row.push_back(db::Value{static_cast<double>(i) * 0.25});
    row.push_back(db::Value{db::TextRef("tag_" + std::to_string(i % 7))});
    row.push_back(i % 5 == 0 ? db::Value{}
                             : db::Value{static_cast<std::int64_t>(i * i)});
    t.insert(std::move(row));
  }
  return t;
}

std::string serialize(const db::Table& t, std::uint8_t version) {
  std::ostringstream out(std::ios::binary);
  db::segment::write_table(out, t, version);
  return out.str();
}

/// Deserializes, returning the error message ("" on success).
std::string try_read(const std::string& bytes, db::Table* out = nullptr) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    db::Table t = db::segment::read_table(in);
    if (out != nullptr) *out = std::move(t);
    return "";
  } catch (const std::exception& e) {
    return e.what();
  }
}

void expect_identical(const db::Table& a, const db::Table& b) {
  ASSERT_EQ(a.schema(), b.schema());
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t r = 0; r < a.row_count(); ++r) {
    for (std::size_t c = 0; c < a.column_count(); ++c) {
      ASSERT_TRUE(a.at(r, c) == b.at(r, c))
          << "cell (" << r << ", " << c << ") differs";
    }
  }
}

TEST(SnapshotIntegrity, V2RoundTripIsExact) {
  const db::Table t = make_table("ev_round", 9000);
  db::Table back("x", {{"y", db::DataType::kInt}});
  ASSERT_EQ(try_read(serialize(t, 2), &back), "");
  expect_identical(t, back);
}

TEST(SnapshotIntegrity, V1FilesStillLoad) {
  const db::Table t = make_table("ev_legacy", 9000);
  const std::string v1 = serialize(t, 1);
  EXPECT_EQ(static_cast<std::uint8_t>(v1[4]), 1u);
  db::Table back("x", {{"y", db::DataType::kInt}});
  ASSERT_EQ(try_read(v1, &back), "");
  expect_identical(t, back);
}

TEST(SnapshotIntegrity, EveryTruncationIsACleanError) {
  const std::string good = serialize(make_table("ev_trunc", 6000), 2);
  util::Rng rng(20260807, 1);
  for (int i = 0; i < 300; ++i) {
    const auto cut = static_cast<std::size_t>(rng.next_below(good.size()));
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    const std::string msg = try_read(good.substr(0, cut));
    ASSERT_NE(msg, "") << "a torn snapshot must never load";
    EXPECT_NE(msg.find("snapshot:"), std::string::npos);
  }
}

TEST(SnapshotIntegrity, EveryBitFlipIsDetected) {
  const std::string good = serialize(make_table("ev_flip", 6000), 2);
  util::Rng rng(20260807, 2);
  for (int i = 0; i < 300; ++i) {
    std::string bad = good;
    const auto byte = static_cast<std::size_t>(rng.next_below(bad.size()));
    const auto bit = static_cast<int>(rng.next_below(8));
    bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
    SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " +
                 std::to_string(byte));
    // CRC32C detects every single-bit error, so a flip anywhere — data,
    // length fields, footer, even the checksum itself — must refuse to
    // load. No silently-wrong cell can survive.
    const std::string msg = try_read(bad);
    ASSERT_NE(msg, "");
    EXPECT_NE(msg.find("snapshot:"), std::string::npos);
  }
}

TEST(SnapshotIntegrity, ErrorsCarryOffsetAndTableContext) {
  // Footer-level damage reports the byte offset...
  const std::string good = serialize(make_table("ev_ctx", 9000), 2);
  std::string flipped = good;
  flipped[good.size() / 2] = static_cast<char>(flipped[good.size() / 2] ^ 1);
  EXPECT_NE(try_read(flipped).find("byte offset"), std::string::npos);

  // ...and structural damage inside a v1 body (no file CRC to catch it
  // first) names the table and the chunk being decoded. 9000 rows seal two
  // 4096-row segments, so a 60% cut lands inside sealed-segment chunks.
  const std::string v1 = serialize(make_table("ev_ctx", 9000), 1);
  const std::string msg = try_read(v1.substr(0, v1.size() * 3 / 5));
  ASSERT_NE(msg, "");
  EXPECT_NE(msg.find("byte offset"), std::string::npos);
  EXPECT_NE(msg.find("ev_ctx"), std::string::npos);
  EXPECT_NE(msg.find("segment"), std::string::npos);
}

TEST(SnapshotIntegrity, FuzzedWarehouseRecoverNeverThrows) {
  // Property: whatever single corruption hits a snapshot directory,
  // recover() returns a valid partial warehouse plus warnings — it must
  // never throw and never produce a half-loaded table.
  const fs::path dir = test::fresh_scratch_dir("snap_fuzz");
  db::Database db;
  db.adopt_table(make_table("ev_one", 3000));
  db.adopt_table(make_table("ev_two", 500));
  WarehouseIO::save_snapshot(db, dir);

  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".mseg") files.push_back(e.path());
  }
  ASSERT_GE(files.size(), 2u);

  util::Rng rng(20260807, 3);
  for (int i = 0; i < 60; ++i) {
    const fs::path victim =
        files[static_cast<std::size_t>(rng.next_below(files.size()))];
    std::string bytes;
    {
      std::ifstream in(victim, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      bytes = ss.str();
    }
    std::string bad = bytes;
    if (rng.chance(0.5)) {
      bad = bad.substr(0, static_cast<std::size_t>(rng.next_below(bad.size())));
    } else {
      const auto b = static_cast<std::size_t>(rng.next_below(bad.size()));
      bad[b] = static_cast<char>(bad[b] ^ (1 << rng.next_below(8)));
    }
    {
      std::ofstream out(victim, std::ios::binary | std::ios::trunc);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }

    db::Database partial;
    transform::RecoveryStats rs;
    ASSERT_NO_THROW(rs = WarehouseIO::recover(partial, dir));
    // Either the damaged table was skipped (with a warning) or the damage
    // happened to leave the file readable-and-exact; loaded tables are
    // always complete.
    EXPECT_EQ(rs.tables_loaded + rs.tables_skipped, files.size());
    EXPECT_EQ(rs.tables_skipped, rs.warnings.size());
    for (const auto& name : partial.table_names()) {
      if (name.rfind("ev_", 0) != 0) continue;
      expect_identical(partial.get(name), db.get(name));
    }

    // heal the victim for the next round
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  fs::remove_all(dir);
}

TEST(SnapshotIntegrity, CorruptTableIsSkippedOthersLoad) {
  const fs::path dir = test::fresh_scratch_dir("snap_skip");
  db::Database db;
  db.adopt_table(make_table("ev_good", 800));
  db.adopt_table(make_table("ev_bad", 800));
  WarehouseIO::save_snapshot(db, dir);
  // Tear ev_bad's file in half.
  const fs::path victim = dir / "ev_bad.mseg";
  fs::resize_file(victim, fs::file_size(victim) / 2);

  // load_snapshot aborts loudly, naming the file...
  db::Database strict;
  try {
    WarehouseIO::load_snapshot(strict, dir);
    FAIL() << "load_snapshot must throw on a torn file";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("ev_bad.mseg"), std::string::npos);
  }

  // ...recover() degrades: the good table loads, the torn one is reported.
  db::Database partial;
  const transform::RecoveryStats rs = WarehouseIO::recover(partial, dir);
  EXPECT_EQ(rs.tables_skipped, 1u);
  ASSERT_EQ(rs.warnings.size(), 1u);
  EXPECT_NE(rs.warnings.front().find("ev_bad.mseg"), std::string::npos);
  EXPECT_TRUE(partial.exists("ev_good"));
  EXPECT_FALSE(partial.exists("ev_bad"));
  expect_identical(partial.get("ev_good"), db.get("ev_good"));
  fs::remove_all(dir);
}

TEST(SnapshotIntegrity, CrashedSaveNeverDestroysPreviousSnapshot) {
  const fs::path dir = test::fresh_scratch_dir("snap_atomic");
  db::Database db;
  db.adopt_table(make_table("ev_keep", 1000));
  WarehouseIO::save_snapshot(db, dir);

  // Grow the table, then kill the rewrite mid-file: the temp file dies,
  // the published snapshot must still be the previous good one.
  struct KillFirstMsegWrite final : util::io::FaultInjector {
    Decision on_op(const Event& ev) override {
      if (ev.op == Op::kWrite && ev.path.string().find(".mseg") !=
                                     std::string::npos) {
        return {.crash = true, .partial_bytes = ev.bytes / 3};
      }
      return {};
    }
  } injector;
  db.get("ev_keep").insert({db::Value{std::int64_t{-1}}, db::Value{0.0},
                            db::Value{db::TextRef("late")}, db::Value{}});
  util::io::File::set_fault_injector(&injector);
  EXPECT_THROW(WarehouseIO::save_snapshot(db, dir), util::io::CrashError);
  util::io::File::set_fault_injector(nullptr);

  db::Database restored;
  const auto loaded = WarehouseIO::load_snapshot(restored, dir);
  EXPECT_FALSE(loaded.empty());
  EXPECT_EQ(restored.get("ev_keep").row_count(), 1000u)  // pre-crash rows
      << "the previous good snapshot must survive a crashed rewrite";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mscope
