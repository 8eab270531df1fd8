// Durability tests: WAL framing/replay semantics, the checkpoint protocol,
// and the crash-point matrix — a deterministic mutation driver is killed by
// the fault injector at *every* physical write/flush/rename the durability
// layer performs (plus a torn-write variant of each), and after each kill
// WarehouseIO::recover must rebuild the warehouse cell-identical to the
// uncrashed run at the last durable group commit.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/milliscope.h"
#include "core/online_collection.h"
#include "crash_at_injector.h"
#include "db/database.h"
#include "db/wal/wal.h"
#include "scratch_dir.h"
#include "transform/warehouse_io.h"
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
/// (create, insert, widen, drop + recreate, static-table rows), group
/// commits, and two mid-run checkpoints. Records the rendered warehouse at
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
