// mScopeCollector tests: ring-buffer backpressure semantics (exact
// counters), write-observer tailing (partial lines, rotation resync),
// shipper retry/backoff under injected transport faults, and — the
// subsystem's central promise — byte-identical parity between the streaming
// collection path and the post-hoc batch transform of the same run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "collector/log_tailer.h"
#include "collector/ring_buffer.h"
#include "collector/shipper.h"
#include "core/milliscope.h"
#include "core/online_collection.h"
#include "core/online_detector.h"
#include "logging/facility.h"
#include "log_bytes.h"
#include "oracle_parity.h"
#include "scratch_dir.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulation.h"
#include "transform/streaming.h"

namespace mscope {
namespace {

namespace fs = std::filesystem;
using collector::Batch;
using collector::LogTailer;
using collector::OverflowPolicy;
using collector::Record;
using collector::RingBuffer;
using collector::Shipper;
using util::msec;
using util::sec;
using util::SimTime;

Record rec(const std::string& data) {
  Record r;
  r.file = "test.log";
  r.data = data;
  return r;
}

// --- RingBuffer backpressure policies --------------------------------------

TEST(RingBuffer, BlockPolicyRefusesWhenFull) {
  RingBuffer buf(3, OverflowPolicy::kBlock);
  EXPECT_TRUE(buf.push(rec("a\n")));
  EXPECT_TRUE(buf.push(rec("b\n")));
  EXPECT_TRUE(buf.push(rec("c\n")));
  EXPECT_FALSE(buf.push(rec("d\n")));  // full: producer must retry
  EXPECT_FALSE(buf.push(rec("d\n")));
  EXPECT_EQ(buf.stats().pushed, 3u);
  EXPECT_EQ(buf.stats().blocked, 2u);
  EXPECT_EQ(buf.stats().dropped(), 0u);
  EXPECT_EQ(buf.size(), 3u);

  ASSERT_TRUE(buf.pop());
  EXPECT_TRUE(buf.push(rec("d\n")));  // space again
  EXPECT_EQ(buf.stats().pushed, 4u);
  // FIFO order preserved.
  EXPECT_EQ(buf.pop()->data, "b\n");
  EXPECT_EQ(buf.pop()->data, "c\n");
  EXPECT_EQ(buf.pop()->data, "d\n");
  EXPECT_FALSE(buf.pop());
  EXPECT_EQ(buf.stats().popped, 4u);
  EXPECT_EQ(buf.stats().peak_depth, 3u);
}

TEST(RingBuffer, DropOldestEvictsHeadAndCounts) {
  RingBuffer buf(3, OverflowPolicy::kDropOldest);
  for (const char* s : {"1\n", "2\n", "3\n", "4\n", "5\n"}) {
    EXPECT_TRUE(buf.push(rec(s)));
  }
  EXPECT_EQ(buf.stats().dropped_oldest, 2u);
  EXPECT_EQ(buf.stats().dropped_newest, 0u);
  EXPECT_EQ(buf.stats().blocked, 0u);
  EXPECT_EQ(buf.stats().pushed, 5u);
  // The freshest three survive.
  EXPECT_EQ(buf.pop()->data, "3\n");
  EXPECT_EQ(buf.pop()->data, "4\n");
  EXPECT_EQ(buf.pop()->data, "5\n");
}

TEST(RingBuffer, DropNewestDiscardsIncomingAndCounts) {
  RingBuffer buf(3, OverflowPolicy::kDropNewest);
  for (const char* s : {"1\n", "2\n", "3\n", "4\n", "5\n"}) {
    // push() reports acceptance even when discarding: the producer must not
    // retry a dropped record.
    EXPECT_TRUE(buf.push(rec(s)));
  }
  EXPECT_EQ(buf.stats().dropped_newest, 2u);
  EXPECT_EQ(buf.stats().dropped_oldest, 0u);
  EXPECT_EQ(buf.stats().pushed, 3u);
  // The oldest three survive.
  EXPECT_EQ(buf.pop()->data, "1\n");
  EXPECT_EQ(buf.pop()->data, "2\n");
  EXPECT_EQ(buf.pop()->data, "3\n");
}

TEST(RingBuffer, GrowsOnDemandLikeABoundedQueue) {
  // The ring allocates as it fills; against a std::deque bounded by the same
  // capacity, seeded runs of push / pop / clear must agree on every popped
  // record, the size, the free slots and every Stats field. Fill phases push
  // four times in five and drain phases once in four (and clear now and
  // then), so the ring grows while its head sits mid-array (wrap-around)
  // and overflows at its capacity.
  for (const OverflowPolicy policy :
       {OverflowPolicy::kBlock, OverflowPolicy::kDropOldest,
        OverflowPolicy::kDropNewest}) {
    for (const std::size_t capacity : {1, 3, 17, 100, 4096}) {
      for (const std::uint64_t seed : {1, 2}) {
        SCOPED_TRACE(std::string(collector::to_string(policy)) +
                     ", capacity " + std::to_string(capacity) + ", seed " +
                     std::to_string(seed));
        RingBuffer ring(capacity, policy);
        std::deque<Record> model;
        RingBuffer::Stats want;
        std::mt19937_64 rng(seed * 1000 + capacity);
        std::uint64_t next = 0;
        const std::size_t phase = 2 * capacity + 50;
        for (std::size_t op = 0; op < 4 * phase; ++op) {
          const bool filling = (op / phase) % 2 == 0;
          const std::uint64_t roll = rng() % 100;
          if (!filling && roll < 2) {
            ASSERT_EQ(ring.clear(), model.size());
            model.clear();
          } else if (roll < (filling ? 80u : 25u)) {
            Record r;
            r.file = "f" + std::to_string(next % 3);
            r.offset = next;
            r.data = std::string(next % 40, static_cast<char>('a' + next % 26));
            ++next;
            bool accepted = true;
            if (model.size() == capacity) {
              switch (policy) {
                case OverflowPolicy::kBlock:
                  ++want.blocked;
                  accepted = false;
                  break;
                case OverflowPolicy::kDropNewest:
                  ++want.dropped_newest;
                  break;
                case OverflowPolicy::kDropOldest:
                  ++want.dropped_oldest;
                  model.pop_front();
                  model.push_back(r);
                  ++want.pushed;
                  break;
              }
            } else {
              model.push_back(r);
              ++want.pushed;
            }
            want.peak_depth = std::max(want.peak_depth, model.size());
            ASSERT_EQ(ring.push(std::move(r)), accepted);
          } else {
            const std::optional<Record> got = ring.pop();
            ASSERT_EQ(got.has_value(), !model.empty());
            if (got) {
              ASSERT_EQ(got->file, model.front().file);
              ASSERT_EQ(got->offset, model.front().offset);
              ASSERT_EQ(got->data, model.front().data);
              model.pop_front();
              ++want.popped;
            }
          }
          ASSERT_EQ(ring.size(), model.size());
          ASSERT_EQ(ring.empty(), model.empty());
          ASSERT_EQ(ring.capacity(), capacity);
          ASSERT_EQ(ring.free_slots(), capacity - model.size());
          const RingBuffer::Stats& got = ring.stats();
          ASSERT_EQ(got.pushed, want.pushed);
          ASSERT_EQ(got.popped, want.popped);
          ASSERT_EQ(got.dropped_oldest, want.dropped_oldest);
          ASSERT_EQ(got.dropped_newest, want.dropped_newest);
          ASSERT_EQ(got.blocked, want.blocked);
          ASSERT_EQ(got.peak_depth, want.peak_depth);
        }
        EXPECT_EQ(want.peak_depth, capacity) << "the run should fill the ring";
      }
    }
  }
}

// --- LogTailer: write-observer tailing -------------------------------------

class TailerFixture : public ::testing::Test {
 protected:
  TailerFixture()
      : node_(sim_, {}),
        fac_(sim_, node_,
             {test::scratch_dir("tailer"),
              /*model_costs=*/false}) {}
  ~TailerFixture() override {
    fs::remove_all(test::scratch_dir("tailer"));
  }

  sim::Simulation sim_;
  sim::Node node_;
  logging::LoggingFacility fac_;
};

TEST_F(TailerFixture, CompleteLinesShipImmediately) {
  RingBuffer buf(64, OverflowPolicy::kBlock);
  LogTailer tailer(fac_, buf, "web1");
  auto& f = fac_.open("apache_access.log");
  fac_.write(f, "line one", 0);
  fac_.write(f, "line two", 0);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.pop()->data, "line one\n");
  EXPECT_EQ(buf.pop()->data, "line two\n");
  EXPECT_FALSE(tailer.has_pending());
}

TEST_F(TailerFixture, PartialLinesHeldUntilNewline) {
  RingBuffer buf(64, OverflowPolicy::kBlock);
  LogTailer tailer(fac_, buf, "web1");
  auto& f = fac_.open("sar_cpu.xml");
  // write_block appends without a newline: a tailer must not ship the
  // fragment until its line completes.
  fac_.write_block(f, "<row a=\"1\"", 0);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(tailer.has_pending());
  EXPECT_GE(tailer.stats().partial_holds, 1u);

  fac_.write_block(f, " b=\"2\"/>\nnext", 0);
  // The completed first line ships; "next" is still held.
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.pop()->data, "<row a=\"1\" b=\"2\"/>\n");
  EXPECT_TRUE(tailer.has_pending());

  // End of run: flush() emits the trailing fragment as-is.
  tailer.flush();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.pop()->data, "next");
  EXPECT_FALSE(tailer.has_pending());
}

TEST_F(TailerFixture, RecordsCarryFileOffsets) {
  RingBuffer buf(64, OverflowPolicy::kBlock);
  LogTailer tailer(fac_, buf, "web1");
  auto& f = fac_.open("a.log");
  fac_.write(f, "xx", 0);   // bytes [0, 3)
  fac_.write(f, "yyy", 0);  // bytes [3, 7)
  auto r1 = buf.pop();
  auto r2 = buf.pop();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->offset, 0u);
  EXPECT_EQ(r2->offset, 3u);
  EXPECT_EQ(r1->file, "a.log");
}

TEST_F(TailerFixture, RotationTriggersResync) {
  RingBuffer buf(64, OverflowPolicy::kBlock);
  LogTailer tailer(fac_, buf, "web1");
  auto& f = fac_.open("a.log");
  fac_.write(f, "before", 0);
  f.rotate();
  fac_.write(f, "after", 0);
  EXPECT_GE(tailer.stats().resyncs, 1u);
  auto r1 = buf.pop();
  auto r2 = buf.pop();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->generation, 0u);
  EXPECT_EQ(r2->generation, 1u);
  EXPECT_EQ(r2->offset, 0u);  // restarted within the new generation
  EXPECT_EQ(r2->data, "after\n");
}

TEST_F(TailerFixture, RotationBanksHeldFragmentsUnderTheOldGeneration) {
  // Regression (mScopeChaos satellite): a fragment held back waiting for
  // its newline used to be *cleared* by the rotation resync — the bytes
  // were already truncated out of the host file, so they vanished without
  // a trace. They must ship instead, tagged with the generation and offset
  // they were read under.
  RingBuffer buf(64, OverflowPolicy::kBlock);
  LogTailer tailer(fac_, buf, "web1");
  auto& f = fac_.open("a.log");
  fac_.write_block(f, "held-fragment", 0);  // no newline: held in the tailer
  f.rotate();
  fac_.write(f, "fresh", 0);
  EXPECT_GE(tailer.stats().rotations_banked, 1u);
  auto banked = buf.pop();
  auto fresh = buf.pop();
  ASSERT_TRUE(banked && fresh);
  EXPECT_EQ(banked->data, "held-fragment");
  EXPECT_EQ(banked->generation, 0u);
  EXPECT_EQ(banked->offset, 0u);
  EXPECT_EQ(fresh->data, "fresh\n");
  EXPECT_EQ(fresh->generation, 1u);
}

TEST_F(TailerFixture, DoubleRotationBetweenWritesLosesNothing) {
  // Regression (mScopeChaos satellite): a rotation *burst* advances the
  // generation by more than one between two observed writes. The old
  // handling compared generations with == upstream assumptions that broke
  // on jumps; the tailer must bank at every observation point and resync
  // to whatever generation the next write lands in.
  RingBuffer buf(64, OverflowPolicy::kBlock);
  LogTailer tailer(fac_, buf, "web1");
  auto& f = fac_.open("a.log");
  fac_.write_block(f, "gen0", 0);
  f.rotate();
  fac_.write_block(f, "gen1", 0);  // banks "gen0", holds "gen1"
  f.rotate();
  f.rotate();                      // generation jumps 1 -> 3
  fac_.write(f, "gen3", 0);        // banks "gen1", ships "gen3\n"
  EXPECT_EQ(tailer.stats().rotations_banked, 2u);
  auto r0 = buf.pop();
  auto r1 = buf.pop();
  auto r3 = buf.pop();
  ASSERT_TRUE(r0 && r1 && r3);
  EXPECT_EQ(r0->data, "gen0");
  EXPECT_EQ(r0->generation, 0u);
  EXPECT_EQ(r1->data, "gen1");
  EXPECT_EQ(r1->generation, 1u);
  EXPECT_EQ(r3->data, "gen3\n");
  EXPECT_EQ(r3->generation, 3u);
  EXPECT_EQ(r3->offset, 0u);
  EXPECT_FALSE(tailer.has_pending());
}

TEST_F(TailerFixture, BlockedRecordsRecoverViaPump) {
  RingBuffer buf(1, OverflowPolicy::kBlock);
  LogTailer tailer(fac_, buf, "web1");
  auto& f = fac_.open("a.log");
  fac_.write(f, "one", 0);
  fac_.write(f, "two", 0);  // buffer full: held in the tailer
  EXPECT_GE(tailer.stats().blocked, 1u);
  EXPECT_TRUE(tailer.has_pending());

  EXPECT_EQ(buf.pop()->data, "one\n");
  tailer.pump();  // consumer drained: retry succeeds
  EXPECT_EQ(buf.pop()->data, "two\n");
  EXPECT_FALSE(tailer.has_pending());
  EXPECT_EQ(tailer.stats().records, 2u);
}

// --- Shipper: batching, retry + exponential backoff ------------------------

struct ShipperHarness {
  sim::Simulation sim;
  sim::Node src{sim, {}};
  sim::Node dst{sim, {}};
  sim::Network net{sim, {}};
  RingBuffer buf{256, OverflowPolicy::kBlock};
  std::vector<Batch> delivered;
  std::vector<SimTime> delivered_at;

  Shipper make(Shipper::Config cfg) {
    const auto src_wire = net.register_node(&src);
    const auto dst_wire = net.register_node(&dst);
    return Shipper(
        sim, net, src, src_wire, dst_wire, buf,
        [this](const Batch& b, bool) {
          delivered.push_back(b);
          delivered_at.push_back(sim.now());
        },
        "web1", cfg);
  }
};

TEST(Shipper, BatchesRespectSizeCap) {
  ShipperHarness h;
  Shipper::Config cfg;
  cfg.interval = msec(10);
  cfg.max_batch_records = 4;
  auto shipper = h.make(cfg);
  for (int i = 0; i < 10; ++i) h.buf.push(rec("r\n"));
  shipper.start();
  h.sim.run_until(msec(100));
  // 10 records over stop-and-wait ticks of <=4: 4 + 4 + 2.
  ASSERT_EQ(h.delivered.size(), 3u);
  EXPECT_EQ(h.delivered[0].records.size(), 4u);
  EXPECT_EQ(h.delivered[1].records.size(), 4u);
  EXPECT_EQ(h.delivered[2].records.size(), 2u);
  EXPECT_EQ(h.delivered[0].node, "web1");
  EXPECT_EQ(shipper.stats().records, 10u);
  EXPECT_GT(shipper.stats().cpu_charged, 0);
}

TEST(Shipper, RetriesWithExponentialBackoff) {
  ShipperHarness h;
  Shipper::Config cfg;
  cfg.interval = msec(10);
  cfg.backoff_base = msec(10);
  cfg.backoff_factor = 2.0;
  auto shipper = h.make(cfg);
  h.buf.push(rec("payload\n"));

  // Fail the first three attempts of the first batch.
  std::vector<SimTime> attempt_times;
  shipper.set_fault_injector(
      [&](SimTime now, std::uint64_t seq, int attempt) {
        if (seq == 0) attempt_times.push_back(now);
        return seq == 0 && attempt < 3;
      });
  shipper.start();
  h.sim.run_until(sec(2));

  EXPECT_EQ(shipper.stats().send_failures, 3u);
  EXPECT_EQ(shipper.stats().retries, 3u);
  EXPECT_EQ(shipper.stats().abandoned, 0u);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].records[0].data, "payload\n");

  // Backoff doubles: attempts at t0, t0+10ms, t0+30ms, t0+70ms.
  ASSERT_EQ(attempt_times.size(), 4u);
  EXPECT_EQ(attempt_times[1] - attempt_times[0], msec(10));
  EXPECT_EQ(attempt_times[2] - attempt_times[1], msec(20));
  EXPECT_EQ(attempt_times[3] - attempt_times[2], msec(40));
}

TEST(Shipper, GivesUpAfterMaxRetriesAndMovesOn) {
  ShipperHarness h;
  Shipper::Config cfg;
  cfg.interval = msec(10);
  cfg.backoff_base = msec(1);
  cfg.max_retries = 2;
  cfg.max_batch_records = 1;  // keep the two records in separate batches
  auto shipper = h.make(cfg);
  h.buf.push(rec("doomed\n"));
  h.buf.push(rec("fine\n"));

  // Batch 0 never gets through; batch 1 is clean.
  shipper.set_fault_injector([](SimTime, std::uint64_t seq, int) {
    return seq == 0;
  });
  shipper.start();
  h.sim.run_until(sec(1));

  EXPECT_EQ(shipper.stats().abandoned, 1u);
  EXPECT_EQ(shipper.stats().send_failures, 3u);  // attempts 0, 1, 2
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].records[0].data, "fine\n");
}

TEST(Shipper, FlushRecoversInFlightBatch) {
  ShipperHarness h;
  Shipper::Config cfg;
  cfg.interval = msec(10);
  cfg.backoff_base = sec(5);  // retry lands far beyond the "run"
  auto shipper = h.make(cfg);
  h.buf.push(rec("stuck\n"));
  shipper.set_fault_injector(
      [](SimTime, std::uint64_t, int attempt) { return attempt == 0; });
  shipper.start();
  h.sim.run_until(msec(50));  // clock stops while the batch awaits its retry
  EXPECT_TRUE(h.delivered.empty());

  shipper.flush_now();  // out-of-band recovery: nothing may be lost
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].records[0].data, "stuck\n");
}

TEST(Shipper, CollectorTrafficStaysOffTheTap) {
  ShipperHarness h;
  sim::MessageTap tap;
  h.net.set_tap(&tap);
  Shipper::Config cfg;
  cfg.interval = msec(10);
  auto shipper = h.make(cfg);
  h.buf.push(rec("r\n"));
  shipper.start();
  h.sim.run_until(msec(100));
  ASSERT_EQ(h.delivered.size(), 1u);
  // Log shipping is out-of-band traffic: SysViz's port mirror must not see
  // it as part of the request flow.
  EXPECT_TRUE(tap.messages().empty());
}

// --- Streaming parity: the tentpole acceptance test ------------------------

void expect_identical_databases(const db::Database& a, const db::Database& b) {
  ASSERT_EQ(a.table_names(), b.table_names());
  for (const auto& name : a.table_names()) {
    const db::Table& ta = a.get(name);
    const db::Table& tb = b.get(name);
    ASSERT_EQ(ta.schema(), tb.schema()) << "schema mismatch in " << name;
    ASSERT_EQ(ta.row_count(), tb.row_count()) << "row count in " << name;
    for (std::size_t r = 0; r < ta.row_count(); ++r) {
      for (std::size_t c = 0; c < ta.column_count(); ++c) {
        ASSERT_TRUE(test::same_value(ta.at(r, c), tb.at(r, c)))
            << name << " differs at row " << r << " col "
            << ta.schema()[c].name;
      }
    }
  }
}

class StreamingParityFixture : public ::testing::Test {
 protected:
  static fs::path log_dir() { return test::scratch_dir("collector_parity"); }

  static void SetUpTestSuite() {
    core::TestbedConfig cfg;
    cfg.workload = 1200;
    cfg.duration = sec(12);
    cfg.log_dir = log_dir();
    cfg.scenario_a = core::ScenarioA{};

    exp_ = new core::Experiment(cfg);
    detector_ = new core::OnlineVsbDetector();
    const_cast<workload::ClientPool&>(exp_->testbed().clients())
        .set_on_complete(
            [](const sim::RequestPtr& r) { detector_->on_complete(r); });

    db_stream_ = new db::Database();
    online_ = exp_->start_online(*db_stream_, detector_).release();

    // Snapshot mid-run progress observations right at the end of the run,
    // before the out-of-band drain tops the warehouse up.
    exp_->testbed().simulation().schedule_at(cfg.duration - 1, [] {
      rows_before_drain_ = online_->transformer().stats().rows_live;
      samples_before_end_ = detector_->queue_samples().size();
      const db::Table* sar = db_stream_->find("res_sarxml_cpu_db1");
      sar_xml_rows_before_drain_ = sar != nullptr ? sar->row_count() : 0;
    });

    exp_->run();
    online_->finish();
    matched_bytes_ = test::matched_log_bytes(log_dir());

    // A batch load of the same logs: streaming must reproduce it exactly,
    // and its tables must equal the regex/XML oracle's parse of each file.
    db_batch_ = new db::Database();
    exp_->load_warehouse(*db_batch_);
  }

  static void TearDownTestSuite() {
    delete online_;
    delete exp_;
    delete detector_;
    delete db_stream_;
    delete db_batch_;
    fs::remove_all(log_dir());
  }

  static core::Experiment* exp_;
  static core::OnlineVsbDetector* detector_;
  static core::OnlineCollection* online_;
  static db::Database* db_stream_;
  static db::Database* db_batch_;
  static std::uint64_t rows_before_drain_;
  static std::size_t sar_xml_rows_before_drain_;
  static std::size_t samples_before_end_;
  static std::uint64_t matched_bytes_;
};

core::Experiment* StreamingParityFixture::exp_ = nullptr;
core::OnlineVsbDetector* StreamingParityFixture::detector_ = nullptr;
core::OnlineCollection* StreamingParityFixture::online_ = nullptr;
db::Database* StreamingParityFixture::db_stream_ = nullptr;
db::Database* StreamingParityFixture::db_batch_ = nullptr;
std::uint64_t StreamingParityFixture::rows_before_drain_ = 0;
std::size_t StreamingParityFixture::sar_xml_rows_before_drain_ = 0;
std::size_t StreamingParityFixture::samples_before_end_ = 0;
std::uint64_t StreamingParityFixture::matched_bytes_ = 0;

TEST_F(StreamingParityFixture, StreamedWarehouseIsByteIdenticalToBatch) {
  expect_identical_databases(*db_stream_, *db_batch_);
}

TEST_F(StreamingParityFixture, BatchLoadMatchesTheOracle) {
  // Every dynamic table of the batch load equals the oracle's parse of its
  // file — so the streamed warehouse (equal to the batch load) does too.
  EXPECT_GE(test::expect_run_matches_oracle(*db_batch_, log_dir()), 10u);
}

TEST_F(StreamingParityFixture, NothingDroppedUnderBlockPolicy) {
  const auto t = online_->totals();
  EXPECT_EQ(t.dropped, 0u);
  EXPECT_EQ(t.abandoned, 0u);
  EXPECT_GT(t.records_tailed, 1000u);
  EXPECT_GT(t.batches, 100u);
}

TEST_F(StreamingParityFixture, WarehouseFillsWhileRunning) {
  // Most rows must be in mScopeDB *before* the end-of-run drain — that is
  // what makes the collection online rather than batch-at-the-end.
  const auto& st = online_->transformer().stats();
  EXPECT_GT(rows_before_drain_, st.rows_live / 2);
  EXPECT_GT(st.parse_passes, 50u);
  // Linear parse work: every byte shipped into a matched file is parsed
  // exactly once, however many parse ticks the run had.
  EXPECT_EQ(st.parsed_bytes, matched_bytes_);
  EXPECT_GT(online_->pipeline().root_stats().first_batch_at, 0);
  EXPECT_LT(online_->pipeline().root_stats().first_batch_at, sec(2));
}

TEST_F(StreamingParityFixture, SarXmlRowsArriveWhileRunning) {
  // sar XML streams like the line formats: its samples are in the
  // warehouse before the end-of-run drain, not only after finalize().
  EXPECT_GT(sar_xml_rows_before_drain_, 0u);
}

TEST_F(StreamingParityFixture, QueueSignalReachesDetectorMidRun) {
  // Acceptance: the live queue-length signal must reach the detector before
  // the end of the run.
  ASSERT_GT(samples_before_end_, 0u);
  for (const auto& s : detector_->queue_samples()) {
    EXPECT_LT(s.time, sec(12));
  }
  // Scenario A queues requests during the flush stall. The front tier sees
  // every in-flight request (push-back), and the database's own live queue
  // must spike while the disk is saturated.
  EXPECT_GT(detector_->peak_queue_depth(), 5.0);
  EXPECT_EQ(detector_->peak_queue_source(), "ev_apache_web1");
  double db_peak = 0;
  for (const auto& s : detector_->queue_samples()) {
    if (s.source == "ev_mysql_db1") db_peak = std::max(db_peak, s.depth);
  }
  EXPECT_GT(db_peak, 3.0);
  // And the response-time alarm still opens during the episode.
  ASSERT_FALSE(detector_->alarms().empty());
  EXPECT_GT(detector_->alarms().front().opened_at, sec(8));
}

TEST_F(StreamingParityFixture, CollectionOverheadIsModeled) {
  const auto t = online_->totals();
  EXPECT_GT(t.shipping_cpu, 0);
  // The collector machine, not the monitored nodes, pays for the transform.
  EXPECT_GT(online_->pipeline().root_stats().bytes, 100'000u);
  EXPECT_GT(online_->pipeline().root_node().counters().net_rx, 100'000u);
}

// --- Backpressure under a deliberately tiny buffer -------------------------

TEST(OnlineCollectionBackpressure, DropNewestLosesRecordsButSurvives) {
  core::TestbedConfig cfg;
  cfg.workload = 600;
  cfg.duration = sec(5);
  cfg.log_dir = test::scratch_dir("collector_drop");
  cfg.capture_messages = false;

  core::Testbed testbed(cfg);
  db::Database db;
  core::OnlineCollection::Config oc;
  oc.buffer_capacity = 4;  // deliberately starved
  oc.policy = collector::OverflowPolicy::kDropNewest;
  oc.shipper.interval = msec(200);  // slow drain -> guaranteed overflow
  core::OnlineCollection online(testbed, db, nullptr, oc);
  testbed.run();
  online.finish();
  fs::remove_all(cfg.log_dir);

  const auto t = online.totals();
  EXPECT_GT(t.dropped, 0u);   // loss is observable, not silent
  EXPECT_EQ(t.blocked, 0u);   // and attributed to the right policy
  // The pipeline keeps working on what survived.
  EXPECT_GT(online.transformer().stats().rows_live, 100u);
  EXPECT_TRUE(db.exists("ev_apache_web1"));
}

TEST(OnlineCollectionBackpressure, BlockPolicyKeepsParityEvenWhenStarved) {
  core::TestbedConfig cfg;
  cfg.workload = 400;
  cfg.duration = sec(5);
  cfg.log_dir = test::scratch_dir("collector_block");
  cfg.capture_messages = false;

  core::Testbed testbed(cfg);
  db::Database db_stream;
  core::OnlineCollection::Config oc;
  oc.buffer_capacity = 2;  // blocks constantly...
  oc.policy = collector::OverflowPolicy::kBlock;
  oc.shipper.interval = msec(200);
  oc.record_metadata = false;
  core::OnlineCollection online(testbed, db_stream, nullptr, oc);
  testbed.run();
  online.finish();

  const auto t = online.totals();
  EXPECT_GT(t.blocked, 0u);
  EXPECT_EQ(t.dropped, 0u);  // ...but never loses anything

  db::Database db_batch;
  transform::DataTransformer transformer;
  transformer.run(cfg.log_dir, db_batch);
  fs::remove_all(cfg.log_dir);
  // Dynamic tables still match the batch transform exactly.
  for (const auto& name : db_batch.table_names()) {
    if (name.rfind("ms_", 0) == 0) continue;  // metadata disabled above
    SCOPED_TRACE(name);
    ASSERT_TRUE(db_stream.exists(name));
    EXPECT_EQ(db_stream.get(name).row_count(), db_batch.get(name).row_count());
  }
}

// --- StreamingTransformer schema widening ----------------------------------

TEST(StreamingTransformer, WidensSchemaAcrossChunks) {
  db::Database db;
  transform::StreamingTransformer st(db);
  transform::Declaration d;
  d.parser_id = "token_lines";
  d.file_name = "widen.log";
  d.source = "test";
  d.table_prefix = "ev_widen";
  d.monitor_name = "widen";
  d.tokens.push_back({R"re(^(\S+) (\S+)$)re", {"a", "b"}});
  st.declarations().add(d);

  // First chunk: column b is all-integer -> inferred Int.
  st.ingest("n1", "widen.log", "x 1\ny 2\n");
  st.parse_all();
  ASSERT_TRUE(db.exists("ev_widen_n1"));
  EXPECT_EQ(db.get("ev_widen_n1").schema()[1].type, db::DataType::kInt);

  // Later chunk widens b to Double; earlier rows must be re-typed.
  st.ingest("n1", "widen.log", "z 2.5\n");
  st.parse_all();
  st.finalize();
  const db::Table& t = db.get("ev_widen_n1");
  EXPECT_EQ(t.schema()[1].type, db::DataType::kDouble);
  ASSERT_EQ(t.row_count(), 3u);
  EXPECT_DOUBLE_EQ(std::get<double>(t.at(0, 1)), 1.0);
  EXPECT_DOUBLE_EQ(std::get<double>(t.at(2, 1)), 2.5);
  EXPECT_GE(st.stats().schema_rebuilds, 1u);
  // Load catalog recorded once, with the final row count.
  EXPECT_EQ(db.get(db::Database::kLoadCatalogTable).row_count(), 1u);
}

void declare_widen_log(transform::StreamingTransformer& st) {
  transform::Declaration d;
  d.parser_id = "token_lines";
  d.file_name = "widen.log";
  d.source = "test";
  d.table_prefix = "ev_widen";
  d.monitor_name = "widen";
  d.tokens.push_back({R"re(^(\S+) (\S+)$)re", {"a", "b"}});
  st.declarations().add(d);
}

TEST(StreamingTransformer, InexactWideningRebuildsFromRawText) {
  db::Database db;
  transform::StreamingTransformer st(db);
  declare_widen_log(st);
  std::vector<std::string> announced;
  st.set_row_observer([&announced](const std::string&,
                                   const db::ColumnBatch& batch,
                                   std::size_t first, std::size_t end) {
    for (std::size_t r = first; r < end; ++r) {
      announced.push_back(db::as_text(batch.cell(r, 0)));
    }
  });

  // "042" reads as Int 42: re-rendering it after a widening to Text would
  // give "42", so the widening cannot apply in place.
  st.ingest("n1", "widen.log", "x 042\ny 7\n");
  st.parse_all();
  ASSERT_TRUE(db.exists("ev_widen_n1"));
  EXPECT_EQ(db.get("ev_widen_n1").schema()[1].type, db::DataType::kInt);

  st.ingest("n1", "widen.log", "z abc\nw 8");
  st.finalize();
  const db::Table& t = db.get("ev_widen_n1");
  EXPECT_EQ(t.schema()[1].type, db::DataType::kText);
  ASSERT_EQ(t.row_count(), 4u);
  EXPECT_EQ(db::as_text(t.at(0, 1)), "042");  // rebuilt from the raw bytes
  EXPECT_EQ(db::as_text(t.at(2, 1)), "abc");
  EXPECT_EQ(announced, (std::vector<std::string>{"x", "y", "z", "w"}));
  EXPECT_EQ(st.stats().rows_live, 4u);
  EXPECT_EQ(st.stats().schema_rebuilds - st.stats().inplace_widens, 1u);

  // Identical to streaming the same bytes in one piece.
  db::Database one_piece;
  transform::StreamingTransformer st1(one_piece);
  declare_widen_log(st1);
  st1.ingest("n1", "widen.log", "x 042\ny 7\nz abc\nw 8");
  st1.finalize();
  expect_identical_databases(db, one_piece);
}

TEST(StreamingTransformer, TwoFilesOneTableIsRejected) {
  // Two declarations share a table prefix: the second file to yield rows
  // must not take over (or merge into) the first file's table.
  db::Database db;
  transform::StreamingTransformer st(db);
  transform::Declaration d;
  d.parser_id = "token_lines";
  d.source = "test";
  d.table_prefix = "res_shared";
  d.monitor_name = "shared";
  d.file_name = "a.log";
  d.tokens = {{R"re(^(\d+) (\w+)$)re", {"n", "word"}}};
  st.declarations().add(d);
  d.file_name = "b.log";
  d.tokens = {{R"re(^(\w+)=(\w+)$)re", {"k", "v"}}};
  st.declarations().add(d);

  st.ingest("web1", "a.log", "7 hello\n8 world\n");
  st.parse_all();
  ASSERT_EQ(db.get("res_shared_web1").row_count(), 2u);
  st.ingest("web1", "b.log", "k=v\n");
  try {
    st.parse_all();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* part : {"web1/a.log", "web1/b.log", "res_shared_web1"}) {
      EXPECT_NE(what.find(part), std::string::npos) << what;
    }
  }
  // a.log's rows are untouched.
  EXPECT_EQ(db.get("res_shared_web1").row_count(), 2u);
  EXPECT_EQ(st.stats().rows_live, 2u);
}

// --- abandoned batches: the gap must be surfaced, never silently misparsed --

TEST(OnlineCollectionLoss, OffsetJumpSurfacesAsGapAtTheRoot) {
  core::TestbedConfig cfg;
  cfg.log_dir = test::scratch_dir("collector_gap");
  cfg.capture_messages = false;
  core::Testbed testbed(cfg);
  db::Database db;
  core::OnlineCollection online(testbed, db, nullptr, {});
  fleet::FleetCollection::Channel* web1 =
      online.pipeline().channel_by_node("web1");
  ASSERT_NE(web1, nullptr);

  // Hands web1's shipper one record and drains it to the root out of band.
  const auto ship = [web1](std::uint64_t offset, const std::string& data) {
    Record r;
    r.file = "gap.log";
    r.offset = offset;
    r.data = data;
    ASSERT_TRUE(web1->buffer->push(std::move(r)));
    web1->shipper->flush_now();
  };
  ship(0, "line one\n");
  // Bytes 9..17 were abandoned upstream; the next record lands at 18.
  ship(18, "line three\n");

  const auto& root = online.pipeline().root_stats();
  auto& st = online.transformer();
  EXPECT_EQ(root.gaps, 1u);
  EXPECT_EQ(root.gap_bytes, 9u);
  EXPECT_EQ(st.stats().gaps, 1u);
  EXPECT_EQ(st.stats().gap_bytes, 9u);
  ASSERT_EQ(st.warnings().size(), 1u);
  EXPECT_NE(st.warnings().front().find("web1/gap.log"), std::string::npos);
  EXPECT_NE(st.warnings().front().find("9 byte(s)"), std::string::npos);

  // In-order delivery reports nothing.
  ship(29, "line four\n");
  EXPECT_EQ(root.gaps, 1u);
  fs::remove_all(cfg.log_dir);
}

TEST(OnlineCollectionLoss, AbandonedBatchShowsUpInRunTotals) {
  core::TestbedConfig cfg;
  cfg.workload = 600;
  cfg.duration = sec(5);
  cfg.log_dir = test::scratch_dir("collector_abandon");
  cfg.capture_messages = false;

  core::Testbed testbed(cfg);
  db::Database db;
  core::OnlineCollection::Config oc;
  oc.shipper.max_retries = 1;
  oc.shipper.backoff_base = msec(1);
  core::OnlineCollection online(testbed, db, nullptr, oc);
  // Batch #3 of every channel is undeliverable: after max_retries the
  // shipper abandons it and the stream continues with a hole.
  for (const auto& ch : online.pipeline().channels()) {
    ch.shipper->set_fault_injector(
        [](SimTime, std::uint64_t seq, int) { return seq == 3; });
  }
  testbed.run();
  online.finish();
  fs::remove_all(cfg.log_dir);

  const auto t = online.totals();
  EXPECT_GT(t.abandoned, 0u);          // the shipper admits the loss...
  EXPECT_GT(t.gaps, 0u);               // ...the root locates it...
  EXPECT_GT(t.gap_bytes, 0u);
  EXPECT_LE(t.gaps, t.abandoned * 4);  // one abandoned batch, few files
  // ...and the transformer reports instead of silently misparsing.
  EXPECT_GE(online.transformer().warnings().size(), t.gaps);
  EXPECT_GT(online.transformer().stats().rows_live, 100u)
      << "the pipeline keeps working on what survived";
}

}  // namespace
}  // namespace mscope
