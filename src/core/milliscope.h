#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/online_collection.h"
#include "core/online_detector.h"
#include "core/testbed.h"
#include "db/database.h"
#include "sysviz/reconstructor.h"
#include "transform/pipeline.h"

namespace mscope::core {

/// The milliScope façade: one object that owns the whole workflow of the
/// paper —
///   run the instrumented n-tier system -> collect the native logs ->
///   transform them through mScopeDataTransformer -> load mScopeDB ->
///   analyze (PIT response time, queue lengths, push-back, diagnosis).
///
/// Typical use (see examples/quickstart.cpp):
///   Experiment exp(cfg);
///   exp.run();
///   db::Database db;
///   exp.load_warehouse(db);
///   auto diagnoses = exp.diagnoser(db).diagnose(cfg.duration);
class Experiment {
 public:
  explicit Experiment(TestbedConfig cfg);

  [[nodiscard]] Testbed& testbed() { return *testbed_; }
  [[nodiscard]] const TestbedConfig& config() const {
    return testbed_->config();
  }

  /// Runs the simulated testbed for the configured duration.
  void run();

  /// Transforms every collected log and loads it into `db`, also recording
  /// the experiment/node metadata in the static tables.
  transform::DataTransformer::Report load_warehouse(db::Database& db);
  transform::DataTransformer::Report load_warehouse(
      db::Database& db, transform::DataTransformer::Config tc);

  /// Attaches the streaming collection path (mScopeCollector): logs stream
  /// into `db` *while the experiment runs* and, if `detector` is given, a
  /// live queue-depth signal feeds it mid-run. Call before run(); call
  /// finish() on the returned object after run(). With the default block
  /// policy the streamed warehouse is byte-identical to load_warehouse().
  [[nodiscard]] std::unique_ptr<OnlineCollection> start_online(
      db::Database& db, OnlineVsbDetector* detector = nullptr,
      OnlineCollection::Config cfg = {});

  /// Standard dynamic-table names for this deployment. The flat forms
  /// return one table per tier (the first replica) — convenient for the
  /// default single-node topology; with replicated tiers use `tables()` or
  /// the per-tier form.
  [[nodiscard]] std::vector<std::string> event_tables() const;
  [[nodiscard]] std::vector<std::string> collectl_tables() const;
  /// All replicas' event tables of one tier.
  [[nodiscard]] std::vector<std::string> event_tables_of(int tier) const;
  [[nodiscard]] std::vector<std::string> collectl_tables_of(int tier) const;
  [[nodiscard]] Diagnoser::Tables tables() const;

  /// A diagnosis engine bound to this deployment's tables.
  [[nodiscard]] Diagnoser diagnoser(const db::Catalog& db) const;

  /// Runs the SysViz stand-in over the passive capture (paper Fig. 9).
  [[nodiscard]] sysviz::Reconstructor::Result sysviz_reconstruct(
      util::SimTime quantum = util::kMsec) const;

 private:
  std::unique_ptr<Testbed> testbed_;
  bool ran_ = false;
};

}  // namespace mscope::core
