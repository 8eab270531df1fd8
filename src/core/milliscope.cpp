#include "core/milliscope.h"

#include <stdexcept>

namespace mscope::core {

Experiment::Experiment(TestbedConfig cfg)
    : testbed_(std::make_unique<Testbed>(std::move(cfg))) {}

void Experiment::run() {
  testbed_->run();
  ran_ = true;
}

transform::DataTransformer::Report Experiment::load_warehouse(
    db::Database& db) {
  return load_warehouse(db, transform::DataTransformer::Config{});
}

transform::DataTransformer::Report Experiment::load_warehouse(
    db::Database& db, transform::DataTransformer::Config tc) {
  if (!ran_)
    throw std::logic_error("Experiment::load_warehouse: run() first");
  const auto& cfg = testbed_->config();
  db.record_experiment("run", "RUBBoS n-tier experiment", cfg.workload,
                       cfg.duration);
  for (int tier = 0; tier < Testbed::kTiers; ++tier) {
    for (int r = 0; r < testbed_->replicas(tier); ++r) {
      db.record_node(Testbed::replica_name(tier, r),
                     Testbed::services()[static_cast<std::size_t>(tier)],
                     cfg.cores_per_node);
    }
  }
  transform::DataTransformer transformer(tc);
  return transformer.run(cfg.log_dir, db);
}

std::unique_ptr<OnlineCollection> Experiment::start_online(
    db::Database& db, OnlineVsbDetector* detector,
    OnlineCollection::Config cfg) {
  if (ran_)
    throw std::logic_error("Experiment::start_online: attach before run()");
  return std::make_unique<OnlineCollection>(*testbed_, db, detector, cfg);
}

namespace {
constexpr const char* kEventPrefixes[4] = {"ev_apache", "ev_tomcat",
                                           "ev_cjdbc", "ev_mysql"};
}  // namespace

std::vector<std::string> Experiment::event_tables_of(int tier) const {
  std::vector<std::string> out;
  for (int r = 0; r < testbed_->replicas(tier); ++r) {
    out.push_back(std::string(kEventPrefixes[tier]) + "_" +
                  Testbed::replica_name(tier, r));
  }
  return out;
}

std::vector<std::string> Experiment::collectl_tables_of(int tier) const {
  std::vector<std::string> out;
  for (int r = 0; r < testbed_->replicas(tier); ++r) {
    out.push_back("res_collectl_" + Testbed::replica_name(tier, r));
  }
  return out;
}

std::vector<std::string> Experiment::event_tables() const {
  std::vector<std::string> out;
  for (int tier = 0; tier < Testbed::kTiers; ++tier) {
    out.push_back(event_tables_of(tier).front());
  }
  return out;
}

std::vector<std::string> Experiment::collectl_tables() const {
  std::vector<std::string> out;
  for (int tier = 0; tier < Testbed::kTiers; ++tier) {
    out.push_back(collectl_tables_of(tier).front());
  }
  return out;
}

Diagnoser::Tables Experiment::tables() const {
  Diagnoser::Tables t;
  for (int tier = 0; tier < Testbed::kTiers; ++tier) {
    t.event_tables.push_back(event_tables_of(tier));
    t.collectl_tables.push_back(collectl_tables_of(tier));
    std::vector<std::string> nodes;
    for (int r = 0; r < testbed_->replicas(tier); ++r) {
      nodes.push_back(Testbed::replica_name(tier, r));
    }
    t.nodes.push_back(std::move(nodes));
  }
  return t;
}

Diagnoser Experiment::diagnoser(const db::Catalog& db) const {
  return Diagnoser(db, tables());
}

sysviz::Reconstructor::Result Experiment::sysviz_reconstruct(
    util::SimTime quantum) const {
  sysviz::Reconstructor::Config rc;
  rc.quantum = quantum;
  sysviz::Reconstructor recon(rc);
  for (int tier = 0; tier < Testbed::kTiers; ++tier) {
    for (int r = 0; r < testbed_->replicas(tier); ++r) {
      recon.set_node_tier(testbed_->tier_wire_id(tier, r), tier);
    }
  }
  return recon.reconstruct(testbed_->tap().messages(), Testbed::kTiers);
}

}  // namespace mscope::core
