#include "workload/client.h"

#include <stdexcept>

namespace mscope::workload {

ClientPool::ClientPool(sim::Simulation& sim, sim::Network& net,
                       sim::Node& client_node, sim::Server& entry, Config cfg)
    : ClientPool(sim, net, client_node, std::vector<sim::Server*>{&entry},
                 cfg) {}

ClientPool::ClientPool(sim::Simulation& sim, sim::Network& net,
                       sim::Node& client_node,
                       std::vector<sim::Server*> entries, Config cfg)
    : sim_(sim),
      net_(net),
      client_node_(client_node),
      entries_(std::move(entries)),
      cfg_(cfg) {
  if (entries_.empty())
    throw std::invalid_argument("ClientPool: no entry servers");
  wire_id_ = net_.register_node(&client_node_);
  conn_base_ = net_.alloc_connections(static_cast<std::uint64_t>(cfg_.users));
  sessions_.reserve(static_cast<std::size_t>(cfg_.users));
  for (int s = 0; s < cfg_.users; ++s) {
    sessions_.emplace_back(cfg_.seed, static_cast<std::uint64_t>(s) + 1000);
  }
}

void ClientPool::start() {
  // Each session begins mid-think: first sends are exponentially delayed,
  // so the aggregate arrival process is stationary from t = 0 rather than
  // bursting during a warm-up ramp.
  for (int s = 0; s < cfg_.users; ++s) {
    auto& sess = sessions_[static_cast<std::size_t>(s)];
    const auto delay = static_cast<SimTime>(
        sess.rng.exponential(static_cast<double>(cfg_.mean_think)));
    sim_.schedule(delay, [this, s] { send(s); });
  }
}

void ClientPool::think_then_send(int s) {
  auto& sess = sessions_[static_cast<std::size_t>(s)];
  const auto think = static_cast<SimTime>(
      sess.rng.exponential(static_cast<double>(cfg_.mean_think)));
  sim_.schedule(think, [this, s] { send(s); });
}

void ClientPool::send(int s) {
  if (cfg_.stop_at > 0 && sim_.now() >= cfg_.stop_at) return;
  auto& sess = sessions_[static_cast<std::size_t>(s)];
  sess.current_interaction =
      Rubbos::next_interaction(sess.current_interaction, sess.rng);
  const Interaction& ix =
      Rubbos::interactions()[static_cast<std::size_t>(
          sess.current_interaction)];

  auto req = std::make_shared<sim::Request>();
  req->id = next_req_id_++;
  req->interaction = sess.current_interaction;
  req->session = s;
  req->demands =
      Rubbos::make_demands(ix, sess.rng, cfg_.buffer_miss_multiplier);
  req->records.resize(Rubbos::kTiers);
  req->client_send = sim_.now();
  ++issued_;

  // The closures carry only (session, request): the entry server and the
  // session's connection follow from the session index.
  const auto wire = Rubbos::wire_sizes(Rubbos::kApache);
  const std::uint64_t conn = conn_base_ + static_cast<std::uint64_t>(s);
  const sim::Server& entry = entry_of(s);
  net_.send(wire_id_, entry.wire_id(), conn, req->id,
            sim::Message::Kind::kRequest, wire.request, [this, s, req] {
    entry_of(s).accept(req, [this, s, req] {
      const auto w = Rubbos::wire_sizes(Rubbos::kApache);
      net_.send(entry_of(s).wire_id(), wire_id_,
                conn_base_ + static_cast<std::uint64_t>(s), req->id,
                sim::Message::Kind::kResponse, w.response, [this, s, req] {
        req->client_recv = sim_.now();
        completed_.push_back(req);
        if (on_complete_) on_complete_(req);
        think_then_send(s);
      });
    });
  });
}

}  // namespace mscope::workload
