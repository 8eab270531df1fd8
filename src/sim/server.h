#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/hooks.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/request.h"
#include "sim/simulation.h"

namespace mscope::sim {

/// A component server in the n-tier pipeline (Apache, Tomcat, CJDBC, MySQL).
///
/// Thread-per-request model, as the real RUBBoS stack uses: a fixed pool of
/// workers, each handling one request at a time and *holding its worker
/// across synchronous downstream calls*. That blocking is what produces the
/// cross-tier push-back / queue-amplification the paper diagnoses: when the
/// database stalls, upstream workers block one tier at a time and queues grow
/// simultaneously across tiers (paper Figs. 6, 8b).
///
/// Per visit, a request executes:
///   cpu_pre -> [buffer-pool-miss disk read] -> downstream calls (serial,
///   cpu_per_call between) -> [synchronous commit write] -> cpu_post ->
///   reply upstream (+ buffered dirty-page writes).
///
/// Ground-truth timestamps are always recorded in the Request; attached
/// EventHooks (the event mScopeMonitor) additionally log and pay overhead.
class Server {
 public:
  struct Config {
    std::string service = "server";  ///< "apache", "tomcat", ...
    int tier = 0;                    ///< index into Request::demands/records
    int workers = 50;
    std::uint32_t request_bytes = 600;    ///< wire size of a request to us
    std::uint32_t response_bytes = 4000;  ///< wire size of our response
  };

  /// Invoked (at this server's completion time) when the visit finishes; the
  /// caller wraps it with the return network hop.
  using RespondFn = Callback;

  Server(Simulation& sim, Node& node, Network& net, Config cfg);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Wires the next tier; leaf servers leave it unset. A group of servers
  /// is balanced round-robin per downstream call — the way ModJK spreads
  /// requests over Tomcat replicas and CJDBC routes queries over MySQL
  /// backends (paper Fig. 1 shows a 1/2/1/2 deployment).
  void set_downstream(Server* ds) {
    downstream_.clear();
    if (ds != nullptr) downstream_.push_back(ds);
  }
  void set_downstream_group(std::vector<Server*> group) {
    downstream_ = std::move(group);
  }

  /// Attaches / detaches the event monitor (null = unmodified server).
  void set_hooks(EventHooks* hooks) { hooks_ = hooks; }

  /// Entry point: a request arrives from upstream.
  void accept(const RequestPtr& req, RespondFn respond);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] Node& node() { return node_; }
  [[nodiscard]] const Node& node() const { return node_; }
  [[nodiscard]] std::uint16_t wire_id() const { return wire_id_; }

  /// Instantaneous concurrency: arrived but not yet departed (the paper's
  /// per-tier "request queue length", ground truth).
  [[nodiscard]] int concurrent() const { return concurrent_; }
  /// Requests waiting for a worker.
  [[nodiscard]] int waiting() const { return static_cast<int>(queue_.size()); }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// Visit tasks allocated so far. Tasks are pooled, so on a healthy network
  /// this is the server's peak concurrency, not its visit count.
  [[nodiscard]] std::size_t tasks_allocated() const { return tasks_.size(); }

 private:
  /// One visit in progress. At any moment exactly one pending continuation
  /// owns a task — the worker queue, a CPU or disk completion, a network
  /// delivery, or the downstream server holding our respond — and carries it
  /// as a plain pointer. finish() returns it to the free list.
  struct Task {
    RequestPtr req;
    RespondFn respond;
    Server* callee = nullptr;  ///< downstream server of the call in flight
    std::uint64_t conn = 0;    ///< connection that call travels on
    int visit = 0;
    int worker = -1;
    int call = 0;
  };

  [[nodiscard]] const TierDemand& demand(const Task& t) const {
    const auto& per_visit =
        t.req->demands[static_cast<std::size_t>(cfg_.tier)];
    const auto idx = std::min(static_cast<std::size_t>(t.visit),
                              per_visit.size() - 1);
    return per_visit[idx];
  }
  [[nodiscard]] Visit& visit_of(Task& t) {
    return t.req->records[static_cast<std::size_t>(cfg_.tier)]
        .visits[static_cast<std::size_t>(t.visit)];
  }

  void dispatch(Task* t);
  void after_cpu_pre(Task* t);
  void next_call(Task* t);
  void send_response(Task* t);
  void call_returned(Task* t);
  void after_calls(Task* t);
  void finish(Task* t);
  void release_worker(int worker);

  /// Connection block toward a given downstream node (one persistent
  /// connection per worker per target, like real connector pools).
  std::uint64_t conn_base_for(const Server& target);

  Simulation& sim_;
  Node& node_;
  Network& net_;
  Config cfg_;
  std::vector<Server*> downstream_;
  std::size_t next_downstream_ = 0;
  EventHooks* hooks_ = nullptr;
  std::uint16_t wire_id_;
  std::map<std::uint16_t, std::uint64_t> conn_bases_;

  std::deque<Task> tasks_;  ///< the pool; a deque keeps task addresses stable
  std::vector<Task*> free_tasks_;
  std::vector<int> free_workers_;
  std::deque<Task*> queue_;
  int concurrent_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace mscope::sim
