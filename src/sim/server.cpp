#include "sim/server.h"

#include <stdexcept>
#include <utility>

namespace mscope::sim {

Server::Server(Simulation& sim, Node& node, Network& net, Config cfg)
    : sim_(sim), node_(node), net_(net), cfg_(std::move(cfg)) {
  if (cfg_.workers < 1) throw std::invalid_argument("Server: workers < 1");
  wire_id_ = net_.register_node(&node_);
  free_workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = cfg_.workers - 1; w >= 0; --w) free_workers_.push_back(w);
}

std::uint64_t Server::conn_base_for(const Server& target) {
  const auto it = conn_bases_.find(target.wire_id());
  if (it != conn_bases_.end()) return it->second;
  const std::uint64_t base =
      net_.alloc_connections(static_cast<std::uint64_t>(cfg_.workers));
  conn_bases_.emplace(target.wire_id(), base);
  return base;
}

void Server::accept(const RequestPtr& req, RespondFn respond) {
  auto& rec = req->records[static_cast<std::size_t>(cfg_.tier)];
  Task* t = nullptr;
  if (free_tasks_.empty()) {
    t = &tasks_.emplace_back();
  } else {
    t = free_tasks_.back();
    free_tasks_.pop_back();
  }
  t->req = req;
  t->respond = std::move(respond);
  t->visit = static_cast<int>(rec.visits.size());
  t->worker = -1;
  t->call = 0;
  rec.visits.push_back(Visit{});
  visit_of(*t).upstream_arrival = sim_.now();
  ++concurrent_;
  if (hooks_ != nullptr) hooks_->on_upstream_arrival(*this, *req, t->visit);

  if (!free_workers_.empty()) {
    dispatch(t);
  } else {
    queue_.push_back(t);
  }
}

void Server::dispatch(Task* t) {
  t->worker = free_workers_.back();
  free_workers_.pop_back();
  const SimTime pre = demand(*t).cpu_pre;
  node_.cpu().submit(pre, [this, t] { after_cpu_pre(t); });
}

void Server::after_cpu_pre(Task* t) {
  const TierDemand& d = demand(*t);
  if (d.disk_read_bytes > 0) {
    // Buffer-pool miss: synchronous read before query execution.
    node_.disk().submit(d.disk_read_bytes, /*is_write=*/false,
                        [this, t] { next_call(t); });
    return;
  }
  next_call(t);
}

void Server::next_call(Task* t) {
  const TierDemand& d = demand(*t);
  if (downstream_.empty() || t->call >= d.downstream_calls) {
    after_calls(t);
    return;
  }
  const int call = t->call++;
  Visit& v = visit_of(*t);
  v.downstream.emplace_back(sim_.now(), SimTime{-1});
  if (hooks_ != nullptr)
    hooks_->on_downstream_send(*this, *t->req, t->visit, call);

  Server& ds = *downstream_[next_downstream_];
  next_downstream_ = (next_downstream_ + 1) % downstream_.size();
  t->callee = &ds;
  t->conn = conn_base_for(ds) + static_cast<std::uint64_t>(t->worker);
  net_.send(wire_id_, ds.wire_id(), t->conn, t->req->id,
            Message::Kind::kRequest, ds.config().request_bytes, [this, t] {
    // Delivered at the downstream node; it responds through the same
    // connection when its visit completes.
    t->callee->accept(t->req, [this, t] { send_response(t); });
  });
}

void Server::send_response(Task* t) {
  const Server& ds = *t->callee;
  net_.send(ds.wire_id(), wire_id_, t->conn, t->req->id,
            Message::Kind::kResponse, ds.config().response_bytes,
            [this, t] { call_returned(t); });
}

void Server::call_returned(Task* t) {
  const int call_done =
      static_cast<int>(visit_of(*t).downstream.size()) - 1;
  visit_of(*t).downstream[static_cast<std::size_t>(call_done)].second =
      sim_.now();
  if (hooks_ != nullptr)
    hooks_->on_downstream_receive(*this, *t->req, t->visit, call_done);
  const SimTime between = demand(*t).cpu_per_call;
  node_.cpu().submit(between, [this, t] { next_call(t); });
}

void Server::after_calls(Task* t) {
  const TierDemand& d = demand(*t);
  if (d.commit_write_bytes > 0) {
    // Synchronous redo-log commit: FIFO behind whatever the disk is doing —
    // including a multi-megabyte log flush (scenario A's bottleneck).
    node_.disk().submit(d.commit_write_bytes, /*is_write=*/true, [this, t] {
      node_.cpu().submit(demand(*t).cpu_post, [this, t] { finish(t); });
    });
    return;
  }
  node_.cpu().submit(d.cpu_post, [this, t] { finish(t); });
}

void Server::finish(Task* t) {
  Visit& v = visit_of(*t);
  v.upstream_departure = sim_.now();
  const TierDemand& d = demand(*t);
  if (d.dirty_bytes > 0) node_.page_cache().dirty(d.dirty_bytes);
  SimTime log_cost = 0;
  if (hooks_ != nullptr)
    log_cost = hooks_->on_upstream_departure(*this, *t->req, t->visit);
  --concurrent_;
  ++completed_;
  const int worker = t->worker;
  RespondFn respond = std::move(t->respond);
  t->req.reset();
  free_tasks_.push_back(t);
  respond();
  // The response is already on the wire; the worker now writes its log
  // record (if any) and only then returns to the pool. This is how logging
  // overhead consumes capacity without delaying the logged request itself.
  if (log_cost > 0) {
    node_.cpu().submit(log_cost, CpuCategory::kSystem, CpuPriority::kNormal,
                       [this, worker] { release_worker(worker); });
  } else {
    release_worker(worker);
  }
}

void Server::release_worker(int worker) {
  free_workers_.push_back(worker);
  if (!queue_.empty() && !free_workers_.empty()) {
    Task* next = queue_.front();
    queue_.pop_front();
    dispatch(next);
  }
}

}  // namespace mscope::sim
