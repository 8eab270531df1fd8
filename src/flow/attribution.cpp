#include "flow/attribution.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "core/trace.h"
#include "util/id_codec.h"
#include "util/simtime.h"

namespace mscope::flow {
namespace {

/// Keeps `slowest` as the top-k request indexes by response time, slowest
/// first (k is tiny, insertion sort is the right tool).
void keep_slowest(std::vector<std::uint32_t>& slowest, std::size_t k,
                  const Result& r, std::uint32_t idx) {
  const SimTime rt = r.requests[idx].rt;
  auto pos = std::find_if(slowest.begin(), slowest.end(),
                          [&](std::uint32_t other) {
                            return r.requests[other].rt < rt;
                          });
  slowest.insert(pos, idx);
  if (slowest.size() > k) slowest.pop_back();
}

}  // namespace

Attribution attribute(const Result& r, SimTime bucket_usec,
                      std::size_t top_k) {
  Attribution a;
  a.bucket_usec = bucket_usec > 0 ? bucket_usec : 1;
  a.tier_service = r.tier_services();
  if (r.requests.empty()) return a;

  SimTime lo = -1;
  SimTime hi = -1;
  for (const RequestRec& req : r.requests) {
    if (req.completed < 0) continue;
    if (lo < 0 || req.completed < lo) lo = req.completed;
    if (req.completed > hi) hi = req.completed;
  }
  if (lo < 0) return a;

  const SimTime first = (lo / a.bucket_usec) * a.bucket_usec;
  const std::size_t n =
      static_cast<std::size_t>((hi - first) / a.bucket_usec) + 1;
  a.buckets.resize(n);
  std::vector<std::vector<double>> excl_sum(n,
                                            std::vector<double>(r.tiers, 0));
  std::vector<double> rt_sum(n, 0);
  for (std::size_t b = 0; b < n; ++b) {
    a.buckets[b].begin = first + static_cast<SimTime>(b) * a.bucket_usec;
    a.buckets[b].tier_excl_ms.assign(r.tiers, 0);
  }

  for (std::uint32_t i = 0; i < r.requests.size(); ++i) {
    const RequestRec& req = r.requests[i];
    if (req.completed < 0) continue;
    const std::size_t b =
        static_cast<std::size_t>((req.completed - first) / a.bucket_usec);
    Bucket& bucket = a.buckets[b];
    ++bucket.requests;
    const double rt_ms = util::to_msec(req.rt);
    rt_sum[b] += rt_ms;
    bucket.max_rt_ms = std::max(bucket.max_rt_ms, rt_ms);
    for (std::size_t tier = 0; tier < r.tiers; ++tier) {
      excl_sum[b][tier] +=
          util::to_msec(r.tier_exclusive(req, static_cast<int>(tier)));
    }
    if (top_k > 0) keep_slowest(bucket.slowest, top_k, r, i);
  }

  for (std::size_t b = 0; b < n; ++b) {
    if (a.buckets[b].requests == 0) continue;
    const double cnt = static_cast<double>(a.buckets[b].requests);
    a.buckets[b].mean_rt_ms = rt_sum[b] / cnt;
    for (std::size_t tier = 0; tier < r.tiers; ++tier) {
      a.buckets[b].tier_excl_ms[tier] = excl_sum[b][tier] / cnt;
    }
  }
  return a;
}

std::vector<core::TierContribution> tier_contributions(const Result& r,
                                                       SimTime t0,
                                                       SimTime t1) {
  const std::vector<std::string> services = r.tier_services();
  std::vector<SimTime> sum_incl(r.tiers, 0);
  std::vector<SimTime> sum_excl(r.tiers, 0);
  std::vector<std::size_t> visits(r.tiers, 0);
  for (const SpanRec& s : r.spans) {
    if (s.ua < 0 || s.ud < 0) continue;
    if (t1 > t0 && (s.ud < t0 || s.ud >= t1)) continue;
    const auto tier = static_cast<std::size_t>(s.tier);
    sum_incl[tier] += core::span_inclusive(s.ua, s.ud);
    sum_excl[tier] += core::span_exclusive(s.ua, s.ud, r.calls_of(s));
    ++visits[tier];
  }

  std::vector<core::TierContribution> out(r.tiers);
  double total_exclusive = 0.0;
  for (std::size_t tier = 0; tier < r.tiers; ++tier) {
    core::TierContribution& c = out[tier];
    c.service = services[tier];
    if (visits[tier] > 0) {
      const auto n = static_cast<double>(visits[tier]);
      c.mean_exclusive_ms = static_cast<double>(sum_excl[tier]) / n / 1000.0;
      c.mean_inclusive_ms = static_cast<double>(sum_incl[tier]) / n / 1000.0;
      c.visits = visits[tier];
    }
    total_exclusive += c.mean_exclusive_ms;
  }
  if (total_exclusive > 0) {
    for (auto& c : out) c.share = c.mean_exclusive_ms / total_exclusive;
  }
  return out;
}

DrillDown drill_down(const Result& r, SimTime begin, SimTime end,
                     std::size_t exemplars) {
  DrillDown d;
  d.begin = begin;
  d.end = end;
  d.tier_service = r.tier_services();
  d.tier_inflation_ms.assign(r.tiers, 0);

  std::vector<double> in_sum(r.tiers, 0);
  std::vector<double> out_sum(r.tiers, 0);
  std::size_t in_n = 0;
  std::size_t out_n = 0;
  for (std::uint32_t i = 0; i < r.requests.size(); ++i) {
    const RequestRec& req = r.requests[i];
    if (req.completed < 0) continue;
    const bool in = req.completed >= begin && req.completed < end;
    auto& sum = in ? in_sum : out_sum;
    (in ? in_n : out_n)++;
    for (std::size_t tier = 0; tier < r.tiers; ++tier) {
      sum[tier] +=
          util::to_msec(r.tier_exclusive(req, static_cast<int>(tier)));
    }
    if (in && exemplars > 0) keep_slowest(d.exemplars, exemplars, r, i);
  }
  d.window_requests = in_n;
  if (in_n == 0) return d;

  for (std::size_t tier = 0; tier < r.tiers; ++tier) {
    const double win = in_sum[tier] / static_cast<double>(in_n);
    const double base =
        out_n > 0 ? out_sum[tier] / static_cast<double>(out_n) : 0;
    d.tier_inflation_ms[tier] = win - base;
    if (d.culprit_tier < 0 ||
        d.tier_inflation_ms[tier] >
            d.tier_inflation_ms[static_cast<std::size_t>(d.culprit_tier)]) {
      d.culprit_tier = static_cast<int>(tier);
      d.window_excl_ms = win;
      d.baseline_excl_ms = base;
    }
  }
  if (d.culprit_tier >= 0) {
    d.culprit_service = d.tier_service[static_cast<std::size_t>(d.culprit_tier)];
    // The node that absorbed the most in-window culprit-tier exclusive time.
    std::map<std::string, double> by_node;
    for (const RequestRec& req : r.requests) {
      if (req.completed < begin || req.completed >= end) continue;
      const std::string& node = r.node_of(req, d.culprit_tier);
      if (!node.empty()) {
        by_node[node] +=
            util::to_msec(r.tier_exclusive(req, d.culprit_tier));
      }
    }
    for (const auto& [node, ms] : by_node) {
      if (d.culprit_node.empty() || ms > by_node[d.culprit_node]) {
        d.culprit_node = node;
      }
    }
  }
  return d;
}

std::string render(const Result& r, const Attribution& a) {
  char buf[256];
  std::string out = "bucket(ms)  requests  mean_rt  max_rt";
  for (const auto& s : a.tier_service) out += "  excl_" + s;
  out += "\n";
  for (const Bucket& b : a.buckets) {
    std::snprintf(buf, sizeof(buf), "%-10.0f  %8zu  %7.3f  %6.3f",
                  util::to_msec(b.begin), b.requests, b.mean_rt_ms,
                  b.max_rt_ms);
    out += buf;
    for (const double ms : b.tier_excl_ms) {
      std::snprintf(buf, sizeof(buf), "  %7.3f", ms);
      out += buf;
    }
    out += "\n";
  }
  (void)r;
  return out;
}

std::string render(const Result& r, const DrillDown& d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "drill-down window [%.0f, %.0f) ms: %zu requests\n",
                util::to_msec(d.begin), util::to_msec(d.end),
                d.window_requests);
  std::string out = buf;
  for (std::size_t tier = 0; tier < d.tier_service.size(); ++tier) {
    std::snprintf(buf, sizeof(buf), "  %-8s exclusive inflation %+8.3f ms%s\n",
                  d.tier_service[tier].c_str(), d.tier_inflation_ms[tier],
                  static_cast<int>(tier) == d.culprit_tier ? "  <- culprit"
                                                           : "");
    out += buf;
  }
  if (d.culprit_tier >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "culprit: tier %d (%s) on %s — %.3f ms in-window vs %.3f "
                  "ms baseline\n",
                  d.culprit_tier, d.culprit_service.c_str(),
                  d.culprit_node.empty() ? "?" : d.culprit_node.c_str(),
                  d.window_excl_ms, d.baseline_excl_ms);
    out += buf;
  }
  for (const std::uint32_t idx : d.exemplars) {
    const RequestRec& req = r.requests[idx];
    std::snprintf(buf, sizeof(buf), "exemplar %s  rt=%.3f ms  [",
                  util::IdCodec::encode(req.req_id).c_str(),
                  util::to_msec(req.rt));
    out += "\n";
    out += buf;
    for (std::size_t tier = 0; tier < d.tier_service.size(); ++tier) {
      std::snprintf(
          buf, sizeof(buf), "%s%s %.3f ms", tier == 0 ? "" : " | ",
          d.tier_service[tier].c_str(),
          util::to_msec(r.tier_exclusive(req, static_cast<int>(tier))));
      out += buf;
    }
    out += "]\n";
    out += core::render(r.trace(req));
  }
  return out;
}

}  // namespace mscope::flow
