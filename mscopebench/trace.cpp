#include "trace.h"

#include <iomanip>

#include "obs/metrics.h"

namespace mscopebench {

std::map<std::string, double> registry_values() {
  std::map<std::string, double> out;
  for (const auto& m : mscope::obs::Registry::global().snapshot()) {
    if (m.kind != mscope::obs::MetricSample::Kind::kHistogram) {
      out.emplace(m.name, m.value);
    }
  }
  return out;
}

Tracer::Scope::Scope(Tracer& t, std::string name) : tracer_(&t) {
  if (!t.enabled_) return;
  before_ = registry_values();
  index_ = static_cast<int>(t.spans_.size());
  Span s;
  s.name = std::move(name);
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  s.start = Clock::now();
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
}

void Tracer::Scope::close() {
  if (index_ < 0) return;
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.end = Clock::now();
  for (const auto& [name, after] : registry_values()) {
    const auto it = before_.find(name);
    const double delta = after - (it == before_.end() ? 0.0 : it->second);
    if (delta != 0.0) s.counters.emplace(name, delta);
  }
  tracer_->open_.pop_back();
  index_ = -1;
}

double Tracer::self_seconds(std::size_t i) const {
  double self = spans_[i].seconds();
  for (const auto& s : spans_) {
    if (s.parent == static_cast<int>(i)) self -= s.seconds();
  }
  return self;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0;
  for (const auto& s : spans_) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

void Tracer::write_json(std::ostream& os) const {
  const Clock::time_point t0 =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto rel = [t0](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  os << std::setprecision(9) << '[';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"parent\":" << s.parent << ",\"start_s\":" << rel(s.start)
       << ",\"end_s\":" << rel(s.end) << ",\"self_s\":" << self_seconds(i)
       << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, delta] : s.counters) {
      os << (first ? "" : ",") << '"' << name << "\":" << delta;
      first = false;
    }
    os << "}}";
  }
  os << "]\n";
}

}  // namespace mscopebench
