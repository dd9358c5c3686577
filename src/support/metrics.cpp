#include "support/metrics.h"

namespace argo::support {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricCounter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<MetricCounter>())
             .first;
  }
  return *it->second;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.push_back(MetricSample{name, counter->value()});
  }
  return out;
}

}  // namespace argo::support
