#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

HostCpuTicks host_cpu_ticks() {
  HostCpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  // cpu  user nice system idle iowait irq softirq steal ...
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const double x : v) {
      t.total += x;
    }
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_share(const HostCpuTicks& from, const HostCpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t rank = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double supported_tail_quantile(std::size_t samples) {
  for (const double q : {0.99, 0.98, 0.95, 0.90}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) {
      return q;
    }
  }
  return 0.5;
}

std::string quantile_label(double q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%.0f", q * 100.0);
  return buf;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

std::uint32_t Tracer::name_id(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = names_.find(name);
  if (it != names_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace(name, id);
  return id;
}

Tracer::Buffer& Tracer::buffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->spans.reserve(1024);
  return *buffers_.back();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  const auto it = names_.find(name);
  if (it == names_.end()) {
    return out;
  }
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      if (s.name == it->second) {
        out.push_back(1e6 * seconds_between(s.start, s.end));
      }
    }
  }
  return out;
}

double Tracer::coverage(Clock::time_point from, Clock::time_point to) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      iv.emplace_back(std::max(s.start, from), std::min(s.end, to));
    }
  }
  std::sort(iv.begin(), iv.end());
  Clock::duration covered{0};
  Clock::time_point reach = from;
  for (const auto& [a, b] : iv) {
    const Clock::time_point lo = std::max(a, reach);
    if (b > lo) {
      covered += b - lo;
      reach = b;
    }
  }
  const double total = seconds_between(from, to);
  return total > 0.0 ? std::chrono::duration<double>(covered).count() / total
                     : 0.0;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples, bool gated) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, value, unit, samples, gated});
}

void Report::check_failed(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  check_failures_.push_back(why);
  ++attempted_;
  ++failed_;
}

void Report::print() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& n : notes_) {
    std::printf("%s\n", n.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("metric %-36s %.6g %s (n=%zu)%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.gated ? "" : " [not gated]");
  }
  std::printf("metric %-36s %.6g share (n=%" PRIu64 ") [not gated]\n",
              "failed_share",
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              attempted_);
  for (const std::string& f : check_failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              check_failures_.empty() ? "true" : "false",
              std::max<std::uint64_t>(attempted_, 1), failed_);
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.gated) {
      continue;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
