#pragma once

// Shared pieces of the perfbench binary: clocks, order statistics, the
// in-memory span tracer, input digests, and the report every workload
// fills in (named metrics with units and sample counts, plus the operation
// and failure tallies the final JSON line carries).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (all threads, user + system), in seconds.
double process_cpu_seconds();

/// The machine's CPU time counters from /proc/stat, in clock ticks: all
/// states summed, and "steal", the time a hypervisor ran something else on
/// this guest's virtual CPUs. Both read 0 where /proc/stat is unavailable.
struct HostCpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
HostCpuTicks host_cpu_ticks();

/// Share of the machine's CPU time between two readings that was stolen;
/// 0 when no time passed or the counters are unavailable.
double steal_share(const HostCpuTicks& from, const HostCpuTicks& to);

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The highest of p99 / p98 / p95 / p90 / p50 that leaves at least ten
/// samples above it, so a reported tail is never one lucky sample.
double supported_tail_quantile(std::size_t samples);

/// "p99", "p98", ... for a quantile from supported_tail_quantile().
std::string quantile_label(double q);

/// A repetition that lost at most this share of the CPUs to the hypervisor
/// always counts. One clock tick of steal is already 0.1% of a paced
/// repetition, and half a percent moves an ack p99 by about 3%.
inline constexpr double kNegligibleSteal = 0.005;

/// The repetitions the reported figures come from: the least-stolen
/// quarter (at least three), those in which the hypervisor gave the
/// smallest share of the CPUs to other guests, plus every one that lost a
/// negligible share. On the shared VM the benchmark was tuned on, that
/// share swung between 0 and 15% within a minute, and a stream
/// repetition's ack p99 rose by about a third per 5 points of it: such
/// repetitions measure the host. On a quiet host every repetition counts.
template <typename Item, typename StealOf>
std::vector<Item> least_stolen(std::vector<Item> reps, StealOf steal_of) {
  std::vector<double> steal;
  for (const Item& r : reps) {
    steal.push_back(steal_of(r));
  }
  const double share = std::max(
      0.25, 3.0 / static_cast<double>(std::max<std::size_t>(1, reps.size())));
  const double limit =
      std::max(kNegligibleSteal, percentile(std::move(steal), share));
  std::erase_if(reps, [&](const Item& r) { return steal_of(r) > limit; });
  return reps;
}

/// FNV-1a over raw bytes: the digest printed beside the seed so two runs
/// can be shown to have used identical inputs.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof(v));
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Span recorder for the traced run. Spans are kept in memory (one buffer
/// per recording thread, registered under a mutex once) and summarized
/// after the measured phase; nothing is written while timing.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t parent = -1;  ///< index in the same thread's buffer
    std::uint64_t request = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Interns a span name (call before the timed phase).
  std::uint32_t name_id(const std::string& name);

  /// Per-thread buffer handle; each recording thread takes its own.
  struct Buffer {
    std::vector<Span> spans;
    std::int64_t open = -1;  ///< innermost open span (parent of the next)
  };
  Buffer& buffer();

  /// Durations (microseconds) of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Length of the union of all span intervals inside [from, to], as a
  /// share of to - from: how much of the traced wall time spans explain.
  double coverage(Clock::time_point from, Clock::time_point to) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::map<std::string, std::uint32_t> names_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: records [construction, destruction) when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Tracer::Buffer* buf, std::uint32_t name,
             std::uint64_t request = 0)
      : buf_(tracer.enabled() ? buf : nullptr) {
    if (buf_ != nullptr) {
      Tracer::Span s;
      s.name = name;
      s.parent = buf_->open;
      s.request = request;
      index_ = static_cast<std::int64_t>(buf_->spans.size());
      buf_->spans.push_back(s);
      buf_->open = index_;
      buf_->spans.back().start = Clock::now();
    }
  }
  ~ScopedSpan() {
    if (buf_ != nullptr) {
      auto& s = buf_->spans[static_cast<std::size_t>(index_)];
      s.end = Clock::now();
      buf_->open = s.parent;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buf_;
  std::int64_t index_ = -1;
};

/// Everything one run prints. `gated` metrics go into the final JSON line
/// (the BENCHMARK.json contract names); every metric, gated or not, is
/// also printed as a `metric` line with its unit and sample count.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, bool gated);
  void note(const std::string& line) { notes_.push_back(line); }

  /// Counts one attempted operation; `ok == false` also counts a failure.
  void op(bool ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) {
      ++failed_;
    }
  }
  /// A correctness check failed: counts one failed operation, and the run
  /// is reported incorrect and exits nonzero.
  void check_failed(const std::string& why);
  bool correct() const { return check_failures_.empty(); }

  /// Prints the notes, metric lines and the final JSON line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
    bool gated;
  };
  mutable std::mutex mu_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> check_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short window: the self-test's smoke size.
  bool tiny = false;
  /// Perturbs one reference estimate so the self-test can prove the
  /// correctness check trips.
  bool corrupt_reference = false;
  /// Directory for the service's Unix socket (relative to the checkout).
  std::string socket_dir = ".bench_build";
};

/// Setup is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

void run_stream_workload(const Options& opts, bool paced, Report& report);
void run_offline_workload(const Options& opts, Report& report);

}  // namespace perfbench
