// offline_localize: the paper-reproduction / offline-attack use. Each
// instance is a fresh 900-node perturbed-grid network on the paper's 30x30
// field, one flux window from K in {1,2,3,4} users (equal shares), 10%
// sniffers, and one core::InstantLocalizer::localize with the default
// 10,000 candidates per user. Instances fan out through eval::run_trials on
// a pool of nproc threads; network, flux and sniffer sampling are inputs,
// so their cost counts under setup_s.

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "core/flux_model.hpp"
#include "core/localizer.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "harness.hpp"
#include "numeric/parallel.hpp"
#include "sim/measurement.hpp"
#include "sim/sniffer.hpp"
#include "workload_common.hpp"

namespace perfbench {
namespace {

using namespace fluxfp;

constexpr std::size_t kMaxUsers = 4;
constexpr std::size_t kCandidates = 10000;

struct Instance {
  std::size_t users = 1;
  net::UnitDiskGraph graph;
  core::FluxModel model;
  std::vector<std::size_t> samples;
  std::vector<geom::Vec2> sinks;
  std::optional<core::SparseObjective> objective;
  std::uint64_t localize_seed = 0;

  Instance(const geom::Field& field, std::size_t k, geom::Rng& rng)
      : users(k),
        graph(eval::build_connected_network({}, field, rng)),
        model(field, eval::estimate_d_min(graph, field, rng)) {}
};

struct Inputs {
  std::vector<std::unique_ptr<Instance>> instances;
  std::string digest;
};

Inputs build_inputs(const Options& opts, const geom::Field& field) {
  const std::size_t count = opts.tiny ? kMaxUsers : 16 * kMaxUsers;
  Inputs in;
  Digest digest;
  for (std::size_t i = 0; i < count; ++i) {
    // Interleaved K so run_trials' contiguous chunks get equal work.
    const std::size_t k = 1 + i % kMaxUsers;
    geom::Rng rng(eval::derive_seed(opts.seed, {i}));
    auto inst = std::make_unique<Instance>(field, k, rng);
    std::uniform_real_distribution<double> stretch(1.0, 3.0);
    std::vector<sim::Collection> window;
    for (std::size_t j = 0; j < k; ++j) {
      inst->sinks.push_back(geom::uniform_in_field(field, rng));
      window.push_back({j, inst->sinks.back(), stretch(rng)});
    }
    const sim::FluxEngine engine(inst->graph);
    const net::FluxMap flux = engine.measure(window, rng);
    inst->samples = sim::sample_nodes_fraction(inst->graph.size(), 0.10, rng);
    inst->objective.emplace(
        eval::make_objective(inst->model, inst->graph, flux, inst->samples));
    inst->localize_seed = eval::derive_seed(opts.seed, {i, 1});
    digest.add_value(k);
    for (const geom::Vec2& s : inst->sinks) {
      digest.add_value(s.x);
      digest.add_value(s.y);
    }
    for (const std::size_t n : inst->samples) {
      digest.add_value(n);
    }
    for (const double r : inst->objective->measured()) {
      digest.add_value(r);
    }
    in.instances.push_back(std::move(inst));
  }
  in.digest = digest.hex();
  return in;
}

/// One run_trials call over every instance.
struct Call {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal = 0.0;  ///< share of the machine's CPU time stolen
  Clock::time_point begin;
  Clock::time_point end;
  std::vector<double> latency_ms;  ///< per instance
  std::vector<double> errors;      ///< per instance (run_trials' result)
};

}  // namespace

void run_offline_workload(const Options& opts, Report& report) {
  const geom::RectField field(30.0, 30.0);
  std::vector<double> build_s;
  std::optional<Inputs> in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    Inputs next = build_inputs(opts, field);
    build_s.push_back(seconds_between(t0, Clock::now()));
    if (!in) {
      in.emplace(std::move(next));
    } else if (next.digest != in->digest) {
      report.check_failed("setup is not deterministic");
    }
  }
  const std::size_t n = in->instances.size();
  report.note("inputs seed=" + std::to_string(opts.seed) +
              " instance_digest=" + in->digest + " instances=" +
              std::to_string(n) + " threads=" +
              std::to_string(numeric::thread_count()));

  const core::InstantLocalizer localizer(field);  // 10k candidates, top-10
  Tracer tracer(opts.trace);
  const std::uint32_t localize_id[kMaxUsers] = {
      tracer.name_id("core.localize_k1"), tracer.name_id("core.localize_k2"),
      tracer.name_id("core.localize_k3"), tracer.name_id("core.localize_k4")};
  const std::uint32_t trials_id = tracer.name_id("eval.run_trials");
  Tracer::Buffer& main_buf = tracer.buffer();

  auto run_call = [&](bool traced) {
    Call call;
    call.latency_ms.assign(n, 0.0);
    std::vector<std::uint8_t> finite(n, 0);
    const double cpu0 = process_cpu_seconds();
    const HostCpuTicks ticks0 = host_cpu_ticks();
    call.begin = Clock::now();
    {
      const ScopedSpan span(tracer, traced ? &main_buf : nullptr, trials_id);
      call.errors = eval::run_trials(n, [&](std::size_t i) {
        // Pool threads record into their own buffer, taken once.
        thread_local Tracer::Buffer* buf = nullptr;
        if (traced && buf == nullptr) {
          buf = &tracer.buffer();
        }
        const Instance& inst = *in->instances[i];
        geom::Rng rng(inst.localize_seed);
        const Clock::time_point t0 = Clock::now();
        core::LocalizationResult res;
        {
          const ScopedSpan s(tracer, traced ? buf : nullptr,
                             localize_id[inst.users - 1], i);
          res = localizer.localize(*inst.objective, inst.users, rng);
        }
        call.latency_ms[i] = 1e3 * seconds_between(t0, Clock::now());
        bool ok = std::isfinite(res.residual) &&
                  res.positions.size() == inst.users;
        for (const geom::Vec2& p : res.positions) {
          ok = ok && std::isfinite(p.x) && std::isfinite(p.y);
        }
        finite[i] = ok ? 1 : 0;
        return ok ? eval::matched_mean_error(res.positions, inst.sinks)
                  : std::nan("");
      });
    }
    call.end = Clock::now();
    call.wall_s = seconds_between(call.begin, call.end);
    call.cpu_s = process_cpu_seconds() - cpu0;
    call.steal = steal_share(ticks0, host_cpu_ticks());
    for (std::size_t i = 0; i < n; ++i) {
      if (finite[i] != 0) {
        report.op(true);
      } else {
        report.check_failed("instance " + std::to_string(i) +
                            ": localize returned a non-finite result");
      }
    }
    return call;
  };

  // Warm the pool and the arenas once, untimed.
  const Call warm = run_call(false);
  std::vector<Call> plain;
  std::vector<Call> traced;
  double measured = 0.0;
  for (int i = 0; measured < opts.seconds || (opts.trace && traced.empty());
       ++i) {
    const bool t = opts.trace && (i % 2 == 1);
    Call c = run_call(t);
    measured += c.wall_s;
    // Every instance owns its seed, so every call must reproduce the
    // warm-up's errors bit for bit, at any thread count.
    bool same = true;
    for (std::size_t k = 0; k < n; ++k) {
      same = same && std::memcmp(&c.errors[k], &warm.errors[k],
                                 sizeof(double)) == 0;
    }
    if (!same) {
      report.check_failed("localize results differ between calls");
    }
    (t ? traced : plain).push_back(std::move(c));
  }
  auto steal_of = [](const Call& c) { return c.steal; };
  const std::vector<Call> counted = least_stolen(plain, steal_of);
  report.note("run_trials calls " + std::to_string(plain.size()) +
              " untraced (" + std::to_string(counted.size()) +
              " least-stolen counted), " + std::to_string(traced.size()) +
              " traced, " + std::to_string(n) + " instances each");

  auto rates = [&](const std::vector<Call>& calls) {
    std::vector<double> v;
    for (const Call& c : calls) {
      v.push_back(static_cast<double>(n) / c.wall_s);
    }
    return v;
  };
  const double per_s = median(rates(counted));

  if (!opts.trace) {
    // The mix's median sits on the K=2/K=3 mode boundary and jumps between
    // them run to run, so the gated latencies are the K=4 class's.
    std::vector<double> lat;
    std::vector<std::vector<double>> by_k(kMaxUsers);
    std::vector<double> cpu;
    for (const Call& c : counted) {
      lat.insert(lat.end(), c.latency_ms.begin(), c.latency_ms.end());
      for (std::size_t i = 0; i < n; ++i) {
        by_k[in->instances[i]->users - 1].push_back(c.latency_ms[i]);
      }
      cpu.push_back(1e6 * c.cpu_s / static_cast<double>(n));
    }
    double err = 0.0;
    for (const double e : warm.errors) {
      err += e;
    }
    err /= static_cast<double>(n);
    const std::vector<double>& k4 = by_k[kMaxUsers - 1];
    std::map<std::string, Measured> e2e;
    e2e["setup_s"] = {median(build_s), build_s.size()};
    e2e["throughput_per_s"] = {per_s, counted.size()};
    e2e["cpu_us_per_op"] = {median(cpu), counted.size()};
    e2e["latency_p50_us"] = {1e3 * median(k4), k4.size()};
    e2e["latency_tail_us"] = {1e3 * percentile(k4, 0.90), k4.size()};
    emit_end_to_end(report, e2e);
    report.note("gated latency_* are K=4 localize latency; latency_tail_us "
                "is its p90");
    report.metric("localize_per_s", per_s, "1/s", counted.size(), false);
    report.metric("localize_p50_ms", median(lat), "ms", lat.size(), false);
    report.metric("localize_p90_ms", percentile(lat, 0.90), "ms", lat.size(),
                  false);
    for (std::size_t k = 0; k < kMaxUsers; ++k) {
      report.metric("localize_k" + std::to_string(k + 1) + "_p50_ms",
                    median(by_k[k]), "ms", by_k[k].size(), false);
    }
    report.metric("localize_err_mean", err, "field_units", n, false);
    std::vector<double> steal;
    for (const Call& c : plain) {
      steal.push_back(c.steal);
    }
    report.metric("host_steal_share", median(steal), "share", plain.size(),
                  false);
    return;
  }

  std::map<std::string, Measured> m;
  double busy_us = 0.0;
  for (std::size_t k = 0; k < kMaxUsers; ++k) {
    const std::string name = "core.localize_k" + std::to_string(k + 1);
    const auto d = tracer.durations_us(name);
    m[name + "_ms"] = {1e-3 * median(d), d.size()};
    for (const double x : d) {
      busy_us += x;
    }
  }
  const auto calls = tracer.durations_us("eval.run_trials");
  double calls_us = 0.0;
  for (const double x : calls) {
    calls_us += x;
  }
  m["eval.run_trials_ms"] = {1e-3 * median(calls), calls.size()};
  m["numeric.pool_busy_ratio"] = {
      busy_us / (static_cast<double>(numeric::thread_count()) * calls_us),
      calls.size()};
  const double traced_per_s = median(rates(least_stolen(traced, steal_of)));
  m["trace.ops_per_s"] = {traced_per_s, traced.size()};
  m["trace.overhead_share"] = {1.0 - traced_per_s / per_s, traced.size()};
  double covered = 0.0;
  double wall = 0.0;
  for (const Call& c : traced) {
    covered += tracer.coverage(c.begin, c.end) * c.wall_s;
    wall += c.wall_s;
  }
  m["trace.coverage"] = {covered / wall, traced.size()};
  const Instance& first = *in->instances.front();
  const auto [shape, evals] =
      kernel_probe(first.model, first.graph, field, first.samples,
                   kCandidates, opts.seed, tracer);
  m["core.shape_columns_us"] = shape;
  m["core.evaluate_batch_us"] = evals;
  emit_per_layer(report, m);
  report.metric("localize_per_s.untraced", per_s, "1/s", counted.size(),
                false);
  report.metric("localize_per_s.traced", traced_per_s, "1/s", traced.size(),
                false);
}

}  // namespace perfbench
