#include "workload_common.hpp"

#include <vector>

#include "core/nls.hpp"
#include "eval/experiment.hpp"
#include "numeric/parallel.hpp"
#include "sim/measurement.hpp"

namespace perfbench {
namespace {

using namespace fluxfp;

struct Spec {
  const char* name;
  const char* unit;
};

constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"cpu_us_per_op", "us"},
    {"latency_p50_us", "us"},
    {"latency_tail_us", "us"},
};

constexpr Spec kPerLayer[] = {
    {"netio.encode_batch_us.p50", "us"},
    {"netio.decode_batch_us.p50", "us"},
    {"netio.send_batch_us.p50", "us"},
    {"netio.send_batch_us.p99", "us"},
    {"netio.query_us.p50", "us"},
    {"netio.query_us.p99", "us"},
    {"stream.offer_us.p50", "us"},
    {"stream.offer_us.p99", "us"},
    {"stream.boundaries", "count"},
    {"stream.boundary_us.p50", "us"},
    {"stream.boundary_us.max", "us"},
    {"stream.checkpoint_bytes", "bytes"},
    {"stream.quiesce_us.p50", "us"},
    {"stream.quiesce_us.p99", "us"},
    {"stream.fold_us.p50", "us"},
    {"stream.epoch_us.p50", "us"},
    {"stream.epoch_us.p99", "us"},
    {"stream.epochs", "count"},
    {"stream.single_thread_events_per_s", "1/s"},
    {"core.shape_columns_us", "us"},
    {"core.evaluate_batch_us", "us"},
    {"core.localize_k1_ms", "ms"},
    {"core.localize_k2_ms", "ms"},
    {"core.localize_k3_ms", "ms"},
    {"core.localize_k4_ms", "ms"},
    {"eval.run_trials_ms", "ms"},
    {"numeric.pool_busy_ratio", "ratio"},
    {"gen.late_ms.p99", "ms"},
    {"gen.late_ms.max", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.ops_per_s", "1/s"},
    {"trace.overhead_share", "ratio"},
};

template <std::size_t N>
void emit(Report& report, const Spec (&specs)[N],
          const std::map<std::string, Measured>& values, bool required) {
  for (const Spec& s : specs) {
    const auto it = values.find(s.name);
    if (it == values.end()) {
      if (required) {
        report.check_failed(std::string("metric ") + s.name +
                            " was not measured");
      }
      report.metric(s.name, 0.0, s.unit, 0, true);
      continue;
    }
    report.metric(s.name, it->second.value, s.unit, it->second.samples, true);
  }
}

}  // namespace

void emit_end_to_end(Report& report,
                     const std::map<std::string, Measured>& values) {
  emit(report, kEndToEnd, values, /*required=*/true);
}

void emit_per_layer(Report& report,
                    const std::map<std::string, Measured>& values) {
  emit(report, kPerLayer, values, /*required=*/false);
}

std::pair<Measured, Measured> kernel_probe(
    const fluxfp::core::ObservationModel& model,
    const fluxfp::net::UnitDiskGraph& graph, const fluxfp::geom::Field& field, std::span<const std::size_t> samples,
    std::size_t candidates, std::uint64_t seed, Tracer& tracer) {
  const numeric::SerialRegionGuard serial;
  geom::Rng rng(eval::derive_seed(seed, {0x6b65726eull}));
  const sim::FluxEngine engine(graph);
  const std::vector<sim::Collection> window = {
      {0, geom::uniform_in_field(field, rng), 2.0}};
  const net::FluxMap flux = engine.measure(window, rng);
  const core::SparseObjective obj =
      eval::make_objective(model, graph, flux, samples);
  std::vector<geom::Vec2> sinks(candidates);
  for (geom::Vec2& s : sinks) {
    s = geom::uniform_in_field(field, rng);
  }
  core::ColumnBlock block;
  std::vector<double> residuals(candidates);
  const core::ConditionalFit cond(obj, {}, 0);

  const std::uint32_t shape_id = tracer.name_id("core.shape_columns");
  const std::uint32_t eval_id = tracer.name_id("core.evaluate_batch");
  Tracer::Buffer& buf = tracer.buffer();
  // Enough repetitions for a steady median, bounded to ~0.3 s of work.
  const int repeats = candidates >= 10000 ? 15 : 60;
  for (int r = 0; r < repeats; ++r) {
    {
      const ScopedSpan span(tracer, &buf, shape_id);
      obj.shape_columns(sinks, block);
    }
    {
      const ScopedSpan span(tracer, &buf, eval_id);
      cond.evaluate_batch(block, residuals);
    }
  }
  const std::vector<double> shape = tracer.durations_us("core.shape_columns");
  const std::vector<double> evals = tracer.durations_us("core.evaluate_batch");
  return {Measured{median(shape), shape.size()},
          Measured{median(evals), evals.size()}};
}

}  // namespace perfbench
