#pragma once

// The metric catalogue shared by all workloads, and the candidate-kernel
// probe both the stream and the offline traced runs use.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>

#include "core/observation_model.hpp"
#include "geom/field.hpp"
#include "harness.hpp"
#include "net/graph.hpp"

namespace perfbench {

/// A measured value and how many samples it summarizes.
struct Measured {
  double value = 0.0;
  std::size_t samples = 0;
};

/// The BENCHMARK.json end_to_end metrics, which every workload reports
/// from its untraced run: setup_s, throughput_per_s, cpu_us_per_op,
/// latency_p50_us and latency_tail_us. `values` must hold all five.
void emit_end_to_end(Report& report,
                     const std::map<std::string, Measured>& values);

/// The BENCHMARK.json per_layer metrics, all printed by every traced run.
/// A layer a workload does not exercise reads 0 with n=0: the prediction
/// for such a pairing is "stays flat".
void emit_per_layer(Report& report,
                    const std::map<std::string, Measured>& values);

/// Median wall time (microseconds) of SparseObjective::shape_columns and
/// ConditionalFit::evaluate_batch (K = 1) over `candidates` uniform
/// candidates, on an objective built from one seeded flux window sniffed
/// at `samples`. Runs serially, as both the stream workers and the
/// run_trials instances do.
std::pair<Measured, Measured> kernel_probe(
    const fluxfp::core::ObservationModel& model,
    const fluxfp::net::UnitDiskGraph& graph, const fluxfp::geom::Field& field, std::span<const std::size_t> samples,
    std::size_t candidates, std::uint64_t seed, Tracer& tracer);

}  // namespace perfbench
