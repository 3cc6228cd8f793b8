// Microbenchmarks for the core computational kernels (google-benchmark).
// These quantify the costs behind the experiment harnesses: tree
// construction, flux accumulation, model evaluation, Gram-space NNLS, the
// conditional candidate evaluation, and whole SMC rounds.

#include <benchmark/benchmark.h>

#include <fstream>
#include <span>
#include <string>

#include "core/localizer.hpp"
#include "core/nls.hpp"
#include "core/passive_trace_model.hpp"
#include "core/rss_link_model.hpp"
#include "core/smc.hpp"
#include "eval/experiment.hpp"
#include "net/deployment.hpp"
#include "net/flux.hpp"
#include "net/routing.hpp"
#include "numeric/arena.hpp"
#include "numeric/hungarian.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd/kernels.hpp"
#include "sim/measurement.hpp"
#include "sim/sniffer.hpp"
#include "stream/emit.hpp"
#include "stream/event_queue.hpp"
#include "stream/manager.hpp"
#include "stream/supervisor.hpp"

#if defined(FLUXFP_OBS_ENABLED)
#include "obs/obs.hpp"
#endif

namespace {

using namespace fluxfp;

const geom::RectField& field() {
  static const geom::RectField f(30.0, 30.0);
  return f;
}

const net::UnitDiskGraph& graph() {
  static const net::UnitDiskGraph g = [] {
    geom::Rng rng(1);
    return eval::build_connected_network({}, field(), rng);
  }();
  return g;
}

core::SparseObjective make_objective(std::size_t n_samples,
                                     std::size_t users) {
  geom::Rng rng(2);
  const core::FluxModel model(field(), 1.2);
  const sim::FluxEngine engine(graph());
  std::vector<sim::Collection> window;
  for (std::size_t j = 0; j < users; ++j) {
    window.push_back({j, geom::uniform_in_field(field(), rng), 2.0});
  }
  const net::FluxMap flux = engine.measure(window, rng);
  const auto samples = sim::sample_nodes(graph().size(), n_samples, rng);
  return eval::make_objective(model, graph(), flux, samples);
}

void BM_BuildGraph900(benchmark::State& state) {
  geom::Rng rng(3);
  const auto positions = net::perturbed_grid(field(), 30, 30, 0.5, rng);
  for (auto _ : state) {
    net::UnitDiskGraph g(positions, 2.4);
    benchmark::DoNotOptimize(g.average_degree());
  }
}
BENCHMARK(BM_BuildGraph900);

void BM_CollectionTree900(benchmark::State& state) {
  geom::Rng rng(4);
  for (auto _ : state) {
    const net::CollectionTree t =
        net::build_collection_tree(graph(), {15.0, 15.0}, rng);
    benchmark::DoNotOptimize(t.root);
  }
}
BENCHMARK(BM_CollectionTree900);

void BM_TreeFlux900(benchmark::State& state) {
  geom::Rng rng(5);
  const net::CollectionTree t =
      net::build_collection_tree(graph(), {15.0, 15.0}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::tree_flux(t, 2.0));
  }
}
BENCHMARK(BM_TreeFlux900);

void BM_SmoothFlux900(benchmark::State& state) {
  geom::Rng rng(6);
  const net::CollectionTree t =
      net::build_collection_tree(graph(), {15.0, 15.0}, rng);
  const net::FluxMap flux = net::tree_flux(t, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::smooth_flux(graph(), flux));
  }
}
BENCHMARK(BM_SmoothFlux900);

// One shape column at a time — the latency floor of a single candidate.
// The throughput path is BM_ShapeColumns (batch ColumnBlock build) below;
// the two used to differ by one letter, hence the explicit "Single".
void BM_ShapeColumnSingle(benchmark::State& state) {
  const core::SparseObjective obj =
      make_objective(static_cast<std::size_t>(state.range(0)), 1);
  std::vector<double> col;
  geom::Rng rng(7);
  for (auto _ : state) {
    obj.shape_column(geom::uniform_in_field(field(), rng), col);
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_ShapeColumnSingle)->Arg(90)->Arg(360);

void BM_ConditionalFitEvaluate(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const core::SparseObjective obj = make_objective(90, k);
  geom::Rng rng(8);
  std::vector<std::vector<double>> cols(k - 1);
  std::vector<std::span<const double>> fixed;
  for (std::size_t j = 0; j + 1 < k; ++j) {
    obj.shape_column(geom::uniform_in_field(field(), rng), cols[j]);
    fixed.push_back(cols[j]);
  }
  const core::ConditionalFit cond(obj, fixed, 0);
  std::vector<double> cand;
  obj.shape_column(geom::uniform_in_field(field(), rng), cand);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cond.evaluate(cand).residual);
  }
}
BENCHMARK(BM_ConditionalFitEvaluate)->Arg(1)->Arg(3)->Arg(8)->Arg(20);

// ConditionalFit construction: the fixed Gram block + fixed c dot products
// that every conditional sweep pays before its first candidate.
void BM_GramBuild(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const core::SparseObjective obj = make_objective(90, k);
  geom::Rng rng(8);
  std::vector<std::vector<double>> cols(k - 1);
  std::vector<std::span<const double>> fixed;
  for (std::size_t j = 0; j + 1 < k; ++j) {
    obj.shape_column(geom::uniform_in_field(field(), rng), cols[j]);
    fixed.push_back(cols[j]);
  }
  for (auto _ : state) {
    const core::ConditionalFit cond(obj, fixed, 0);
    benchmark::DoNotOptimize(&cond);
  }
}
BENCHMARK(BM_GramBuild)->Arg(3)->Arg(8)->Arg(20);

// Arena bump-allocation round trip: the per-epoch scratch pattern of the
// SMC step (a handful of spans, then reset). Steady state must be a few ns
// per alloc — no heap traffic once the high-water mark is reached.
void BM_ArenaScratch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  numeric::Arena arena;
  for (auto _ : state) {
    arena.reset();
    const auto a = arena.alloc<double>(n);
    const auto b = arena.alloc<double>(n);
    const auto c = arena.alloc<std::size_t>(n);
    a[0] = 1.0;
    b[n - 1] = 2.0;
    c[n / 2] = 3;
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 3);
}
BENCHMARK(BM_ArenaScratch)->Arg(1000)->Arg(100000);

void BM_NnlsFromGram(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  geom::Rng rng(9);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t n = 90;
  std::vector<std::vector<double>> a(k, std::vector<double>(n));
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = u(rng);
    for (std::size_t j = 0; j < k; ++j) {
      a[j][i] = u(rng);
    }
  }
  std::vector<double> g(k * k, 0.0);
  std::vector<double> c(k, 0.0);
  double b2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    b2 += b[i] * b[i];
    for (std::size_t x = 0; x < k; ++x) {
      c[x] += a[x][i] * b[i];
      for (std::size_t y = 0; y < k; ++y) {
        g[x * k + y] += a[x][i] * a[y][i];
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::nnls_from_gram(g, k, c, b2).residual);
  }
}
BENCHMARK(BM_NnlsFromGram)->Arg(2)->Arg(4)->Arg(12)->Arg(24);

void BM_LocalizeOneUser(benchmark::State& state) {
  const core::SparseObjective obj = make_objective(90, 1);
  core::LocalizerConfig cfg;
  cfg.candidates_per_user = static_cast<std::size_t>(state.range(0));
  const core::InstantLocalizer loc(field(), cfg);
  geom::Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(loc.localize(obj, 1, rng).residual);
  }
}
BENCHMARK(BM_LocalizeOneUser)->Arg(1000)->Arg(10000);

void BM_ShapeColumns(benchmark::State& state) {
  const core::SparseObjective obj = make_objective(90, 1);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  geom::Rng rng(13);
  std::vector<geom::Vec2> sinks(batch);
  for (geom::Vec2& s : sinks) {
    s = geom::uniform_in_field(field(), rng);
  }
  core::ColumnBlock block;
  for (auto _ : state) {
    obj.shape_columns(sinks, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_ShapeColumns)->Arg(1000)->Arg(10000);

// The same batched ColumnBlock build through the other two observation
// backends — shows the virtual-dispatch-at-column-granularity seam keeps
// every model on the SIMD row kernels (per-column dispatch, per-element
// vector math).
core::SparseObjective make_model_objective(const core::ObservationModel& m,
                                           std::size_t n_sites) {
  geom::Rng rng(2);
  std::vector<core::Site> sites;
  for (std::size_t i = 0; i < n_sites; ++i) {
    const geom::Vec2 a = geom::uniform_in_field(field(), rng);
    const geom::Vec2 b = m.sites_are_links()
                             ? geom::uniform_in_field(field(), rng)
                             : a;
    sites.push_back(core::Site{a, b});
  }
  std::vector<double> readings(n_sites, 1.0);
  return core::SparseObjective(m, std::move(sites), std::move(readings));
}

template <typename Model>
void shape_columns_model(benchmark::State& state, const Model& model) {
  const core::SparseObjective obj = make_model_objective(model, 90);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  geom::Rng rng(13);
  std::vector<geom::Vec2> sinks(batch);
  for (geom::Vec2& s : sinks) {
    s = geom::uniform_in_field(field(), rng);
  }
  core::ColumnBlock block;
  for (auto _ : state) {
    obj.shape_columns(sinks, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}

void BM_ShapeColumnsRss(benchmark::State& state) {
  shape_columns_model(state, core::RssLinkModel(1.0, 0.05));
}
BENCHMARK(BM_ShapeColumnsRss)->Arg(1000)->Arg(10000);

void BM_ShapeColumnsPassive(benchmark::State& state) {
  shape_columns_model(state, core::PassiveTraceModel(4.0));
}
BENCHMARK(BM_ShapeColumnsPassive)->Arg(1000)->Arg(10000);

// One full SMC round (2 users, default 1000 predictions) at 1/2/4/8 worker
// threads. Output is bit-identical across the thread counts (all RNG stays
// on the calling thread); only the wall-clock should move.
void BM_SmcRound(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  numeric::set_thread_count(threads);
  const core::SparseObjective obj = make_objective(90, 2);
  geom::Rng rng(11);
  core::SmcConfig cfg;
  core::SmcTracker tracker(field(), 2, cfg, rng);
  double time = 0.0;
  for (auto _ : state) {
    time += 1.0;
    benchmark::DoNotOptimize(tracker.step(time, obj, rng).residual);
  }
  numeric::set_thread_count(0);
}
BENCHMARK(BM_SmcRound)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SmcStepTwoUsers(benchmark::State& state) {
  const core::SparseObjective obj = make_objective(90, 2);
  geom::Rng rng(11);
  core::SmcConfig cfg;
  cfg.num_predictions = static_cast<std::size_t>(state.range(0));
  core::SmcTracker tracker(field(), 2, cfg, rng);
  double time = 0.0;
  for (auto _ : state) {
    time += 1.0;
    benchmark::DoNotOptimize(tracker.step(time, obj, rng).residual);
  }
}
BENCHMARK(BM_SmcStepTwoUsers)->Arg(200)->Arg(1000);

// Streaming ingestion overhead: bounded-queue push+pop cost per event,
// excluding any filtering work.
void BM_EventIngest(benchmark::State& state) {
  stream::EventQueue queue(1024);
  stream::FluxEvent out;
  double time = 0.0;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < 512; ++i) {
      time += 1e-3;
      queue.push({time, 0, 0, i, 1.0});
    }
    for (std::uint32_t i = 0; i < 512; ++i) {
      queue.try_pop(out);
      benchmark::DoNotOptimize(out.reading);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_EventIngest);

// One streaming service run (8 sessions x 4 epochs over 90 sniffers) at
// Shared fixture for the stream benchmarks: 8 sessions x 4 rounds over 90
// sniffers, merged into one interleaved event stream.
constexpr std::size_t kStreamSessions = 8;
constexpr int kStreamRounds = 4;

const std::vector<std::size_t>& stream_sniffers() {
  static const std::vector<std::size_t> sniffers = [] {
    geom::Rng rng(14);
    return sim::sample_nodes(graph().size(), 90, rng);
  }();
  return sniffers;
}

const std::vector<stream::FluxEvent>& stream_events() {
  static const std::vector<stream::FluxEvent> events = [] {
    std::vector<std::vector<stream::FluxEvent>> streams;
    for (std::uint32_t u = 0; u < kStreamSessions; ++u) {
      geom::Rng rng(15 + u);
      const sim::FluxEngine engine(graph());
      std::vector<stream::FluxEvent> mine;
      for (int round = 0; round < kStreamRounds; ++round) {
        const std::vector<sim::Collection> window = {
            {0, geom::uniform_in_field(field(), rng), 2.0}};
        const net::FluxMap flux = engine.measure(window, rng);
        const auto burst = stream::window_events(
            graph(), flux, stream_sniffers(), u,
            static_cast<std::uint32_t>(round),
            static_cast<double>(round) + 0.01 * u);
        mine.insert(mine.end(), burst.begin(), burst.end());
      }
      streams.push_back(std::move(mine));
    }
    return stream::merge_by_time(streams);
  }();
  return events;
}

/// One full replay of the fixture stream through a fresh TrackerManager.
std::uint64_t run_stream_epochs(std::size_t workers) {
  static const core::FluxModel model(field(), 1.2);
  stream::StreamTrackerConfig tcfg;
  tcfg.smc.num_predictions = 200;
  tcfg.expected_readings = stream_sniffers().size();
  stream::ManagerConfig mcfg;
  mcfg.workers = workers;
  stream::TrackerManager manager(mcfg);
  for (std::uint32_t u = 0; u < kStreamSessions; ++u) {
    manager.add_session(
        u, stream::StreamTracker(model, graph(), stream_sniffers(), 1, tcfg,
                                 100 + u));
  }
  manager.start();
  for (const stream::FluxEvent& e : stream_events()) {
    manager.offer(e);
  }
  manager.finish();
  std::uint64_t epochs = 0;
  for (std::uint32_t u = 0; u < kStreamSessions; ++u) {
    epochs += manager.session(u).stats().epochs_fired;
  }
  return epochs;
}

// 1/2/4/8 workers. The parallelism axis is sessions — per-session results
// are bit-identical across the worker counts; only wall-clock should move
// (it cannot on a single-core machine; see BENCH_micro.json notes).
void BM_StreamEpoch(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_stream_epochs(workers));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kStreamSessions * kStreamRounds);
}
BENCHMARK(BM_StreamEpoch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Same workload through the crash-recovery loop at the default checkpoint
/// cadence — the cost of supervision on the hot path: each worker journals
/// the events it folds and, every 32 fired epochs of its sessions, encodes
/// their records on its own thread; with no checkpoint path no whole image
/// is assembled until finish(). Acceptance bar: within 2% of BM_StreamEpoch
/// at the same worker count. On the single-core reference container run-to-run
/// noise exceeds that bar; measure the pair with --benchmark_repetitions
/// and --benchmark_enable_random_interleaving and compare medians.
void BM_StreamEpochSupervised(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  static const core::FluxModel model(field(), 1.2);
  const auto make_manager = [workers] {
    stream::StreamTrackerConfig tcfg;
    tcfg.smc.num_predictions = 200;
    tcfg.expected_readings = stream_sniffers().size();
    stream::ManagerConfig mcfg;
    mcfg.workers = workers;
    auto manager = std::make_unique<stream::TrackerManager>(mcfg);
    for (std::uint32_t u = 0; u < kStreamSessions; ++u) {
      manager->add_session(
          u, stream::StreamTracker(model, graph(), stream_sniffers(), 1,
                                   tcfg, 100 + u));
    }
    return manager;
  };
  for (auto _ : state) {
    stream::Supervisor sup(make_manager, {});  // default cadence
    sup.start();
    for (const stream::FluxEvent& e : stream_events()) {
      sup.offer(e);
    }
    sup.finish();
    benchmark::DoNotOptimize(sup.stats().checkpoints);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kStreamSessions * kStreamRounds);
}
BENCHMARK(BM_StreamEpochSupervised)->Arg(2)->UseRealTime();

// Arg(0) = obs runtime-disabled, Arg(1) = obs recording. Same binary, same
// workload as BM_StreamEpoch at 2 workers: the pair quantifies the cost of
// the instrumentation macros on the hottest path. The acceptance bar is
// under 2% delta; with FLUXFP_OBS=OFF the macros compile away entirely and
// this benchmark is not built.
#if defined(FLUXFP_OBS_ENABLED)
void BM_ObsOverhead(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_stream_epochs(2));
  }
  obs::set_enabled(was_enabled);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kStreamSessions * kStreamRounds);
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->UseRealTime();
#endif

void BM_Hungarian(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  geom::Rng rng(12);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  numeric::Matrix cost(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      cost(r, c) = u(rng);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::hungarian_assign(cost));
  }
}
BENCHMARK(BM_Hungarian)->Arg(4)->Arg(20);

/// First "model name" line of /proc/cpuinfo, or "unknown".
std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') {
        ++start;
      }
      return line.substr(start);
    }
  }
  return "unknown";
}

/// cpu0's cpufreq governor, or "unknown" (containers often hide cpufreq).
std::string cpu_governor() {
  std::ifstream in(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string governor;
  if (in >> governor) {
    return governor;
  }
  return "unknown";
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): stamps the machine/build context
// the perf-regression gate needs into the JSON "context" block, so a
// baseline and a fresh run can be checked for comparability (same SIMD
// backend, same CPU, same governor) before their medians are diffed.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("fluxfp_simd_backend",
                              fluxfp::numeric::simd::backend_name());
  benchmark::AddCustomContext(
      "fluxfp_simd_lanes",
      std::to_string(fluxfp::numeric::simd::lane_count()));
  benchmark::AddCustomContext("fluxfp_cpu_model", cpu_model_name());
  benchmark::AddCustomContext("fluxfp_cpu_governor", cpu_governor());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
