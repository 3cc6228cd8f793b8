// perfbench: the end-to-end benchmark of the fluxfp tracking service and
// the offline attack. One process generates a workload's inputs from
// --seed, drives the library (an in-process FXN1 server on a Unix socket
// for the stream workloads, eval::run_trials for the offline one), checks
// the outputs, and prints named metrics ending in one JSON line.
//
//   perfbench --workload ingest_max|ingest_paced_reads|offline_localize
//             --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-reference]
//   perfbench --env
//
// Exit status: 0 ok, 1 a correctness check failed, 2 usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd/kernels.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--tiny] [--corrupt-reference]\n"
               "       perfbench --env\n",
               why.c_str());
  std::exit(2);
}

void print_env() {
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_FLUXFP_OBS
#define PERFBENCH_FLUXFP_OBS "unknown"
#endif
  std::printf("{\"simd_backend\": \"%s\", \"fluxfp_obs\": \"%s\", "
              "\"build_type\": \"%s\", \"hardware_threads\": %u}\n",
              fluxfp::numeric::simd::backend_name(), PERFBENCH_FLUXFP_OBS,
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(a + " needs a value");
      }
      return argv[++i];
    };
    if (a == "--env") {
      print_env();
      return 0;
    } else if (a == "--workload") {
      opts.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        usage("--seed needs a non-negative integer");
      }
      have_seed = true;
    } else if (a == "--seconds") {
      opts.seconds = std::atof(value().c_str());
      if (!(opts.seconds > 0.0)) {
        usage("--seconds must be positive");
      }
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        usage("--trace must be 0 or 1");
      }
      opts.trace = v == "1";
      have_trace = true;
    } else if (a == "--tiny") {
      opts.tiny = true;
    } else if (a == "--corrupt-reference") {
      opts.corrupt_reference = true;
    } else if (a == "--socket-dir") {
      opts.socket_dir = value();
    } else {
      usage("unknown flag '" + a + "'");
    }
  }
  if (!have_seed || !have_trace || opts.workload.empty()) {
    usage("--workload, --seed and --trace are required");
  }
  // The offline workload's pool: one thread per CPU, whatever
  // FLUXFP_THREADS says.
  fluxfp::numeric::set_thread_count(
      std::max(1u, std::thread::hardware_concurrency()));

  perfbench::Report report;
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.tiny ? " (tiny)" : "");
  try {
    if (opts.workload == "ingest_max") {
      perfbench::run_stream_workload(opts, /*paced=*/false, report);
    } else if (opts.workload == "ingest_paced_reads") {
      perfbench::run_stream_workload(opts, /*paced=*/true, report);
    } else if (opts.workload == "offline_localize") {
      perfbench::run_offline_workload(opts, report);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    report.check_failed(std::string("exception: ") + e.what());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
