// Service-accuracy ledger: how far the streaming service's estimates sit
// from the truth, at the service's particle count and at the paper's.
//
// Folds the stream_daemon deployment recipe (eval/service_recipe.hpp)
// through StreamTracker, whose estimates equal the served ones bit for bit
// (DESIGN.md §10), with 1, 2 and 3 users per session over a fixed seed
// set. Each row pools the per-epoch errors of every session and seed and
// reports their mean and p90, with a bound set from the spread of the
// per-seed values. The tracking service's own N (the StreamTrackerConfig
// default) has one row per user count, and the paper's N (the
// core::SmcConfig default) a reference row beside it.
//
//   exp_service_accuracy [--out PATH] [--seed S] [--threads T]
//
// --out writes the ledger as JSON (the committed copy is
// BENCH_accuracy.json at the repository root; bench/check_accuracy.py
// compares a fresh ledger against it). --seed shifts the seed set to
// S, S+1, ... (default 1): a shifted set must still pass the committed
// bounds. --threads sets the worker count; results are bit-identical at
// any count. Runs in well under a minute on 4 cores.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/metrics.hpp"
#include "eval/service_recipe.hpp"
#include "numeric/parallel.hpp"
#include "numeric/stats.hpp"

using namespace fluxfp;

namespace {

constexpr std::size_t kSessions = 16;
constexpr int kRounds = 60;
constexpr std::size_t kSeeds = 16;
constexpr std::size_t kMaxUsers = 3;
/// A row's bound is this many standard deviations of the difference
/// between two independent seed sets' means, sqrt(2) sd / sqrt(seeds) with
/// sd the spread of the per-seed values: a shifted seed set lands within
/// it, so a change that only reshuffles random draws passes.
constexpr double kBoundDeviations = 3.0;

/// One ledger row: one user count at one particle count.
struct Row {
  std::string name;
  std::size_t users = 0;
  std::size_t num_predictions = 0;
  std::vector<double> errors;  ///< pooled, in seed, session, epoch order
  std::vector<double> seed_means;
  std::vector<double> seed_p90s;
};

/// Per-epoch errors of one session folded through its service tracker:
/// for each fired window, the mean matched distance between the session's
/// estimates and its users' true positions at that round.
std::vector<double> session_errors(
    const eval::ServiceDeployment& dep,
    const stream::StreamTrackerConfig& config,
    const eval::ServiceSessions& sim, std::size_t session, std::size_t users,
    std::uint64_t seed) {
  stream::StreamTracker tracker =
      eval::make_service_tracker(dep, config, session, users, seed);
  std::vector<double> errors;
  const auto score = [&](const std::vector<stream::EpochResult>& fired) {
    for (const stream::EpochResult& r : fired) {
      errors.push_back(eval::matched_mean_error(
          r.estimates, sim.truths[session].at(r.epoch)));
    }
  };
  for (const stream::FluxEvent& e : sim.events) {
    if (e.user == session) {
      score(tracker.on_event(e));
    }
  }
  score(tracker.flush());
  return errors;
}

double p90(const std::vector<double>& xs) {
  return numeric::percentile(xs, 0.9);
}

double bound_of(const std::vector<double>& per_seed) {
  return kBoundDeviations * std::sqrt(2.0) * numeric::stddev(per_seed) /
         std::sqrt(static_cast<double>(per_seed.size()));
}

std::string fixed(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string list(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i > 0 ? ", " : "") + fixed(xs[i]);
  }
  return out + "]";
}

std::string ledger_json(const std::vector<Row>& rows,
                        const std::vector<std::uint64_t>& seeds) {
  std::ostringstream js;
  js << "{\n"
     << "  \"ledger\": \"service tracking accuracy\",\n"
     << "  \"harness\": \"bench/exp_service_accuracy\",\n"
     << "  \"recipe\": \"stream_daemon deployment (20x20 RectField, default "
        "NetworkSpec, 12% sniffers), "
     << kSessions << " sessions x " << kRounds
     << " rounds of random-waypoint users at speed 0.8\",\n"
     << "  \"error\": \"per fired epoch: mean matched distance between the "
        "session's estimates and its users' true positions at that round, "
        "field units\",\n"
     << "  \"bound\": \"" << kBoundDeviations
     << " x sqrt(2) x sd(per-seed values) / sqrt(seeds)\",\n"
     << "  \"seeds\": [";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    js << (i > 0 ? ", " : "") << seeds[i];
  }
  js << "],\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    js << "    {\n"
       << "      \"row\": \"" << r.name << "\",\n"
       << "      \"users\": " << r.users << ",\n"
       << "      \"num_predictions\": " << r.num_predictions << ",\n"
       << "      \"epochs\": " << r.errors.size() << ",\n"
       << "      \"mean\": " << fixed(numeric::mean(r.errors)) << ",\n"
       << "      \"mean_bound\": " << fixed(bound_of(r.seed_means)) << ",\n"
       << "      \"p90\": " << fixed(p90(r.errors)) << ",\n"
       << "      \"p90_bound\": " << fixed(bound_of(r.seed_p90s)) << ",\n"
       << "      \"seed_means\": " << list(r.seed_means) << ",\n"
       << "      \"seed_p90s\": " << list(r.seed_p90s) << "\n"
       << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  return js.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::uint64_t first_seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      first_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      numeric::set_thread_count(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: exp_service_accuracy [--out PATH] [--seed S] "
                   "[--threads T]\n";
      return 2;
    }
  }
  std::vector<std::uint64_t> seeds(kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    seeds[i] = first_seed + i;
  }

  const std::size_t service_n =
      stream::StreamTrackerConfig{}.smc.num_predictions;
  const std::size_t paper_n = core::SmcConfig{}.num_predictions;
  std::vector<Row> rows;
  for (std::size_t users = 1; users <= kMaxUsers; ++users) {
    for (const bool service : {true, false}) {
      Row row;
      row.name = std::string(service ? "service" : "paper") + "_users" +
                 std::to_string(users);
      row.users = users;
      row.num_predictions = service ? service_n : paper_n;
      rows.push_back(std::move(row));
    }
  }

  // Seeds are independent (each builds its own deployment and sessions,
  // and every tracker owns its RNG), so they fan out over the pool. Slot
  // [seed][row] holds that seed's errors in session and epoch order, so the
  // pooled figures are bit-identical at any thread count.
  std::vector<std::vector<std::vector<double>>> per_seed(seeds.size());
  numeric::parallel_for(0, seeds.size(), [&](std::size_t i) {
    const std::uint64_t seed = seeds[i];
    const eval::ServiceDeployment dep(seed);
    per_seed[i].resize(rows.size());
    for (std::size_t users = 1; users <= kMaxUsers; ++users) {
      const eval::ServiceSessions sim = eval::simulate_service_sessions(
          dep, kSessions, kRounds, users, seed);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].users != users) {
          continue;
        }
        stream::StreamTrackerConfig config = eval::service_tracker_config(dep);
        config.smc.num_predictions = rows[r].num_predictions;
        for (std::size_t s = 0; s < kSessions; ++s) {
          const std::vector<double> e =
              session_errors(dep, config, sim, s, users, seed);
          per_seed[i][r].insert(per_seed[i][r].end(), e.begin(), e.end());
        }
      }
    }
  });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::vector<double>& e = per_seed[i][r];
      rows[r].seed_means.push_back(numeric::mean(e));
      rows[r].seed_p90s.push_back(p90(e));
      rows[r].errors.insert(rows[r].errors.end(), e.begin(), e.end());
    }
  }

  std::printf("Service accuracy: %zu sessions x %d rounds per seed, seeds "
              "%llu..%llu, service N = %zu, paper N = %zu\n\n",
              kSessions, kRounds,
              static_cast<unsigned long long>(seeds.front()),
              static_cast<unsigned long long>(seeds.back()), service_n,
              paper_n);
  std::printf("%-16s %5s %5s %7s %10s %9s %10s %9s\n", "row", "users", "N",
              "epochs", "mean", "+-bound", "p90", "+-bound");
  for (const Row& r : rows) {
    std::printf("%-16s %5zu %5zu %7zu %10.4f %9.4f %10.4f %9.4f\n",
                r.name.c_str(), r.users, r.num_predictions, r.errors.size(),
                numeric::mean(r.errors), bound_of(r.seed_means), p90(r.errors),
                bound_of(r.seed_p90s));
  }
  std::printf("\nPaired by seed (per-seed mean error, service vs paper N):\n");
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const Row& svc = rows[i];
    const Row& ref = rows[i + 1];
    std::size_t no_worse = 0;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      no_worse += svc.seed_means[s] <= ref.seed_means[s] ? 1 : 0;
    }
    std::printf("  %zu user(s): service no worse on %zu of %zu seeds\n",
                svc.users, no_worse, seeds.size());
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << ledger_json(rows, seeds);
    if (!out) {
      std::cerr << "exp_service_accuracy: cannot write " << out_path << "\n";
      return 1;
    }
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  return 0;
}
