// The streaming path over every observation model: events keyed by site
// index fold through the model-generic StreamTracker, and the per-session
// results are bit-identical at 1 and 4 manager workers — the same
// contract test_manager.cpp pins for flux, extended across backends.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "core/flux_model.hpp"
#include "core/observation_model.hpp"
#include "core/passive_trace_model.hpp"
#include "core/rss_link_model.hpp"
#include "geom/sampling.hpp"
#include "stream/manager.hpp"
#include "stream/stream_tracker.hpp"

namespace fluxfp::stream {
namespace {

/// A deployment of one backend: sites per the model's geometry, event
/// streams generated straight from site_shape for a drifting truth.
struct ModelBed {
  geom::RectField field{20.0, 20.0};
  std::shared_ptr<const core::ObservationModel> model;
  std::vector<core::Site> sites;
  std::vector<std::size_t> keys;  // FluxEvent::node value of site i

  ModelBed(const core::ObservationModel& m, std::uint64_t seed,
           std::size_t n = 12)
      : model(m.clone()) {
    geom::Rng rng(seed);
    std::uniform_real_distribution<double> angle(0.0, 6.283185307179586);
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Vec2 a = geom::uniform_in_field(field, rng);
      geom::Vec2 b = a;
      if (m.sites_are_links()) {
        const double t = angle(rng);
        b = field.clamp({a.x + 2.0 * std::cos(t), a.y + 2.0 * std::sin(t)});
      }
      sites.push_back(core::Site{a, b});
      keys.push_back(i);
    }
  }

  StreamTracker tracker(std::uint64_t seed) const {
    StreamTrackerConfig cfg;
    cfg.smc.num_predictions = 30;
    cfg.smc.num_keep = 4;
    cfg.expected_readings = sites.size();
    return StreamTracker(*model, field, keys, sites, 1, cfg, seed);
  }

  /// `rounds` epochs of one user walking a diagonal: every site reports
  /// once per epoch, in site order within the epoch.
  std::vector<FluxEvent> session_events(std::uint32_t user,
                                        int rounds) const {
    std::vector<FluxEvent> events;
    for (int e = 0; e < rounds; ++e) {
      const double t0 =
          static_cast<double>(e) + 0.17 * static_cast<double>(user);
      const geom::Vec2 truth{2.0 + 1.5 * e + 0.3 * user,
                             3.0 + 1.2 * e - 0.2 * user};
      const geom::Vec2 p = field.clamp(truth);
      for (std::size_t i = 0; i < sites.size(); ++i) {
        const double reading = 2.0 * model->site_shape(p, sites[i]);
        events.push_back({t0 + 0.001 * static_cast<double>(i), user,
                          static_cast<std::uint32_t>(e),
                          static_cast<std::uint32_t>(keys[i]), reading});
      }
    }
    return events;
  }
};

using Fired =
    std::vector<std::vector<std::tuple<std::uint32_t, double, double>>>;

Fired run_manager(const ModelBed& bed, std::size_t num_sessions,
                  std::size_t workers) {
  ManagerConfig mc;
  mc.workers = workers;
  TrackerManager m(mc);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    m.add_session(u, bed.tracker(1000 + u));
  }
  m.start();
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    for (const FluxEvent& e : bed.session_events(u, 8)) {
      m.offer(e);
    }
  }
  m.finish();
  Fired fired(num_sessions);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    for (const EpochResult& r : m.results(u)) {
      fired[u].emplace_back(r.epoch, r.estimates[0].x, r.estimates[0].y);
    }
  }
  return fired;
}

void expect_worker_count_invariant(const core::ObservationModel& model) {
  const ModelBed bed(model, 99);
  const Fired one = run_manager(bed, 3, 1);
  const Fired four = run_manager(bed, 3, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t u = 0; u < one.size(); ++u) {
    ASSERT_FALSE(one[u].empty()) << "session " << u << " fired nothing";
    EXPECT_EQ(one[u], four[u])
        << core::model_name(model.id()) << " session " << u;
  }
}

TEST(ModelStreaming, FluxWorkerCountInvariant) {
  const geom::RectField field(20.0, 20.0);
  expect_worker_count_invariant(core::FluxModel(field, 1.0));
}

TEST(ModelStreaming, RssLinkWorkerCountInvariant) {
  expect_worker_count_invariant(core::RssLinkModel(4.0, 0.05));
}

TEST(ModelStreaming, PassiveTraceWorkerCountInvariant) {
  expect_worker_count_invariant(core::PassiveTraceModel(6.0));
}

// Equal-timestamp duplicate readings for one (epoch, site) slot: the
// LAST-pushed report wins deterministically, and the outcome is
// bit-identical at 1 vs 4 workers — under kBlock each session's events
// fold in push order on its single assigned worker, so worker count can
// never become a hidden tie-break.
TEST(ModelStreaming, EqualTimestampDuplicatesFoldIdenticallyAcrossWorkers) {
  const core::RssLinkModel model(4.0, 0.05);
  const ModelBed bed(model, 42);

  std::vector<FluxEvent> events = bed.session_events(0, 6);
  // Re-report site 3 of every epoch at the SAME timestamp as the original
  // event, with a different value. Insert adjacent to the original so both
  // orderings are covered across epochs.
  std::vector<FluxEvent> with_dups;
  for (const FluxEvent& e : events) {
    FluxEvent dup = e;
    if (e.node == 3) {
      dup.reading = e.reading * 3.0;
      if (e.epoch % 2 == 0) {
        with_dups.push_back(e);
        with_dups.push_back(dup);  // duplicate last: 3x value wins
      } else {
        with_dups.push_back(dup);
        with_dups.push_back(e);  // original last: true value wins
      }
    } else {
      with_dups.push_back(e);
    }
  }

  const auto run = [&](std::size_t workers) {
    ManagerConfig mc;
    mc.workers = workers;
    TrackerManager m(mc);
    m.add_session(0, bed.tracker(1000));
    m.start();
    for (const FluxEvent& e : with_dups) {
      m.offer(e);
    }
    m.finish();
    std::vector<std::tuple<std::uint32_t, double, double>> fired;
    for (const EpochResult& r : m.results(0)) {
      fired.emplace_back(r.epoch, r.estimates[0].x, r.estimates[0].y);
    }
    EXPECT_EQ(m.session(0).stats().duplicates, 6u);
    return fired;
  };
  const auto one = run(1);
  const auto four = run(4);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

TEST(ModelStreaming, GenericCtorValidatesShapes) {
  const core::PassiveTraceModel model(6.0);
  const ModelBed bed(model, 5);
  StreamTrackerConfig cfg;
  cfg.smc.num_predictions = 10;
  cfg.smc.num_keep = 2;
  // keys/sites length mismatch must be refused.
  std::vector<std::size_t> short_keys(bed.keys.begin(), bed.keys.end() - 1);
  EXPECT_THROW(StreamTracker(model, bed.field, short_keys, bed.sites, 1, cfg,
                             1),
               std::invalid_argument);
  EXPECT_THROW(StreamTracker(model, bed.field, {}, {}, 1, cfg, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace fluxfp::stream
