// The streaming path over every observation model: events keyed by site
// index fold through the model-generic StreamTracker, and the session
// states are bit-identical at 1 and 4 manager workers, mid-stream and at
// the end — the same contract test_manager.cpp pins for flux, extended
// across backends.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
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

/// Encoded images of `m` fed `events`: at two mid-stream quiesced cuts and
/// after finish(). A session's state holds its particles, weights and RNG
/// position, so an epoch that fired differently shows in every later image.
std::vector<std::string> run_images(TrackerManager& m,
                                    const std::vector<FluxEvent>& events) {
  m.start();
  std::vector<std::string> images;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == events.size() / 3 || i == 2 * events.size() / 3) {
      images.push_back(encode_checkpoint(m.checkpoint()));
    }
    m.offer(events[i]);
  }
  m.finish();
  images.push_back(encode_checkpoint(m.checkpoint()));
  return images;
}

std::vector<std::string> run_manager(const ModelBed& bed,
                                     std::size_t num_sessions,
                                     std::size_t workers) {
  ManagerConfig mc;
  mc.workers = workers;
  TrackerManager m(mc);
  std::vector<FluxEvent> events;
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    m.add_session(u, bed.tracker(1000 + u));
    for (const FluxEvent& e : bed.session_events(u, 8)) {
      events.push_back(e);
    }
  }
  const std::vector<std::string> images = run_images(m, events);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    EXPECT_GT(m.session(u).stats().epochs_fired, 0u)
        << "session " << u << " fired nothing";
  }
  return images;
}

void expect_worker_count_invariant(const core::ObservationModel& model) {
  const ModelBed bed(model, 99);
  const std::vector<std::string> one = run_manager(bed, 3, 1);
  const std::vector<std::string> four = run_manager(bed, 3, 4);
  EXPECT_EQ(one, four) << core::model_name(model.id());
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
// bit-identical at 1 vs 4 workers — with no quota each session's events
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
    const std::vector<std::string> images = run_images(m, with_dups);
    EXPECT_GT(m.session(0).stats().epochs_fired, 0u);
    EXPECT_EQ(m.session(0).stats().duplicates, 6u);
    return images;
  };
  EXPECT_EQ(run(1), run(4));
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
