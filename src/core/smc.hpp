#pragma once

#include <array>
#include <span>
#include <vector>

#include "core/nls.hpp"
#include "geom/sampling.hpp"

namespace fluxfp::core {

/// A weighted position sample <P(i), w(i)> (§4.D).
struct Particle {
  geom::Vec2 position;
  double weight = 0.0;
};

/// Configuration of the Sequential Monte Carlo tracker (Algorithm 4.1).
///
/// Threading: candidate evaluation inside step() fans out over the process
/// thread pool — set it with numeric::set_thread_count() or the
/// FLUXFP_THREADS env var (0 = hardware concurrency, 1 = serial). All RNG
/// draws stay on the calling thread, so tracker output is bit-identical at
/// any thread count; the knob trades wall-clock only.
struct SmcConfig {
  std::size_t num_predictions = 1000;  ///< N samples drawn per user per round
  std::size_t num_keep = 10;  ///< M samples kept after filtering (<= N)
  double vmax = 5.0;                   ///< max speed (distance per unit time)
  /// Conditional sweeps in filtering. A one-user tracker runs one sweep
  /// whatever this says: with no other user's column to hold fixed, every
  /// further sweep repeats the first one's argmin exactly.
  int sweeps = 2;
  /// Asynchronous-updating test (§4.E): a user is "active" in a round only
  /// if removing its column from the joint fit worsens the residual by more
  /// than this fraction of the measured norm. This detects the paper's
  /// "best fit s/r -> 0" users and additionally phantom users that merely
  /// duplicate another user's position (whose marginal contribution is 0).
  double inactive_improvement_tol = 0.02;
  /// Absolute floor: when the measured flux norm is below this the whole
  /// round is considered empty.
  double empty_measurement_tol = 1e-9;
  /// Importance weights w_t = w_{t-1} * 1/||F-F'|| (Eq. 4.3). When false,
  /// kept samples get equal weights (ablation of §4.D).
  bool importance_sampling = true;
  /// §4.C's suggested refinement: once a user's heading can be estimated
  /// from its last two accepted updates, bias part of the prediction
  /// samples into a cone around that heading instead of the full disc.
  bool heading_aware = false;
  /// Fraction of predictions drawn from the heading cone (rest stay
  /// uniform in the disc, keeping the filter able to recover from turns).
  double heading_mix = 0.5;
  /// Half-angle of the heading cone, radians.
  double heading_half_angle = 0.7;
  /// Optional robust observation fit: each round, readings are IRLS-
  /// reweighted against the fit at the current estimates before the
  /// filtering sweeps, so byzantine sniffers can't steer the particles.
  /// No-op at RobustLoss::kNone.
  RobustFitConfig robust;
  /// Divergence detection + recovery: when a round's best residual stays
  /// above divergence_fraction * ||F'|| (or no user accepts an update on a
  /// non-empty window) for divergence_rounds consecutive non-empty rounds,
  /// the track is declared lost and every user's particle set is re-seeded
  /// from a coarse recovery_grid x recovery_grid scan of the field —
  /// instead of drifting forever on a dead track.
  bool divergence_recovery = false;
  double divergence_fraction = 0.5;
  int divergence_rounds = 3;
  std::size_t recovery_grid = 16;
};

/// Per-round output of the tracker.
struct SmcStepResult {
  std::vector<bool> updated;       ///< per user: did this round move its samples
  std::vector<double> stretches;   ///< fitted s_j/r at the best combination
  double residual = 0.0;           ///< ||F - F'|| at the best combination
  std::vector<geom::Vec2> best;    ///< best filtered position per user
  bool recovered = false;          ///< divergence recovery re-seeded this round
};

/// Serializable mutable state of one tracked user — the checkpoint currency
/// of the streaming runtime (FLUXFPC1, DESIGN.md §13). Everything step()
/// mutates per user is here; copying it out and back is bit-exact.
struct SmcUserState {
  std::vector<Particle> particles;
  double t_last = 0.0;
  geom::Vec2 prev_estimate;
  geom::Vec2 heading;
};

/// Complete mutable state of an SmcTracker. Configuration and the field are
/// deliberately absent: a restore target must be constructed with the same
/// inputs, and restore_state() validates shapes and particle values.
struct SmcState {
  std::vector<SmcUserState> users;
  int bad_rounds = 0;
};

/// Sequential Monte Carlo estimation of mobile-user positions from a time
/// series of sparse flux observations (§4.B–E, Algorithm 4.1):
///
///  * prediction — N samples per user drawn uniformly from discs of radius
///    v_max * Δt_i around (weight-sampled) previous samples (Eq. 4.2);
///  * filtering — candidates ranked by the NLS objective with the other
///    users held at their current best (conditional sweeps stand in for
///    the paper's N^K combination enumeration); the top M survive;
///  * importance sampling — surviving samples weighted by the reciprocal
///    objective value, cumulated over rounds (Eq. 4.3);
///  * asynchronous updating — users whose best-fit s/r ≈ 0 are left
///    untouched and their Δt keeps growing until their next collection.
class SmcTracker {
 public:
  /// Initializes each user's sample set with `config.num_keep` uniform
  /// positions at weight 1/M (the "no knowledge" prior). `field` must
  /// outlive the tracker. Throws std::invalid_argument on a bad config or
  /// num_users outside (0, kMaxGramUsers].
  SmcTracker(const geom::Field& field, std::size_t num_users,
             SmcConfig config, geom::Rng& rng);

  /// Processes the observation window ending at `time` (must increase
  /// across calls). `objective` wraps this window's sniffed flux.
  ///
  /// Every per-step buffer (prediction sets, candidate and representative
  /// columns, residuals, orderings, the robust reweighting) is scratch of
  /// the calling thread, not of the tracker: step() rebuilds all of it each
  /// round, so many trackers stepped on one thread (a service worker's
  /// sessions) share one warm set of buffers and steady-state steps stop
  /// allocating, while a tracker itself holds only filter state. Where the
  /// scratch lives never affects results.
  SmcStepResult step(double time, const SparseObjective& objective,
                     geom::Rng& rng);

  std::size_t num_users() const { return particles_.size(); }
  const SmcConfig& config() const { return config_; }

  /// Current weighted-mean position estimate for `user`.
  geom::Vec2 estimate(std::size_t user) const;
  /// Weighted 2x2 sample covariance of the user's particle set, row-major
  /// [xx, xy, yx, yy]. Shrinks as the filter converges.
  std::array<double, 4> covariance(std::size_t user) const;
  /// Scalar uncertainty: RMS particle spread around the estimate
  /// (sqrt of the covariance trace).
  double spread(std::size_t user) const;
  /// Current sample set for `user` (weights sum to 1). Materialized from
  /// the tracker's structure-of-arrays storage; bind the result to a
  /// (const) reference or iterate it directly.
  std::vector<Particle> particles(std::size_t user) const;
  /// Time of the user's last accepted update (0 before the first).
  double last_update_time(std::size_t user) const { return t_last_[user]; }

  /// Unit heading estimated from the last two accepted updates; zero
  /// vector while unknown. Only maintained when config().heading_aware.
  geom::Vec2 heading(std::size_t user) const { return heading_[user]; }

  /// Consecutive non-empty rounds the fit has looked divergent (resets to
  /// 0 on a good round or after a recovery re-seed).
  int consecutive_bad_rounds() const { return bad_rounds_; }

  /// Snapshot of every mutable filter variable (particles, weights, update
  /// times, headings, divergence counter). A tracker constructed with the
  /// same inputs and restored from the snapshot continues bit-identically
  /// to one that never stopped — the checkpoint half of the streaming
  /// runtime's durability contract.
  SmcState save_state() const;
  /// Restores a snapshot taken from a tracker constructed with the same
  /// inputs. Throws std::invalid_argument, before applying anything, on a
  /// shape mismatch (wrong user count, empty particle sets, or sets larger
  /// than num_predictions) or on values step() never produces: a particle
  /// that is non-finite or outside the field, a weight that is non-finite
  /// or negative, or a weight set that does not sum to 1 within 1e-9.
  void restore_state(const SmcState& state);

 private:
  /// Structure-of-arrays particle storage: positions and weights of one
  /// user's sample set in three parallel arrays (the layout half of the
  /// SIMD + SoA overhaul; estimate/covariance/prediction sweep these
  /// contiguously). Particle i is {x[i], y[i]} at weight w[i].
  struct ParticleSet {
    std::vector<double> x;
    std::vector<double> y;
    std::vector<double> w;
    std::size_t size() const { return x.size(); }
  };

  const geom::Field* field_;
  SmcConfig config_;
  std::vector<ParticleSet> particles_;
  std::vector<double> t_last_;
  std::vector<geom::Vec2> prev_estimate_;  // estimate at the last update
  std::vector<geom::Vec2> heading_;        // unit heading, zero if unknown
  int bad_rounds_ = 0;

  /// The per-thread scratch step() draws from (see step()); defined in
  /// smc.cpp.
  struct Scratch;

  struct Prediction {
    geom::Vec2 position;
    std::size_t origin;  // index of the particle it was drawn from
  };
  /// Fills `out` (num_predictions entries) with motion-model samples;
  /// `weights_scratch` must hold particles_[user].size() entries.
  void predict(std::size_t user, double radius, geom::Rng& rng,
               std::span<double> weights_scratch,
               std::span<Prediction> out) const;

  /// Coarse-grid re-seed of every user's particle set against `objective`
  /// (divergence recovery). Updates reps and the scratch's representative
  /// columns in place. Grid scoring runs through the parallel batch
  /// evaluator; no RNG involved.
  void reseed_from_grid(double time, const SparseObjective& objective,
                        std::span<geom::Vec2> reps, Scratch& scratch);
};

}  // namespace fluxfp::core
