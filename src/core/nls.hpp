#pragma once

#include <array>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "core/flux_model.hpp"
#include "geom/vec2.hpp"

namespace fluxfp::core {

/// Contiguous structure-of-arrays storage for a batch of shape columns:
/// C columns in one 64-byte-aligned allocation, column c occupying
/// data()[c * stride()] onward. stride() is rows() rounded up to a
/// multiple of 8 doubles so every column starts on its own cache line;
/// the padding tail of a column is never read or written by the kernels.
/// The candidate-evaluation engine fills one block per user per round
/// (SparseObjective::shape_columns) and scores it in cache-friendly chunks
/// (ConditionalFit::evaluate_batch), replacing the per-candidate
/// vector<vector<double>> heap churn of the serial implementation.
class ColumnBlock {
 public:
  ColumnBlock() = default;
  ColumnBlock(std::size_t rows, std::size_t cols) { resize(rows, cols); }

  /// Reshapes to rows x cols; existing contents are unspecified afterwards
  /// (a grown block is left uninitialized, not zeroed: every caller writes
  /// each column before reading it). Capacity is retained across shrinks
  /// (high-water semantics), so a reused block stops allocating once it
  /// has seen its largest batch.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    stride_ = (rows + 7) / 8 * 8;
    const std::size_t need = stride_ * cols;
    if (need > capacity_) {
      data_.reset(new (std::align_val_t{64}) double[need]);
      capacity_ = need;
    }
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Doubles between consecutive column starts; >= rows(), multiple of 8.
  std::size_t stride() const { return stride_; }

  std::span<double> column(std::size_t c) {
    return {data_.get() + c * stride_, rows_};
  }
  std::span<const double> column(std::size_t c) const {
    return {data_.get() + c * stride_, rows_};
  }

  double* data() { return data_.get(); }
  const double* data() const { return data_.get(); }

 private:
  struct AlignedFree {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::size_t capacity_ = 0;  // allocated doubles
  std::unique_ptr<double[], AlignedFree> data_;
};

/// Result of fitting stretch factors for one candidate set of sink
/// positions.
struct StretchFit {
  double residual = 0.0;             ///< ||F - F'||_2 at the optimum
  std::vector<double> stretches;     ///< fitted s_j / r, all >= 0
};

/// Robust-fitting options: an optional IRLS reweighting of the NLS samples
/// so a few wildly wrong readings (byzantine sniffers) cannot hijack the
/// profiled NNLS fit.
enum class RobustLoss {
  kNone,   ///< plain least squares
  kHuber,  ///< Huber weights w = min(1, k*sigma/|r|), sigma from the MAD
};

struct RobustFitConfig {
  RobustLoss loss = RobustLoss::kNone;
  /// Huber clip point in multiples of the robust residual scale.
  double huber_k = 1.345;
  /// Reweight-and-refit iterations on top of the initial plain fit.
  int reweight_rounds = 2;
};

/// Per-sample IRLS weights in [0, 1] for the given fit residuals. The
/// residual scale is the normalized MAD; with a degenerate scale (more
/// than half the residuals identical) all weights are 1.
std::vector<double> robust_weights(std::span<const double> residuals,
                                   const RobustFitConfig& config);
/// In-place variant (out resized to residuals.size()) for the IRLS loops.
void robust_weights(std::span<const double> residuals,
                    const RobustFitConfig& config, std::vector<double>& out);

/// The sparse-sampling NLS objective of §4.A.
///
/// Fix n sniffed nodes with positions q_1..q_n and measured flux F'. For
/// candidate sink positions p_1..p_K, the model predicts
///   F_i = Σ_j (s_j/r) * phi(p_j, q_i)
/// which is *linear* in the integrated factors s_j/r. The objective
/// therefore profiles them out: for any candidate position set the optimal
/// non-negative stretches solve an n x K NNLS, and the candidate's score is
/// the remaining residual ||F - F'||. The position search on top of this is
/// what the localizer / SMC tracker implement.
///
/// Missingness is first-class: readings equal to net::kMissingReading (or
/// masked out via the validity-vector constructor) are excluded from the
/// fit entirely — the objective compacts itself to the live samples, so a
/// failed sniffer contributes *no* evidence instead of a poisoned zero.
/// An all-missing window is legal and behaves as an empty measurement
/// (sample_count() == 0, measured_norm() == 0).
///
/// The objective is model-polymorphic: any ObservationModel backend
/// (flux, RSS link-attenuation, passive traces) plugs in, with virtual
/// dispatch at COLUMN granularity (one site_shape_row call per column) so
/// the SIMD/SoA hot path is untouched. Point-model callers keep the
/// Vec2-vector constructors; link models use the Site-vector ones.
class SparseObjective {
 public:
  /// `model` is cloned (the objective owns an immutable copy);
  /// `sample_positions` are the sniffed nodes' positions (point sites);
  /// `measured` is F' (same length). Readings that are missing
  /// (net::is_missing) are masked out. Exact-duplicate sample positions
  /// (one sniffer reported twice in a snapshot — duplicated delivery in
  /// the streaming runtime) collapse to a single row carrying the LATEST
  /// live reading, so a re-report updates the evidence instead of
  /// double-weighting it. Throws std::invalid_argument on size mismatch
  /// or empty inputs.
  SparseObjective(const ObservationModel& model,
                  std::vector<geom::Vec2> sample_positions,
                  std::vector<double> measured);

  /// As above with an explicit observation mask: sample i participates in
  /// the fit only when valid[i] is true AND the reading is not missing.
  /// `valid` must match the sample count.
  SparseObjective(const ObservationModel& model,
                  std::vector<geom::Vec2> sample_positions,
                  std::vector<double> measured, const std::vector<bool>& valid);

  /// Site-vector form for link models (and uniformly for any backend):
  /// site i carries both endpoints. Duplicate collapse compares BOTH
  /// endpoints, so distinct links sharing one sniffer stay distinct rows.
  SparseObjective(const ObservationModel& model, std::vector<Site> sites,
                  std::vector<double> measured);

  /// Sharing form for per-epoch hot loops (the streaming runtime): the
  /// model is shared, not cloned, so building an objective per epoch costs
  /// no model copy. `model` must be non-null.
  SparseObjective(std::shared_ptr<const ObservationModel> model,
                  std::vector<Site> sites, std::vector<double> measured,
                  const std::vector<bool>& valid);

  /// Live (unmasked) samples — the n the fit actually uses.
  std::size_t sample_count() const { return sample_positions_.size(); }
  /// Samples excluded as missing/invalid/duplicate at construction.
  std::size_t masked_count() const { return masked_count_; }
  /// Live sites' primary endpoints (the sniffer position for point models).
  const std::vector<geom::Vec2>& sample_positions() const {
    return sample_positions_;
  }
  /// Live site i with both endpoints (b == a for point models).
  Site site(std::size_t i) const {
    return Site{sample_positions_[i], positions_b_[i]};
  }
  const std::vector<double>& measured() const { return measured_; }
  double measured_norm() const { return measured_norm_; }
  const ObservationModel& model() const { return *model_; }

  /// The model shape column [phi(sink, q_1) ... phi(sink, q_n)] over the
  /// live samples (scaled by the row weights for a reweighted objective).
  std::vector<double> shape_column(geom::Vec2 sink) const;
  /// In-place variant (out resized to n) to avoid allocation in hot loops.
  void shape_column(geom::Vec2 sink, std::vector<double>& out) const;
  /// Span variant for arena-backed scratch: `out` must already have
  /// sample_count() entries.
  void shape_column(geom::Vec2 sink, std::span<double> out) const {
    shape_column_into(sink, out);
  }

  /// Batch column build: `out` is resized to n x sinks.size() and column c
  /// is filled with shape_column(sinks[c]). The work fans out over the
  /// thread pool (numeric::parallel_for); each column is a pure function
  /// of its sink, so the block is bit-identical at any thread count.
  void shape_columns(std::span<const geom::Vec2> sinks,
                     ColumnBlock& out) const;

  /// Full fit for K candidate sinks.
  StretchFit fit(std::span<const geom::Vec2> sinks) const;

  /// Fit from precomputed shape columns (all length n). Used by the search
  /// loops where K-1 columns stay fixed while one candidate varies.
  StretchFit fit_columns(std::span<const std::span<const double>> columns) const;

  /// Per-live-sample signed residuals F(sinks, stretches) - F' (length
  /// sample_count()). Throws std::invalid_argument on size mismatch.
  std::vector<double> residuals_at(std::span<const geom::Vec2> sinks,
                                   std::span<const double> stretches) const;
  /// In-place variant (out resized to n) for the IRLS loops.
  void residuals_at(std::span<const geom::Vec2> sinks,
                    std::span<const double> stretches,
                    std::vector<double>& out) const;

  /// Weighted copy of this objective: row i of the least-squares system is
  /// scaled by sqrt(weights[i]) (weights.size() == sample_count(), all
  /// >= 0). Zero-weight rows stay present but contribute nothing. This is
  /// how the robust IRLS loop downweights outlier readings while reusing
  /// every fit path (Gram NNLS, ConditionalFit) unchanged.
  SparseObjective reweighted(std::span<const double> weights) const;

  /// In-place variant for the per-epoch IRLS loop: overwrites `out` with
  /// the weighted copy, reusing its vector capacity so steady-state rounds
  /// allocate nothing. `out` is typically optional<SparseObjective>
  /// storage seeded once via reweighted().
  void reweighted_into(std::span<const double> weights,
                       SparseObjective& out) const;

 private:
  /// Fills exactly out.size() == sample_count() entries; no resize.
  void shape_column_into(geom::Vec2 sink, std::span<double> out) const;

  /// Shared constructor tail: masks, dedups (both endpoints), compacts to
  /// the live sites and builds the SoA coordinate rows. Expects
  /// sample_positions_ / positions_b_ / measured_ to hold the raw inputs.
  void compact(const std::vector<bool>& valid);

  /// Shared immutable model: copies of the objective (reweighted IRLS)
  /// share the backend instead of cloning it per round.
  std::shared_ptr<const ObservationModel> model_;
  /// Primary endpoints of the live sites (== the site.a coordinates).
  std::vector<geom::Vec2> sample_positions_;
  /// Secondary endpoints (== sample_positions_ values for point models).
  std::vector<geom::Vec2> positions_b_;
  /// Structure-of-arrays mirror of the site endpoints (built once at
  /// construction, after compaction) — the contiguous coordinate rows the
  /// SIMD shape kernels consume.
  std::vector<double> qx_;
  std::vector<double> qy_;
  std::vector<double> bx_;
  std::vector<double> by_;
  std::vector<double> measured_;
  double measured_norm_ = 0.0;
  std::size_t masked_count_ = 0;
  /// sqrt of the per-row weights; empty means all-ones (unweighted).
  std::vector<double> row_scale_;
};

/// Maximum K supported by the Gram-space NNLS.
inline constexpr std::size_t kMaxGramUsers = 32;
/// Up to this K, support subsets are enumerated exhaustively (2^K - 1
/// Cholesky solves — exact and branch-free); above it, a Lawson–Hanson
/// active-set iteration in Gram space takes over.
inline constexpr std::size_t kGramEnumerationLimit = 6;

/// NNLS in Gram space: minimizes ||A s - b|| over s >= 0 given
/// G = A^T A (k x k), c = A^T b, and b2 = ||b||^2. For k <=
/// kGramEnumerationLimit every support subset is solved (the global
/// optimum's support is one of them, so the minimum-residual feasible
/// subset solution is the global optimum); for larger k a Lawson–Hanson
/// active-set loop is used. Throws std::invalid_argument for
/// k > kMaxGramUsers.
StretchFit nnls_from_gram(std::span<const double> g, std::size_t k,
                          std::span<const double> c, double b2);

/// Incremental candidate evaluator for the conditional search loops: K-1
/// shape columns stay fixed while the column of one user sweeps over
/// candidates. Precomputes the fixed Gram block and fixed c entries so each
/// candidate costs O(n*K) flops plus a tiny Gram-space NNLS.
class ConditionalFit {
 public:
  /// `fixed_columns` are the K-1 other users' shape columns (each length
  /// n); `vary_index` in [0, K) is the slot of the varying user in the
  /// output stretch vector. The objective and the storage the spans view
  /// must outlive this; the span-of-spans itself is copied.
  ConditionalFit(const SparseObjective& obj,
                 std::span<const std::span<const double>> fixed_columns,
                 std::size_t vary_index);

  /// Fit with the varying user's column = `candidate_column` (length n).
  StretchFit evaluate(std::span<const double> candidate_column) const;

  /// Residual-only evaluation — the hot-loop form. Identical arithmetic to
  /// evaluate().residual with zero heap allocation.
  double evaluate_residual(std::span<const double> candidate_column) const;

  /// Scores every column of `block` (block.rows() must equal the
  /// objective's sample count): residuals_out[c] receives the fit residual
  /// of candidate column c, and — when non-empty — vary_stretch_out[c] the
  /// varying user's fitted stretch. Both spans must have block.cols()
  /// entries. Candidates fan out over the thread pool; each evaluation is
  /// independent and writes only its own slot, so the outputs are
  /// bit-identical to a serial evaluate() loop at any thread count.
  void evaluate_batch(const ColumnBlock& block,
                      std::span<double> residuals_out,
                      std::span<double> vary_stretch_out = {}) const;

  std::size_t user_count() const { return fixed_count_ + 1; }

 private:
  /// Shared core: fit with the candidate column, writing the full stretch
  /// vector (user_count() entries) to `stretches`; returns the residual.
  double evaluate_into(std::span<const double> candidate_column,
                       double* stretches) const;

  const SparseObjective* obj_;
  std::size_t fixed_count_;
  std::size_t vary_index_;
  // Fixed-size storage (kMaxGramUsers bounds K) so constructing a
  // ConditionalFit per sweep allocates nothing.
  std::array<std::span<const double>, kMaxGramUsers> fixed_;
  std::array<double, kMaxGramUsers * kMaxGramUsers> fixed_gram_;  // row-major
  std::array<double, kMaxGramUsers> fixed_c_;
};

}  // namespace fluxfp::core
