#pragma once

#include "core/observation_model.hpp"

namespace fluxfp::core {

/// RSS link-crossing attenuation (Patwari & Wilson, PAPERS.md): a user at
/// p shadows the radio link a--b when p lies inside the thin ellipse with
/// foci a and b, and the induced RSS drop scales as 1/sqrt(|ab|). The
/// shape is the ellipse gate times that link-length weight:
///
///   phi(p, {a,b}) = max(0, 1 - (|pa| + |pb| - |ab|) / lambda)
///                   / sqrt(max(|ab|, min_link))
///
/// lambda is the excess-path width of the sensitivity ellipse (meters);
/// the profiled stretch is the per-user attenuation gain in dB at the
/// ellipse axis. Observations live on sniffer PAIRS: sites_are_links() is
/// true and both Site endpoints are meaningful (net::enumerate_links +
/// eval::link_sites produce them).
///
/// Denominator guard (the flux d_min pattern): |ab| -> 0 for a degenerate
/// self-link would blow up the 1/sqrt weight, so the denominator is
/// clamped at min_link, validated positive at construction.
class RssLinkModel final : public ObservationModel {
 public:
  /// Throws std::invalid_argument unless both parameters are finite and
  /// positive.
  RssLinkModel(double lambda, double min_link_length);

  ModelId id() const override { return ModelId::kRssLink; }
  std::unique_ptr<ObservationModel> clone() const override {
    return std::make_unique<RssLinkModel>(*this);
  }
  bool sites_are_links() const override { return true; }
  const char* stretch_unit() const override {
    return "link attenuation gain (dB)";
  }

  double site_shape(geom::Vec2 sink, const Site& site) const override;
  bool site_shape_row(geom::Vec2 sink, const SiteRows& sites, std::size_t n,
                      double* out) const override;

  double lambda() const { return lambda_; }
  double min_link_length() const { return min_link_; }

 private:
  double lambda_ = 0.0;
  double inv_lambda_ = 0.0;
  double min_link_ = 0.0;
};

}  // namespace fluxfp::core
