#include "geom/sampling.hpp"

#include <gtest/gtest.h>

#include <numbers>

namespace fluxfp::geom {
namespace {

TEST(Sampling, UniformInFieldStaysInside) {
  const RectField f(30.0, 20.0);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(f.contains(uniform_in_field(f, rng)));
  }
}

TEST(Sampling, UniformInFieldCoversQuadrants) {
  const RectField f(10.0, 10.0);
  Rng rng(11);
  int quadrant[4] = {0, 0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p = uniform_in_field(f, rng);
    quadrant[(p.x > 5.0 ? 1 : 0) + (p.y > 5.0 ? 2 : 0)]++;
  }
  for (int q = 0; q < 4; ++q) {
    EXPECT_GT(quadrant[q], 350) << "quadrant " << q << " undersampled";
  }
}

TEST(Sampling, UniformInDiscWithinRadius) {
  Rng rng(3);
  const Vec2 c{5, 5};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(distance(uniform_in_disc(c, 2.5, rng), c), 2.5 + 1e-12);
  }
}

TEST(Sampling, UniformInDiscIsAreaUniform) {
  // Half the samples should land within radius/sqrt(2) of the center.
  Rng rng(5);
  int inner = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (distance(uniform_in_disc({0, 0}, 1.0, rng), {0, 0}) <
        1.0 / std::numbers::sqrt2) {
      ++inner;
    }
  }
  EXPECT_NEAR(static_cast<double>(inner) / n, 0.5, 0.02);
}

TEST(Sampling, UniformInDiscClippedStaysInField) {
  const RectField f(10.0, 10.0);
  Rng rng(13);
  // Disc mostly outside the field.
  for (int i = 0; i < 500; ++i) {
    const Vec2 p = uniform_in_disc_clipped({0.5, 0.5}, 4.0, f, rng);
    EXPECT_TRUE(f.contains(p));
  }
}

TEST(Sampling, UniformInDiscClippedDegenerateFallsBackToClamp) {
  const RectField f(10.0, 10.0);
  Rng rng(17);
  // Center far outside: rejection always fails, clamp fallback triggers.
  const Vec2 p = uniform_in_disc_clipped({50.0, 50.0}, 1.0, f, rng, 4);
  EXPECT_TRUE(f.contains(p));
}

TEST(Sampling, UniformPointsCount) {
  const RectField f(5.0, 5.0);
  Rng rng(29);
  EXPECT_EQ(uniform_points(f, 37, rng).size(), 37u);
}

TEST(Sampling, Reproducibility) {
  const RectField f(10.0, 10.0);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(uniform_in_field(f, a), uniform_in_field(f, b));
  }
}

}  // namespace
}  // namespace fluxfp::geom
