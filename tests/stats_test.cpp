// Bootstrap statistics (data::bootstrap_mean_ci).
#include <gtest/gtest.h>

#include <vector>

#include "data/stats.hpp"
#include "tensor/rng.hpp"

namespace edgellm {
namespace {

TEST(Stats, CiCoversTheMean) {
  Rng rng(12);
  std::vector<float> samples;
  for (int i = 0; i < 50; ++i) samples.push_back(rng.normal(5.0f, 1.0f));
  Rng brng(13);
  const auto ci = data::bootstrap_mean_ci(samples, 0.95, 1000, brng);
  EXPECT_TRUE(ci.contains(ci.mean));
  EXPECT_LT(ci.lo, ci.hi);
  EXPECT_NEAR(ci.mean, 5.0, 0.5);
  EXPECT_LT(ci.hi - ci.lo, 1.2);  // ~4 * sigma/sqrt(50)
}

TEST(Stats, TighterWithMoreSamples) {
  Rng rng(14);
  std::vector<float> small, big;
  for (int i = 0; i < 10; ++i) small.push_back(rng.normal(0.0f, 1.0f));
  for (int i = 0; i < 200; ++i) big.push_back(rng.normal(0.0f, 1.0f));
  Rng b1(15), b2(15);
  const auto ci_small = data::bootstrap_mean_ci(small, 0.95, 800, b1);
  const auto ci_big = data::bootstrap_mean_ci(big, 0.95, 800, b2);
  EXPECT_LT(ci_big.hi - ci_big.lo, ci_small.hi - ci_small.lo);
}

TEST(Stats, OverlapsAndValidation) {
  data::ConfidenceInterval a{1.0, 0.5, 1.5};
  data::ConfidenceInterval b{1.4, 1.2, 1.8};
  data::ConfidenceInterval c{3.0, 2.5, 3.5};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  Rng rng(16);
  EXPECT_THROW(data::bootstrap_mean_ci({1.0f}, 0.95, 1000, rng), std::invalid_argument);
  EXPECT_THROW(data::bootstrap_mean_ci({1.0f, 2.0f}, 1.5, 1000, rng), std::invalid_argument);
  EXPECT_THROW(data::bootstrap_mean_ci({1.0f, 2.0f}, 0.95, 10, rng), std::invalid_argument);
}

}  // namespace
}  // namespace edgellm
