// Tests for masked mxm (the triangle-count kernel) against the unmasked
// gbx::mxm oracle.
#include <gtest/gtest.h>

#include <random>

#include "gbx/matrix.hpp"
#include "gbx/mxm.hpp"
#include "gbx/mxm_masked.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;

Matrix<double> random_matrix(Index dim, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> coord(0, dim - 1);
  std::uniform_real_distribution<double> val(1, 5);
  Matrix<double> m(dim, dim);
  for (std::size_t k = 0; k < n; ++k)
    m.set_element(coord(rng), coord(rng), val(rng));
  m.materialize();
  return m;
}

TEST(MxmMasked, MatchesUnmaskedOnMaskPattern) {
  auto a = random_matrix(40, 300, 1);
  auto b = random_matrix(40, 300, 2);
  auto mask = random_matrix(40, 200, 3);

  auto full = gbx::mxm<gbx::PlusTimes<double>>(a, b);
  auto masked = gbx::mxm_masked<gbx::PlusTimes<double>>(mask, a, b);

  // Every masked output coordinate must be in the mask AND match full.
  masked.for_each([&](Index i, Index j, double v) {
    EXPECT_TRUE(mask.extract_element(i, j).has_value());
    EXPECT_NEAR(full.extract_element(i, j).value(), v, 1e-9);
  });
  // Every full-product entry on the mask pattern must appear in masked.
  full.for_each([&](Index i, Index j, double v) {
    if (mask.extract_element(i, j).has_value()) {
      auto got = masked.extract_element(i, j);
      ASSERT_TRUE(got.has_value());
      EXPECT_NEAR(*got, v, 1e-9);
    }
  });
}

TEST(MxmMasked, EmptyMask) {
  auto a = random_matrix(10, 40, 4);
  auto b = random_matrix(10, 40, 5);
  Matrix<double> mask(10, 10);
  auto c = gbx::mxm_masked<gbx::PlusTimes<double>>(mask, a, b);
  EXPECT_EQ(c.nvals(), 0u);
}

TEST(MxmMasked, DimValidation) {
  Matrix<double> a(4, 5), b(5, 6), badmask(4, 5);
  EXPECT_THROW((gbx::mxm_masked<gbx::PlusTimes<double>>(badmask, a, b)),
               gbx::DimensionMismatch);
  Matrix<double> b2(4, 6);
  Matrix<double> mask(4, 6);
  EXPECT_THROW((gbx::mxm_masked<gbx::PlusTimes<double>>(mask, a, b2)),
               gbx::DimensionMismatch);
}

}  // namespace
