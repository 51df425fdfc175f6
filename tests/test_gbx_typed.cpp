// Typed tests: the core Matrix/HierMatrix contract across value types.
// GraphBLAS is polymorphic over its value domain; these sweeps pin the
// same behaviour for float, double, and the integer widths the traffic
// pipeline uses for packet/byte counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>

#include "gbx/matrix.hpp"
#include "gbx/matrix_ops.hpp"
#include "gbx/mxm.hpp"
#include "gbx/reduce.hpp"
#include "gbx/serialize.hpp"
#include "gbx/transpose.hpp"
#include "hier/hier.hpp"

namespace {

using gbx::Index;

template <class T>
class TypedMatrix : public ::testing::Test {};

using ValueTypes = ::testing::Types<double, float, std::int64_t,
                                    std::uint64_t, std::int32_t, std::uint32_t>;
TYPED_TEST_SUITE(TypedMatrix, ValueTypes);

TYPED_TEST(TypedMatrix, AccumulateAndQuery) {
  using T = TypeParam;
  gbx::Matrix<T> m(1u << 20, 1u << 20);
  m.set_element(7, 9, T{3});
  m.set_element(7, 9, T{4});
  m.set_element(100000, 2, T{1});
  EXPECT_EQ(m.nvals(), 2u);
  EXPECT_EQ(m.extract_element(7, 9).value(), T{7});
  EXPECT_EQ(m.extract_element(100000, 2).value(), T{1});
}

TYPED_TEST(TypedMatrix, EwiseAddAgainstModel) {
  using T = TypeParam;
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<Index> coord(0, 63);
  std::uniform_int_distribution<int> val(1, 9);

  gbx::Matrix<T> a(64, 64), b(64, 64);
  std::map<std::pair<Index, Index>, T> model;
  for (int k = 0; k < 400; ++k) {
    const Index i = coord(rng), j = coord(rng);
    const T v = static_cast<T>(val(rng));
    if (k % 2) {
      a.set_element(i, j, v);
    } else {
      b.set_element(i, j, v);
    }
    model[{i, j}] = static_cast<T>(model[{i, j}] + v);
  }
  auto c = gbx::ewise_add<gbx::Plus<T>>(a, b);
  ASSERT_EQ(c.nvals(), model.size());
  for (const auto& [k, v] : model)
    EXPECT_EQ(c.extract_element(k.first, k.second).value(), v);
}

TYPED_TEST(TypedMatrix, HierEquivalence) {
  using T = TypeParam;
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<Index> coord(0, 255);
  std::uniform_int_distribution<int> val(1, 5);

  hier::HierMatrix<T> h(1u << 16, 1u << 16, hier::CutPolicy({50, 500}));
  gbx::Matrix<T> direct(1u << 16, 1u << 16);
  for (int k = 0; k < 3000; ++k) {
    const Index i = coord(rng), j = coord(rng);
    const T v = static_cast<T>(val(rng));
    h.update(i, j, v);
    direct.set_element(i, j, v);
  }
  EXPECT_TRUE(gbx::equal(h.snapshot(), direct));
}

TYPED_TEST(TypedMatrix, ReduceAndTranspose) {
  using T = TypeParam;
  gbx::Matrix<T> m(1000, 1000);
  m.set_element(1, 2, T{10});
  m.set_element(1, 3, T{20});
  m.set_element(500, 2, T{5});
  EXPECT_EQ((gbx::reduce_scalar<gbx::PlusMonoid<T>>(m)), T{35});
  auto t = gbx::transpose(m);
  EXPECT_EQ(t.extract_element(2, 500).value(), T{5});
  EXPECT_EQ((gbx::reduce_scalar<gbx::PlusMonoid<T>>(t)), T{35});
}

TYPED_TEST(TypedMatrix, SerializeRoundTrip) {
  using T = TypeParam;
  gbx::Matrix<T> m(1u << 24, 1u << 24);
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<Index> coord(0, (1u << 24) - 1);
  for (int k = 0; k < 300; ++k)
    m.set_element(coord(rng), coord(rng), static_cast<T>(k % 50 + 1));
  std::stringstream ss;
  gbx::serialize(ss, m);
  auto m2 = gbx::deserialize<T>(ss);
  EXPECT_TRUE(gbx::equal(m, m2));
}

TYPED_TEST(TypedMatrix, MxmSmall) {
  using T = TypeParam;
  gbx::Matrix<T> a(3, 3), b(3, 3);
  a.set_element(0, 1, T{2});
  b.set_element(1, 2, T{3});
  auto c = gbx::mxm<gbx::PlusTimes<T>>(a, b);
  EXPECT_EQ(c.nvals(), 1u);
  EXPECT_EQ(c.extract_element(0, 2).value(), T{6});
}

}  // namespace
