// Tests for binary serialization of matrices and hierarchical
// checkpoint/restore.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <sstream>
#include <string>

#include "gbx/error.hpp"
#include "gbx/matrix.hpp"
#include "gbx/serialize.hpp"
#include "gen/gen.hpp"
#include "hier/hier.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;

TEST(Serialize, EmptyMatrixRoundTrip) {
  Matrix<double> m(123, 456);
  std::stringstream ss;
  gbx::serialize(ss, m);
  auto m2 = gbx::deserialize<double>(ss);
  EXPECT_EQ(m2.nrows(), 123u);
  EXPECT_EQ(m2.ncols(), 456u);
  EXPECT_EQ(m2.nvals(), 0u);
}

TEST(Serialize, RoundTripPreservesEverything) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<Index> coord(0, gbx::kIPv4Dim - 1);
  Matrix<double> m(gbx::kIPv4Dim, gbx::kIPv4Dim);
  for (int k = 0; k < 10000; ++k)
    m.set_element(coord(rng), coord(rng), static_cast<double>(k) * 0.25);

  std::stringstream ss;
  gbx::serialize(ss, m);  // folds pending as a side effect
  auto m2 = gbx::deserialize<double>(ss);
  EXPECT_TRUE(gbx::equal(m, m2));
  EXPECT_TRUE(m2.validate());
}

TEST(Serialize, PendingFoldedBeforeWrite) {
  Matrix<double> m(10, 10);
  m.set_element(1, 1, 1.0);
  m.set_element(1, 1, 2.0);  // unfolded duplicate
  std::stringstream ss;
  gbx::serialize(ss, m);
  auto m2 = gbx::deserialize<double>(ss);
  EXPECT_EQ(m2.nvals(), 1u);
  EXPECT_DOUBLE_EQ(m2.extract_element(1, 1).value(), 3.0);
}

TEST(Serialize, IntegerTypes) {
  Matrix<std::int64_t> m(100, 100);
  m.set_element(5, 5, -42);
  std::stringstream ss;
  gbx::serialize(ss, m);
  auto m2 = gbx::deserialize<std::int64_t>(ss);
  EXPECT_EQ(m2.extract_element(5, 5).value(), -42);
}

TEST(Serialize, TypeMismatchRejected) {
  Matrix<double> m(10, 10);
  m.set_element(1, 1, 1.0);
  std::stringstream ss;
  gbx::serialize(ss, m);
  EXPECT_THROW(gbx::deserialize<std::int64_t>(ss), gbx::Error);
}

TEST(Serialize, GarbageRejected) {
  std::stringstream ss;
  ss << "this is not a matrix";
  EXPECT_THROW(gbx::deserialize<double>(ss), gbx::Error);
}

TEST(Serialize, TruncationRejected) {
  Matrix<double> m(100, 100);
  for (Index k = 0; k < 50; ++k) m.set_element(k, k, 1.0);
  std::stringstream ss;
  gbx::serialize(ss, m);
  const auto full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(gbx::deserialize<double>(cut), gbx::Error);
}

TEST(Serialize, ContainerBytesArePinned) {
  // The one matrix writer, against a literal captured before the
  // whole-matrix and row-range writers became one.
  Matrix<double> m(16, 20);
  m.set_element(1, 2, 0.5);
  m.set_element(1, 5, -2.0);
  m.set_element(9, 3, 4.25);
  const std::string want =
      "3130305842474848010000000100000000000000100000000000000014000000"
      "0000000002000000000000000100000000000000090000000000000003000000"
      "0000000000000000000000000200000000000000030000000000000003000000"
      "0000000002000000000000000500000000000000030000000000000003000000"
      "00000000000000000000e03f00000000000000c00000000000001140";
  const auto to_hex = [](const std::string& bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const unsigned char c : bytes) {
      out += kDigits[c >> 4];
      out += kDigits[c & 15];
    }
    return out;
  };
  std::stringstream from_matrix, from_view;
  gbx::serialize(from_matrix, m);
  gbx::serialize(from_view, m.view());
  EXPECT_EQ(to_hex(from_matrix.str()), want);
  EXPECT_EQ(to_hex(from_view.str()), want);
  auto back = gbx::deserialize<double>(from_matrix);
  EXPECT_EQ(back.nrows(), 16u);
  EXPECT_EQ(back.ncols(), 20u);
  EXPECT_TRUE(gbx::equal(back, m));
}

TEST(Serialize, CoordinateOutsideDimensionsRejected) {
  // validate() sees a well-formed DCSR either way: only the decoder's
  // own bound check stands between these bytes and a stored (3, 1000)
  // in a 16 x 16 matrix.
  Matrix<double> m(16, 16);
  m.set_element(0, 1, 1.0);
  m.set_element(2, 4, 2.0);
  m.set_element(3, 7, 3.0);
  std::stringstream ss;
  gbx::serialize(ss, m);
  const std::string full = ss.str();
  const auto rewritten = [&](std::size_t at, Index v) {
    std::string bytes = full;
    std::memcpy(bytes.data() + at, &v, sizeof v);
    return std::stringstream(bytes);
  };
  // The arrays end [cols: len, 3 x u64][vals: len, 3 x f64]; rows start
  // after the 36-byte header and their length word.
  const std::size_t last_col = full.size() - (8 + 3 * 8) - 8;
  const std::size_t last_row = 36 + 8 + 2 * 8;
  {
    auto in = rewritten(last_col, 7);
    EXPECT_TRUE(gbx::equal(gbx::deserialize<double>(in), m));  // control
  }
  {
    auto in = rewritten(last_col, 1000);
    EXPECT_THROW(gbx::deserialize<double>(in), gbx::Error);
  }
  {
    auto in = rewritten(last_row, 16);
    EXPECT_THROW(gbx::deserialize<double>(in), gbx::Error);
  }
}

TEST(Checkpoint, RoundTripPreservesLevelsAndStats) {
  gen::PowerLawParams pp;
  pp.scale = 12;
  pp.seed = 17;
  gen::PowerLawGenerator g(pp);
  hier::HierMatrix<double> h(pp.dim, pp.dim,
                             hier::CutPolicy::geometric(4, 1024, 8));
  for (int s = 0; s < 12; ++s) h.update(g.batch<double>(3000));

  std::stringstream ss;
  hier::checkpoint(ss, h);
  auto h2 = hier::restore<double>(ss);

  EXPECT_EQ(h2.num_levels(), h.num_levels());
  EXPECT_EQ(h2.cut_policy().cuts(), h.cut_policy().cuts());
  for (std::size_t i = 0; i < h.num_levels(); ++i)
    EXPECT_EQ(h2.level_entries(i), h.level_entries(i));
  EXPECT_TRUE(gbx::equal(h2.snapshot(), h.snapshot()));
  EXPECT_EQ(h2.stats().entries_appended, h.stats().entries_appended);
  EXPECT_EQ(h2.stats().level[0].folds, h.stats().level[0].folds);
}

TEST(Checkpoint, StreamingResumesSeamlessly) {
  // Stream A: 20 sets straight through. Stream B: 10 sets, checkpoint,
  // restore, 10 more sets. Final states must be identical.
  gen::PowerLawParams pp;
  pp.scale = 11;
  pp.seed = 23;

  gen::PowerLawGenerator ga(pp);
  hier::HierMatrix<double> a(pp.dim, pp.dim, hier::CutPolicy({500, 5000}));
  for (int s = 0; s < 20; ++s) a.update(ga.batch<double>(1000));

  gen::PowerLawGenerator gb(pp);
  hier::HierMatrix<double> b(pp.dim, pp.dim, hier::CutPolicy({500, 5000}));
  for (int s = 0; s < 10; ++s) b.update(gb.batch<double>(1000));
  std::stringstream ss;
  hier::checkpoint(ss, b);
  auto b2 = hier::restore<double>(ss);
  for (int s = 0; s < 10; ++s) b2.update(gb.batch<double>(1000));

  EXPECT_TRUE(gbx::equal(a.snapshot(), b2.snapshot()));
  EXPECT_EQ(a.stats().entries_appended, b2.stats().entries_appended);
}

TEST(Checkpoint, CoordinateOutsideDimensionsRejected) {
  hier::HierMatrix<double> h(16, 16, hier::CutPolicy({100}));
  gbx::Tuples<double> batch;
  batch.push_back(1, 9, 1.0);
  batch.push_back(2, 3, 2.0);
  h.update(batch);
  std::stringstream ss;
  hier::checkpoint(ss, h);
  std::string bytes = ss.str();
  // Column 9 is the only u64 9 in the container.
  const Index nine = 9;
  const std::string pattern(reinterpret_cast<const char*>(&nine), sizeof nine);
  const std::size_t at = bytes.find(pattern);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(pattern, at + 1), std::string::npos);
  const Index far = Index{1} << 20;
  std::memcpy(bytes.data() + at, &far, sizeof far);
  std::stringstream corrupt(bytes);
  EXPECT_THROW(hier::restore<double>(corrupt), gbx::Error);
}

TEST(Checkpoint, GarbageRejected) {
  std::stringstream ss;
  ss << "not a checkpoint at all, sorry";
  EXPECT_THROW(hier::restore<double>(ss), gbx::Error);
}

// restore() reads the whole stream as one checkpoint: a frame after the
// last level (here a second checkpoint) is rejected, not left unread.
TEST(Checkpoint, TrailingFrameRejected) {
  hier::HierMatrix<double> h(16, 16, hier::CutPolicy({4}));
  h.update(1, 2, 3.0);
  std::stringstream ss;
  hier::checkpoint(ss, h);
  hier::checkpoint(ss, h);
  EXPECT_THROW(hier::restore<double>(ss), gbx::Error);
}

}  // namespace
