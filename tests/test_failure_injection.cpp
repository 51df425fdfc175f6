// Failure-injection tests: corrupted serialization payloads and
// resource-exhaustion guards. A storage layer must fail with a
// diagnosable exception, never crash or silently deliver wrong data.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "gbx/error.hpp"
#include "gbx/matrix.hpp"
#include "gbx/serialize.hpp"
#include "hier/hier.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;

std::string serialized_fixture() {
  Matrix<double> m(1u << 20, 1u << 20);
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<Index> coord(0, (1u << 20) - 1);
  for (int k = 0; k < 500; ++k)
    m.set_element(coord(rng), coord(rng), static_cast<double>(k));
  std::ostringstream os;
  gbx::serialize(os, m);
  return os.str();
}

// Parameterized over corruption position (as a fraction of the payload):
// a single flipped byte anywhere must either round-trip to an equal
// matrix (benign value-bit flip in a double) or throw — never crash,
// never return a structurally invalid matrix.
class CorruptionSweep : public ::testing::TestWithParam<double> {};

TEST_P(CorruptionSweep, FlippedByteNeverCrashes) {
  const std::string good = serialized_fixture();
  std::string bad = good;
  const auto pos = static_cast<std::size_t>(GetParam() *
                                            static_cast<double>(bad.size() - 1));
  bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);

  std::istringstream is(bad);
  try {
    auto m = gbx::deserialize<double>(is);
    // If it parsed, the structure must still be valid (value corruption
    // in the vals array is undetectable by design; structure is not).
    EXPECT_TRUE(m.validate());
  } catch (const gbx::Error&) {
    // rejected with a diagnosable error: acceptable
  }
}

INSTANTIATE_TEST_SUITE_P(Positions, CorruptionSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.12, 0.25, 0.5,
                                           0.75, 0.9, 0.99));

TEST(Truncation, EveryPrefixRejectedOrValid) {
  const std::string good = serialized_fixture();
  for (double frac : {0.0, 0.1, 0.3, 0.6, 0.9, 0.999}) {
    const auto n = static_cast<std::size_t>(frac * static_cast<double>(good.size()));
    std::istringstream is(good.substr(0, n));
    EXPECT_THROW(gbx::deserialize<double>(is), gbx::Error) << "prefix " << n;
  }
}

TEST(CheckpointCorruption, LevelCountMismatchRejected) {
  hier::HierMatrix<double> h(100, 100, hier::CutPolicy({10, 100}));
  h.update(1, 1, 1.0);
  std::stringstream ss;
  hier::checkpoint(ss, h);
  std::string payload = ss.str();
  // Flip a byte in the cuts region (just after the two dim fields).
  payload[8 + 8 + 8 + 2] ^= 0x01;
  std::istringstream is(payload);
  try {
    auto restored = hier::restore<double>(is);
    EXPECT_TRUE(restored.snapshot().validate());
  } catch (const gbx::Error&) {
  }
}

TEST(Guards, CutOverflowRejected) {
  EXPECT_THROW(hier::CutPolicy::geometric(40, 1u << 30, 1u << 20),
               gbx::InvalidValue);
}

TEST(Guards, EmptyBatchesAreFine) {
  hier::HierMatrix<double> h(100, 100, hier::CutPolicy({10}));
  gbx::Tuples<double> empty;
  h.update(empty);  // must be a harmless no-entry update
  EXPECT_EQ(h.snapshot().nvals(), 0u);
  EXPECT_EQ(h.stats().updates, 1u);
}

TEST(Guards, DuplicateOnlyBatches) {
  // A batch of 10K copies of one coordinate must collapse to one entry
  // and never overflow any level.
  hier::HierMatrix<double> h(100, 100, hier::CutPolicy({64, 512}));
  gbx::Tuples<double> dup;
  for (int k = 0; k < 10000; ++k) dup.push_back(7, 7, 1.0);
  h.update(dup);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.nvals(), 1u);
  EXPECT_DOUBLE_EQ(snap.extract_element(7, 7).value(), 10000.0);
}

}  // namespace
