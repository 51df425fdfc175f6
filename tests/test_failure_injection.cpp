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

/// A small hierarchical checkpoint: 100 x 100, cuts {4, 16}, 32
/// single-entry updates, so every level holds entries.
std::string checkpoint_fixture() {
  hier::HierMatrix<double> h(100, 100, hier::CutPolicy({4, 16}));
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<Index> coord(0, 99);
  for (int k = 0; k < 32; ++k)
    h.update(coord(rng), coord(rng), static_cast<double>(k));
  std::ostringstream os;
  hier::checkpoint(os, h);
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

// Every proper prefix of a checkpoint — mid-frame or exactly at a frame
// boundary — is a torn file, for restore() and for recover() alike.
TEST(Truncation, EveryCheckpointPrefixRejected) {
  const std::string good = checkpoint_fixture();
  for (std::size_t n = 0; n < good.size(); ++n) {
    std::istringstream ckpt(good.substr(0, n));
    EXPECT_THROW(hier::restore<double>(ckpt), gbx::Error) << "prefix " << n;
    std::istringstream ckpt2(good.substr(0, n)), wal;
    EXPECT_THROW(hier::recover<double>(ckpt2, wal), gbx::Error)
        << "prefix " << n;
  }
}

// Every byte of a checkpoint is covered by a frame checksum or the frame
// magic: no single-bit flip restores without an error.
TEST(CheckpointCorruption, EveryBitFlipRejected) {
  const std::string good = checkpoint_fixture();
  std::size_t silent = 0;
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string bad = good;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    std::istringstream is(bad);
    try {
      (void)hier::restore<double>(is);
      ++silent;
    } catch (const gbx::Error&) {
    }
  }
  EXPECT_EQ(silent, 0u) << "of " << good.size() * 8 << " single-bit flips";
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
