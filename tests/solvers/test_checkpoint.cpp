// solvers::Checkpoint: pool-backed, checksummed snapshots. Round trips
// are bit-exact, slot buffers are reused without fresh allocation, and a
// payload corrupted in storage is detected at restore — never silently
// handed back to the solver.
#include "polymg/solvers/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "polymg/common/alloc_hook.hpp"
#include "polymg/common/error.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/runtime/pool.hpp"

namespace polymg::solvers {
namespace {

class CheckpointTest : public ::testing::Test {
protected:
  void SetUp() override { fault::FaultInjector::instance().reset(); }
  void TearDown() override { fault::FaultInjector::instance().reset(); }
};

std::vector<double> ramp(std::size_t n, double scale) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = scale * static_cast<double>(i);
  return v;
}

TEST_F(CheckpointTest, RoundTripIsBitExact) {
  runtime::MemoryPool pool;
  Checkpoint ckpt(pool);
  std::vector<double> a = ramp(257, 0.125);
  std::vector<double> b = ramp(64, -3.5);

  ckpt.begin(/*next_cycle=*/7, /*rung=*/2);
  ckpt.save(0, a.data(), static_cast<index_t>(a.size()));
  ckpt.save(1, b.data(), static_cast<index_t>(b.size()));
  ckpt.set_meta(0, 1e-9);
  ckpt.set_meta(5, 42.0);
  ckpt.commit();
  EXPECT_TRUE(ckpt.valid());
  EXPECT_EQ(ckpt.next_cycle(), 7);
  EXPECT_EQ(ckpt.rung(), 2);
  EXPECT_EQ(ckpt.slots(), 2u);

  // Clobber the sources, then restore — every byte must come back.
  std::vector<double> a2(a.size(), -1.0), b2(b.size(), -1.0);
  ASSERT_TRUE(ckpt.restore(0, a2.data(), static_cast<index_t>(a2.size())));
  ASSERT_TRUE(ckpt.restore(1, b2.data(), static_cast<index_t>(b2.size())));
  EXPECT_EQ(std::memcmp(a.data(), a2.data(), a.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(b.data(), b2.data(), b.size() * sizeof(double)), 0);
  EXPECT_DOUBLE_EQ(ckpt.meta(0), 1e-9);
  EXPECT_DOUBLE_EQ(ckpt.meta(5), 42.0);
}

TEST_F(CheckpointTest, RecaptureReusesSlotStorageWithoutAllocating) {
  runtime::MemoryPool pool;
  Checkpoint ckpt(pool);
  std::vector<double> a = ramp(512, 1.0);
  ckpt.begin(0);
  ckpt.save(0, a.data(), static_cast<index_t>(a.size()));
  ckpt.set_meta(0, 1.0);
  ckpt.commit();

  // Second generation, same sizes: the zero-allocation steady state the
  // cycle loop relies on between checkpoints and across them.
  const std::uint64_t before = allocation_count();
  for (int gen = 1; gen <= 3; ++gen) {
    ckpt.begin(gen);
    ckpt.save(0, a.data(), static_cast<index_t>(a.size()));
    ckpt.set_meta(0, static_cast<double>(gen));
    ckpt.commit();
  }
  EXPECT_EQ(allocation_count(), before)
      << "re-capturing stable slot sizes must not allocate";
}

TEST_F(CheckpointTest, ChecksumDetectsCorruptedPayload) {
  runtime::MemoryPool pool;
  Checkpoint ckpt(pool);
  std::vector<double> a = ramp(128, 2.0);
  fault::FaultInjector::instance().arm(fault::kCheckpointCorrupt, 1);
  ckpt.begin(3);
  ckpt.save(0, a.data(), static_cast<index_t>(a.size()));
  ckpt.commit();  // the injected flip lands here, after checksumming
  EXPECT_EQ(
      fault::FaultInjector::instance().fired(fault::kCheckpointCorrupt), 1);

  std::vector<double> out(a.size(), -7.0);
  EXPECT_FALSE(ckpt.restore(0, out.data(), static_cast<index_t>(out.size())))
      << "a flipped payload byte must fail the checksum";
  for (double x : out) {
    ASSERT_EQ(x, -7.0) << "a failed restore must leave dst untouched";
  }

  // A clean re-capture recovers the slot.
  ckpt.begin(4);
  ckpt.save(0, a.data(), static_cast<index_t>(a.size()));
  ckpt.commit();
  EXPECT_TRUE(ckpt.restore(0, out.data(), static_cast<index_t>(out.size())));
  EXPECT_EQ(std::memcmp(a.data(), out.data(), a.size() * sizeof(double)), 0);
}

TEST_F(CheckpointTest, ChecksumIsSensitiveToSingleBitFlips) {
  std::vector<double> a = ramp(99, 0.01);
  const std::uint64_t h0 = payload_checksum(a.data(), a.size());
  unsigned char* bytes = reinterpret_cast<unsigned char*>(a.data());
  bytes[500] ^= 0x01;  // one bit, mid-payload
  EXPECT_NE(payload_checksum(a.data(), a.size()), h0);
  bytes[500] ^= 0x01;
  EXPECT_EQ(payload_checksum(a.data(), a.size()), h0);
}

TEST_F(CheckpointTest, ProtocolMisuseIsRejected) {
  runtime::MemoryPool pool;
  Checkpoint ckpt(pool);
  std::vector<double> a = ramp(8, 1.0);
  ckpt.begin(0);
  // Slots must be appended densely.
  EXPECT_THROW(ckpt.save(1, a.data(), 8), Error);
  ckpt.save(0, a.data(), 8);
  // Restore before commit is a protocol violation, not a soft failure.
  std::vector<double> out(8);
  EXPECT_THROW((void)ckpt.restore(0, out.data(), 8), Error);
  ckpt.commit();
  // Size mismatch is a caller bug.
  EXPECT_THROW((void)ckpt.restore(0, out.data(), 4), Error);
  EXPECT_THROW((void)ckpt.meta(0), Error) << "meta index never set";
}

TEST_F(CheckpointTest, BeginInvalidatesUntilCommit) {
  runtime::MemoryPool pool;
  Checkpoint ckpt(pool);
  std::vector<double> a = ramp(16, 1.0);
  ckpt.begin(0);
  ckpt.save(0, a.data(), 16);
  ckpt.commit();
  EXPECT_TRUE(ckpt.valid());
  ckpt.begin(5);  // a crash between begin and commit leaves no half-state
  EXPECT_FALSE(ckpt.valid());
  ckpt.save(0, a.data(), 16);
  ckpt.commit();
  EXPECT_TRUE(ckpt.valid());
  EXPECT_EQ(ckpt.next_cycle(), 5);
}

TEST_F(CheckpointTest, ReleaseReturnsBuffersToThePool) {
  runtime::MemoryPool pool;
  std::vector<double> a = ramp(64, 1.0);
  {
    Checkpoint ckpt(pool);
    ckpt.begin(0);
    ckpt.save(0, a.data(), 64);
    ckpt.commit();
    ckpt.release();
    EXPECT_FALSE(ckpt.valid());
    EXPECT_EQ(ckpt.slots(), 0u);
  }  // destructor also releases — double release must be harmless
}

}  // namespace
}  // namespace polymg::solvers
