#include "polymg/common/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "polymg/common/error.hpp"

namespace polymg::fault {
namespace {

/// Every test leaves the process-global injector clean.
class FaultTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(FaultTest, NothingArmedNeverFails) {
  EXPECT_FALSE(FaultInjector::instance().any_armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(should_fail(kPoolAlloc));
    EXPECT_FALSE(should_fail(kKernelOutput));
    EXPECT_FALSE(should_fail(kServiceReject));
  }
}

TEST_F(FaultTest, BoundedCountFiresExactly) {
  auto& fi = FaultInjector::instance();
  fi.arm(kPoolAlloc, 3);
  EXPECT_TRUE(fi.any_armed());
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += should_fail(kPoolAlloc) ? 1 : 0;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fi.fired(kPoolAlloc), 3);
  EXPECT_FALSE(fi.any_armed());  // exhausted sites disarm themselves
}

TEST_F(FaultTest, SitesAreAddressedIndependently) {
  auto& fi = FaultInjector::instance();
  fi.arm(kServiceReject, 2);
  EXPECT_FALSE(should_fail(kPoolAlloc));
  EXPECT_FALSE(should_fail(kKernelOutput));
  EXPECT_TRUE(should_fail(kServiceReject));
  EXPECT_TRUE(should_fail(kServiceReject));
  EXPECT_FALSE(should_fail(kServiceReject));
  EXPECT_EQ(fi.fired(kPoolAlloc), 0);
  EXPECT_EQ(fi.fired(kServiceReject), 2);
}

TEST_F(FaultTest, ProbabilisticFiringIsDeterministic) {
  auto& fi = FaultInjector::instance();
  const auto draw = [&](std::uint64_t seed) {
    fi.reset();
    fi.arm(kKernelOutput, -1, 0.5, seed);
    std::vector<bool> pattern;
    pattern.reserve(64);
    for (int i = 0; i < 64; ++i) pattern.push_back(should_fail(kKernelOutput));
    return pattern;
  };
  const auto a = draw(42);
  const auto b = draw(42);
  EXPECT_EQ(a, b) << "same seed must reproduce the same fault pattern";
  const auto c = draw(43);
  EXPECT_NE(a, c) << "different seeds should differ somewhere in 64 draws";
  // p = 0.5 over 64 draws: both outcomes must occur.
  int hits = 0;
  for (bool x : a) hits += x ? 1 : 0;
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, 64);
}

TEST_F(FaultTest, UnboundedUntilDisarm) {
  auto& fi = FaultInjector::instance();
  fi.arm(kPoolAlloc, -1);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(should_fail(kPoolAlloc));
  fi.disarm(kPoolAlloc);
  EXPECT_FALSE(should_fail(kPoolAlloc));
  EXPECT_EQ(fi.fired(kPoolAlloc), 50) << "fired count survives disarm";
}

TEST_F(FaultTest, RearmKeepsFiredCounter) {
  auto& fi = FaultInjector::instance();
  fi.arm(kServiceReject, 1);
  EXPECT_TRUE(should_fail(kServiceReject));
  fi.arm(kServiceReject, 1);
  EXPECT_TRUE(should_fail(kServiceReject));
  EXPECT_EQ(fi.fired(kServiceReject), 2);
}

TEST_F(FaultTest, ResetClearsEverything) {
  auto& fi = FaultInjector::instance();
  fi.arm(kPoolAlloc, -1);
  ASSERT_TRUE(should_fail(kPoolAlloc));
  fi.reset();
  EXPECT_FALSE(fi.any_armed());
  EXPECT_FALSE(should_fail(kPoolAlloc));
  EXPECT_EQ(fi.fired(kPoolAlloc), 0);
}

TEST_F(FaultTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault f(kKernelOutput, 5);
    EXPECT_TRUE(should_fail(kKernelOutput));
    EXPECT_EQ(f.fired(), 1);
  }
  EXPECT_FALSE(should_fail(kKernelOutput));
  // fired() survives the scope via the injector.
  EXPECT_EQ(FaultInjector::instance().fired(kKernelOutput), 1);
}

TEST_F(FaultTest, ListSitesCoversEveryCanonicalSite) {
  const std::vector<std::string> sites = FaultInjector::list_sites();
  for (const char* s :
       {kPoolAlloc, kKernelOutput, kCheckpointCorrupt, kKernelBitflip,
        kSolveCrash, kServiceReject, kServiceSlow, kJitCompile, kJitHang,
        kSolveStall, kCacheEnospc, kAllocFail}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), s), sites.end()) << s;
    EXPECT_TRUE(FaultInjector::is_known_site(s)) << s;
  }
  EXPECT_EQ(sites.size(), 12u)
      << "list_sites() names a site this test does not check";
  EXPECT_FALSE(FaultInjector::is_known_site("no.such.site"));
}

TEST_F(FaultTest, ArmFromSpecArmsNamedSites) {
  arm_from_spec("service.reject:2,kernel.bitflip:1:0.5:99");
  EXPECT_TRUE(should_fail(kServiceReject));
  EXPECT_TRUE(should_fail(kServiceReject));
  EXPECT_FALSE(should_fail(kServiceReject)) << "count 2 is exhausted";
  // Probability 0.5 with a fixed seed is deterministic: some of the next
  // draws fire, and only ever once in total (count 1).
  int fired = 0;
  for (int i = 0; i < 64; ++i) fired += should_fail(kKernelBitflip) ? 1 : 0;
  EXPECT_EQ(fired, 1);
}

TEST_F(FaultTest, ArmFromSpecRejectsUnknownSitesAtStartup) {
  try {
    arm_from_spec("service.rejct:1");
    FAIL() << "a typo'd site name must be rejected, not silently ignored";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::PreconditionViolated);
    const std::string what = e.what();
    EXPECT_NE(what.find("service.rejct"), std::string::npos);
    EXPECT_NE(what.find(kSolveStall), std::string::npos)
        << "the error must list the valid sites";
  }
  EXPECT_FALSE(FaultInjector::instance().any_armed());
}

TEST_F(FaultTest, ArmFromSpecRejectsMalformedNumbers) {
  EXPECT_THROW(arm_from_spec("solve.stall:never"), Error);
  EXPECT_THROW(arm_from_spec("solve.stall:1:often"), Error);
  EXPECT_THROW(arm_from_spec("solve.stall:1:0.5:badseed"), Error);
  EXPECT_THROW(arm_from_spec("solve.stall:1:0.5:1:extra"), Error);
}

}  // namespace
}  // namespace polymg::fault
