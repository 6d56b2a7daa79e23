#include "src/core/config.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/backend/storage_backend.h"
#include "src/consistency/directory.h"

namespace flashsim {
namespace {

TEST(SimConfig, PaperBaselineDefaults) {
  SimConfig config;
  EXPECT_EQ(config.block_bytes, 4096u);
  EXPECT_EQ(config.ram_bytes, 8 * kGiB);
  EXPECT_EQ(config.flash_bytes, 64 * kGiB);
  EXPECT_EQ(config.num_hosts, 1);
  EXPECT_EQ(config.threads_per_host, 8);
  EXPECT_EQ(config.arch, Architecture::kNaive);
  EXPECT_EQ(config.ram_policy, WritebackPolicy::kPeriodic1);
  EXPECT_EQ(config.flash_policy, WritebackPolicy::kAsync);
}

TEST(SimConfig, BlockConversions) {
  SimConfig config;
  EXPECT_EQ(config.ram_blocks(), 8 * kGiB / 4096);
  EXPECT_EQ(config.flash_blocks(), 64 * kGiB / 4096);
  config.ram_bytes = 256 * kKiB;
  EXPECT_EQ(config.ram_blocks(), 64u);
}

TEST(SimConfig, ValidateAcceptsDefaults) {
  SimConfig config;
  config.Validate();  // must not abort
}

TEST(SimConfigDeathTest, ValidateRejectsBadValues) {
  {
    SimConfig config;
    config.num_hosts = 0;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    SimConfig config;
    // 100 hosts died under the old one-word directory bitmask; the slot-
    // mode directory allows fleets up to kMaxHosts.
    config.num_hosts = Directory::kMaxHosts + 1;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    SimConfig config;
    config.timing.filer_fast_read_rate = 1.5;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    SimConfig config;
    config.threads_per_host = 0;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
}

TEST(SimConfigDeathTest, ValidateRejectsBadShardCounts) {
  {
    SimConfig config;
    config.num_filers = 0;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    SimConfig config;
    config.num_filers = -1;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
  {
    // Shard counts above the router's map width are not representable.
    SimConfig config;
    config.num_filers = StorageBackend::kMaxShards + 1;
    EXPECT_DEATH(config.Validate(), "CHECK failed");
  }
}

TEST(SimConfigDeathTest, ValidateRejectsNonFiniteOrNegativeFlashNoise) {
  // A non-finite sigma would turn every noisy flash service time into a
  // non-finite double cast to SimDuration deep inside the run.
  for (const double sigma : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -0.5}) {
    SimConfig config;
    config.timing.flash_noise_sigma = sigma;
    EXPECT_DEATH(config.Validate(), "CHECK failed") << sigma;
  }
}

TEST(SimConfig, ValidateAcceptsFlashNoiseRange) {
  for (const double sigma : {0.0, 0.3, 2.0}) {
    SimConfig config;
    config.timing.flash_noise_sigma = sigma;
    config.Validate();  // must not abort
  }
}

TEST(SimConfig, ValidateAcceptsShardCountRange) {
  for (int filers : {1, 2, StorageBackend::kMaxShards}) {
    SimConfig config;
    config.num_filers = filers;
    config.Validate();  // must not abort
  }
}

TEST(SimConfig, SummaryDescribesConfiguration) {
  SimConfig config;
  const std::string summary = config.Summary();
  EXPECT_NE(summary.find("naive"), std::string::npos);
  EXPECT_NE(summary.find("ram=8.0G"), std::string::npos);
  EXPECT_NE(summary.find("flash=64.0G"), std::string::npos);
  EXPECT_NE(summary.find("ram_policy=p1"), std::string::npos);
  EXPECT_NE(summary.find("flash_policy=a"), std::string::npos);
  EXPECT_EQ(summary.find("persistent"), std::string::npos);
  config.timing.persistent_flash = true;
  EXPECT_NE(config.Summary().find("persistent"), std::string::npos);
}

TEST(ArchitectureNames, RoundTrip) {
  for (Architecture arch : kAllArchitectures) {
    const auto parsed = ParseArchitecture(ArchitectureName(arch));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, arch);
  }
  EXPECT_FALSE(ParseArchitecture("bogus").has_value());
}

}  // namespace
}  // namespace flashsim
