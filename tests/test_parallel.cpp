// Determinism and thread-machinery tests for the parallel experiment runner:
// a sweep must produce byte-identical output for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/parallel.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep.hpp"
#include "net/packet_pool.hpp"

namespace manet::experiment {
namespace {

TEST(ParallelFor, CoversAllIndicesAcrossThreadCounts) {
  for (const int threads : {1, 2, 4}) {
    std::vector<int> hits(257, 0);
    parallelFor(hits.size(),
                [&hits](std::size_t i) { ++hits[i]; }, threads);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, ZeroJobsIsANoop) {
  parallelFor(0, [](std::size_t) { FAIL(); }, 4);
}

TEST(ParallelFor, RethrowsJobException) {
  for (const int threads : {1, 2, 4}) {
    std::atomic<int> ran{0};
    const auto job = [&ran](std::size_t i) {
      ++ran;
      if (i % 10 == 3) throw std::runtime_error("boom");
    };
    if (threads == 1) {
      // Inline: the first throw ends the loop on the calling thread.
      EXPECT_THROW(parallelFor(40, job, threads), std::runtime_error);
      EXPECT_EQ(ran.load(), 4);
      continue;
    }
    EXPECT_THROW(parallelFor(40, job, threads), std::runtime_error);
    EXPECT_EQ(ran.load(), 40) << "threads " << threads;
  }
}

ScenarioConfig tinyBase() {
  ScenarioConfig c;
  c.numHosts = 20;
  c.numBroadcasts = 2;
  c.seed = 9;
  return c;
}

std::vector<SweepAxis> threeAxes() {
  return {schemeAxis({SchemeSpec::flooding(), SchemeSpec::counter(3)}),
          mapAxis({1, 3}), speedAxis({10.0, 30.0})};
}

/// The tentpole guarantee: parallel runSweep output is identical to the
/// serial run — same cells, same coordinates, same table bytes.
TEST(ParallelSweep, ThreeAxisSweepIsIdenticalToSerial) {
  const ScenarioConfig base = tinyBase();
  const auto axes = threeAxes();
  const auto serial = runSweep(base, axes, /*repetitions=*/2, /*threads=*/1);
  const auto parallel = runSweep(base, axes, /*repetitions=*/2, /*threads=*/4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].coordinates, parallel[i].coordinates);
    EXPECT_EQ(serial[i].result.re(), parallel[i].result.re());
    EXPECT_EQ(serial[i].result.srb(), parallel[i].result.srb());
    EXPECT_EQ(serial[i].result.latency(), parallel[i].result.latency());
    EXPECT_EQ(serial[i].result.framesTransmitted,
              parallel[i].result.framesTransmitted);
    EXPECT_EQ(serial[i].result.summary.totalReceived,
              parallel[i].result.summary.totalReceived);
  }

  std::ostringstream serialOut;
  std::ostringstream parallelOut;
  sweepTable(axes, serial).print(serialOut);
  sweepTable(axes, parallel).print(parallelOut);
  EXPECT_EQ(serialOut.str(), parallelOut.str());
}

TEST(ParallelSweep, AveragedRunsMatchSerialAcrossThreadCounts) {
  ScenarioConfig config = tinyBase();
  config.numHosts = 25;
  const RunResult serial = runScenarioAveraged(config, 3, /*threads=*/1);
  const RunResult parallel = runScenarioAveraged(config, 3, /*threads=*/3);
  EXPECT_EQ(serial.re(), parallel.re());
  EXPECT_EQ(serial.srb(), parallel.srb());
  EXPECT_EQ(serial.latency(), parallel.latency());
  EXPECT_EQ(serial.framesTransmitted, parallel.framesTransmitted);
  EXPECT_EQ(serial.summary.broadcasts, parallel.summary.broadcasts);
}

/// The satellite fix: pooled results carry raw r/t/e counts so ratio-of-sums
/// metrics are available alongside the mean-of-means the figures report.
TEST(PooledCounts, AveragedResultExposesBothAveragings) {
  ScenarioConfig config = tinyBase();
  const RunResult run0 = runScenario(config);
  ScenarioConfig c1 = config;
  c1.seed = config.seed + 1;
  const RunResult run1 = runScenario(c1);
  const RunResult pooled = runScenarioAveraged(config, 2);

  EXPECT_EQ(pooled.summary.totalReceived,
            run0.summary.totalReceived + run1.summary.totalReceived);
  EXPECT_EQ(pooled.summary.totalRebroadcast,
            run0.summary.totalRebroadcast + run1.summary.totalRebroadcast);
  EXPECT_EQ(pooled.summary.totalReachable,
            run0.summary.totalReachable + run1.summary.totalReachable);
  EXPECT_DOUBLE_EQ(pooled.re(), (run0.re() + run1.re()) / 2.0);

  if (pooled.summary.totalReachable > 0) {
    const double ratioOfSums =
        static_cast<double>(pooled.summary.totalReceived) /
        static_cast<double>(pooled.summary.totalReachable);
    EXPECT_DOUBLE_EQ(pooled.pooledRe(), ratioOfSums);
  }
  if (pooled.summary.totalReceived > 0) {
    EXPECT_GE(pooled.pooledSrb(), 0.0);
    EXPECT_LE(pooled.pooledSrb(), 1.0);
  }
}

/// Fault injection must stay deterministic under parallel execution: every
/// fault draw comes from a per-run forked stream, so a sweep with loss and
/// churn enabled is byte-identical for any thread count.
TEST(ParallelSweep, FaultSweepIsIdenticalAcrossThreadCounts) {
  ScenarioConfig base = tinyBase();
  base.fault.loss = fault::FaultConfig::Loss::kGilbertElliott;
  base.fault.churn = true;
  base.fault.churnFraction = 0.5;
  base.fault.meanUpTime = 3 * sim::kSecond;
  base.fault.meanDownTime = 1 * sim::kSecond;
  const std::vector<SweepAxis> axes{
      schemeAxis({SchemeSpec::flooding(), SchemeSpec::counter(3)})};

  const auto serial = runSweep(base, axes, /*repetitions=*/2, /*threads=*/1);
  const auto parallel = runSweep(base, axes, /*repetitions=*/2, /*threads=*/4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.framesTransmitted,
              parallel[i].result.framesTransmitted);
    EXPECT_EQ(serial[i].result.framesLostToFault,
              parallel[i].result.framesLostToFault);
    EXPECT_EQ(serial[i].result.framesDroppedHostDown,
              parallel[i].result.framesDroppedHostDown);
    EXPECT_EQ(serial[i].result.hostDownSeconds,
              parallel[i].result.hostDownSeconds);
    EXPECT_EQ(serial[i].result.re(), parallel[i].result.re());
  }

  std::ostringstream serialOut;
  std::ostringstream parallelOut;
  sweepTable(axes, serial).print(serialOut);
  sweepTable(axes, parallel).print(parallelOut);
  EXPECT_EQ(serialOut.str(), parallelOut.str());
  // The fault columns actually appear for fault-enabled sweeps.
  EXPECT_NE(serialOut.str().find("lost"), std::string::npos);
}

/// Packet pooling is a pure allocator swap (DESIGN.md §11): with the arena
/// forced off, the same sweep must render byte-identical tables at every
/// thread count. Guards against the pool ever leaking into simulation
/// behaviour (e.g. address-dependent iteration or reuse-order coupling).
TEST(ParallelSweep, PacketPoolingDoesNotChangeSweepBytes) {
  const ScenarioConfig base = tinyBase();
  const auto axes = threeAxes();

  struct PoolGuard {
    ~PoolGuard() { net::PacketPool::setEnabled(true); }
  } guard;

  std::string table[2][2];  // [pooled][threads index]
  for (const bool pooled : {false, true}) {
    net::PacketPool::setEnabled(pooled);
    for (const int threads : {1, 4}) {
      const auto cells = runSweep(base, axes, /*repetitions=*/2, threads);
      std::ostringstream out;
      sweepTable(axes, cells).print(out);
      table[pooled ? 1 : 0][threads == 1 ? 0 : 1] = out.str();
    }
  }

  EXPECT_EQ(table[0][0], table[1][0]) << "pooling changed serial output";
  EXPECT_EQ(table[0][1], table[1][1]) << "pooling changed parallel output";
  EXPECT_EQ(table[0][0], table[0][1]) << "unpooled sweep thread-dependent";
  EXPECT_EQ(table[1][0], table[1][1]) << "pooled sweep thread-dependent";
}

TEST(PooledCounts, SingleRunSummaryCountsAreConsistent) {
  const RunResult r = runScenario(tinyBase());
  // r can slightly exceed the BFS snapshot e under mobility, but both are
  // bounded by broadcasts * hosts; rebroadcasters are a subset of receivers.
  EXPECT_LE(r.summary.totalRebroadcast, r.summary.totalReceived);
  EXPECT_LE(r.summary.totalReceived, r.summary.broadcasts * 20);
  EXPECT_GT(r.wallSeconds, 0.0);
  EXPECT_GE(r.framesPerWallSecond(), 0.0);
}

}  // namespace
}  // namespace manet::experiment
