// Pinned end-to-end outputs of the radio channel. Each case runs a small
// World through one channel regime — collisions on/off, zero and default
// carrier-sense delay, host crashes in the middle of receptions, bursty
// Gilbert-Elliott loss, acknowledged unicast with RTS/CTS — and checks the
// run's RE, SRB and latency and the channel's frame counters against values
// recorded before the channel's event layout last changed. Any change to how
// receptions are scheduled must leave every number here bit-identical
// (DESIGN.md §11.6).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "obs/metrics.hpp"
#include "routing/route_discovery.hpp"
#include "sim/random.hpp"

namespace manet::phy {
namespace {

using experiment::ScenarioConfig;
using experiment::SchemeSpec;

struct Pinned {
  double re;
  double srb;
  double latency;
  std::uint64_t transmitted;
  std::uint64_t delivered;
  std::uint64_t corrupted;
  std::uint64_t lostToFault;
  std::uint64_t droppedHostDown;
};

/// Compares exactly; on mismatch prints the observed row in the literal
/// format of the tables below so a deliberate refresh is a paste.
void expectPinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.re, want.re);
  EXPECT_EQ(got.srb, want.srb);
  EXPECT_EQ(got.latency, want.latency);
  EXPECT_EQ(got.transmitted, want.transmitted);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.corrupted, want.corrupted);
  EXPECT_EQ(got.lostToFault, want.lostToFault);
  EXPECT_EQ(got.droppedHostDown, want.droppedHostDown);
  if (::testing::Test::HasFailure()) {
    std::printf("observed: {%.17g, %.17g, %.17g, %llu, %llu, %llu, %llu, %llu}\n",
                got.re, got.srb, got.latency,
                static_cast<unsigned long long>(got.transmitted),
                static_cast<unsigned long long>(got.delivered),
                static_cast<unsigned long long>(got.corrupted),
                static_cast<unsigned long long>(got.lostToFault),
                static_cast<unsigned long long>(got.droppedHostDown));
  }
}

Pinned pinnedOf(const experiment::RunResult& r) {
  return {r.re(),
          r.srb(),
          r.latency(),
          r.framesTransmitted,
          r.framesDelivered,
          r.framesCorrupted,
          r.framesLostToFault,
          r.framesDroppedHostDown};
}

/// A mobile 3x3 map dense enough for routine collisions.
ScenarioConfig baseConfig(SchemeSpec scheme, std::uint64_t seed) {
  ScenarioConfig c;
  c.mapUnits = 3;
  c.numHosts = 60;
  c.numBroadcasts = 15;
  c.scheme = std::move(scheme);
  c.seed = seed;
  return c;
}

TEST(ChannelPinned, FloodingWithCollisions) {
  const auto r = experiment::runScenario(baseConfig(SchemeSpec::flooding(), 11));
  EXPECT_GT(r.framesCorrupted, 0u);
  expectPinned(pinnedOf(r), {0.99661016949152548, 0, 0.039980933333333329, 897, 4802, 7336, 0, 0});
}

TEST(ChannelPinned, CounterWithoutCollisions) {
  ScenarioConfig c = baseConfig(SchemeSpec::counter(3), 12);
  c.collisions = false;
  const auto r = experiment::runScenario(c);
  EXPECT_EQ(r.framesCorrupted, 0u);
  expectPinned(pinnedOf(r), {1, 0.68361581920903947, 0.019266933333333333, 295, 3780, 0, 0, 0});
}

TEST(ChannelPinned, AdaptiveCounterZeroSenseDelay) {
  ScenarioConfig c = baseConfig(SchemeSpec::adaptiveCounter(), 13);
  c.phy.carrierSenseDelay = sim::Duration{0};
  const auto r = experiment::runScenario(c);
  expectPinned(pinnedOf(r), {0.99209039548022604, 0.56267254662345256, 0.025784933333333333, 399, 2889, 2292, 0, 0});
}

TEST(ChannelPinned, ChurnCrashesMidReception) {
  ScenarioConfig c = baseConfig(SchemeSpec::flooding(), 14);
  c.numBroadcasts = 25;
  c.fault.churn = true;
  c.fault.churnFraction = 0.5;
  c.fault.meanUpTime = 2 * sim::kSecond;
  c.fault.meanDownTime = 1 * sim::kSecond;
  const auto r = experiment::runScenario(c);
  EXPECT_GT(r.framesDroppedHostDown, 0u);  // the orphaned-completion path ran
  expectPinned(pinnedOf(r), {0.99574541962174945, 0.0016836734693877553, 0.035570750000000005, 1220, 6196, 9203, 0, 11});
}

TEST(ChannelPinned, GilbertElliottLossWithHello) {
  ScenarioConfig c = baseConfig(SchemeSpec::neighborCoverage(), 15);
  c.neighborSource = experiment::NeighborSource::kHello;
  c.hello.dynamic = true;
  c.fault.loss = fault::FaultConfig::Loss::kGilbertElliott;
  const auto r = experiment::runScenario(c);
  EXPECT_GT(r.framesLostToFault, 0u);
  expectPinned(pinnedOf(r), {0.99322033898305084, 0.28284434054159352, 0.038702266666666665, 3595, 45708, 6204, 10988, 0});
}

TEST(ChannelPinned, UnicastDataAckWithRtsCts) {
  // Route discovery floods requests and returns each reply hop by hop as
  // acknowledged unicast; a zero RTS threshold puts every reply behind an
  // RTS/CTS exchange.
  ScenarioConfig c = baseConfig(SchemeSpec::adaptiveCounter(), 16);
  c.numBroadcasts = 0;
  c.mac.rtsThresholdBytes = 0;
  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  experiment::World w(c);
  w.startAgents();
  routing::RoutingHarness routing(w);
  sim::Rng rng(5);
  sim::TimePoint at = sim::kTimeZero + 100 * sim::kMillisecond;
  for (int i = 0; i < 12; ++i) {
    const net::HostId src{static_cast<std::uint32_t>(rng.uniformInt(0, 59))};
    net::HostId dst{static_cast<std::uint32_t>(rng.uniformInt(0, 59))};
    if (dst == src) dst = net::HostId{(dst.value() + 1) % 60};
    w.scheduler().schedule(at, [&routing, src, dst] {
      routing.discover(src, dst);
    });
    at += 300 * sim::kMillisecond;
  }
  w.scheduler().runUntil(at + 3 * sim::kSecond);
  const stats::RunSummary s = w.metrics().summarize();
  const Channel& ch = w.channel();
  EXPECT_GT(registry.counter(obs::Counter::kAirtimeRtsCtsUs), 0u);
  EXPECT_GT(registry.counter(obs::Counter::kAirtimeAckUs), 0u);
  expectPinned({s.meanRe, s.meanSrb, s.meanLatencySeconds,
                ch.framesTransmitted(), ch.framesDelivered(),
                ch.framesCorrupted(), ch.framesLostToFault(),
                ch.framesDroppedHostDown()},
               {0.90112994350282483, 0.55421352302866933, 0.023883166666666667, 442, 4134, 2718, 0, 0});
  EXPECT_EQ(routing.successRate(), 0.83333333333333337);
  EXPECT_EQ(routing.meanLatencySeconds(), 0.026280400000000002);
  EXPECT_EQ(routing.meanHops(), 2.8999999999999999);
  if (HasFailure()) {
    std::printf("routing: %.17g, %.17g, %.17g\n", routing.successRate(),
                routing.meanLatencySeconds(), routing.meanHops());
  }
}

}  // namespace
}  // namespace manet::phy
