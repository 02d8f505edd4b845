// Differential tests for the channel's spatial grid, the simulator's only
// range oracle (DESIGN.md §7): under mobility, across densities and under
// churn, the grid-backed range queries, reachability counts and transmit
// delivery sets must match brute force computed straight from the mobility
// models' positions, and the unit-disk reference in stats/connectivity.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "experiment/world.hpp"
#include "mobility/map.hpp"
#include "mobility/random_roam.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/connectivity.hpp"

namespace manet::phy {
namespace {

using net::HostId;

class Sink : public Channel::Listener {
 public:
  struct Rx {
    HostId from;
    bool corrupted;
    sim::TimePoint at;
    friend bool operator==(const Rx&, const Rx&) = default;
  };
  void onFrameReceived(const Frame& frame, DropReason drop) override {
    receptions.push_back({frame.src, drop != DropReason::kNone, frame.txEnd});
  }
  std::vector<Rx> receptions;
};

/// A channel full of random-roaming hosts whose position callbacks read the
/// scheduler clock — the same wiring the real World uses.
struct MobileFixture {
  MobileFixture(int hosts, int mapUnits, std::uint64_t seed) {
    const mobility::MapSpec map = mobility::MapSpec::square(mapUnits);
    sim::Rng master(seed);
    channel = std::make_unique<Channel>(scheduler, PhyParams{});
    for (int i = 0; i < hosts; ++i) {
      sim::Rng rng = master.fork(0xA000 + static_cast<std::uint64_t>(i));
      mobility::RoamParams roam;
      roam.maxSpeedMps = mobility::kmhToMps(10.0 * mapUnits);
      roam.minTurnDuration = 100 * sim::kMillisecond;
      roam.maxTurnDuration = 2 * sim::kSecond;
      models.push_back(std::make_unique<mobility::RandomRoam>(
          map, map.uniformPoint(rng), roam, rng.fork(0xA0)));
      sinks.push_back(std::make_unique<Sink>());
      mobility::MobilityModel* model = models.back().get();
      channel->attach(
          HostId{static_cast<std::uint32_t>(i)}, sinks.back().get(),
          [this, model] { return model->positionAt(scheduler.now()); });
    }
  }

  void advance(sim::Duration dt) {
    scheduler.schedule(scheduler.now() + dt, [] {});
    scheduler.runAll();
  }

  geom::Vec2 position(HostId id) const {
    return models[id.value()]->positionAt(scheduler.now());
  }

  /// Brute force: every up node other than `id` within the radio radius of
  /// it, ascending, from the mobility models' positions.
  std::vector<HostId> inRange(HostId id) const {
    const double r = channel->params().radiusMeters;
    std::vector<HostId> out;
    for (std::uint32_t j = 0; j < models.size(); ++j) {
      const HostId other{j};
      if (other == id || !channel->nodeUp(other)) continue;
      if (geom::distanceSquared(position(id), position(other)) <= r * r) {
        out.push_back(other);
      }
    }
    return out;
  }

  /// Positions of the up nodes, compacted, and each node's index in that
  /// list (-1 when down): the input the stats reference takes.
  std::vector<geom::Vec2> livePositions(std::vector<int>& indexOf) const {
    std::vector<geom::Vec2> out;
    indexOf.assign(models.size(), -1);
    for (std::uint32_t j = 0; j < models.size(); ++j) {
      if (!channel->nodeUp(HostId{j})) continue;
      indexOf[j] = static_cast<int>(out.size());
      out.push_back(position(HostId{j}));
    }
    return out;
  }

  sim::Scheduler scheduler;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<mobility::MobilityModel>> models;
  std::vector<std::unique_ptr<Sink>> sinks;
};

TEST(PhyGridDifferential, NodesInRangeMatchesExhaustiveUnderMobility) {
  for (const int mapUnits : {1, 3, 7}) {
    for (const std::uint64_t seed : {11u, 12u}) {
      MobileFixture fx(60, mapUnits, seed);
      for (int epoch = 0; epoch < 25; ++epoch) {
        fx.advance(200 * sim::kMillisecond);
        for (int i = 0; i < 60; ++i) {
          const HostId id{static_cast<std::uint32_t>(i)};
          const auto expected = fx.inRange(id);
          ASSERT_EQ(fx.channel->nodesInRange(id), expected)
              << "map " << mapUnits << " seed " << seed << " epoch " << epoch
              << " node " << i;
          ASSERT_EQ(fx.channel->inRangeCount(id), expected.size())
              << "map " << mapUnits << " seed " << seed << " epoch " << epoch
              << " node " << i;
        }
      }
    }
  }
}

TEST(PhyGridDifferential, SnapshotPositionsMatchesExhaustive) {
  MobileFixture fx(40, 5, 21);
  for (int epoch = 0; epoch < 10; ++epoch) {
    fx.advance(500 * sim::kMillisecond);
    const auto snapshot = fx.channel->snapshotPositions();
    ASSERT_EQ(snapshot.size(), 40u);
    for (std::uint32_t i = 0; i < 40; ++i) {
      ASSERT_EQ(snapshot[i], fx.position(HostId{i})) << "node " << i;
    }
  }
}

/// The grid's breadth-first reachability against the stats reference over
/// the same positions, with a third of the nodes churned off the air in
/// every other epoch: down nodes neither count nor relay.
TEST(PhyGridDifferential, ReachableCountMatchesBruteForceUnderChurn) {
  for (const int mapUnits : {1, 3, 7}) {
    MobileFixture fx(60, mapUnits, 41);
    for (int epoch = 0; epoch < 12; ++epoch) {
      fx.advance(300 * sim::kMillisecond);
      for (std::uint32_t i = 0; i < 60; ++i) {
        fx.channel->setNodeUp(HostId{i}, epoch % 2 == 0 || i % 3 != 0);
      }
      std::vector<int> indexOf;
      const auto positions = fx.livePositions(indexOf);
      const double r = fx.channel->params().radiusMeters;
      for (std::uint32_t i = 0; i < 60; ++i) {
        if (indexOf[i] < 0) continue;
        const auto at = static_cast<std::size_t>(indexOf[i]);
        const auto expected = stats::reachableSet(positions, r, at);
        ASSERT_EQ(static_cast<int>(expected.size()),
                  stats::reachableCount(positions, r, at));
        ASSERT_EQ(fx.channel->reachableCount(HostId{i}), expected.size())
            << "map " << mapUnits << " epoch " << epoch << " node " << i;
      }
    }
  }
}

/// Runs a randomized transmission schedule and asserts that each frame
/// reaches exactly the nodes in range of its source at transmission start
/// by brute force, each intact (only one frame is on the air at a time).
TEST(PhyGridDifferential, TransmitDeliverySetsMatchExhaustive) {
  for (const int mapUnits : {1, 5}) {
    MobileFixture fx(50, mapUnits, 33);
    sim::Rng rng(99);
    std::uint64_t expectedDeliveries = 0;
    for (int round = 0; round < 40; ++round) {
      const auto dt =
          rng.uniformDuration(sim::kMicrosecond, 5 * sim::kMillisecond);
      const HostId src{static_cast<std::uint32_t>(rng.uniformInt(0, 49))};
      fx.advance(dt);
      ASSERT_FALSE(fx.channel->isTransmitting(src));
      const auto expected = fx.inRange(src);
      for (auto& sink : fx.sinks) sink->receptions.clear();
      const sim::TimePoint end = fx.channel->transmit(
          src, net::makeDataPacket({src, net::BroadcastSeq{0}}, src), 280);
      fx.scheduler.runAll();
      std::vector<HostId> heard;
      for (std::uint32_t i = 0; i < 50; ++i) {
        const auto& rx = fx.sinks[i]->receptions;
        if (rx.empty()) continue;
        ASSERT_EQ(rx, (std::vector<Sink::Rx>{{src, false, end}}))
            << "map " << mapUnits << " round " << round << " node " << i;
        heard.push_back(HostId{i});
      }
      ASSERT_EQ(heard, expected) << "map " << mapUnits << " round " << round;
      expectedDeliveries += expected.size();
    }
    EXPECT_EQ(fx.channel->framesTransmitted(), 40u);
    EXPECT_EQ(fx.channel->framesDelivered(), expectedDeliveries);
    EXPECT_EQ(fx.channel->framesCorrupted(), 0u);
  }
}

/// A whole World under host churn: at several instants, every live host's
/// |N_x| agrees between the count and list queries and brute force over the
/// mobility models, and reachableFrom (the RE denominator) agrees with the
/// stats reference over the live hosts.
TEST(PhyGridDifferential, WorldRangeQueriesMatchBruteForceUnderChurn) {
  experiment::ScenarioConfig config;
  config.mapUnits = 5;
  config.numHosts = 80;
  config.numBroadcasts = 30;
  config.scheme = experiment::SchemeSpec::adaptiveCounter();
  config.fault.churn = true;
  config.fault.churnFraction = 0.5;
  config.fault.meanUpTime = 3 * sim::kSecond;
  config.fault.meanDownTime = 2 * sim::kSecond;
  config.seed = 5;
  experiment::World world(config);
  world.beginRun();
  const double r = world.config().phy.radiusMeters;
  const auto hosts = static_cast<std::uint32_t>(world.hostCount());
  int instantsWithDownHosts = 0;
  for (int step = 1; step <= 8; ++step) {
    world.continueUntil(sim::kTimeZero + step * 1500 * sim::kMillisecond);
    const sim::TimePoint now = world.now();
    std::vector<geom::Vec2> live;
    std::vector<int> indexOf(hosts, -1);
    for (std::uint32_t i = 0; i < hosts; ++i) {
      if (!world.hostUp(HostId{i})) continue;
      indexOf[i] = static_cast<int>(live.size());
      live.push_back(world.host(HostId{i}).mobility().positionAt(now));
    }
    instantsWithDownHosts += live.size() < hosts ? 1 : 0;
    for (std::uint32_t i = 0; i < hosts; ++i) {
      if (indexOf[i] < 0) continue;
      const HostId id{i};
      const geom::Vec2 p = live[static_cast<std::size_t>(indexOf[i])];
      std::size_t bruteForce = 0;
      for (const geom::Vec2& q : live) {
        bruteForce += geom::distanceSquared(p, q) <= r * r ? 1 : 0;
      }
      --bruteForce;  // the host itself
      const std::size_t count = world.channel().inRangeCount(id);
      ASSERT_EQ(count, world.channel().nodesInRange(id).size())
          << "step " << step << " host " << i;
      ASSERT_EQ(count, bruteForce) << "step " << step << " host " << i;
      ASSERT_EQ(world.reachableFrom(id),
                stats::reachableCount(
                    live, r, static_cast<std::size_t>(indexOf[i])))
          << "step " << step << " host " << i;
    }
  }
  EXPECT_GT(instantsWithDownHosts, 0) << "churn never took a host down";
}

/// Nodes attached after a query (fresh attach version) must show up without
/// waiting for time to advance.
TEST(PhyGrid, AttachInvalidatesCachedGrid) {
  sim::Scheduler scheduler;
  Channel channel(scheduler, PhyParams{});
  std::vector<std::unique_ptr<Sink>> sinks;
  auto add = [&](geom::Vec2 pos) {
    const HostId id{static_cast<std::uint32_t>(sinks.size())};
    sinks.push_back(std::make_unique<Sink>());
    channel.attach(id, sinks.back().get(), [pos] { return pos; });
    return id;
  };
  const HostId a = add({0, 0});
  EXPECT_TRUE(channel.nodesInRange(a).empty());  // builds the grid
  const HostId b = add({100, 0});                // same timestamp
  const auto inRange = channel.nodesInRange(a);
  ASSERT_EQ(inRange.size(), 1u);
  EXPECT_EQ(inRange[0], b);
}

/// On a chain of nodes 400 m apart the search walks every node but the last
/// one it sees, and a churned-down node splits the chain.
TEST(PhyGrid, ReachableCountStopsOnceEveryNodeIsSeen) {
  sim::Scheduler scheduler;
  Channel channel(scheduler, PhyParams{});
  std::vector<std::unique_ptr<Sink>> sinks;
  for (std::uint32_t i = 0; i < 5; ++i) {
    sinks.push_back(std::make_unique<Sink>());
    const geom::Vec2 pos{400.0 * i, 0.0};
    channel.attach(HostId{i}, sinks.back().get(), [pos] { return pos; });
  }
  obs::Registry registry;
  {
    obs::ScopedRegistry scope(&registry);
    EXPECT_EQ(channel.reachableCount(HostId{0}), 4u);
  }
  EXPECT_EQ(registry.counter(obs::Counter::kGridQueries), 4u);
  channel.setNodeUp(HostId{2}, false);
  EXPECT_EQ(channel.reachableCount(HostId{0}), 1u);
  EXPECT_EQ(channel.reachableCount(HostId{4}), 1u);
  channel.setNodeUp(HostId{2}, true);
  EXPECT_EQ(channel.reachableCount(HostId{4}), 4u);
}

}  // namespace
}  // namespace manet::phy
