// World assembly and configuration-resolution behaviour.
#include "experiment/world.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/config_schema.hpp"
#include "experiment/runner.hpp"

namespace manet::experiment {
namespace {

TEST(World, BuildsConfiguredHostCount) {
  ScenarioConfig c;
  c.numHosts = 37;
  c.numBroadcasts = 0;
  World w(c);
  EXPECT_EQ(w.hostCount(), 37u);
  EXPECT_EQ(w.channel().nodeCount(), 37u);
}

TEST(World, FixedPositionsForceHostCount) {
  ScenarioConfig c;
  c.numHosts = 100;  // overridden by the explicit placement
  c.fixedPositions = {{0, 0}, {100, 0}, {200, 0}};
  World w(c);
  EXPECT_EQ(w.hostCount(), 3u);
  EXPECT_EQ(w.channel().positionOf(net::HostId{2}), (geom::Vec2{200, 0}));
}

TEST(World, HostsStartInsideTheMap) {
  ScenarioConfig c;
  c.mapUnits = 7;
  c.numHosts = 80;
  c.numBroadcasts = 0;
  World w(c);
  const double side = c.mapMeters();
  for (const auto& p : w.channel().snapshotPositions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, side);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, side);
  }
}

TEST(World, OracleNeighborsMatchChannelRange) {
  ScenarioConfig c;
  c.fixedPositions = {{0, 0}, {400, 0}, {800, 0}};
  World w(c);
  EXPECT_EQ(w.oracleNeighborCount(net::HostId{0}), 1);
  EXPECT_EQ(w.oracleNeighborCount(net::HostId{1}), 2);
  EXPECT_EQ(w.oracleNeighbors(net::HostId{1}),
            (std::vector<net::HostId>{net::HostId{0}, net::HostId{2}}));
}

TEST(World, ReachableFromMatchesConnectivity) {
  ScenarioConfig c;
  c.fixedPositions = {{0, 0}, {400, 0}, {5000, 0}};
  World w(c);
  EXPECT_EQ(w.reachableFrom(net::HostId{0}), 1);
  EXPECT_EQ(w.reachableFrom(net::HostId{2}), 0);
}

TEST(World, RunIsSingleShot) {
  ScenarioConfig c;
  c.numHosts = 10;
  c.numBroadcasts = 1;
  World w(c);
  w.run();
  EXPECT_DEATH(w.run(), "Precondition");
}

TEST(World, PolicyMatchesScheme) {
  ScenarioConfig c;
  c.scheme = SchemeSpec::adaptiveLocation();
  c.numBroadcasts = 0;
  World w(c);
  EXPECT_EQ(w.policy().name(), "AL");
}

TEST(World, WorkloadProducesExpectedBroadcastCount) {
  ScenarioConfig c;
  c.numHosts = 20;
  c.numBroadcasts = 7;
  c.seed = 3;
  World w(c);
  w.run();
  EXPECT_EQ(w.metrics().broadcasts().size(), 7u);
  // Requests are spaced by U(0, 2 s): all start times within the horizon.
  sim::TimePoint prev = sim::kTimeZero;
  for (const auto& pb : w.metrics().broadcasts()) {
    EXPECT_GE(pb.start, prev);  // issued in order
    prev = pb.start;
  }
}

TEST(World, InterarrivalRespectsBound) {
  ScenarioConfig c;
  c.numHosts = 20;
  c.numBroadcasts = 30;
  c.interarrivalMax = 500 * sim::kMillisecond;
  c.seed = 5;
  World w(c);
  w.run();
  const auto& records = w.metrics().broadcasts();
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i].start - records[i - 1].start,
              500 * sim::kMillisecond);
  }
}

/// Expects constructing a World from `c` to throw std::invalid_argument
/// whose message names `what` (a field or a knob).
void expectWorldRejects(const ScenarioConfig& c, const char* what) {
  try {
    World w(c);
    ADD_FAILURE() << "a world accepted an invalid " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(World, GroupMobilityConfigValidated) {
  ScenarioConfig c;
  c.mobility = ScenarioConfig::Mobility::kGroup;
  c.groupSize = 0;
  c.numBroadcasts = 0;
  expectWorldRejects(c, "groupSize");
}

TEST(World, RejectsFieldsTheSubsystemsRequireByName) {
  ScenarioConfig c;
  c.numBroadcasts = 0;
  c.hello.interval = sim::Duration{};
  expectWorldRejects(c, "hello.interval");
  c = ScenarioConfig{};
  c.mac.cwMin = 0;
  expectWorldRejects(c, "mac.cwMin");
  c = ScenarioConfig{};
  c.mapUnits = 0;
  expectWorldRejects(c, "mapUnits");
  c = ScenarioConfig{};
  c.traffic.arrival = traffic::TrafficConfig::Arrival::kPoisson;
  c.traffic.poissonRatePerSecond = 0.0;
  expectWorldRejects(c, "traffic.poissonRatePerSecond");
  c = ScenarioConfig{};
  c.traffic.sources = traffic::TrafficConfig::Sources::kHotspot;
  c.traffic.hotspotIds = {net::HostId{100}};
  expectWorldRejects(c, "traffic.hotspotIds");
}

TEST(World, RejectsBadKnobsByName) {
  ScenarioConfig c;
  c.numBroadcasts = 0;
  ::setenv("MANET_TRAFFIC_RATE", "0", 1);
  expectWorldRejects(c, "MANET_TRAFFIC_RATE");
  ::unsetenv("MANET_TRAFFIC_RATE");
  ::setenv("MANET_CHANNEL_GRID", "2", 1);
  expectWorldRejects(c, "MANET_CHANNEL_GRID");
  ::unsetenv("MANET_CHANNEL_GRID");
}

TEST(World, ChannelGridKnobSetsTheRecordedField) {
  ScenarioConfig c;
  c.numBroadcasts = 0;
  ::setenv("MANET_CHANNEL_GRID", "0", 1);
  const World off(c);
  ::unsetenv("MANET_CHANNEL_GRID");
  EXPECT_FALSE(off.config().channelGrid);
  const World on(c);
  EXPECT_TRUE(on.config().channelGrid);
}

// ------------------------------------------------------------ field list

TEST(ConfigSchema, FieldNamesAreUnique) {
  std::vector<std::string> names;
  const auto collect = [&names](const char* field, const auto&,
                                const Domain&) { names.push_back(field); };
  const ScenarioConfig c;
  visitFields(c, collect);
  EXPECT_GE(names.size(), 70u);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
}

TEST(ConfigSchema, EveryKnobSetsItsField) {
  // Each World-applied knob, one off-default value, and the field it must
  // land in. A knob whose alias names no field trips an assertion.
  struct Case {
    const char* knob;
    const char* value;
    bool (*landed)(const ScenarioConfig&);
  };
  using Loss = fault::FaultConfig::Loss;
  using Arrival = traffic::TrafficConfig::Arrival;
  using Sources = traffic::TrafficConfig::Sources;
  const Case cases[] = {
      {"MANET_CHANNEL_GRID", "0", [](auto& c) { return !c.channelGrid; }},
      {"MANET_FAULT_LOSS", "ge",
       [](auto& c) { return c.fault.loss == Loss::kGilbertElliott; }},
      {"MANET_FAULT_PER", "0.25", [](auto& c) { return c.fault.per == 0.25; }},
      {"MANET_FAULT_GE_LOSS_GOOD", "0.5",
       [](auto& c) { return c.fault.geLossGood == 0.5; }},
      {"MANET_FAULT_GE_LOSS_BAD", "0.5",
       [](auto& c) { return c.fault.geLossBad == 0.5; }},
      {"MANET_FAULT_GE_P_GB", "0.5",
       [](auto& c) { return c.fault.geGoodToBad == 0.5; }},
      {"MANET_FAULT_GE_P_BG", "0.5",
       [](auto& c) { return c.fault.geBadToGood == 0.5; }},
      {"MANET_FAULT_CHURN", "1", [](auto& c) { return c.fault.churn; }},
      {"MANET_FAULT_CHURN_FRACTION", "0.5",
       [](auto& c) { return c.fault.churnFraction == 0.5; }},
      {"MANET_FAULT_UP_S", "3",
       [](auto& c) { return c.fault.meanUpTime == 3 * sim::kSecond; }},
      {"MANET_FAULT_DOWN_S", "3",
       [](auto& c) { return c.fault.meanDownTime == 3 * sim::kSecond; }},
      {"MANET_TRAFFIC_ARRIVAL", "periodic",
       [](auto& c) { return c.traffic.arrival == Arrival::kPeriodic; }},
      {"MANET_TRAFFIC_RATE", "4",
       [](auto& c) { return c.traffic.poissonRatePerSecond == 4.0; }},
      {"MANET_TRAFFIC_PERIOD_S", "3",
       [](auto& c) { return c.traffic.period == 3 * sim::kSecond; }},
      {"MANET_TRAFFIC_BURST_LEN", "3",
       [](auto& c) { return c.traffic.burstLength == 3; }},
      {"MANET_TRAFFIC_BURST_GAP_S", "3",
       [](auto& c) { return c.traffic.burstGapMax == 3 * sim::kSecond; }},
      {"MANET_TRAFFIC_IDLE_S", "3",
       [](auto& c) { return c.traffic.burstIdleMean == 3 * sim::kSecond; }},
      {"MANET_TRAFFIC_SOURCES", "zone",
       [](auto& c) { return c.traffic.sources == Sources::kZone; }},
      {"MANET_TRAFFIC_HOTSPOT_K", "7",
       [](auto& c) { return c.traffic.hotspotCount == 7; }},
      {"MANET_TRAFFIC_ZONE", "0.1,0.2,0.3,0.4",
       [](auto& c) { return c.traffic.zoneY1 == 0.4; }},
  };
  for (const Case& k : cases) {
    ::setenv(k.knob, k.value, 1);
    ScenarioConfig c;
    applyEnvAliases(c);
    ::unsetenv(k.knob);
    EXPECT_TRUE(k.landed(c)) << k.knob << "=" << k.value;
    EXPECT_NO_THROW(validate(c)) << k.knob;
  }
}

TEST(World, SchemeNamesForTables) {
  EXPECT_EQ(SchemeSpec::flooding().name(), "flooding");
  EXPECT_EQ(SchemeSpec::counter(2).name(), "C=2");
  EXPECT_EQ(SchemeSpec::location(0.0134).name(), "A=0.0134");
  EXPECT_EQ(SchemeSpec::distance(100).name(), "D=100");
  EXPECT_EQ(SchemeSpec::probabilistic(0.5).name(), "P=0.50");
  EXPECT_EQ(SchemeSpec::adaptiveCounter().name(), "AC");
  EXPECT_EQ(SchemeSpec::adaptiveLocation().name(), "AL");
  EXPECT_EQ(SchemeSpec::neighborCoverage().name(), "NC");
  EXPECT_EQ(SchemeSpec::clusterBased(3).name(), "cluster(C=3)");
  SchemeSpec custom = SchemeSpec::flooding();
  custom.label = "my-label";
  EXPECT_EQ(custom.name(), "my-label");
}

TEST(World, TraceSinkDefaultsToNull) {
  ScenarioConfig c;
  c.numBroadcasts = 0;
  World w(c);
  EXPECT_EQ(w.traceSink(), nullptr);
}

}  // namespace
}  // namespace manet::experiment
