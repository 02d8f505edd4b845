// Checkpoint/replay subsystem (DESIGN.md §14): container framing, the named
// state-digest oracle, corruption rejection, and the resume-equivalence
// guarantee that backs the CI gate.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/config_io.hpp"
#include "ckpt/digest.hpp"
#include "ckpt/io.hpp"
#include "ckpt/state_access.hpp"
#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "sim/time.hpp"

namespace manet::ckpt {
namespace {

using experiment::ScenarioConfig;
using experiment::SchemeSpec;
using experiment::World;

// A small but fully-featured scenario: HELLO-fed adaptive counter, bursty
// link loss, and random churn, so a capture exercises every digest fold.
ScenarioConfig smallConfig() {
  ScenarioConfig c;
  c.mapUnits = 3;
  c.numHosts = 30;
  c.numBroadcasts = 10;
  c.neighborSource = experiment::NeighborSource::kHello;
  c.hello.enabled = true;
  c.scheme = SchemeSpec::adaptiveCounter();
  c.fault.loss = fault::FaultConfig::Loss::kGilbertElliott;
  c.fault.churn = true;
  c.fault.churnFraction = 0.2;
  c.seed = 42;
  return c;
}

/// The shortest frame airtime, the exclusive upper bound on
/// phy.carrierSenseDelay.
sim::Duration airtimeFloor() { return phy::PhyParams{}.frameAirtime(0); }

sim::TimePoint tp(double seconds) {
  return sim::kTimeZero + sim::fromSeconds(seconds);
}

sim::TimePoint midpointOf(const World& world) {
  return tp(sim::toSeconds(world.horizonTime()) * 0.5);
}

/// Expects two worlds to hold identical state, entry for entry, and lists
/// the differing entries otherwise.
void expectSameState(const World& a, const World& b) {
  const StateDigests da = StateAccess::digests(a);
  const StateDigests db = StateAccess::digests(b);
  std::string diffs;
  for (const std::string& line : diffDigests(da, db)) diffs += "\n  " + line;
  EXPECT_TRUE(da == db) << "state diverged:" << diffs;
}

// ------------------------------------------------------------ container io

TEST(CkptIo, WriterReaderRoundTripPrimitives) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-1.5e-12);
  w.boolean(true);
  w.time(tp(1.25));
  w.duration(2 * sim::kSecond);
  w.str("hello\0world");

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -1.5e-12);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.time(), tp(1.25));
  EXPECT_EQ(r.duration(), 2 * sim::kSecond);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.atEnd());
}

TEST(CkptIo, ReaderThrowsOnTruncation) {
  Writer w;
  w.u64(7);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.pop_back();
  Reader r(bytes);
  EXPECT_THROW(r.u64(), Error);
}

TEST(CkptIo, ContainerRoundTrip) {
  std::vector<Section> sections;
  sections.push_back({"ABCD", {1, 2, 3}});
  sections.push_back({"EFGH", {}});
  const auto framed = frameContainer(sections);
  const auto parsed = parseContainer(framed);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].tag, "ABCD");
  EXPECT_EQ(parsed[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(parsed[1].tag, "EFGH");
  EXPECT_TRUE(parsed[1].payload.empty());
}

TEST(CkptIo, ContainerRejectsBadMagic) {
  auto framed = frameContainer({{"ABCD", {1}}});
  framed[0] ^= 0xFF;
  EXPECT_THROW(parseContainer(framed), Error);
}

TEST(CkptIo, ContainerRejectsVersionMismatch) {
  auto framed = frameContainer({{"ABCD", {1}}});
  framed[kMagicLen] ^= 0xFF;  // version u32 sits right after the magic
  try {
    parseContainer(framed);
    FAIL() << "version mismatch accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(CkptIo, ContainerDetectsPayloadBitFlip) {
  auto framed = frameContainer({{"ABCD", {1, 2, 3, 4}}});
  framed[framed.size() - 9] ^= 0x01;  // last payload byte (digest trails it)
  EXPECT_THROW(parseContainer(framed), Error);
}

TEST(CkptIo, ContainerDetectsTruncation) {
  auto framed = frameContainer({{"ABCD", {1, 2, 3, 4}}});
  framed.resize(framed.size() - 3);
  EXPECT_THROW(parseContainer(framed), Error);
}

// ------------------------------------------------------ state digests

TEST(CkptDigest, DigestListCoversWorldAndEveryHostComponent) {
  World world(smallConfig());
  world.beginRun();
  world.continueUntil(midpointOf(world));
  const StateDigests digests = StateAccess::digests(world);
  ASSERT_EQ(digests.size(), 6u + 9u * world.hostCount());
  EXPECT_EQ(digests[0].name, "scheduler");
  EXPECT_EQ(digests[1].name, "scheduler.nextSeq");
  EXPECT_GT(digests[1].value, 0u);  // raw event count, not a digest
  EXPECT_EQ(digests[6].name, "host 0 schemeRng");
  EXPECT_EQ(digests.back().name,
            "host " + std::to_string(world.hostCount() - 1) + " nextSeq");
  EXPECT_EQ(decodeDigests(encodeDigests(digests)), digests);
}

TEST(CkptDigest, DiffGroupsHostComponentsAndCapsItsLines) {
  StateDigests stored{{"scheduler", 1}, {"channel", 2}};
  for (int h = 0; h < 40; ++h) {
    const std::string prefix = "host " + std::to_string(h) + " ";
    stored.push_back({prefix + "mac", 3});
    stored.push_back({prefix + "hello", 4});
    stored.push_back({prefix + "up", 1});
  }
  EXPECT_TRUE(diffDigests(stored, stored).empty());

  StateDigests replayed = stored;
  replayed[1].value ^= 1;  // channel
  replayed[2].value ^= 1;  // host 0 mac
  replayed[4].value ^= 1;  // host 0 up
  std::vector<std::string> diffs = diffDigests(stored, replayed);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0], "channel differs (2 vs 3)");
  EXPECT_EQ(diffs[1], "host 0: mac up");

  replayed = stored;
  for (NamedDigest& entry : replayed) entry.value ^= 1;
  diffs = diffDigests(stored, replayed);
  ASSERT_EQ(diffs.size(), 33u);  // 32 lines, then the suppression note
  EXPECT_EQ(diffs[2], "host 0: mac hello up");
  EXPECT_NE(diffs.back().find("suppressed"), std::string::npos);

  replayed = stored;
  replayed.pop_back();
  diffs = diffDigests(stored, replayed);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("digest count"), std::string::npos);
}

TEST(CkptDigest, ResumeNamesEveryTamperedDigest) {
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  std::vector<Section> sections = parseContainer(capture(prefix));
  int flipped = 0;
  for (Section& section : sections) {
    if (section.tag != "DGST") continue;
    StateDigests digests = decodeDigests(section.payload);
    for (NamedDigest& entry : digests) {
      if (entry.name == "host 3 mac" || entry.name == "scheduler.nextSeq") {
        entry.value ^= 1;
        ++flipped;
      }
    }
    section.payload = encodeDigests(digests);
  }
  ASSERT_EQ(flipped, 2);
  // Re-framed, so every section checksum is valid: only the oracle can
  // catch the tampering.
  try {
    resume(frameContainer(sections));
    FAIL() << "tampered digests accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scheduler.nextSeq differs"), std::string::npos)
        << what;
    EXPECT_NE(what.find("host 3: mac"), std::string::npos) << what;
    EXPECT_EQ(what.find("host 3: mac "), std::string::npos) << what;
    EXPECT_EQ(what.find("host 2"), std::string::npos) << what;
  }
}

/// A config with every field set off its default (and still valid), so the
/// golden encoding below pins each field's position and width.
ScenarioConfig offDefaultConfig() {
  using experiment::NeighborSource;
  using traffic::TrafficConfig;
  const auto ms = [](std::int64_t n) { return n * sim::kMillisecond; };
  const auto at = [](sim::Duration d) { return sim::kTimeZero + d; };
  ScenarioConfig c;
  c.mapUnits = 7;
  c.unitMeters = 450.5;
  c.numHosts = 3;
  c.maxSpeedKmh = 12.25;
  c.fixedPositions = {{1.5, 2.5}, {300.25, 40.0}, {610.0, 5.75}};
  c.mobility = ScenarioConfig::Mobility::kGroup;
  c.groupSize = 4;
  c.groupSpanMeters = 150.5;
  c.scheme.type = SchemeSpec::Type::kCluster;
  c.scheme.probability = 0.625;
  c.scheme.counterC = 4;
  c.scheme.distanceD = 120.5;
  c.scheme.areaA = 0.0875;
  c.scheme.counterFn = core::CounterThreshold::fromDigits("2345432");
  c.scheme.areaFn = core::AreaThreshold::piecewise(3, 9, 0.25);
  c.scheme.clusterInnerCounter = 5;
  c.scheme.label = "golden";
  c.neighborSource = NeighborSource::kHello;
  c.hello.enabled = true;
  c.hello.interval = ms(1500);
  c.hello.dynamic = true;
  c.hello.intervalMin = ms(700);
  c.hello.intervalMax = ms(9000);
  c.hello.nvMax = 0.03;
  c.hello.piggybackNeighbors = false;
  c.hello.baseBytes = 28;
  c.hello.perNeighborBytes = 6;
  c.hello.startJitter = ms(2000);
  c.hello.periodJitterFraction = 0.2;
  c.numBroadcasts = 17;
  c.interarrivalMax = ms(3000);
  c.traffic.arrival = TrafficConfig::Arrival::kBurst;
  c.traffic.poissonRatePerSecond = 2.5;
  c.traffic.period = ms(750);
  c.traffic.burstLength = 6;
  c.traffic.burstGapMax = ms(40);
  c.traffic.burstIdleMean = ms(3000);
  c.traffic.replay = {{at(ms(2000)), net::HostId{1}, 0},
                      {at(ms(1000)), net::HostId{2}, 1}};
  c.traffic.sources = TrafficConfig::Sources::kHotspot;
  c.traffic.hotspotCount = 2;
  c.traffic.hotspotIds = {net::HostId{2}, net::HostId{0}};
  c.traffic.zoneX0 = 0.1;
  c.traffic.zoneY0 = 0.2;
  c.traffic.zoneX1 = 0.6;
  c.traffic.zoneY1 = 0.7;
  c.warmup = ms(2500);
  c.drain = ms(8000);
  c.phy.radiusMeters = 450.0;
  c.phy.bitRateBps = 2e6;
  c.phy.plcpPreamble = sim::Duration{72};
  c.phy.plcpHeader = sim::Duration{24};
  c.phy.carrierSenseDelay = sim::Duration{3};
  c.mac.slot = sim::Duration{10};
  c.mac.sifs = sim::Duration{8};
  c.mac.difs = sim::Duration{40};
  c.mac.cwBroadcast = 15;
  c.mac.cwMin = 15;
  c.mac.cwMax = 511;
  c.mac.retryLimit = 5;
  c.mac.rtsThresholdBytes = 256;
  c.jitterSlots = 15;
  c.collisions = false;
  c.channelGrid = false;
  c.fault.loss = fault::FaultConfig::Loss::kGilbertElliott;
  c.fault.per = 0.05;
  c.fault.geLossGood = 0.01;
  c.fault.geLossBad = 0.6;
  c.fault.geGoodToBad = 0.1;
  c.fault.geBadToGood = 0.3;
  c.fault.churn = true;
  c.fault.churnFraction = 0.4;
  c.fault.meanUpTime = ms(15000);
  c.fault.meanDownTime = ms(4000);
  c.fault.script = {{net::HostId{1}, at(ms(3000)), false},
                    {net::HostId{1}, at(ms(5000)), true}};
  c.seed = 0xDEADBEEF1234ull;
  return c;
}

TEST(CkptConfig, GoldenEncodingPinsFieldOrderAndLayout) {
  // Recorded from the hand-written encoder the declared field list
  // replaced: the same config must keep producing the same CFG0 bytes.
  const ScenarioConfig c = offDefaultConfig();
  const std::vector<std::uint8_t> blob = encodeConfig(c);
  EXPECT_EQ(blob.size(), 716u);
  EXPECT_EQ(fnv1a(blob.data(), blob.size()), 0x3084e5cbd51bc97dull);
  EXPECT_EQ(encodeConfig(decodeConfig(blob)), blob);
}

TEST(CkptConfig, ResolvedConfigRoundTripsByteExact) {
  ScenarioConfig c = smallConfig();
  c.fixedPositions = {{0, 0}, {100, 50}, {200, 0}};
  c.scheme = SchemeSpec::counter(3);
  const ScenarioConfig resolved = c.resolved();
  const auto blob = encodeConfig(resolved);
  // No operator== on ScenarioConfig: byte-stability of a re-encode is the
  // equality oracle (and what resume relies on).
  EXPECT_EQ(encodeConfig(decodeConfig(blob)), blob);
}

/// Runs `fn` and expects a ckpt::Error whose message names `field`.
void expectErrorNaming(const std::function<void()>& fn, const char* field) {
  try {
    fn();
    ADD_FAILURE() << "accepted an invalid " << field;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

/// Returns a call that decodes the CFG0 bytes of smallConfig() as
/// modified by `breakIt`.
std::function<void()> decodeWith(void (*breakIt)(ScenarioConfig&)) {
  ScenarioConfig c = smallConfig().resolved();
  breakIt(c);
  return [blob = encodeConfig(c)] { decodeConfig(blob); };
}

TEST(CkptConfig, DecodeRejectsPhyParamsTheChannelRefuses) {
  // phy::Channel requires a positive radius and bit rate and every
  // carrier-sense event to fire before the shortest frame ends; a world
  // requires a map and a host; the loss models require probabilities;
  // every enum byte must name an enumerator. A blob that breaks one is
  // rejected by field name, not by a precondition.
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.phy.carrierSenseDelay = airtimeFloor();
                    }),
                    "phy.carrierSenseDelay");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.phy.carrierSenseDelay = sim::Duration{-1};
                    }),
                    "phy.carrierSenseDelay");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.phy.radiusMeters = 0.0; }),
      "phy.radiusMeters");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.phy.bitRateBps = -1.0; }),
      "phy.bitRateBps");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) { c.numHosts = -3; }),
                    "numHosts");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) { c.mapUnits = 0; }),
                    "mapUnits");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) { c.fault.per = 1.7; }),
                    "fault.per");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.fault.geLossGood = -0.1; }),
      "fault.geLossGood");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.fault.geLossBad = 2.0; }),
      "fault.geLossBad");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.fault.geGoodToBad =
                          std::numeric_limits<double>::quiet_NaN();
                    }),
                    "fault.geGoodToBad");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.fault.geBadToGood = 1.5; }),
      "fault.geBadToGood");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.fault.churnFraction = -1.0; }),
      "fault.churnFraction");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.mobility = static_cast<ScenarioConfig::Mobility>(0xFF);
                    }),
                    "mobility");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.neighborSource =
                          static_cast<experiment::NeighborSource>(2);
                    }),
                    "neighborSource");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.scheme.type = static_cast<SchemeSpec::Type>(9);
                    }),
                    "scheme.type");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.traffic.arrival =
                          static_cast<traffic::TrafficConfig::Arrival>(5);
                    }),
                    "traffic.arrival");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.traffic.sources =
                          static_cast<traffic::TrafficConfig::Sources>(3);
                    }),
                    "traffic.sources");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.fault.loss = static_cast<fault::FaultConfig::Loss>(3);
                    }),
                    "fault.loss");
  EXPECT_NO_THROW(decodeWith([](ScenarioConfig& c) {
    c.phy.carrierSenseDelay = airtimeFloor() - sim::Duration{1};
  })());
  EXPECT_NO_THROW(decodeWith([](ScenarioConfig& c) {
    c.mobility = ScenarioConfig::Mobility::kGroup;
    c.scheme.type = SchemeSpec::Type::kCluster;
    c.traffic.arrival = traffic::TrafficConfig::Arrival::kBurst;
    c.traffic.sources = traffic::TrafficConfig::Sources::kZone;
    c.fault.per = 1.0;
    c.fault.churnFraction = 0.0;
  })());
}

TEST(CkptConfig, DecodeRejectsFieldsEveryHostRequires) {
  // Every host builds a HelloAgent and a DcfMac, whose constructors
  // require these; the workload requires a count and a jitter >= 0. Each
  // used to decode and then abort on a precondition.
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.hello.interval = sim::Duration{};
                    }),
                    "hello.interval");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.hello.intervalMax = c.hello.intervalMin -
                                            sim::Duration{1};
                    }),
                    "hello.intervalMax");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.hello.periodJitterFraction = 1.0; }),
      "hello.periodJitterFraction");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) { c.mac.cwMin = 0; }),
                    "mac.cwMin");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.mac.cwMax = c.mac.cwMin - 1; }),
      "mac.cwMax");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.mac.slot = sim::Duration{}; }),
      "mac.slot");
  expectErrorNaming(
      decodeWith([](ScenarioConfig& c) { c.numBroadcasts = -1; }),
      "numBroadcasts");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) { c.jitterSlots = -2; }),
                    "jitterSlots");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.traffic.arrival =
                          traffic::TrafficConfig::Arrival::kReplay;
                      c.traffic.replay = {
                          {sim::kTimeZero, net::HostId{30}, 0}};
                    }),
                    "traffic.replay");
  expectErrorNaming(decodeWith([](ScenarioConfig& c) {
                      c.scheme = SchemeSpec::counter(0);
                    }),
                    "scheme.counterC");
}

/// Overwrites the 8 little-endian bytes at `offset` of `blob` with `v`.
void patchI64(std::vector<std::uint8_t>& blob, std::size_t offset,
              std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    blob[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i));
  }
}

TEST(CkptConfig, DecodeRejectsValuesItCannotRepresent) {
  // numHosts is the third field (after mapUnits i64 and unitMeters f64); a
  // value past int used to wrap silently.
  std::vector<std::uint8_t> blob = encodeConfig(smallConfig().resolved());
  patchI64(blob, 16, (std::int64_t{1} << 32) + 5);
  expectErrorNaming([&] { decodeConfig(blob); }, "numHosts");

  // A counter threshold value of 0, which CounterThreshold refuses: find
  // the single-value list {7} and make it {0}.
  ScenarioConfig c = smallConfig().resolved();
  c.scheme.counterFn = core::CounterThreshold::fixed(7);
  blob = encodeConfig(c);
  const std::uint8_t list[16] = {1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0};
  const auto at = std::search(blob.begin(), blob.end(), std::begin(list),
                              std::end(list));
  ASSERT_NE(at, blob.end());
  ASSERT_EQ(std::search(at + 1, blob.end(), std::begin(list), std::end(list)),
            blob.end());
  patchI64(blob, static_cast<std::size_t>(at - blob.begin()) + 8, 0);
  expectErrorNaming([&] { decodeConfig(blob); }, "scheme.counterFn");
}

TEST(Ckpt, ResumeRejectsBlobWithInvalidCarrierSenseDelay) {
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  std::vector<Section> sections = parseContainer(capture(prefix));
  bool patched = false;
  for (Section& section : sections) {
    if (section.tag != "CFG0") continue;
    ScenarioConfig c = decodeConfig(section.payload);
    c.phy.carrierSenseDelay = airtimeFloor();
    section.payload = encodeConfig(c);
    patched = true;
  }
  ASSERT_TRUE(patched);
  expectErrorNaming([&] { resume(frameContainer(sections)); },
                    "phy.carrierSenseDelay");
}

TEST(CkptDigest, ResumeRejectsBlobMissingTheDigestSection) {
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  std::vector<Section> sections = parseContainer(capture(prefix));
  std::erase_if(sections, [](const Section& s) { return s.tag == "DGST"; });
  expectErrorNaming([&] { resume(frameContainer(sections)); }, "DGST");
}

// ------------------------------------------------- resume equivalence core

TEST(Ckpt, CaptureIsSideEffectFreeAndSplitRunMatchesStraight) {
  const ScenarioConfig config = smallConfig();
  World straight(config);
  straight.run();

  World split(config);
  split.beginRun();
  split.continueUntil(midpointOf(split));
  const auto blob = capture(split);  // mid-run capture must perturb nothing
  EXPECT_FALSE(blob.empty());
  split.runToEnd();

  expectSameState(split, straight);
}

TEST(Ckpt, ResumedTailMatchesStraightThrough) {
  const ScenarioConfig config = smallConfig();
  World straight(config);
  straight.run();

  World prefix(config);
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  const auto blob = capture(prefix);

  std::unique_ptr<World> resumed = resume(blob);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->now(), midpointOf(prefix));
  resumed->runToEnd();
  expectSameState(*resumed, straight);
}

TEST(Ckpt, ResumeRejectsCorruptedBlob) {
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  auto blob = capture(prefix);
  blob[blob.size() / 2] ^= 0x10;
  EXPECT_THROW(resume(blob), Error);
}

TEST(Ckpt, ResumeRejectsVersionMismatch) {
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  auto blob = capture(prefix);
  blob[kMagicLen] += 1;  // pretend a future format version
  try {
    resume(blob);
    FAIL() << "future-version blob accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Ckpt, WorldCheckpointFileRoundTrip) {
  const std::string path = testing::TempDir() + "/ckpt_roundtrip.mckpt";
  const ScenarioConfig config = smallConfig();

  World straight(config);
  straight.run();

  World prefix(config);
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  prefix.checkpoint(path);

  std::unique_ptr<World> resumed = World::resume(path);
  ASSERT_NE(resumed, nullptr);
  resumed->runToEnd();
  expectSameState(*resumed, straight);
  std::remove(path.c_str());
}

TEST(Ckpt, ReadBlobFileRejectsMissingAndTruncatedFiles) {
  EXPECT_THROW(readBlobFile(testing::TempDir() + "/no_such_blob.mckpt"),
               Error);

  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  auto blob = capture(prefix);
  blob.resize(blob.size() - 7);
  const std::string path = testing::TempDir() + "/ckpt_truncated.mckpt";
  writeBlobFile(path, blob);
  EXPECT_THROW(resume(readBlobFile(path)), Error);
  std::remove(path.c_str());
}

TEST(Ckpt, RunCheckpointCycleMatchesStraightWorld) {
  const ScenarioConfig config = smallConfig();
  AnchorSpec anchor;
  anchor.fraction = 0.5;
  std::unique_ptr<World> cycled =
      runCheckpointCycle(config, anchor, /*blobDir=*/"", "test");
  ASSERT_NE(cycled, nullptr);

  World reference(config);
  reference.run();
  expectSameState(*cycled, reference);
}

TEST(Ckpt, AveragedSweepIdenticalUnderCycleOverrideAcrossThreads) {
  const ScenarioConfig config = smallConfig();
  const experiment::RunResult straight =
      experiment::runScenarioAveraged(config, 2, /*threads=*/1);

  experiment::setWorldRunOverride([](const ScenarioConfig& c) {
    AnchorSpec anchor;
    anchor.fraction = 0.5;
    return runCheckpointCycle(c, anchor, "", "test");
  });
  const experiment::RunResult cycled1 =
      experiment::runScenarioAveraged(config, 2, /*threads=*/1);
  const experiment::RunResult cycled2 =
      experiment::runScenarioAveraged(config, 2, /*threads=*/2);
  experiment::setWorldRunOverride(nullptr);

  for (const experiment::RunResult* r : {&cycled1, &cycled2}) {
    EXPECT_EQ(r->re(), straight.re());
    EXPECT_EQ(r->srb(), straight.srb());
    EXPECT_EQ(r->latency(), straight.latency());
    EXPECT_EQ(r->summary.broadcasts, straight.summary.broadcasts);
    EXPECT_EQ(r->framesTransmitted, straight.framesTransmitted);
    EXPECT_EQ(r->framesDelivered, straight.framesDelivered);
    EXPECT_EQ(r->framesCorrupted, straight.framesCorrupted);
    EXPECT_EQ(r->framesLostToFault, straight.framesLostToFault);
    EXPECT_EQ(r->offeredBroadcasts, straight.offeredBroadcasts);
    EXPECT_EQ(r->hellosPerHostPerSecond, straight.hellosPerHostPerSecond);
  }
}

TEST(Ckpt, SchemeOverrideTailRunsToHorizon) {
  World straight(smallConfig());
  straight.run();

  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  const auto blob = capture(prefix);

  std::unique_ptr<World> resumed = resume(blob);
  resumed->overrideScheme(SchemeSpec::flooding());
  resumed->runToEnd();
  EXPECT_EQ(resumed->now(), resumed->horizonTime());
  // The tail ran under the new policy without disturbing in-flight
  // broadcasts; the run still completes every scheduled request.
  EXPECT_EQ(resumed->workloadSchedule().size(), 10u);
  EXPECT_EQ(resumed->horizonTime(), straight.horizonTime());
  // Flooding's tail leaves a different world than the adaptive counter's.
  const StateDigests tail = StateAccess::digests(*resumed);
  EXPECT_FALSE(tail == StateAccess::digests(straight));
}

// ---------------------------------------------------------- CLI spec parsing

TEST(CkptSpec, ParseAnchorSpec) {
  const AnchorSpec secs = parseAnchorSpec("12.5");
  EXPECT_DOUBLE_EQ(secs.seconds, 12.5);
  EXPECT_LT(secs.fraction, 0.0);
  EXPECT_TRUE(secs.active());

  const AnchorSpec frac = parseAnchorSpec("50%");
  EXPECT_DOUBLE_EQ(frac.fraction, 0.5);
  EXPECT_LT(frac.seconds, 0.0);

  EXPECT_THROW(parseAnchorSpec(""), Error);
  EXPECT_THROW(parseAnchorSpec("abc"), Error);
  EXPECT_THROW(parseAnchorSpec("150%"), Error);
  EXPECT_THROW(parseAnchorSpec("-3"), Error);
  // NaN slipped past the range checks, and an infinite anchor has no tick.
  EXPECT_THROW(parseAnchorSpec("nan%"), Error);
  EXPECT_THROW(parseAnchorSpec("nan"), Error);
  EXPECT_THROW(parseAnchorSpec("inf"), Error);
  // Trailing text used to throw an Error with an empty message.
  for (const char* bad : {"12.5s", "50%%", "5x%"}) {
    try {
      parseAnchorSpec(bad);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
}

TEST(CkptSpec, ParseSchemeOverride) {
  EXPECT_EQ(parseSchemeOverride("flooding").name(), "flooding");
  EXPECT_EQ(parseSchemeOverride("c=3").name(), SchemeSpec::counter(3).name());
  EXPECT_EQ(parseSchemeOverride("p=0.5").name(),
            SchemeSpec::probabilistic(0.5).name());
  EXPECT_THROW(parseSchemeOverride("bogus"), Error);
  EXPECT_THROW(parseSchemeOverride("c=zero"), Error);
  // Trailing text used to be dropped (c=3x ran as C=3), and values outside
  // the scheme fields' domains were accepted.
  for (const char* bad : {"c=3x", "p=0.5.1", "d=10m", "p=7", "p=-0.1",
                          "c=-2", "c=0", "d=-5", "a=1.5", "c=99999999999"}) {
    try {
      parseSchemeOverride(bad);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("MANET_CKPT_SCHEME"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(parseSchemeOverride("d=125.5").name(),
            SchemeSpec::distance(125.5).name());
  EXPECT_EQ(parseSchemeOverride("a=0.0134").name(),
            SchemeSpec::location(0.0134).name());
}

}  // namespace
}  // namespace manet::ckpt
