// Checkpoint/replay subsystem (DESIGN.md §14): container framing, image
// round-trips, corruption rejection, and the resume-equivalence guarantee
// that backs the CI gate.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/config_io.hpp"
#include "ckpt/image.hpp"
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
// link loss, and random churn, so a capture exercises every image section.
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

// ------------------------------------------------------- image round-trips

TEST(CkptImage, RngRoundTrip) {
  RngImage v{{1, 0xFFFFFFFFFFFFFFFFull, 3, 4}};
  Writer w;
  encode(w, v);
  Reader r(w.bytes());
  EXPECT_EQ(decodeRng(r), v);
}

TEST(CkptImage, SchedulerRoundTrip) {
  SchedulerImage v;
  v.now = tp(3.5);
  v.nextSeq = 99;
  v.liveCount = 2;
  v.slotCount = 64;
  v.pending = {{tp(3.5), 7}, {tp(4.0), 8}};
  Writer w;
  encode(w, v);
  Reader r(w.bytes());
  EXPECT_EQ(decodeScheduler(r), v);
}

TEST(CkptImage, NeighborTableRoundTrip) {
  NeighborTableImage v;
  v.entries = {{3, tp(1.0), sim::kSecond, {1, 9}},
               {8, tp(2.0), 2 * sim::kSecond, {}}};
  v.changes = {tp(0.5), tp(1.5)};
  Writer w;
  encode(w, v);
  Reader r(w.bytes());
  EXPECT_EQ(decodeNeighborTable(r), v);
}

TEST(CkptImage, HostRoundTripWithDuplicateState) {
  HostImage v;
  v.id = 17;
  v.up = false;
  v.nextSeq = 5;
  v.schemeRng = {{1, 2, 3, 4}};
  v.jitterRng = {{5, 6, 7, 8}};
  v.macDigest = 0x1111;
  v.helloDigest = 0x2222;
  v.mobilityDigest = 0x3333;
  v.table.entries = {{2, tp(1.0), sim::kSecond, {17}}};
  BroadcastStateImage b;
  b.origin = 4;
  b.seq = 9;
  b.phase = 2;
  b.jitterPending = true;
  b.txId = 77;
  b.hasDecider = true;
  b.deciderDigest = 0xABCD;
  b.hasPacket = true;
  b.packetDigest = 0xEF01;
  v.broadcasts = {b};
  Writer w;
  encode(w, v);
  Reader r(w.bytes());
  EXPECT_EQ(decodeHost(r), v);
}

TEST(CkptImage, FaultRoundTripWithGilbertElliottChains) {
  FaultImage v;
  v.lossKind = 2;
  v.lossRng = {{9, 8, 7, 6}};
  v.links = {{(1ull << 32) | 2, true, {{1, 1, 1, 1}}},
             {(3ull << 32) | 4, false, {{2, 2, 2, 2}}}};
  Writer w;
  encode(w, v);
  Reader r(w.bytes());
  EXPECT_EQ(decodeFault(r), v);
}

TEST(CkptImage, WorldImageContainerRoundTripAndDiff) {
  // Capture a real mid-run world rather than hand-building every field.
  World world(smallConfig());
  world.beginRun();
  world.continueUntil(midpointOf(world));
  const WorldImage image = StateAccess::captureWorld(world);
  EXPECT_FALSE(image.hosts.empty());
  EXPECT_FALSE(image.scheduler.pending.empty());
  EXPECT_EQ(image.fault.lossKind, 2);  // Gilbert-Elliott chains captured
  EXPECT_FALSE(image.traffic.schedule.empty());

  WorldImage decoded = decodeWorldImage(encodeWorldImage(image));
  EXPECT_EQ(decoded, image);
  EXPECT_TRUE(diffWorldImages(image, decoded).empty());

  decoded.hosts[0].nextSeq ^= 1;
  decoded.scheduler.nextSeq ^= 1;
  const auto diffs = diffWorldImages(image, decoded);
  ASSERT_GE(diffs.size(), 2u);  // one line per mismatched subsystem
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

TEST(CkptConfig, DecodeRejectsPhyParamsTheChannelRefuses) {
  // phy::Channel requires a positive radius and bit rate and every
  // carrier-sense event to fire before the shortest frame ends;
  // ScenarioConfig::resolved() requires a map and a host; the loss models
  // require probabilities; every enum byte must name an enumerator. A blob
  // that breaks one is rejected by field name, not by a precondition.
  const auto decodeWith = [](void (*breakIt)(ScenarioConfig&)) {
    ScenarioConfig c = smallConfig().resolved();
    breakIt(c);
    return [blob = encodeConfig(c)] { decodeConfig(blob); };
  };
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

  EXPECT_EQ(StateAccess::captureWorld(split),
            StateAccess::captureWorld(straight));
}

TEST(Ckpt, ResumedTailMatchesStraightThrough) {
  const ScenarioConfig config = smallConfig();
  World straight(config);
  straight.run();

  World prefix(config);
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  const auto blob = capture(prefix);

  Resumed resumed = resume(blob);
  ASSERT_NE(resumed.world, nullptr);
  EXPECT_EQ(resumed.image.anchor, midpointOf(prefix));
  resumed.world->runToEnd();

  const auto diffs = diffWorldImages(StateAccess::captureWorld(*resumed.world),
                                     StateAccess::captureWorld(straight));
  EXPECT_TRUE(diffs.empty()) << diffs.size() << " subsystem(s) diverged, e.g. "
                             << diffs.front();
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
  EXPECT_EQ(StateAccess::captureWorld(*resumed),
            StateAccess::captureWorld(straight));
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
  EXPECT_EQ(StateAccess::captureWorld(*cycled),
            StateAccess::captureWorld(reference));
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
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  const auto blob = capture(prefix);

  Resumed resumed = resume(blob);
  resumed.world->overrideScheme(SchemeSpec::flooding());
  resumed.world->runToEnd();
  const WorldImage end = StateAccess::captureWorld(*resumed.world);
  EXPECT_EQ(end.anchor, resumed.world->horizonTime());
  // The tail ran under the new policy without disturbing in-flight
  // broadcasts; the run still completes every scheduled request.
  EXPECT_EQ(end.traffic.schedule.size(), 10u);
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
}

TEST(CkptSpec, ParseSchemeOverride) {
  EXPECT_EQ(parseSchemeOverride("flooding").name(), "flooding");
  EXPECT_EQ(parseSchemeOverride("c=3").name(), SchemeSpec::counter(3).name());
  EXPECT_EQ(parseSchemeOverride("p=0.5").name(),
            SchemeSpec::probabilistic(0.5).name());
  EXPECT_THROW(parseSchemeOverride("bogus"), Error);
  EXPECT_THROW(parseSchemeOverride("c=zero"), Error);
}

}  // namespace
}  // namespace manet::ckpt
