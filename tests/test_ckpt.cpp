// Checkpoint/replay subsystem (DESIGN.md §14): container framing, the named
// state-digest oracle, corruption rejection, and the resume-equivalence
// guarantee that backs the CI gate.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/config_io.hpp"
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
