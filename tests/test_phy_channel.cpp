#include "phy/channel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace manet::phy {
namespace {

using net::HostId;

net::PacketPtr dataPacket(HostId sender) {
  return net::makeDataPacket(net::BroadcastId{sender, net::BroadcastSeq{0}}, sender);
}

/// Records everything the channel tells one node.
class Probe : public Channel::Listener {
 public:
  struct Rx {
    HostId from;
    bool corrupted;
    sim::TimePoint at;
  };
  void onMediumBusy() override { ++busyEvents; }
  void onMediumIdle() override { ++idleEvents; }
  void onFrameReceived(const Frame& frame, DropReason drop) override {
    receptions.push_back({frame.src, drop != DropReason::kNone, frame.txEnd});
  }
  void onTxComplete() override { ++txCompleted; }

  int busyEvents = 0;
  int idleEvents = 0;
  int txCompleted = 0;
  std::vector<Rx> receptions;
};

/// A fixture with a scheduler, a 500 m channel, and helpers to place nodes.
class ChannelTest : public ::testing::Test {
 protected:
  Channel& makeChannel(PhyParams params = {}) {
    channel_ = std::make_unique<Channel>(scheduler_, params);
    return *channel_;
  }

  HostId addNode(geom::Vec2 pos) {
    const HostId id{static_cast<std::uint32_t>(probes_.size())};
    probes_.push_back(std::make_unique<Probe>());
    channel_->attach(id, probes_.back().get(), [pos] { return pos; });
    return id;
  }

  Probe& probe(HostId id) { return *probes_[id.value()]; }

  sim::Scheduler scheduler_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Probe>> probes_;
};

TEST_F(ChannelTest, FrameAirtimeMatchesDsssTiming) {
  PhyParams p;
  // 280 bytes at 1 Mb/s = 2240 us, plus 144 + 48 us of PLCP.
  EXPECT_EQ(p.frameAirtime(280), sim::Duration{2432});
  EXPECT_EQ(p.frameAirtime(0), sim::Duration{192});
}

TEST_F(ChannelTest, InRangeNodeReceivesIntactFrame) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({400, 0});
  const sim::TimePoint end = ch.transmit(a, dataPacket(a), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(b).receptions.size(), 1u);
  EXPECT_EQ(probe(b).receptions[0].from, a);
  EXPECT_FALSE(probe(b).receptions[0].corrupted);
  EXPECT_EQ(probe(b).receptions[0].at, end);
}

TEST_F(ChannelTest, OutOfRangeNodeHearsNothing) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId far = addNode({501, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runAll();
  EXPECT_TRUE(probe(far).receptions.empty());
  EXPECT_EQ(probe(far).busyEvents, 0);
}

TEST_F(ChannelTest, RangeBoundaryIsInclusive) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId edge = addNode({500, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runAll();
  EXPECT_EQ(probe(edge).receptions.size(), 1u);
}

TEST_F(ChannelTest, TransmitterDoesNotReceiveItsOwnFrame) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runAll();
  EXPECT_TRUE(probe(a).receptions.empty());
  EXPECT_EQ(probe(a).txCompleted, 1);
}

TEST_F(ChannelTest, CarrierBusyDuringTransmission) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({100, 0});
  EXPECT_FALSE(ch.carrierBusy(b));
  ch.transmit(a, dataPacket(a), 280);
  EXPECT_TRUE(ch.carrierBusy(a));   // own transmission asserts energy at once
  EXPECT_FALSE(ch.carrierBusy(b));  // ...but b can't sense it yet (RF delay)
  scheduler_.runUntil(sim::kTimeZero + PhyParams{}.carrierSenseDelay);
  EXPECT_TRUE(ch.carrierBusy(b));
  EXPECT_TRUE(ch.isTransmitting(a));
  scheduler_.runAll();
  EXPECT_FALSE(ch.carrierBusy(a));
  EXPECT_FALSE(ch.carrierBusy(b));
  EXPECT_FALSE(ch.isTransmitting(a));
  EXPECT_EQ(probe(b).busyEvents, 1);
  EXPECT_EQ(probe(b).idleEvents, 1);
}

TEST_F(ChannelTest, OverlappingFramesCollideAtCommonReceiver) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});    // hidden from a (dist 900 > 500)
  const HostId mid = addNode({450, 0});  // hears both
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});  // b starts mid-frame: hidden-terminal collision
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(mid).receptions.size(), 2u);
  EXPECT_TRUE(probe(mid).receptions[0].corrupted);
  EXPECT_TRUE(probe(mid).receptions[1].corrupted);
}

TEST_F(ChannelTest, NonOverlappingFramesBothDeliver) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});
  const HostId mid = addNode({450, 0});
  const sim::TimePoint end = ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(end);  // a's frame completed
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(mid).receptions.size(), 2u);
  EXPECT_FALSE(probe(mid).receptions[0].corrupted);
  EXPECT_FALSE(probe(mid).receptions[1].corrupted);
}

TEST_F(ChannelTest, CollisionIsLocalToOverlapArea) {
  // d hears only b, so b's frame is intact there even though it collided
  // with a's frame at mid.
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});
  addNode({450, 0});                       // mid: collision zone
  const HostId d = addNode({1300, 0});     // only in b's range
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(d).receptions.size(), 1u);
  EXPECT_EQ(probe(d).receptions[0].from, b);
  EXPECT_FALSE(probe(d).receptions[0].corrupted);
}

TEST_F(ChannelTest, HalfDuplexTransmitterLosesIncomingFrame) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({400, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{50});
  ch.transmit(b, dataPacket(b), 280);  // b starts while a's frame arrives
  scheduler_.runAll();
  // b was transmitting during part of a's frame: the frame is corrupt at b.
  ASSERT_EQ(probe(b).receptions.size(), 1u);
  EXPECT_TRUE(probe(b).receptions[0].corrupted);
  // and symmetric: a transmitting while b's frame arrives.
  ASSERT_EQ(probe(a).receptions.size(), 1u);
  EXPECT_TRUE(probe(a).receptions[0].corrupted);
}

TEST_F(ChannelTest, BusyIdleTransitionsCountOverlaps) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({200, 0});
  const HostId c = addNode({400, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  // c heard both overlapping frames: exactly one busy->idle cycle.
  EXPECT_EQ(probe(c).busyEvents, 1);
  EXPECT_EQ(probe(c).idleEvents, 1);
  EXPECT_EQ(probe(c).receptions.size(), 2u);
}

TEST_F(ChannelTest, CollisionsDisabledDeliversOverlappingFrames) {
  Channel& ch = makeChannel();
  ch.setCollisionsEnabled(false);
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});
  const HostId mid = addNode({450, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(mid).receptions.size(), 2u);
  EXPECT_FALSE(probe(mid).receptions[0].corrupted);
  EXPECT_FALSE(probe(mid).receptions[1].corrupted);
}

TEST_F(ChannelTest, StatisticsCounters) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});
  addNode({450, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  EXPECT_EQ(ch.framesTransmitted(), 2u);
  // mid got 2 corrupted; a and b each got 1 corrupted (half-duplex? no --
  // a and b are out of range of each other). So only mid's two receptions.
  EXPECT_EQ(ch.framesCorrupted(), 2u);
  EXPECT_EQ(ch.framesDelivered(), 0u);
}

TEST_F(ChannelTest, NodesInRangeExcludesSelf) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({300, 0});
  addNode({5000, 5000});
  const auto inRange = ch.nodesInRange(a);
  ASSERT_EQ(inRange.size(), 1u);
  EXPECT_EQ(inRange[0], b);
}

TEST_F(ChannelTest, SnapshotPositions) {
  makeChannel();
  addNode({1, 2});
  addNode({3, 4});
  const auto snap = channel_->snapshotPositions();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0], (geom::Vec2{1, 2}));
  EXPECT_EQ(snap[1], (geom::Vec2{3, 4}));
}

TEST_F(ChannelTest, PositionFunctionIsLive) {
  Channel& ch = makeChannel();
  geom::Vec2 pos{0, 0};
  probes_.push_back(std::make_unique<Probe>());
  ch.attach(HostId{0}, probes_.back().get(), [&pos] { return pos; });
  EXPECT_EQ(ch.positionOf(HostId{0}), (geom::Vec2{0, 0}));
  pos = {9, 9};
  EXPECT_EQ(ch.positionOf(HostId{0}), (geom::Vec2{9, 9}));
}

TEST_F(ChannelTest, ThreeWayCollisionCorruptsEverything) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({0, 600});
  const HostId c = addNode({600, 0});
  const HostId mid = addNode({300, 300});  // in range of all three
  // a-b, a-c, b-c pairwise distances are 600+ m: mutually hidden.
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{10});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runUntil(sim::TimePoint{20});
  ch.transmit(c, dataPacket(c), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(mid).receptions.size(), 3u);
  for (const auto& rx : probe(mid).receptions) EXPECT_TRUE(rx.corrupted);
}

TEST_F(ChannelTest, DoubleAttachIsRejected) {
  Channel& ch = makeChannel();
  addNode({0, 0});
  Probe extra;
  EXPECT_DEATH(ch.attach(HostId{0}, &extra, [] { return geom::Vec2{}; }),
               "Precondition");
}

TEST_F(ChannelTest, CarrierSenseDelayMustStayBelowShortestFrame) {
  // Reception cohorts rely on every receiver sensing a frame before any
  // frame can end (DESIGN.md §11.6).
  PhyParams p;
  p.carrierSenseDelay = p.frameAirtime(0);
  EXPECT_DEATH(makeChannel(p), "Precondition");
  p.carrierSenseDelay = sim::Duration{-1};
  EXPECT_DEATH(makeChannel(p), "Precondition");
  p.carrierSenseDelay = p.frameAirtime(0) - sim::Duration{1};
  Channel& ch = makeChannel(p);
  const HostId a = addNode({0, 0});
  const HostId b = addNode({100, 0});
  const sim::TimePoint end = ch.transmit(a, dataPacket(a), 0);
  scheduler_.runUntil(end - sim::Duration{1});
  EXPECT_TRUE(ch.carrierBusy(b));
  scheduler_.runAll();
  ASSERT_EQ(probe(b).receptions.size(), 1u);
  EXPECT_FALSE(probe(b).receptions[0].corrupted);
}

TEST_F(ChannelTest, TransmitWhileTransmittingIsRejected) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  ch.transmit(a, dataPacket(a), 280);
  EXPECT_DEATH(ch.transmit(a, dataPacket(a), 280), "Precondition");
}

}  // namespace
}  // namespace manet::phy
