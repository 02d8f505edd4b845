#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/inline_fn.hpp"
#include "util/assert.hpp"

namespace manet::phy {

namespace {

/// Upper bound on grid cells along one axis. Dense maps in this codebase are
/// a few tens of radii across; the cap only guards degenerate geometries
/// (e.g. one node flung far away) from allocating a huge cell table.
constexpr int kMaxCellsPerAxis = 256;

}  // namespace

Channel::Channel(sim::Scheduler& scheduler, PhyParams params)
    : scheduler_(scheduler), params_(params) {
  MANET_EXPECTS(params_.radiusMeters > 0.0);
  MANET_EXPECTS(params_.senseDelayValid());
}

Channel::~Channel() {
  // Ledger check: every reception that began must have ended, been flushed
  // by host churn, or still be on the air when the run stopped mid-frame.
  MANET_AUDIT_HOOK({
    std::uint64_t inFlight = 0;
    for (const Node& n : nodes_) inFlight += n.activeRx.size();
    audit_.atTeardown(inFlight, scheduler_.now());
  });
}

void Channel::attach(net::HostId id, Listener* listener, PositionFn position) {
  MANET_EXPECTS(listener != nullptr);
  MANET_EXPECTS(position != nullptr);
  if (id.value() >= nodes_.size()) nodes_.resize(id.value() + 1);
  Node& n = nodes_[id.value()];
  MANET_EXPECTS(!n.attached);
  n.listener = listener;
  n.position = std::move(position);
  n.attached = true;
  ++attachVersion_;
}

Channel::Node& Channel::node(net::HostId id) {
  MANET_EXPECTS(id.value() < nodes_.size() && nodes_[id.value()].attached);
  return nodes_[id.value()];
}

const Channel::Node& Channel::node(net::HostId id) const {
  MANET_EXPECTS(id.value() < nodes_.size() && nodes_[id.value()].attached);
  return nodes_[id.value()];
}

void Channel::raiseBusy(Node& n) {
  MANET_AUDIT_HOOK(audit_.onEnergyRaise(
      net::HostId{static_cast<std::uint32_t>(&n - nodes_.data())},
      scheduler_.now()));
  if (++n.busyCount == 1) n.listener->onMediumBusy();
}

void Channel::lowerBusy(Node& n) {
  MANET_AUDIT_HOOK(audit_.onEnergyLower(
      net::HostId{static_cast<std::uint32_t>(&n - nodes_.data())},
      scheduler_.now()));
  MANET_ASSERT(n.busyCount > 0);
  if (--n.busyCount == 0) n.listener->onMediumIdle();
}

geom::Vec2 Channel::positionOf(net::HostId id) const {
  return node(id).position();
}

bool Channel::carrierBusy(net::HostId id) const {
  return node(id).busyCount > 0;
}

bool Channel::isTransmitting(net::HostId id) const {
  return node(id).transmitting;
}

void Channel::ensureGrid() const {
  if (grid_.valid && grid_.builtAt == scheduler_.now() &&
      grid_.attachVersion == attachVersion_) {
    return;
  }
  const std::size_t n = nodes_.size();
  grid_.positions.resize(n);
  grid_.cellOf.assign(n, -1);
  grid_.sortedIds.clear();
  grid_.rankOf.assign(n, -1);

  // Pay each position callback exactly once per epoch; every query this
  // epoch reads the cached coordinates. Churned-down nodes are invisible:
  // they get no rank, no cell, and no cached position.
  geom::Vec2 lo{0.0, 0.0};
  geom::Vec2 hi{0.0, 0.0};
  bool first = true;
  for (std::size_t id = 0; id < n; ++id) {
    if (!nodes_[id].attached || !nodes_[id].up) continue;
    const geom::Vec2 p = nodes_[id].position();
    grid_.positions[id] = p;
    grid_.rankOf[id] = static_cast<int>(grid_.sortedIds.size());
    grid_.sortedIds.push_back(net::HostId{static_cast<std::uint32_t>(id)});
    if (first) {
      lo = hi = p;
      first = false;
    } else {
      lo.x = std::min(lo.x, p.x);
      lo.y = std::min(lo.y, p.y);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
    }
  }

  grid_.origin = lo;
  grid_.bboxMax = hi;
  double cell = params_.radiusMeters;
  int cols = first ? 1 : static_cast<int>((hi.x - lo.x) / cell) + 1;
  int rows = first ? 1 : static_cast<int>((hi.y - lo.y) / cell) + 1;
  if (cols > kMaxCellsPerAxis || rows > kMaxCellsPerAxis) {
    const double span = std::max(hi.x - lo.x, hi.y - lo.y);
    cell = std::max(cell, span / kMaxCellsPerAxis + 1e-9);
    cols = static_cast<int>((hi.x - lo.x) / cell) + 1;
    rows = static_cast<int>((hi.y - lo.y) / cell) + 1;
  }
  grid_.cellSize = cell;
  grid_.cols = cols;
  grid_.rows = rows;

  // Counting sort into CSR; iterating ids ascending keeps each cell's node
  // list ascending, which the queries rely on for deterministic order.
  const std::size_t cells =
      static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows);
  grid_.cellStart.assign(cells + 1, 0);
  for (std::size_t id = 0; id < n; ++id) {
    if (!nodes_[id].attached || !nodes_[id].up) continue;
    const geom::Vec2 p = grid_.positions[id];
    const int cx = std::min(cols - 1, static_cast<int>((p.x - lo.x) / cell));
    const int cy = std::min(rows - 1, static_cast<int>((p.y - lo.y) / cell));
    const int c = cy * cols + cx;
    grid_.cellOf[id] = c;
    ++grid_.cellStart[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t c = 1; c < grid_.cellStart.size(); ++c) {
    grid_.cellStart[c] += grid_.cellStart[c - 1];
  }
  const auto occupied = static_cast<std::size_t>(grid_.cellStart.back());
  grid_.cellNodes.resize(occupied);
  grid_.cellX.resize(occupied);
  grid_.cellY.resize(occupied);
  constexpr double inf = std::numeric_limits<double>::infinity();
  grid_.cellMinX.assign(cells, inf);
  grid_.cellMaxX.assign(cells, -inf);
  grid_.cellMinY.assign(cells, inf);
  grid_.cellMaxY.assign(cells, -inf);
  std::vector<int>& fill = grid_.cellFill;
  fill.assign(grid_.cellStart.begin(), grid_.cellStart.end() - 1);
  for (std::size_t id = 0; id < n; ++id) {
    const int c = grid_.cellOf[id];
    if (c < 0) continue;
    const auto cc = static_cast<std::size_t>(c);
    const auto slot = static_cast<std::size_t>(fill[cc]++);
    const geom::Vec2 p = grid_.positions[id];
    grid_.cellNodes[slot] = net::HostId{static_cast<std::uint32_t>(id)};
    grid_.cellX[slot] = p.x;
    grid_.cellY[slot] = p.y;
    grid_.cellMinX[cc] = std::min(grid_.cellMinX[cc], p.x);
    grid_.cellMaxX[cc] = std::max(grid_.cellMaxX[cc], p.x);
    grid_.cellMinY[cc] = std::min(grid_.cellMinY[cc], p.y);
    grid_.cellMaxY[cc] = std::max(grid_.cellMaxY[cc], p.y);
  }

  grid_.valid = true;
  grid_.builtAt = scheduler_.now();
  grid_.attachVersion = attachVersion_;

  obs::add(obs::Counter::kGridRebuilds);
  if (obs::current() != nullptr) {
    for (std::size_t c = 0; c < cells; ++c) {
      const int occupancy = grid_.cellStart[c + 1] - grid_.cellStart[c];
      if (occupancy > 0) {
        obs::observe(obs::Hist::kGridCellOccupancy, occupancy);
      }
    }
  }
}

template <class Visitor>
int Channel::walkInRange(geom::Vec2 center, Visitor& v) const {
  const double r2 = params_.radiusMeters * params_.radiusMeters;
  obs::add(obs::Counter::kGridQueries);
  // When the whole population's bounding box lies inside the query disk —
  // routine on dense single-cell maps — every live node is in range.
  const double fx =
      std::max(center.x - grid_.origin.x, grid_.bboxMax.x - center.x);
  const double fy =
      std::max(center.y - grid_.origin.y, grid_.bboxMax.y - center.y);
  if (fx * fx + fy * fy <= r2) {
    obs::add(obs::Counter::kGridBboxFastPath);
    v.all();
    return 1;
  }
  // Cell size >= radius, so a disk centered anywhere inside cell (ccx,ccy)
  // is contained in the 3x3 neighborhood. A cell whose occupant bounding
  // box lies inside the disk qualifies whole (an empty cell's box is
  // inverted, so it never does); otherwise each occupant gets a
  // branch-free distance test over the contiguous coordinate arrays.
  // Pointers are hoisted so the visitor's stores can't force reloads
  // through `grid_`.
  const double* xs = grid_.cellX.data();
  const double* ys = grid_.cellY.data();
  const int* start = grid_.cellStart.data();
  const int ccx = std::clamp(
      static_cast<int>((center.x - grid_.origin.x) / grid_.cellSize), 0,
      grid_.cols - 1);
  const int ccy = std::clamp(
      static_cast<int>((center.y - grid_.origin.y) / grid_.cellSize), 0,
      grid_.rows - 1);
  int runs = 0;
  for (int cy = std::max(0, ccy - 1); cy <= std::min(grid_.rows - 1, ccy + 1);
       ++cy) {
    for (int cx = std::max(0, ccx - 1);
         cx <= std::min(grid_.cols - 1, ccx + 1); ++cx) {
      const auto c = static_cast<std::size_t>(cy * grid_.cols + cx);
      const int lo = start[c];
      const int hi = start[c + 1];
      runs += (hi > lo) ? 1 : 0;
      const double cfx = std::max(center.x - grid_.cellMinX[c],
                                  grid_.cellMaxX[c] - center.x);
      const double cfy = std::max(center.y - grid_.cellMinY[c],
                                  grid_.cellMaxY[c] - center.y);
      if (cfx * cfx + cfy * cfy <= r2) {
        obs::add(obs::Counter::kGridCellsCovered);
        v.cell(lo, hi);
        continue;
      }
      if (hi > lo) obs::add(obs::Counter::kGridCellsScanned);
      for (int i = lo; i < hi; ++i) {
        const double dx = xs[i] - center.x;
        const double dy = ys[i] - center.y;
        v.slot(i, dx * dx + dy * dy <= r2);
      }
    }
  }
  return runs;
}

void Channel::collectInRange(geom::Vec2 center, net::HostId exclude,
                             std::vector<net::HostId>& out) const {
  ensureGrid();
  // Sized to the live population up front, then compacted: a whole run is
  // copied splicing out `exclude`; a scanned slot always stores its id and
  // advances only when it qualifies.
  struct Collect {
    const net::HostId* ids;
    const net::HostId* sorted;
    std::size_t live;
    net::HostId exclude;
    net::HostId* dst;
    std::size_t kept = 0;

    void run(const net::HostId* b, const net::HostId* e) {
      const net::HostId* p = std::lower_bound(b, e, exclude);
      net::HostId* w = std::copy(b, p, dst + kept);
      if (p != e && *p == exclude) ++p;
      w = std::copy(p, e, w);
      kept = static_cast<std::size_t>(w - dst);
    }
    void all() { run(sorted, sorted + live); }
    void cell(int lo, int hi) { run(ids + lo, ids + hi); }
    void slot(int i, bool inRange) {
      dst[kept] = ids[i];
      kept += static_cast<std::size_t>(inRange & (ids[i] != exclude));
    }
  };
  const std::size_t before = out.size();
  out.resize(before + grid_.sortedIds.size());
  Collect v{grid_.cellNodes.data(), grid_.sortedIds.data(),
            grid_.sortedIds.size(), exclude, out.data() + before};
  const int runs = walkInRange(center, v);
  out.resize(before + v.kept);
  // Per-cell lists are ascending but interleave across cells, so sort when
  // more than one cell contributed — on a single-cell map (the densest
  // case) no sort is needed.
  if (runs > 1) {
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end());
  }
}

std::size_t Channel::inRangeCount(net::HostId id) const {
  ensureGrid();
  MANET_EXPECTS(id.value() < grid_.rankOf.size() &&
                grid_.rankOf[id.value()] >= 0);
  // `id` itself is at distance 0 and gets counted, so subtract it after.
  struct Count {
    std::size_t live;
    std::size_t n = 0;

    void all() { n = live; }
    void cell(int lo, int hi) { n += static_cast<std::size_t>(hi - lo); }
    void slot(int, bool inRange) { n += inRange ? 1u : 0u; }
  };
  Count v{grid_.sortedIds.size()};
  walkInRange(grid_.positions[id.value()], v);
  return v.n - 1;
}

std::size_t Channel::reachableCount(net::HostId source) const {
  ensureGrid();
  MANET_EXPECTS(source.value() < grid_.rankOf.size() &&
                grid_.rankOf[source.value()] >= 0);
  // Breadth-first: each dequeued node's range walk marks and enqueues the
  // live nodes not seen yet. A walk whose disk covers the whole population
  // reaches everyone, and the search stops once every live node is seen.
  struct Reach {
    const net::HostId* ids;
    std::size_t live;
    std::vector<std::uint8_t>& seen;
    std::vector<net::HostId>& frontier;
    std::size_t reached = 1;  // the source

    void visit(net::HostId id) {
      if (seen[id.value()] != 0) return;
      seen[id.value()] = 1;
      frontier.push_back(id);
      ++reached;
    }
    void all() { reached = live; }
    void cell(int lo, int hi) {
      for (int i = lo; i < hi; ++i) visit(ids[i]);
    }
    void slot(int i, bool inRange) {
      if (inRange) visit(ids[i]);
    }
  };
  grid_.seen.assign(nodes_.size(), 0);
  grid_.frontier.clear();
  grid_.seen[source.value()] = 1;
  grid_.frontier.push_back(source);
  Reach v{grid_.cellNodes.data(), grid_.sortedIds.size(), grid_.seen,
          grid_.frontier};
  for (std::size_t head = 0;
       head < grid_.frontier.size() && v.reached < v.live; ++head) {
    walkInRange(grid_.positions[grid_.frontier[head].value()], v);
  }
  return v.reached - 1;
}

std::vector<net::HostId> Channel::nodesInRange(net::HostId id) const {
  std::vector<net::HostId> out;
  nodesInRange(id, out);
  return out;
}

void Channel::nodesInRange(net::HostId id,
                           std::vector<net::HostId>& out) const {
  out.clear();
  ensureGrid();
  // Attachment check via the grid's dense rank table — same contract as
  // node(id) without touching the cold Node record.
  MANET_EXPECTS(id.value() < grid_.rankOf.size() &&
                grid_.rankOf[id.value()] >= 0);
  collectInRange(grid_.positions[id.value()], id, out);
}

std::vector<geom::Vec2> Channel::snapshotPositions() const {
  ensureGrid();
  std::vector<geom::Vec2> out = grid_.positions;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].attached || !nodes_[i].up) out[i] = geom::Vec2{};
  }
  return out;
}

Channel::Transmission& Channel::acquireTransmission() {
  if (freeTransmissions_.empty()) {
    transmissions_.push_back(std::make_unique<Transmission>());
    return *transmissions_.back();
  }
  Transmission* t = freeTransmissions_.back();
  freeTransmissions_.pop_back();
  return *t;
}

sim::TimePoint Channel::transmit(net::HostId src, net::PacketPtr packet,
                            std::size_t bytes) {
  MANET_EXPECTS(packet != nullptr);
  Node& tx = node(src);
  MANET_EXPECTS(tx.up);
  MANET_EXPECTS(!tx.transmitting);

  const sim::TimePoint start = scheduler_.now();
  const sim::TimePoint end = start + params_.frameAirtime(bytes);
  Transmission& t = acquireTransmission();
  Frame& frame = t.frame;
  frame.src = src;
  frame.srcPos = tx.position();
  frame.bytes = bytes;
  frame.packet = std::move(packet);
  frame.txStart = start;
  frame.txEnd = end;
  t.txEpoch = tx.epoch;
  ++framesTransmitted_;
  obs::add(obs::Counter::kChannelTx);
  if (obs::current() != nullptr) {
    const auto airtime =
        static_cast<std::uint64_t>((end - start).ticks());  // NOLINT-units(airtime counters aggregate raw microseconds)
    switch (frame.packet->type) {
      case net::PacketType::kRts:
      case net::PacketType::kCts:
        obs::add(obs::Counter::kAirtimeRtsCtsUs, airtime);
        break;
      case net::PacketType::kAck:
        obs::add(obs::Counter::kAirtimeAckUs, airtime);
        break;
      case net::PacketType::kData:
        if (frame.packet->dest != net::kInvalidHost) {
          obs::add(obs::Counter::kAirtimeDataUs, airtime);
          break;
        }
        [[fallthrough]];
      case net::PacketType::kHello:
        obs::add(obs::Counter::kAirtimeBroadcastUs, airtime);
        break;
    }
  }

  // The transmitter occupies its own medium and — being half-duplex —
  // garbles anything it was in the middle of receiving.
  tx.transmitting = true;
  raiseBusy(tx);
  if (collisionsEnabled_) {
    for (RxSlot* slot : tx.activeRx) corrupt(*slot, DropReason::kHalfDuplex);
  }

  t.receivers.clear();
  collectInRange(frame.srcPos, src, t.receivers);
  // The energy becomes detectable at a receiver only after the carrier-
  // sense delay; a station that starts its own transmission inside that
  // window never saw the medium busy (and collides, per §2.2.3).
  const bool senseNow = params_.carrierSenseDelay == sim::Duration{};
  t.slots.assign(t.receivers.size(), RxSlot{&t});
  for (std::size_t i = 0; i < t.receivers.size(); ++i) {
    const net::HostId id = t.receivers[i];
    Node& rx = nodes_[id.value()];
    RxSlot& slot = t.slots[i];
    // Injected link loss is resolved first (the radio impairment exists
    // regardless of contention) but the frame's energy still collides with
    // everything else arriving at this receiver.
    if (lossFn_ && lossFn_(src, id)) {
      slot.reason = DropReason::kFaultLoss;
    }
    if (collisionsEnabled_) {
      // Overlap with anything already arriving, or with the receiver's own
      // ongoing transmission, corrupts everything involved.
      if (!rx.activeRx.empty() || rx.transmitting) {
        corrupt(slot, rx.transmitting ? DropReason::kHalfDuplex
                                      : DropReason::kCollision);
        for (RxSlot* other : rx.activeRx) {
          corrupt(*other, DropReason::kCollision);
        }
      }
    }
    rx.activeRx.push_back(&slot);
    MANET_AUDIT_HOOK(audit_.onBeginReception(id, scheduler_.now()));
    if (senseNow) raiseBusy(rx);
  }
  // With no receiver the channel keeps no reference to the packet while the
  // frame is on the air.
  if (t.receivers.empty()) frame.packet.reset();

  // One event per phase for all receivers (DESIGN.md §11.6). The loop
  // above schedules nothing (its callbacks are loss draws and, with a zero
  // delay, onMediumBusy, which only freezes the MAC's backoff), so each
  // cohort runs its receivers exactly where one event per receiver would
  // have run them.
  if (!senseNow && !t.receivers.empty()) {
    auto senseCb = [this, &t] { senseCohort(t); };
    static_assert(sim::InlineFn::storesInline<decltype(senseCb)>(),
                  "carrier-sense capture must fit the event node");
    scheduler_.scheduleAfter(params_.carrierSenseDelay, std::move(senseCb));
  }
  auto doneCb = [this, &t] { completeCohort(t); };
  static_assert(sim::InlineFn::storesInline<decltype(doneCb)>(),
                "completion capture must fit the event node");
  scheduler_.schedule(end, std::move(doneCb));
  return end;
}

void Channel::senseCohort(Transmission& t) {
  // senseDelayValid() puts this before the frame's end, so a slot is still
  // listed at its receiver unless the receiver churned down meanwhile —
  // which orphans the slot.
  for (std::size_t i = 0; i < t.receivers.size(); ++i) {
    if (!t.slots[i].orphaned) raiseBusy(nodes_[t.receivers[i].value()]);
  }
}

void Channel::completeCohort(Transmission& t) {
  for (std::size_t i = 0; i < t.receivers.size(); ++i) {
    RxSlot& slot = t.slots[i];
    if (!slot.orphaned) finishReception(t.receivers[i], slot);
  }
  const net::HostId src = t.frame.src;
  const std::uint64_t txEpoch = t.txEpoch;
  // Release the packet before the transmitter hears of the frame's end, so
  // the packet arena can recycle it for whatever the transmitter sends next.
  t.frame.packet.reset();
  freeTransmissions_.push_back(&t);
  finishTransmission(src, txEpoch);
}

void Channel::finishReception(net::HostId rxId, RxSlot& slot) {
  Node& rx = node(rxId);
  // A down node's receptions must all have been orphaned by the flush; a
  // completion that still reaches one is a churn consistency bug.
  MANET_AUDIT_HOOK(if (!rx.up)
                       audit_.onDeliveryWhileDown(rxId, scheduler_.now()));
  auto it = std::find(rx.activeRx.begin(), rx.activeRx.end(), &slot);
  MANET_ASSERT(it != rx.activeRx.end());
  rx.activeRx.erase(it);
  MANET_AUDIT_HOOK(audit_.onEndReception(rxId, scheduler_.now()));
  lowerBusy(rx);
  switch (slot.reason) {
    case DropReason::kNone:
      ++framesDelivered_;
      obs::add(obs::Counter::kChannelDelivered);
      break;
    case DropReason::kFaultLoss:
      ++framesLostToFault_;
      obs::add(obs::Counter::kChannelDropFault);
      break;
    case DropReason::kHalfDuplex:
      ++framesCorrupted_;
      obs::add(obs::Counter::kChannelDropHalfDuplex);
      break;
    case DropReason::kHostDown:
      ++framesCorrupted_;
      obs::add(obs::Counter::kChannelDropHostDown);
      break;
    default:
      ++framesCorrupted_;
      obs::add(obs::Counter::kChannelDropCollision);
      break;
  }
  rx.listener->onFrameReceived(slot.tx->frame, slot.reason);
}

void Channel::finishTransmission(net::HostId src, std::uint64_t epoch) {
  Node& tx = node(src);
  if (tx.epoch != epoch) return;  // transmitter churned before frame end
  MANET_ASSERT(tx.transmitting);
  tx.transmitting = false;
  lowerBusy(tx);
  tx.listener->onTxComplete();
}

std::vector<Frame> Channel::setNodeUp(net::HostId id, bool up) {
  Node& n = node(id);
  if (n.up == up) return {};
  std::vector<Frame> flushed;
  if (!up) {
    // Off the air: flush in-flight receptions (their cohorts skip the
    // orphaned slots) and silently reset medium/transmit state. The node's
    // own in-flight frame, if any, keeps going at its receivers; the epoch
    // bump makes its completion cohort skip finishTransmission.
    flushed.reserve(n.activeRx.size());
    for (RxSlot* slot : n.activeRx) {
      slot->orphaned = true;
      flushed.push_back(slot->tx->frame);
      ++framesDroppedHostDown_;
    }
    n.activeRx.clear();
    n.transmitting = false;
    n.busyCount = 0;
    MANET_AUDIT_HOOK(audit_.onHostDown(id, flushed.size(), scheduler_.now()));
  }
  // Recovery rejoins with a clean, idle medium view: transmissions already
  // in the air are missed entirely (their start was not observed).
  n.up = up;
  ++n.epoch;
  ++attachVersion_;  // range-resolution structures must rebuild
  return flushed;
}

}  // namespace manet::phy
