// Unit-disk broadcast radio channel with receiver-side collision semantics.
//
// Model (documented in DESIGN.md §5):
//  * A transmission is heard by every attached node within `radiusMeters`
//    of the transmitter at transmission start (mobility during one ~2.4 ms
//    frame is negligible at vehicular speeds).
//  * Any overlap of two frames at a receiver corrupts both there (no
//    capture); a node transmitting during any part of an incoming frame
//    loses that frame (half-duplex). Corrupted frames still assert energy:
//    carrier-sense stays busy for their whole duration.
//  * Hidden terminals arise naturally: a node out of range of an ongoing
//    transmission senses an idle medium and may transmit into a common
//    receiver.
//
// The channel is also the position oracle: it owns the position callbacks
// and answers the world's range queries (neighbors, reachability).
//
// Range resolution (DESIGN.md §7): every "who is within r" question —
// receivers of a frame, |N_x|, the reachable set behind RE — goes through
// one uniform spatial grid (cell size = radio radius) rebuilt lazily once
// per simulation-time epoch, so a query only examines the 3x3 cell
// neighborhood and the position callbacks are paid once per node per epoch
// instead of once per query. The unit-disk reference the grid is tested
// against is stats/connectivity.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "geom/vec2.hpp"
#include "net/packet.hpp"
#include "phy/drop.hpp"
#include "phy/params.hpp"
#include "sim/scheduler.hpp"

#if MANET_AUDIT_ENABLED
#include "audit/invariants.hpp"
#endif

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::phy {

/// A frame on the air.
struct Frame {
  net::HostId src = net::kInvalidHost;
  /// Transmitter position at tx start. Stands in for the GPS coordinate the
  /// location-based schemes assume is carried in the packet header.
  geom::Vec2 srcPos{};
  std::size_t bytes = 0;
  net::PacketPtr packet;
  sim::TimePoint txStart{};
  sim::TimePoint txEnd{};
};

class Channel {
 public:
  /// Callbacks into the MAC of one attached node. All calls are synchronous
  /// with channel state already updated.
  class Listener {
   public:
    virtual ~Listener() = default;
    /// Carrier went busy (0 -> >0 overlapping in-range transmissions).
    virtual void onMediumBusy() {}
    /// Carrier went idle (back to 0).
    virtual void onMediumIdle() {}
    /// A frame addressed to the broadcast medium finished arriving.
    /// `drop` = kNone when intact; otherwise why the FCS would fail
    /// (collision, half-duplex loss, or injected fault loss).
    virtual void onFrameReceived(const Frame& frame, DropReason drop) = 0;
    /// This node's own transmission just ended (channel state updated).
    virtual void onTxComplete() {}
  };

  using PositionFn = std::function<geom::Vec2()>;

  /// Fault-injection hook (DESIGN.md §8): consulted once per (frame,
  /// receiver) pair after range resolution; return true to drop that
  /// reception as a link-level loss. The frame still asserts energy at the
  /// receiver (carrier-sense stays busy, overlaps still collide) — it
  /// arrives with a failed FCS, reason kFaultLoss. Unset = lossless.
  using LossFn = std::function<bool(net::HostId src, net::HostId dst)>;

  /// Requires radiusMeters > 0 and params.senseDelayValid().
  Channel(sim::Scheduler& scheduler, PhyParams params);
  /// Audited builds verify the begin/end/flush reception ledger here.
  ~Channel();

  /// Registers a node. `id` values must be dense (0..N-1) and unique.
  void attach(net::HostId id, Listener* listener, PositionFn position);

  /// Installs (or clears, with nullptr) the link-impairment hook. Receivers
  /// are consulted in ascending id order, so a model drawing from its own
  /// RNG stream is deterministic for a given schedule of transmissions.
  void setLossFn(LossFn fn) { lossFn_ = std::move(fn); }

  /// Host churn (DESIGN.md §8): takes a node off the air (`up = false`) or
  /// brings it back. A down node is invisible to range resolution, neither
  /// hears nor asserts energy, and its in-flight receptions are flushed —
  /// returned to the caller (for kHostDown trace drops) and counted in
  /// framesDroppedHostDown(). A frame the node itself had on the air when
  /// it went down keeps propagating to its receivers (the crash boundary is
  /// quantized to frame ends); only the transmitter's own state is reset.
  /// No listener callbacks fire from this call. Idempotent per direction.
  std::vector<Frame> setNodeUp(net::HostId id, bool up);

  /// False while node `id` is churned off the air.
  bool nodeUp(net::HostId id) const { return node(id).up; }

  /// Starts transmitting `packet` from `src` now. The caller (MAC) must not
  /// already be transmitting. Returns the transmission end time.
  sim::TimePoint transmit(net::HostId src, net::PacketPtr packet,
                     std::size_t bytes);

  /// True when node `id` senses energy (including its own transmission).
  bool carrierBusy(net::HostId id) const;

  /// True while node `id` is transmitting.
  bool isTransmitting(net::HostId id) const;

  /// Current position of node `id`.
  geom::Vec2 positionOf(net::HostId id) const;

  /// All attached node ids within `radiusMeters` of node `id` (excl. itself),
  /// in ascending id order.
  std::vector<net::HostId> nodesInRange(net::HostId id) const;

  /// As above, but overwriting `out` (capacity reuse for hot callers — the
  /// same resolution path transmit() runs per frame).
  void nodesInRange(net::HostId id, std::vector<net::HostId>& out) const;

  /// Number of attached nodes within range of `id` (excl. itself) without
  /// materializing the list — the oracle neighbor-count `n` the adaptive
  /// schemes query on every rebroadcast decision.
  std::size_t inRangeCount(net::HostId id) const;

  /// Number of live nodes reachable from `source` over hops of at most
  /// `radiusMeters` (excl. itself): the RE denominator e. Churned-down nodes
  /// neither count nor relay. Breadth-first over the grid; allocates nothing
  /// once its scratch has grown to the population. Requires `source` up.
  std::size_t reachableCount(net::HostId source) const;

  /// Positions of all attached nodes, indexed by node id (Vec2{} for
  /// churned-down nodes).
  std::vector<geom::Vec2> snapshotPositions() const;

  std::size_t nodeCount() const { return nodes_.size(); }
  const PhyParams& params() const { return params_; }

  // --- statistics (monotone counters over the whole run) ---
  std::uint64_t framesTransmitted() const { return framesTransmitted_; }
  std::uint64_t framesDelivered() const { return framesDelivered_; }
  /// Receptions lost to collisions or half-duplex conflicts (the only
  /// losses of the fault-free model; fault losses are counted separately).
  std::uint64_t framesCorrupted() const { return framesCorrupted_; }
  /// Receptions dropped by the installed LossFn (injected link loss).
  std::uint64_t framesLostToFault() const { return framesLostToFault_; }
  /// Receptions flushed because the receiver went down mid-frame.
  std::uint64_t framesDroppedHostDown() const {
    return framesDroppedHostDown_;
  }

  /// Test/ablation hook: when disabled, overlapping frames are all delivered
  /// intact (perfect-PHY model used by bench/abl_collision_model).
  void setCollisionsEnabled(bool enabled) { collisionsEnabled_ = enabled; }

 private:
  friend struct manet::ckpt::StateAccess;
  struct Transmission;
  /// One receiver's share of a transmission: its drop verdict so far.
  struct RxSlot {
    Transmission* tx = nullptr;             // owning record; holds the frame
    DropReason reason = DropReason::kNone;  // first corruption cause wins
    /// Receiver churned off the air mid-frame: the completion cohort must
    /// not touch the (already flushed) node state.
    bool orphaned = false;
  };
  /// One frame on the air and its reception cohort (DESIGN.md §11.6): the
  /// frame, stored once, and one slot per receiver, parallel to the
  /// ascending receiver list. Pooled: records live at stable addresses
  /// (Node::activeRx points into `slots`) and recycle through a free list,
  /// so a steady-state transmit allocates nothing.
  struct Transmission {
    Frame frame;
    std::uint64_t txEpoch = 0;  // transmitter's epoch at tx start
    std::vector<net::HostId> receivers;
    std::vector<RxSlot> slots;
  };
  struct Node {
    Listener* listener = nullptr;
    PositionFn position;
    bool attached = false;
    bool up = true;     // false while churned down (attached but off-air)
    bool transmitting = false;
    int busyCount = 0;  // overlapping in-range transmissions incl. own
    /// Bumped on every up/down transition; the completion cohort skips
    /// finishTransmission when the transmitter churned mid-frame.
    std::uint64_t epoch = 0;
    std::vector<RxSlot*> activeRx;  // in arrival order
  };

  /// Uniform-cell spatial index over the attached nodes' positions, cached
  /// for one simulation-time epoch (positions are pure functions of time, so
  /// within one timestamp the index is exact). CSR layout: `cellNodes` holds
  /// node ids grouped by cell, `cellStart[c]..cellStart[c+1]` delimits cell
  /// c; `cellX`/`cellY` mirror the occupants' coordinates so the range scan
  /// runs over contiguous doubles instead of chasing position callbacks.
  struct Grid {
    bool valid = false;
    sim::TimePoint builtAt = sim::kNever;
    std::uint64_t attachVersion = 0;
    double cellSize = 0.0;
    geom::Vec2 origin{};                // == population bbox min corner
    geom::Vec2 bboxMax{};               // population bbox max corner
    int cols = 0;
    int rows = 0;
    std::vector<net::HostId> sortedIds;  // attached ids, ascending
    std::vector<int> rankOf;            // id -> index in sortedIds (-1: none)
    std::vector<geom::Vec2> positions;  // per node id, cached this epoch
    std::vector<int> cellOf;            // per node id (-1 = not attached)
    std::vector<int> cellStart;         // cols*rows + 1 offsets
    std::vector<net::HostId> cellNodes;
    std::vector<double> cellX;          // parallel to cellNodes
    std::vector<double> cellY;
    std::vector<int> cellFill;          // rebuild scratch: next CSR slot
    std::vector<std::uint8_t> seen;     // reachableCount scratch, per node id
    std::vector<net::HostId> frontier;  // reachableCount scratch: BFS queue
    // Tight bounding box of each cell's occupants (+inf/-inf when empty).
    // When the whole box lies inside a query disk every occupant is in
    // range and the per-node distance scan can be skipped.
    std::vector<double> cellMinX;
    std::vector<double> cellMaxX;
    std::vector<double> cellMinY;
    std::vector<double> cellMaxY;
  };

  Node& node(net::HostId id);
  const Node& node(net::HostId id) const;
  void raiseBusy(Node& n);
  void lowerBusy(Node& n);
  Transmission& acquireTransmission();
  /// Carrier-sense cohort: the frame's energy becomes detectable at every
  /// receiver still on the air, in ascending id order.
  void senseCohort(Transmission& t);
  /// Completion cohort: finishes every reception of `t` in ascending id
  /// order, then the transmission itself, and recycles the record.
  void completeCohort(Transmission& t);
  void finishReception(net::HostId rx, RxSlot& slot);
  void finishTransmission(net::HostId src, std::uint64_t epoch);
  /// Marks `slot` corrupted with `reason` unless an earlier cause already did.
  static void corrupt(RxSlot& slot, DropReason reason) {
    if (slot.reason == DropReason::kNone) slot.reason = reason;
  }

  /// Rebuilds the grid if it is stale for the current epoch (time advanced
  /// or a node attached since the last build).
  void ensureGrid() const;
  /// The one grid walk behind every range query. Requires a current grid
  /// (call ensureGrid() first). Hands `v` the live nodes within
  /// `radiusMeters` of `center` as CSR ranges and slots (indices into
  /// cellNodes/cellX/cellY): `v.all()` alone when the disk covers the whole
  /// population's bounding box; otherwise, for each cell of the 3x3
  /// neighborhood, `v.cell(lo, hi)` when the cell's occupant box lies inside
  /// the disk, else `v.slot(i, inRange)` for each occupant. Returns the
  /// number of ascending id runs handed out (1 on the `all` path, else the
  /// non-empty cells visited).
  template <class Visitor>
  int walkInRange(geom::Vec2 center, Visitor& v) const;
  /// Appends all live ids within `radiusMeters` of `center` (except
  /// `exclude`) to `out`, ascending.
  void collectInRange(geom::Vec2 center, net::HostId exclude,
                      std::vector<net::HostId>& out) const;

  sim::Scheduler& scheduler_;
  PhyParams params_;
  std::vector<Node> nodes_;
  bool collisionsEnabled_ = true;
  LossFn lossFn_;
  std::uint64_t attachVersion_ = 0;
  mutable Grid grid_;
  std::vector<std::unique_ptr<Transmission>> transmissions_;  // every record
  std::vector<Transmission*> freeTransmissions_;
  std::uint64_t framesTransmitted_ = 0;
  std::uint64_t framesDelivered_ = 0;
  std::uint64_t framesCorrupted_ = 0;
  std::uint64_t framesLostToFault_ = 0;
  std::uint64_t framesDroppedHostDown_ = 0;
#if MANET_AUDIT_ENABLED
  audit::ChannelAudit audit_;
#endif
};

}  // namespace manet::phy
