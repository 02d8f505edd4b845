// The checkpoint subsystem's single privileged window into engine state.
//
// Every engine class that carries run state friends this one struct (and
// nothing else), so all private-member reads used for checkpointing are
// grepable in one translation unit. StateAccess reduces a world to its state
// oracle: an ordered list of named per-subsystem FNV-1a digests (DESIGN.md
// §14.1). The digest folds read raw fields ONLY — they never call
// lazily-mutating public queries (MobilityModel::positionAt advances
// integrators and draws RNG at turn boundaries, NeighborTable queries purge,
// Channel queries rebuild the grid). A capture therefore perturbs nothing:
// the captured world's future is byte-identical to a world that was never
// captured, which is what the resume-equivalence CI gate checks end to end.
//
// Unordered containers are folded collect-then-sort by stable keys, so a
// digest never depends on hash iteration order.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/digest.hpp"

namespace manet::experiment {
class Host;
class World;
}  // namespace manet::experiment
namespace manet::fault {
class LossModel;
}
namespace manet::mac {
class DcfMac;
}
namespace manet::mobility {
class MobilityModel;
class RandomRoam;
}  // namespace manet::mobility
namespace manet::net {
class HelloAgent;
class NeighborTable;
}  // namespace manet::net
namespace manet::obs {
class Registry;
}
namespace manet::phy {
class Channel;
}
namespace manet::sim {
class Rng;
class Scheduler;
}  // namespace manet::sim
namespace manet::stats {
class MetricsCollector;
}

namespace manet::ckpt {

struct StateAccess {
  /// The world's state oracle at its current scheduler time, in a fixed
  /// order: `scheduler`, `scheduler.nextSeq` (raw), `channel`, `traffic`,
  /// `fault`, `metrics` (folded against the calling thread's obs registry),
  /// then per host `host <i> schemeRng`, `jitterRng`, `mac`, `hello`,
  /// `mobility`, `neighborTable`, `broadcastStates`, `up` and `nextSeq`
  /// (the last two raw).
  static StateDigests digests(const experiment::World& world);

 private:
  // --- per-subsystem folds (side-effect-free raw reads) ---
  static void addRng(Digest& d, const sim::Rng& rng);
  static std::uint64_t schedulerDigest(const sim::Scheduler& scheduler);
  static std::uint64_t channelDigest(const phy::Channel& channel);
  static std::uint64_t trafficDigest(const experiment::World& world);
  static std::uint64_t faultDigest(const fault::LossModel* model);
  static std::uint64_t metricsDigest(const stats::MetricsCollector& collector,
                                     const obs::Registry* registry);
  static std::uint64_t macDigest(const mac::DcfMac& mac);
  static std::uint64_t helloDigest(const net::HelloAgent& hello);
  static std::uint64_t mobilityDigest(const mobility::MobilityModel& model);
  /// Roam-integrator fold shared by RandomRoam and the group model's center
  /// and deviation chains.
  static std::uint64_t roamDigest(const mobility::RandomRoam& roam);
  static std::uint64_t neighborTableDigest(const net::NeighborTable& table);
  static std::uint64_t broadcastStatesDigest(const experiment::Host& host);
};

}  // namespace manet::ckpt
