// Engine metrics registry (DESIGN.md §10).
//
// The paper's evaluation is entirely measured protocol behaviour; this layer
// exports the engine's internals — scheduler load, MAC contention, channel
// grid efficiency, HELLO traffic — as typed counters/gauges/histograms with
// stable dotted names, so benches and CI can track them run-over-run.
//
// Contract (mirrors trace and audit): metrics are strictly observational.
// A metrics-on run produces byte-identical simulation output to a
// metrics-off run (enforced by tests/test_obs.cpp); instrumentation sites
// only ever *read* simulation state. When no registry is installed the hot-
// path helpers are a thread-local load plus one predictable branch.
//
// Aggregation model: each simulation run owns one Registry, installed as the
// running thread's current registry for the duration of the run (each
// repetition of the parallel sweep runner owns its thread, like the audit
// sink). Registries merge in repetition order, so merged counters and
// histograms are identical for any MANET_THREADS value.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "stats/histogram.hpp"

namespace manet::obs {

/// Monotone event counters. Names are stable dotted identifiers; renaming or
/// removing one is a report schema change (DESIGN.md §10).
enum class Counter : std::size_t {
  kSchedulerScheduled,   // sim.scheduler.scheduled
  kSchedulerExecuted,    // sim.scheduler.executed
  kSchedulerCancelled,   // sim.scheduler.cancelled
  kChannelTx,            // phy.channel.tx
  kChannelDelivered,     // phy.channel.delivered
  kChannelDropCollision,  // phy.channel.drop.collision
  kChannelDropHalfDuplex, // phy.channel.drop.half_duplex
  kChannelDropFault,      // phy.channel.drop.fault_loss
  kChannelDropHostDown,   // phy.channel.drop.host_down
  kGridRebuilds,         // phy.grid.rebuilds
  kGridQueries,          // phy.grid.queries
  kGridBboxFastPath,     // phy.grid.bbox_fast_path
  kGridCellsCovered,     // phy.grid.cells_covered
  kGridCellsScanned,     // phy.grid.cells_scanned
  kAirtimeBroadcastUs,   // mac.airtime_us.broadcast
  kAirtimeDataUs,        // mac.airtime_us.data
  kAirtimeRtsCtsUs,      // mac.airtime_us.rts_cts
  kAirtimeAckUs,         // mac.airtime_us.ack
  kMacBackoffDraws,      // mac.backoff.draws
  kMacUnicastRetries,    // mac.unicast.retries
  kMacUnicastDrops,      // mac.unicast.drops
  kHelloTx,              // net.hello.tx
  kHelloRx,              // net.hello.rx
  kNeighborJoins,        // net.neighbor.joins
  kNeighborLeaves,       // net.neighbor.leaves
  // Engine allocation accounting (DESIGN.md §11): how often the pooled
  // event/callback/packet paths actually hit the heap vs recycle. A rising
  // *.slabs / *.heap / *.fresh trend at fixed scale is an allocation
  // regression; tools/compare_bench.py diffs these against the baselines.
  kEngineAllocEventSlabs,      // engine.alloc.event.slabs
  kEngineAllocEventReused,     // engine.alloc.event.reused
  kEngineAllocCallbackInline,  // engine.alloc.callback.inline
  kEngineAllocCallbackHeap,    // engine.alloc.callback.heap
  kEngineAllocPacketFresh,     // engine.alloc.packet.fresh
  kEngineAllocPacketReused,    // engine.alloc.packet.reused
  // Traffic workload accounting (DESIGN.md §12): offered vs completed load.
  // offered = requests the generator scheduled; injected = requests whose
  // source was alive at fire time; blocked = requests lost to a crashed
  // source; completed = broadcasts that produced a per-broadcast record;
  // delivered/reachable are the summed r and e of those records.
  kTrafficOffered,             // traffic.offered
  kTrafficInjected,            // traffic.injected
  kTrafficBlockedHostDown,     // traffic.blocked.host_down
  kTrafficCompleted,           // traffic.completed
  kTrafficDeliveredCopies,     // traffic.delivered.copies
  kTrafficReachableSum,        // traffic.reachable.sum
  kCount,
};

/// High-water gauges (monotone max of an instantaneous level).
enum class Gauge : std::size_t {
  kSchedulerQueueDepth,  // sim.scheduler.queue_depth_hw
  kNeighborTableSize,    // net.neighbor.table_size_hw
  kCount,
};

/// Value distributions (stats::Histogram — fixed buckets, exact merge).
enum class Hist : std::size_t {
  kMacBackoffSlots,    // mac.backoff.slots
  kMacContentionWindow,  // mac.cw
  kGridCellOccupancy,  // phy.grid.cell_occupancy
  kNeighborTableSize,  // net.neighbor.table_size
  kTrafficLatencyUs,   // traffic.latency_us (per-broadcast end-to-end)
  kTrafficDeliveryPct, // traffic.delivery_ratio_pct (per-broadcast 100*r/e)
  kCount,
};

const char* name(Counter counter);
const char* name(Gauge gauge);
const char* name(Hist hist);

/// One run's metrics. Plain data, no locking: a Registry is only ever
/// written by the thread it is installed on.
class Registry {
 public:
  /// Wall-clock profiling aggregate of one named scope (obs/profile.hpp).
  struct ScopeStats {
    std::uint64_t calls = 0;
    std::uint64_t totalNanos = 0;
  };

  void add(Counter counter, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(counter)] += n;
  }
  void gaugeMax(Gauge gauge, std::uint64_t level) {
    auto& slot = gauges_[static_cast<std::size_t>(gauge)];
    if (level > slot) slot = level;
  }
  void observe(Hist hist, double sample) {
    histograms_[static_cast<std::size_t>(hist)].observe(sample);
  }
  void recordScope(const char* scope, std::uint64_t nanos) {
    ScopeStats& s = scopes_[scope];
    ++s.calls;
    s.totalNanos += nanos;
  }

  std::uint64_t counter(Counter counter) const {
    return counters_[static_cast<std::size_t>(counter)];
  }
  std::uint64_t gauge(Gauge gauge) const {
    return gauges_[static_cast<std::size_t>(gauge)];
  }
  const stats::Histogram& histogram(Hist hist) const {
    return histograms_[static_cast<std::size_t>(hist)];
  }
  /// Profiling scopes, ordered by name (std::map) for stable serialization.
  const std::map<std::string, ScopeStats>& scopes() const { return scopes_; }

  /// Adds `other`'s contents; gauges take the max. Callers merge registries
  /// in repetition order so histogram float sums stay reproducible.
  void merge(const Registry& other);

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Gauge::kCount)> gauges_{};
  std::array<stats::Histogram, static_cast<std::size_t>(Hist::kCount)>
      histograms_{};
  std::map<std::string, ScopeStats> scopes_;
};

namespace detail {
extern thread_local Registry* tlsRegistry;
}  // namespace detail

/// The registry collecting on this thread, or nullptr when metrics are off.
inline Registry* current() { return detail::tlsRegistry; }

/// RAII: installs `registry` as this thread's current registry (nullptr
/// turns collection off) and restores the previous one on destruction.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* registry)
      : previous_(detail::tlsRegistry) {
    detail::tlsRegistry = registry;
  }
  ~ScopedRegistry() { detail::tlsRegistry = previous_; }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

// --- hot-path recording helpers (no-ops without an installed registry) ---

inline void add(Counter counter, std::uint64_t n = 1) {
  if (Registry* r = current()) r->add(counter, n);
}
inline void gaugeMax(Gauge gauge, std::uint64_t level) {
  if (Registry* r = current()) r->gaugeMax(gauge, level);
}
inline void observe(Hist hist, double sample) {
  if (Registry* r = current()) r->observe(hist, sample);
}

/// Should runs allocate and install a registry? True when MANET_METRICS is
/// set to a non-zero value, or a harness forced collection on (the bench
/// JSON reporters do). Reading the environment is cached per process.
bool collectionEnabled();

/// Programmatic override used by benches that were asked for a JSON report.
void forceCollection(bool on);

}  // namespace manet::obs
