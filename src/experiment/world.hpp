// The assembled simulation: scheduler, channel, hosts, workload, metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "experiment/host.hpp"
#include "experiment/scenario.hpp"
#include "fault/churn.hpp"
#include "fault/loss.hpp"
#include "mobility/map.hpp"
#include "net/packet_pool.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/metrics.hpp"
#include "trace/event.hpp"
#include "traffic/config.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::experiment {

class World {
 public:
  /// Builds hosts, mobility, MACs, and the policy from `config`, resolved,
  /// with the environment knob aliases applied (config_schema.hpp) and then
  /// validated. Throws std::invalid_argument naming a bad knob or field.
  explicit World(const ScenarioConfig& config);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs the full workload: warmup, the traffic generator's request
  /// schedule (default: `numBroadcasts` requests with U(0, interarrivalMax)
  /// spacing from uniformly chosen sources — the paper's workload), then the
  /// drain period. May be called once.
  void run();

  // --- split-run control (checkpoint/replay, DESIGN.md §14) ---
  /// The schedule-everything prefix of run(): starts agents, schedules the
  /// workload and churn timeline, and fixes the horizon — without advancing
  /// time. May be called once; afterwards drive the clock with
  /// continueUntil()/runToEnd(). run() is exactly beginRun() + runToEnd().
  void beginRun();

  /// Advances the scheduler to `until` (an event boundary: events at
  /// exactly `until` fire). continueUntil(t); continueUntil(h) is
  /// byte-identical to continueUntil(h).
  void continueUntil(sim::TimePoint until);

  /// Advances to the run horizon (last workload request + drain).
  void runToEnd();

  /// The run horizon; meaningful after beginRun()/run().
  sim::TimePoint horizonTime() const { return horizon_; }

  /// The current simulated time (the scheduler's clock).
  sim::TimePoint now() const { return scheduler_.now(); }

  /// Swaps the rebroadcast policy mid-run (checkpoint-resume studies: run
  /// the tail of a checkpointed run under a different scheme). Broadcasts
  /// already in flight keep their old deciders — the retired policy stays
  /// alive for the world's lifetime because live deciders hold references
  /// into it — while every broadcast originated after the swap uses the new
  /// scheme.
  void overrideScheme(const SchemeSpec& spec);

  /// Writes a checkpoint of the world at the current simulated time to
  /// `path`: its config, the anchor, and its named state digests (defined in
  /// src/ckpt). Throws ckpt::Error on I/O failure.
  void checkpoint(const std::string& path) const;

  /// Rebuilds a world from a checkpoint written by checkpoint(): replays
  /// deterministically to the anchor and verifies the replayed state digests
  /// match the stored ones (throws ckpt::Error naming the differing entries
  /// otherwise). The returned world is mid-run: continue it with
  /// continueUntil()/runToEnd().
  static std::unique_ptr<World> resume(const std::string& path);

  /// Starts the periodic agents (HELLO) without scheduling any workload;
  /// lets tests drive broadcasts manually through host(id).
  void startAgents();

  // --- component access (used by tests, examples, and Host) ---
  sim::Scheduler& scheduler() { return scheduler_; }
  phy::Channel& channel() { return channel_; }
  stats::MetricsCollector& metrics() { return metrics_; }
  const ScenarioConfig& config() const { return config_; }
  const core::RebroadcastPolicy& policy() const { return *policy_; }
  Host& host(net::HostId id) { return *hosts_[id.value()]; }
  std::size_t hostCount() const { return hosts_.size(); }

  /// e for a broadcast starting now at `source`: the channel grid's BFS
  /// over the unit-disk graph of this instant. Crashed hosts neither count
  /// nor relay.
  int reachableFrom(net::HostId source) const;

  // --- fault injection (DESIGN.md §8) ---
  /// Crashes (`up = false`) or recovers (`up = true`) a host mid-run:
  /// detaches/reattaches it on the channel, resets its MAC and neighbor
  /// state, and emits kHostDown/kHostUp (plus per-flushed-frame kDrop)
  /// trace events. No-op when the host is already in the requested state.
  void setHostUp(net::HostId id, bool up);
  bool hostUp(net::HostId id) const { return hosts_[id.value()]->up(); }

  /// Total host-seconds spent crashed so far (hosts still down accrue up to
  /// the current simulation time).
  double hostDownSeconds() const;

  /// The installed link loss model (nullptr when loss is off).
  const fault::LossModel* lossModel() const { return lossModel_.get(); }

  /// The crash/recover timeline the run will replay (built in run(); empty
  /// before that or when churn is off).
  const std::vector<fault::ChurnEvent>& churnTimeline() const {
    return churnTimeline_;
  }

  /// Oracle neighborhood queries (true geometry at the current instant).
  int oracleNeighborCount(net::HostId id) const;
  std::vector<net::HostId> oracleNeighbors(net::HostId id) const;

  // --- traffic workload (DESIGN.md §12) ---
  /// The (time, source, seq) request schedule the run injects, built by the
  /// traffic generator in run(); empty before that. Request seq values are
  /// the per-broadcast sequence ids of the workload stream.
  const std::vector<traffic::Request>& workloadSchedule() const {
    return workloadSchedule_;
  }

  /// Installs an event trace sink (observational only: enabling tracing
  /// never changes the run). Must outlive the world. Pass nullptr to stop.
  void setTraceSink(trace::TraceSink* sink) { traceSink_ = sink; }
  trace::TraceSink* traceSink() const { return traceSink_; }

  /// This world's packet arena (DESIGN.md §11); installed as the thread's
  /// current pool for the world's lifetime, unless pooling is disabled.
  net::PacketPool& packetPool() { return packetPool_; }

 private:
  friend struct manet::ckpt::StateAccess;

  void scheduleWorkload();
  void scheduleChurn();
  std::vector<std::unique_ptr<mobility::MobilityModel>> buildMobility(
      const mobility::MapSpec& map, sim::Rng& master);

#if MANET_AUDIT_ENABLED
  /// Audited builds (§9): registered as the thread's audit sink for this
  /// world's lifetime. Mirrors every violation into the trace stream as a
  /// kAuditViolation event (when a sink is installed), then forwards to the
  /// previously registered sink — by default the print-and-abort one, or a
  /// test's capturing sink. Declared first so it outlives the channel's
  /// teardown ledger check.
  class AuditBridge final : public audit::Sink {
   public:
    explicit AuditBridge(World& world)
        : world_(world), previous_(audit::setSink(this)) {}
    ~AuditBridge() override { audit::setSink(previous_); }
    AuditBridge(const AuditBridge&) = delete;
    AuditBridge& operator=(const AuditBridge&) = delete;
    void onViolation(const audit::Violation& violation) override;

   private:
    World& world_;
    audit::Sink* previous_;
  };
  AuditBridge auditBridge_{*this};
#endif

  ScenarioConfig config_;  // resolved, env aliases applied, validated
  /// Packet arena + its thread-install scope. Declared before every
  /// component that allocates packets; the scope uninstalls first on
  /// destruction, and outstanding packets keep the arena state refcounted.
  net::PacketPool packetPool_;
  net::PacketPool::Scope packetScope_{
      net::PacketPool::enabled() ? &packetPool_ : nullptr};
  sim::Scheduler scheduler_;
  phy::Channel channel_;
  stats::MetricsCollector metrics_;
  std::unique_ptr<core::RebroadcastPolicy> policy_;
  /// Policies displaced by overrideScheme(); kept alive because deciders of
  /// in-flight broadcasts hold references into them.
  std::vector<std::unique_ptr<core::RebroadcastPolicy>> retiredPolicies_;
  std::vector<std::unique_ptr<Host>> hosts_;
  sim::Rng workloadRng_;
  sim::TimePoint horizon_{};
  bool ran_ = false;
  trace::TraceSink* traceSink_ = nullptr;

  std::unique_ptr<fault::LossModel> lossModel_;
  std::vector<fault::ChurnEvent> churnTimeline_;
  std::vector<traffic::Request> workloadSchedule_;
  std::vector<sim::TimePoint> downSince_;  // per host; kNever when up
  std::vector<sim::Duration> downAccum_;  // per host; completed down spans
};

}  // namespace manet::experiment
