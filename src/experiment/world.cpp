#include "experiment/world.hpp"

#include <algorithm>

#include "experiment/config_schema.hpp"
#include "mobility/group.hpp"
#include "mobility/random_roam.hpp"
#include "mobility/waypoint.hpp"
#include "obs/metrics.hpp"
#include "traffic/generator.hpp"
#include "util/assert.hpp"

namespace manet::experiment {

#if MANET_AUDIT_ENABLED
void World::AuditBridge::onViolation(const audit::Violation& violation) {
  if (world_.traceSink_ != nullptr) {
    trace::Event event;
    event.kind = trace::EventKind::kAuditViolation;
    event.at = violation.at;
    event.node = violation.node;
    world_.traceSink_->onEvent(event);
  }
  // Preserve fail-stop semantics: forward to whatever sink was registered
  // before this world (a test's capturing sink, an outer world's bridge, or
  // the default print-and-abort sink).
  audit::Sink& next =
      previous_ != nullptr ? *previous_ : audit::defaultSink();
  next.onViolation(violation);
}
#endif

namespace {

/// Rejects a bad knob or field by name before any subsystem sees it.
ScenarioConfig validated(ScenarioConfig config) {
  applyEnvAliases(config);
  validate(config);
  return config;
}

}  // namespace

World::World(const ScenarioConfig& config)
    : config_(validated(config.resolved())),
      channel_(scheduler_, config_.phy),
      metrics_(static_cast<std::size_t>(config_.numHosts)),
      policy_(config_.scheme.build()),
      workloadRng_(sim::Rng(config_.seed).fork(0xF00D)) {
  channel_.setCollisionsEnabled(config_.collisions);

  // Fault injection. Dedicated RNG streams (0xFA01 loss, 0xC4 churn) mean
  // enabling faults never shifts the draws of mobility, hosts, or workload.
  lossModel_ =
      fault::makeLossModel(config_.fault, sim::Rng(config_.seed).fork(0xFA01));
  if (lossModel_ != nullptr) {
    channel_.setLossFn([this](net::HostId src, net::HostId dst) {
      return lossModel_->shouldDrop(src, dst);
    });
  }
  downSince_.assign(static_cast<std::size_t>(config_.numHosts), sim::kNever);
  downAccum_.assign(static_cast<std::size_t>(config_.numHosts),
                    sim::Duration{});

  const mobility::MapSpec map =
      mobility::MapSpec::square(config_.mapUnits, config_.unitMeters);
  sim::Rng master(config_.seed);
  std::vector<std::unique_ptr<mobility::MobilityModel>> models =
      buildMobility(map, master);
  MANET_ASSERT(models.size() == static_cast<std::size_t>(config_.numHosts));
  hosts_.reserve(static_cast<std::size_t>(config_.numHosts));
  for (int i = 0; i < config_.numHosts; ++i) {
    sim::Rng hostRng = master.fork(static_cast<std::uint64_t>(i) + 1);
    hosts_.push_back(std::make_unique<Host>(
        *this, net::HostId{static_cast<std::uint32_t>(i)},
        std::move(models[static_cast<std::size_t>(i)]), hostRng.fork(0xB0)));
  }
}

std::vector<std::unique_ptr<mobility::MobilityModel>> World::buildMobility(
    const mobility::MapSpec& map, sim::Rng& master) {
  std::vector<std::unique_ptr<mobility::MobilityModel>> models;
  models.reserve(static_cast<std::size_t>(config_.numHosts));

  if (!config_.fixedPositions.empty()) {
    for (const geom::Vec2& pos : config_.fixedPositions) {
      models.push_back(std::make_unique<mobility::Stationary>(pos));
    }
    return models;
  }

  const double maxSpeedMps = mobility::kmhToMps(config_.maxSpeedKmh);
  switch (config_.mobility) {
    case ScenarioConfig::Mobility::kRandomRoam:
      for (int i = 0; i < config_.numHosts; ++i) {
        sim::Rng rng = master.fork(0xA000 + static_cast<std::uint64_t>(i));
        mobility::RoamParams roam;
        roam.maxSpeedMps = maxSpeedMps;
        models.push_back(std::make_unique<mobility::RandomRoam>(
            map, map.uniformPoint(rng), roam, rng.fork(0xA0)));
      }
      break;
    case ScenarioConfig::Mobility::kWaypoint:
      for (int i = 0; i < config_.numHosts; ++i) {
        sim::Rng rng = master.fork(0xA000 + static_cast<std::uint64_t>(i));
        mobility::WaypointParams params;
        params.maxSpeedMps = std::max(params.minSpeedMps, maxSpeedMps);
        models.push_back(std::make_unique<mobility::RandomWaypoint>(
            map, map.uniformPoint(rng), params, rng.fork(0xA0)));
      }
      break;
    case ScenarioConfig::Mobility::kGroup: {
      MANET_EXPECTS(config_.groupSize >= 1);
      sim::Rng rng = master.fork(0xA000);
      int remaining = config_.numHosts;
      while (remaining > 0) {
        const int members = std::min(config_.groupSize, remaining);
        mobility::GroupParams params;
        params.center.maxSpeedMps = maxSpeedMps;
        params.spanMeters = config_.groupSpanMeters;
        auto group = mobility::makeGroup(map, map.uniformPoint(rng), members,
                                         params, rng);
        for (auto& model : group) models.push_back(std::move(model));
        remaining -= members;
      }
      break;
    }
  }
  return models;
}

void World::startAgents() {
  for (auto& host : hosts_) host->start();
}

int World::reachableFrom(net::HostId source) const {
  return static_cast<int>(channel_.reachableCount(source));
}

void World::setHostUp(net::HostId id, bool up) {
  Host& host = *hosts_[id.value()];
  if (host.up() == up) return;
  const std::vector<phy::Frame> flushed = channel_.setNodeUp(id, up);
  if (!up) {
    host.onCrash();
    downSince_[id.value()] = scheduler_.now();
  } else {
    host.onRecover();
    downAccum_[id.value()] += scheduler_.now() - downSince_[id.value()];
    downSince_[id.value()] = sim::kNever;
  }
  if (traceSink_ == nullptr) return;
  trace::Event event;
  event.kind = up ? trace::EventKind::kHostUp : trace::EventKind::kHostDown;
  event.at = scheduler_.now();
  event.node = id;
  event.position = host.mobility().positionAt(scheduler_.now());
  traceSink_->onEvent(event);
  for (const phy::Frame& frame : flushed) {
    trace::Event dropEvent;
    dropEvent.kind = trace::EventKind::kDrop;
    dropEvent.at = scheduler_.now();
    dropEvent.node = id;
    if (frame.packet->type == net::PacketType::kData) {
      dropEvent.bid = frame.packet->bid;
    }
    dropEvent.from = frame.packet->sender;
    dropEvent.position = event.position;
    dropEvent.drop = phy::DropReason::kHostDown;
    traceSink_->onEvent(dropEvent);
  }
}

double World::hostDownSeconds() const {
  sim::Duration total{};
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    total += downAccum_[i];
    if (downSince_[i] != sim::kNever) {
      total += scheduler_.now() - downSince_[i];
    }
  }
  return sim::toSeconds(total);
}

int World::oracleNeighborCount(net::HostId id) const {
  return static_cast<int>(channel_.inRangeCount(id));
}

std::vector<net::HostId> World::oracleNeighbors(net::HostId id) const {
  return channel_.nodesInRange(id);
}

void World::scheduleWorkload() {
  // The kZone source model partitions hosts by their t=0 position; other
  // models never touch mobility, keeping the default path draw-identical to
  // the pre-subsystem inline loop.
  std::vector<geom::Vec2> initialPositions;
  if (config_.traffic.sources == traffic::TrafficConfig::Sources::kZone) {
    initialPositions.reserve(hosts_.size());
    for (const auto& host : hosts_) {
      initialPositions.push_back(host->mobility().positionAt(sim::kTimeZero));
    }
  }
  const traffic::Generator generator(config_.traffic, config_.numHosts,
                                     config_.interarrivalMax,
                                     std::move(initialPositions),
                                     config_.mapMeters());
  const sim::TimePoint workloadStart = sim::kTimeZero + config_.warmup;
  workloadSchedule_ = generator.schedule(config_.numBroadcasts, workloadStart,
                                         workloadRng_);
  obs::add(obs::Counter::kTrafficOffered, workloadSchedule_.size());
  sim::TimePoint last = workloadStart;
  for (const traffic::Request& request : workloadSchedule_) {
    last = request.at;  // the schedule is time-ordered
    const net::HostId source = request.source;
    scheduler_.schedule(request.at, [this, source] {
      // A crashed host cannot originate traffic; its request is simply lost
      // (the draw already happened, so churn never shifts the workload
      // stream).
      if (!hosts_[source.value()]->up()) {
        obs::add(obs::Counter::kTrafficBlockedHostDown);
        return;
      }
      obs::add(obs::Counter::kTrafficInjected);
      hosts_[source.value()]->originateBroadcast();
    });
  }
  horizon_ = last + config_.drain;
}

void World::scheduleChurn() {
  if (!config_.fault.churnEnabled()) return;
  churnTimeline_ = fault::buildChurnTimeline(
      config_.fault, config_.numHosts, horizon_,
      sim::Rng(config_.seed).fork(0xC4));
  for (const fault::ChurnEvent& ev : churnTimeline_) {
    scheduler_.schedule(ev.at, [this, ev] { setHostUp(ev.node, ev.up); });
  }
}

void World::beginRun() {
  MANET_EXPECTS(!ran_);
  ran_ = true;
  startAgents();
  scheduleWorkload();
  scheduleChurn();
}

void World::continueUntil(sim::TimePoint until) {
  scheduler_.runUntil(until);
}

void World::runToEnd() { scheduler_.runUntil(horizon_); }

void World::run() {
  beginRun();
  runToEnd();
}

void World::overrideScheme(const SchemeSpec& spec) {
  // In-flight broadcasts hold decider references into the old policy's
  // threshold objects; retire it rather than destroy it.
  retiredPolicies_.push_back(std::move(policy_));
  config_.scheme = spec;
  policy_ = spec.build();
}

}  // namespace manet::experiment
