// The declared field list of ScenarioConfig (DESIGN.md §14.2): every field
// once, in CFG0 byte order, named by its member path (`fault.per`) and
// given its domain. Three consumers drive off this one list: the
// checkpoint CFG0 codec (ckpt/config_io.cpp), validate(), and
// applyEnvAliases() for the environment knobs World applies. A domain is
// what the consuming subsystem requires of the field through its
// MANET_EXPECTS, held whatever mode selects the field, so a config that
// validates never reaches a subsystem precondition abort.
#pragma once

#include <cstdint>
#include <span>

#include "experiment/scenario.hpp"

namespace manet::experiment {

/// The values a numeric field accepts.
enum class Rule : std::uint8_t {
  kAny,
  kNonNegative,  // >= 0
  kPositive,     // > 0
  kAtLeastOne,   // >= 1
  kAtLeastTwo,   // >= 2
  kProbability,  // [0, 1]
  kFraction,     // [0, 1)
};

/// A text spelling of one enumerator.
struct Spelling {
  const char* name;
  int value;
};

/// A field's domain: a Rule for numbers; for an enum its enumerator count
/// (0 .. enumerators-1 are valid) and, where a knob sets it, its text
/// spellings. An enumerator without a spelling (traffic arrival kReplay)
/// cannot be set from text.
struct Domain {
  // Implicit, so a field entry can give a bare Rule.
  constexpr Domain(Rule r) : rule(r) {}
  constexpr explicit Domain(int count, std::span<const Spelling> names = {})
      : enumerators(count), spellings(names) {}

  Rule rule = Rule::kAny;
  int enumerators = 0;
  std::span<const Spelling> spellings;
};

inline constexpr Spelling kArrivalNames[] = {
    {"uniform", 0}, {"poisson", 1}, {"cbr", 2}, {"periodic", 2}, {"burst", 3}};
inline constexpr Spelling kSourcesNames[] = {
    {"uniform", 0}, {"hotspot", 1}, {"zone", 2}};
inline constexpr Spelling kLossNames[] = {{"none", 0}, {"iid", 1}, {"ge", 2}};

/// Calls `v(name, field, domain)` for every ScenarioConfig field, in CFG0
/// byte order. `Config` is ScenarioConfig or const ScenarioConfig.
template <class Config, class V>
void visitFields(Config& c, V& v) {
#define MANET_FIELD(path, domain) v(#path, c.path, domain)
  using R = Rule;
  MANET_FIELD(mapUnits, R::kAtLeastOne);
  MANET_FIELD(unitMeters, R::kAny);
  MANET_FIELD(numHosts, R::kAtLeastOne);
  MANET_FIELD(maxSpeedKmh, R::kAny);  // < 0: 10*N km/h
  MANET_FIELD(fixedPositions, R::kAny);
  MANET_FIELD(mobility, Domain(3));
  MANET_FIELD(groupSize, R::kAtLeastOne);
  MANET_FIELD(groupSpanMeters, R::kNonNegative);
  MANET_FIELD(scheme.type, Domain(9));
  MANET_FIELD(scheme.probability, R::kProbability);
  MANET_FIELD(scheme.counterC, R::kAtLeastOne);
  MANET_FIELD(scheme.distanceD, R::kNonNegative);
  MANET_FIELD(scheme.areaA, R::kProbability);
  MANET_FIELD(scheme.counterFn, R::kAny);
  MANET_FIELD(scheme.areaFn, R::kAny);
  MANET_FIELD(scheme.clusterInnerCounter, R::kAtLeastTwo);
  MANET_FIELD(scheme.label, R::kAny);
  MANET_FIELD(neighborSource, Domain(2));
  MANET_FIELD(hello.enabled, R::kAny);
  MANET_FIELD(hello.interval, R::kPositive);
  MANET_FIELD(hello.dynamic, R::kAny);
  MANET_FIELD(hello.intervalMin, R::kPositive);
  MANET_FIELD(hello.intervalMax, R::kPositive);
  MANET_FIELD(hello.nvMax, R::kPositive);
  MANET_FIELD(hello.piggybackNeighbors, R::kAny);
  MANET_FIELD(hello.baseBytes, R::kAny);
  MANET_FIELD(hello.perNeighborBytes, R::kAny);
  MANET_FIELD(hello.startJitter, R::kAny);
  MANET_FIELD(hello.periodJitterFraction, R::kFraction);
  MANET_FIELD(numBroadcasts, R::kNonNegative);
  MANET_FIELD(interarrivalMax, R::kNonNegative);
  MANET_FIELD(traffic.arrival, Domain(5, kArrivalNames));
  MANET_FIELD(traffic.poissonRatePerSecond, R::kPositive);
  MANET_FIELD(traffic.period, R::kPositive);
  MANET_FIELD(traffic.burstLength, R::kAtLeastOne);
  MANET_FIELD(traffic.burstGapMax, R::kNonNegative);
  MANET_FIELD(traffic.burstIdleMean, R::kPositive);
  MANET_FIELD(traffic.replay, R::kAny);
  MANET_FIELD(traffic.sources, Domain(3, kSourcesNames));
  MANET_FIELD(traffic.hotspotCount, R::kAtLeastOne);
  MANET_FIELD(traffic.hotspotIds, R::kAny);
  MANET_FIELD(traffic.zoneX0, R::kAny);
  MANET_FIELD(traffic.zoneY0, R::kAny);
  MANET_FIELD(traffic.zoneX1, R::kAny);
  MANET_FIELD(traffic.zoneY1, R::kAny);
  MANET_FIELD(warmup, R::kAny);  // < 0: automatic
  MANET_FIELD(drain, R::kAny);
  MANET_FIELD(phy.radiusMeters, R::kPositive);
  MANET_FIELD(phy.bitRateBps, R::kPositive);
  MANET_FIELD(phy.plcpPreamble, R::kAny);
  MANET_FIELD(phy.plcpHeader, R::kAny);
  MANET_FIELD(phy.carrierSenseDelay, R::kNonNegative);
  MANET_FIELD(mac.slot, R::kPositive);
  MANET_FIELD(mac.sifs, R::kNonNegative);
  MANET_FIELD(mac.difs, R::kNonNegative);
  MANET_FIELD(mac.cwBroadcast, R::kNonNegative);
  MANET_FIELD(mac.cwMin, R::kAtLeastOne);
  MANET_FIELD(mac.cwMax, R::kAtLeastOne);
  MANET_FIELD(mac.retryLimit, R::kNonNegative);
  MANET_FIELD(mac.rtsThresholdBytes, R::kAny);
  MANET_FIELD(jitterSlots, R::kNonNegative);
  MANET_FIELD(collisions, R::kAny);
  MANET_FIELD(channelGrid, R::kAny);
  MANET_FIELD(fault.loss, Domain(3, kLossNames));
  MANET_FIELD(fault.per, R::kProbability);
  MANET_FIELD(fault.geLossGood, R::kProbability);
  MANET_FIELD(fault.geLossBad, R::kProbability);
  MANET_FIELD(fault.geGoodToBad, R::kProbability);
  MANET_FIELD(fault.geBadToGood, R::kProbability);
  MANET_FIELD(fault.churn, R::kAny);
  MANET_FIELD(fault.churnFraction, R::kProbability);
  MANET_FIELD(fault.meanUpTime, R::kNonNegative);
  MANET_FIELD(fault.meanDownTime, R::kNonNegative);
  MANET_FIELD(fault.script, R::kAny);
  MANET_FIELD(seed, R::kAny);
#undef MANET_FIELD
}

/// Throws std::invalid_argument naming the first field outside its domain,
/// or the first broken rule between fields: hello.intervalMax >=
/// hello.intervalMin, mac.cwMax >= mac.cwMin, phy.carrierSenseDelay below
/// the shortest frame airtime, and, when the mode reads them, replay
/// requests at t >= 0 and replay and hotspot host ids below numHosts.
/// Allocates nothing when `c` is valid.
void validate(const ScenarioConfig& c);

/// Applies each set, non-empty knob of the alias table in
/// config_schema.cpp (MANET_FAULT_PER -> fault.per, ...) to its field:
/// durations in seconds, bools as 0 or 1, enums by spelling. Then a bare
/// MANET_FAULT_PER selects i.i.d. loss, a bare MANET_TRAFFIC_RATE Poisson
/// and a bare MANET_TRAFFIC_PERIOD_S periodic arrivals (while the model
/// knob is unset and the config is on its default model), and
/// MANET_TRAFFIC_ZONE=x0,y0,x1,y1 sets the four zone fields. Throws
/// std::invalid_argument naming the knob on malformed text or a value
/// outside the field's domain. Allocates nothing when no knob is set.
void applyEnvAliases(ScenarioConfig& c);

}  // namespace manet::experiment
