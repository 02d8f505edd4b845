// Scenario configuration: the knobs of the paper's experimental setup (§4)
// with the paper's values as defaults. Every field's name and domain is
// declared once, in config_schema.hpp; World applies the environment knob
// aliases declared there (MANET_FAULT_*, MANET_TRAFFIC_*) at construction.
#pragma once

#include <cstdint>
#include <vector>

#include "experiment/scheme_spec.hpp"
#include "fault/config.hpp"
#include "geom/vec2.hpp"
#include "mac/dcf.hpp"
#include "net/hello.hpp"
#include "phy/params.hpp"
#include "sim/time.hpp"
#include "traffic/config.hpp"

namespace manet::experiment {

/// Where the adaptive schemes get their neighborhood knowledge.
enum class NeighborSource {
  /// True geometric neighborhoods, always current. Matches the assumption
  /// under which the paper tunes C(n)/A(n) (§4.1-4.2).
  kOracle,
  /// HELLO-derived tables with staleness — what Figs. 11-13 study.
  kHello,
};

struct ScenarioConfig {
  // --- topology (paper §4) ---
  int mapUnits = 5;             // N of the N x N map
  double unitMeters = 500.0;    // one transmission radius per unit
  int numHosts = 100;
  /// Max roaming speed; < 0 selects the paper's rule of 10*N km/h on an
  /// N x N map.
  double maxSpeedKmh = -1.0;

  /// When non-empty, overrides random placement: hosts sit at exactly these
  /// positions and never move (numHosts is forced to the list size). Used by
  /// tests and examples that need controlled topologies.
  std::vector<geom::Vec2> fixedPositions;

  /// Mobility pattern. kRandomRoam is the paper's model; kWaypoint and
  /// kGroup (teams moving together, RPGM) are provided for the motivating
  /// scenarios and sensitivity studies.
  enum class Mobility { kRandomRoam, kWaypoint, kGroup };
  Mobility mobility = Mobility::kRandomRoam;
  int groupSize = 5;               // kGroup: hosts per team
  double groupSpanMeters = 200.0;  // kGroup: team spread radius

  // --- scheme under test ---
  SchemeSpec scheme = SchemeSpec::flooding();
  NeighborSource neighborSource = NeighborSource::kOracle;
  net::HelloConfig hello{.enabled = false};

  // --- workload ---
  int numBroadcasts = 100;                       // paper: 10,000
  sim::Duration interarrivalMax =
      2 * sim::kSecond;  // U(0, 2 s) between requests
  /// Workload generation (DESIGN.md §12): arrival process x source model.
  /// The default (Uniform arrivals from uniform sources) is bit-identical to
  /// the paper's single workload; interarrivalMax above parameterizes it.
  /// kReplay forces numBroadcasts to the script size.
  traffic::TrafficConfig traffic{};
  /// Simulated time before the first broadcast (lets HELLO tables fill).
  /// < 0 selects an automatic value (2 hello intervals + 1 s, or 100 ms when
  /// hellos are off).
  sim::Duration warmup{-1};
  /// Simulated time after the last request before the run is cut off.
  sim::Duration drain = 10 * sim::kSecond;

  // --- protocol details ---
  phy::PhyParams phy{};
  mac::MacParams mac{};
  int jitterSlots = 31;     // S2: wait U(0, jitterSlots) slots before MAC
  bool collisions = true;   // ablation hook: false = perfect PHY

  /// Fault injection (DESIGN.md §8): link loss models and host churn. Off by
  /// default; a disabled config is bit-identical to the fault-free
  /// simulator.
  fault::FaultConfig fault{};

  std::uint64_t seed = 1;

  /// Returns a copy with all "automatic" fields (speed, hello enablement,
  /// warmup) resolved to concrete values.
  ScenarioConfig resolved() const;

  /// Map side length in meters.
  double mapMeters() const { return mapUnits * unitMeters; }
};

}  // namespace manet::experiment
