#include "experiment/config_schema.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/assert.hpp"
#include "util/env.hpp"

namespace manet::experiment {
namespace {

/// Each Rule's bounds (open or closed) and message, indexed by Rule.
struct Bounds {
  double lo;
  bool loOpen;
  double hi;
  bool hiOpen;
  const char* text;
};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Bounds kBounds[] = {
    {-kInf, false, kInf, false, ""},                 // kAny
    {0.0, false, kInf, false, "must be >= 0"},       // kNonNegative
    {0.0, true, kInf, false, "must be > 0"},         // kPositive
    {1.0, false, kInf, false, "must be >= 1"},       // kAtLeastOne
    {2.0, false, kInf, false, "must be >= 2"},       // kAtLeastTwo
    {0.0, false, 1.0, false, "must lie in [0, 1]"},  // kProbability
    {0.0, false, 1.0, true, "must lie in [0, 1)"},   // kFraction
};

/// True when `v` satisfies `rule`; NaN satisfies only kAny.
bool inDomain(double v, Rule rule) {
  const Bounds& b = kBounds[static_cast<int>(rule)];
  return rule == Rule::kAny || ((b.loOpen ? v > b.lo : v >= b.lo) &&
                                (b.hiOpen ? v < b.hi : v <= b.hi));
}

const char* ruleText(Rule rule) { return kBounds[static_cast<int>(rule)].text; }

template <class T>
constexpr bool kNumeric = std::is_same_v<T, int> ||
                          std::is_same_v<T, double> ||
                          std::is_same_v<T, sim::Duration>;

double number(int v) { return v; }
double number(double v) { return v; }
double number(sim::Duration v) { return sim::toSeconds(v); }

/// A field value for a message; durations in seconds.
template <class T>
std::string show(T v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", number(v));
  return buf;
}

[[noreturn]] void reject(const char* field, const std::string& why) {
  throw std::invalid_argument(std::string("config ") + field + " " + why);
}

/// validate()'s per-field pass.
struct Checker {
  template <class T>
  void operator()(const char* name, const T& field, const Domain& d) const {
    if constexpr (std::is_enum_v<T>) {
      const int raw = static_cast<int>(field);
      if (raw < 0 || raw >= d.enumerators) {
        reject(name, std::to_string(raw) + " names no enumerator");
      }
    } else if constexpr (kNumeric<T>) {
      if (!inDomain(number(field), d.rule)) {
        reject(name, show(field) + " " + ruleText(d.rule));
      }
    }
  }
};

// ---------------------------------------------------------------- env knobs

/// One environment knob that sets one field.
struct EnvAlias {
  const char* knob;
  const char* field;
};

constexpr EnvAlias kEnvAliases[] = {
    {"MANET_FAULT_LOSS", "fault.loss"},
    {"MANET_FAULT_PER", "fault.per"},
    {"MANET_FAULT_GE_LOSS_GOOD", "fault.geLossGood"},
    {"MANET_FAULT_GE_LOSS_BAD", "fault.geLossBad"},
    {"MANET_FAULT_GE_P_GB", "fault.geGoodToBad"},
    {"MANET_FAULT_GE_P_BG", "fault.geBadToGood"},
    {"MANET_FAULT_CHURN", "fault.churn"},
    {"MANET_FAULT_CHURN_FRACTION", "fault.churnFraction"},
    {"MANET_FAULT_UP_S", "fault.meanUpTime"},
    {"MANET_FAULT_DOWN_S", "fault.meanDownTime"},
    {"MANET_TRAFFIC_ARRIVAL", "traffic.arrival"},
    {"MANET_TRAFFIC_RATE", "traffic.poissonRatePerSecond"},
    {"MANET_TRAFFIC_PERIOD_S", "traffic.period"},
    {"MANET_TRAFFIC_BURST_LEN", "traffic.burstLength"},
    {"MANET_TRAFFIC_BURST_GAP_S", "traffic.burstGapMax"},
    {"MANET_TRAFFIC_IDLE_S", "traffic.burstIdleMean"},
    {"MANET_TRAFFIC_SOURCES", "traffic.sources"},
    {"MANET_TRAFFIC_HOTSPOT_K", "traffic.hotspotCount"},
};

/// The knob's text, or nullptr when it is unset or empty.
const char* knobText(const char* knob) {
  const char* raw = std::getenv(knob);
  return raw != nullptr && *raw != '\0' ? raw : nullptr;
}

[[noreturn]] void rejectKnob(const char* knob, const char* raw,
                             const std::string& why) {
  throw std::invalid_argument(std::string(knob) + "=\"" + raw + "\" " + why);
}

/// Sets the field named `alias.field` from the knob's text `raw`, parsed by
/// the field's type and checked against its domain.
struct AliasSetter {
  const EnvAlias& alias;
  const char* raw;
  bool found = false;

  template <class T>
  void operator()(const char* name, T& field, const Domain& d) {
    if (found || std::strcmp(name, alias.field) != 0) return;
    found = true;
    if constexpr (std::is_same_v<T, bool>) {
      field = util::envBool(alias.knob, field);
    } else if constexpr (std::is_enum_v<T>) {
      for (const Spelling& s : d.spellings) {
        if (std::strcmp(raw, s.name) == 0) {
          field = static_cast<T>(s.value);
          return;
        }
      }
      std::string names;
      for (const Spelling& s : d.spellings) {
        names += (names.empty() ? "" : ", ") + std::string(s.name);
      }
      rejectKnob(alias.knob, raw, "is not one of " + names);
    } else if constexpr (std::is_same_v<T, int>) {
      field = util::envInt(alias.knob, field, INT_MIN, INT_MAX);
    } else if constexpr (std::is_same_v<T, double>) {
      field = util::envDouble(alias.knob, field);
    } else if constexpr (std::is_same_v<T, sim::Duration>) {
      // Seconds whose microsecond count would not fit the int64 tick.
      constexpr double kMaxSeconds = sim::toSeconds(
          sim::Duration{std::numeric_limits<std::int64_t>::max()});
      const double seconds = util::envDouble(alias.knob, 0.0);
      if (!(std::fabs(seconds) < kMaxSeconds)) {
        rejectKnob(alias.knob, raw, "is out of range");
      }
      field = sim::scaleTrunc(sim::kSecond, seconds);
    } else {
      rejectKnob(alias.knob, raw, "aliases a field without a text form");
    }
    if constexpr (kNumeric<T>) {
      if (!inDomain(number(field), d.rule)) {
        rejectKnob(alias.knob, raw, ruleText(d.rule));
      }
    }
  }
};

/// Parses "x0,y0,x1,y1" into `out`: exactly four finite comma-separated
/// numbers.
bool parseZone(const char* text, double* const (&out)[4]) {
  for (int i = 0; i < 4; ++i) {
    char* end = nullptr;
    *out[i] = std::strtod(text, &end);
    if (end == text || !std::isfinite(*out[i])) return false;
    while (*end == ' ') ++end;
    if (*end != (i < 3 ? ',' : '\0')) return false;
    text = end + 1;
  }
  return true;
}

}  // namespace

void validate(const ScenarioConfig& c) {
  Checker check;
  visitFields(c, check);
  if (c.hello.intervalMax < c.hello.intervalMin) {
    reject("hello.intervalMax", "must be >= hello.intervalMin");
  }
  if (c.mac.cwMax < c.mac.cwMin) reject("mac.cwMax", "must be >= mac.cwMin");
  if (!c.phy.senseDelayValid()) {
    reject("phy.carrierSenseDelay",
           show(c.phy.carrierSenseDelay) +
               " must lie below the shortest frame airtime " +
               show(c.phy.frameAirtime(0)));
  }
  const auto noHost = [&c](net::HostId id) {
    return id.value() >= static_cast<std::uint32_t>(c.numHosts);
  };
  const auto& replay = c.traffic.replay;
  if (c.traffic.arrival == traffic::TrafficConfig::Arrival::kReplay &&
      std::any_of(replay.begin(), replay.end(), [&](const auto& q) {
        return q.at < sim::kTimeZero || noHost(q.source);
      })) {
    reject("traffic.replay", "requests need t >= 0 and a host below numHosts");
  }
  const auto& ids = c.traffic.hotspotIds;
  if (c.traffic.sources == traffic::TrafficConfig::Sources::kHotspot &&
      std::any_of(ids.begin(), ids.end(), noHost)) {
    reject("traffic.hotspotIds", "ids must lie below numHosts");
  }
}

void applyEnvAliases(ScenarioConfig& c) {
  for (const EnvAlias& alias : kEnvAliases) {
    const char* raw = knobText(alias.knob);
    if (raw == nullptr) continue;
    AliasSetter set{alias, raw};
    visitFields(c, set);
    MANET_ASSERT(set.found);
  }
  // A bare PER, RATE or PERIOD selects its model unless the model knob was
  // given.
  if (knobText("MANET_FAULT_PER") != nullptr &&
      knobText("MANET_FAULT_LOSS") == nullptr &&
      c.fault.loss == fault::FaultConfig::Loss::kNone) {
    c.fault.loss = fault::FaultConfig::Loss::kIid;
  }
  using Arrival = traffic::TrafficConfig::Arrival;
  if (knobText("MANET_TRAFFIC_ARRIVAL") == nullptr &&
      c.traffic.arrival == Arrival::kUniform) {
    if (knobText("MANET_TRAFFIC_RATE") != nullptr) {
      c.traffic.arrival = Arrival::kPoisson;
    } else if (knobText("MANET_TRAFFIC_PERIOD_S") != nullptr) {
      c.traffic.arrival = Arrival::kPeriodic;
    }
  }
  traffic::TrafficConfig& t = c.traffic;
  const char* zone = knobText("MANET_TRAFFIC_ZONE");
  if (zone != nullptr &&
      !parseZone(zone, {&t.zoneX0, &t.zoneY0, &t.zoneX1, &t.zoneY1})) {
    rejectKnob("MANET_TRAFFIC_ZONE", zone,
               "is not four comma-separated numbers x0,y0,x1,y1");
  }
}

}  // namespace manet::experiment
