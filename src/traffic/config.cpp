#include "traffic/config.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/env.hpp"

namespace manet::traffic {

namespace {

constexpr int kMaxInt = std::numeric_limits<int>::max();

/// Parses "x0,y0,x1,y1" (map-side fractions). Returns false — leaving the
/// zone untouched — unless exactly four comma-separated doubles parse and
/// nothing follows the fourth.
bool parseZone(const std::string& spec, TrafficConfig& out) {
  std::istringstream in(spec);
  double v[4];
  char sep = ',';
  for (int i = 0; i < 4; ++i) {
    if (i > 0 && (!(in >> sep) || sep != ',')) return false;
    if (!(in >> v[i])) return false;
  }
  if (!(in >> std::ws).eof()) return false;
  out.zoneX0 = v[0];
  out.zoneY0 = v[1];
  out.zoneX1 = v[2];
  out.zoneY1 = v[3];
  return true;
}

}  // namespace

TrafficConfig TrafficConfig::withEnvOverrides() const {
  TrafficConfig out = *this;

  const auto arrivalName = util::envString("MANET_TRAFFIC_ARRIVAL");
  if (arrivalName) {
    if (*arrivalName == "uniform") {
      out.arrival = Arrival::kUniform;
    } else if (*arrivalName == "poisson") {
      out.arrival = Arrival::kPoisson;
    } else if (*arrivalName == "cbr" || *arrivalName == "periodic") {
      out.arrival = Arrival::kPeriodic;
    } else if (*arrivalName == "burst") {
      out.arrival = Arrival::kBurst;
    } else if (!arrivalName->empty()) {
      throw std::invalid_argument(
          "MANET_TRAFFIC_ARRIVAL=\"" + *arrivalName +
          "\" is not one of uniform, poisson, cbr, periodic, burst");
    }
  }
  if (util::envString("MANET_TRAFFIC_RATE")) {
    out.poissonRatePerSecond =
        util::envDouble("MANET_TRAFFIC_RATE", out.poissonRatePerSecond);
    // A bare rate means Poisson arrivals unless the process was named.
    if (!arrivalName && out.arrival == Arrival::kUniform) {
      out.arrival = Arrival::kPoisson;
    }
  }
  if (util::envString("MANET_TRAFFIC_PERIOD_S")) {
    out.period = sim::scaleTrunc(
        sim::kSecond, util::envDouble("MANET_TRAFFIC_PERIOD_S",
                                      sim::toSeconds(out.period)));
    if (!arrivalName && out.arrival == Arrival::kUniform) {
      out.arrival = Arrival::kPeriodic;
    }
  }
  out.burstLength =
      util::envInt("MANET_TRAFFIC_BURST_LEN", out.burstLength, 1, kMaxInt);
  if (util::envString("MANET_TRAFFIC_BURST_GAP_S")) {
    out.burstGapMax = sim::scaleTrunc(
        sim::kSecond, util::envDouble("MANET_TRAFFIC_BURST_GAP_S",
                                      sim::toSeconds(out.burstGapMax)));
  }
  if (util::envString("MANET_TRAFFIC_IDLE_S")) {
    out.burstIdleMean = sim::scaleTrunc(
        sim::kSecond, util::envDouble("MANET_TRAFFIC_IDLE_S",
                                      sim::toSeconds(out.burstIdleMean)));
  }

  if (const auto sourcesName = util::envString("MANET_TRAFFIC_SOURCES")) {
    if (*sourcesName == "uniform") {
      out.sources = Sources::kUniform;
    } else if (*sourcesName == "hotspot") {
      out.sources = Sources::kHotspot;
    } else if (*sourcesName == "zone") {
      out.sources = Sources::kZone;
    } else if (!sourcesName->empty()) {
      throw std::invalid_argument("MANET_TRAFFIC_SOURCES=\"" + *sourcesName +
                                  "\" is not one of uniform, hotspot, zone");
    }
  }
  out.hotspotCount =
      util::envInt("MANET_TRAFFIC_HOTSPOT_K", out.hotspotCount, 1, kMaxInt);
  if (const auto zone = util::envString("MANET_TRAFFIC_ZONE")) {
    if (!zone->empty() && !parseZone(*zone, out)) {
      throw std::invalid_argument("MANET_TRAFFIC_ZONE=\"" + *zone +
                                  "\" is not four comma-separated numbers "
                                  "x0,y0,x1,y1");
    }
  }
  return out;
}

}  // namespace manet::traffic
