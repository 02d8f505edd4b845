#include "experiment/scheme_spec.hpp"

#include <climits>
#include <optional>
#include <stdexcept>

#include "experiment/config_schema.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace manet::experiment {

SchemeSpec SchemeSpec::flooding() {
  SchemeSpec s;
  s.type = Type::kFlooding;
  return s;
}

SchemeSpec SchemeSpec::probabilistic(double p) {
  SchemeSpec s;
  s.type = Type::kProbabilistic;
  s.probability = p;
  return s;
}

SchemeSpec SchemeSpec::counter(int c) {
  SchemeSpec s;
  s.type = Type::kCounter;
  s.counterC = c;
  return s;
}

SchemeSpec SchemeSpec::distance(double dMeters) {
  SchemeSpec s;
  s.type = Type::kDistance;
  s.distanceD = dMeters;
  return s;
}

SchemeSpec SchemeSpec::location(double a) {
  SchemeSpec s;
  s.type = Type::kLocation;
  s.areaA = a;
  return s;
}

SchemeSpec SchemeSpec::adaptiveCounter(core::CounterThreshold fn,
                                       std::string label) {
  SchemeSpec s;
  s.type = Type::kAdaptiveCounter;
  s.counterFn = std::move(fn);
  s.label = std::move(label);
  return s;
}

SchemeSpec SchemeSpec::adaptiveLocation(core::AreaThreshold fn,
                                        std::string label) {
  SchemeSpec s;
  s.type = Type::kAdaptiveLocation;
  s.areaFn = std::move(fn);
  s.label = std::move(label);
  return s;
}

SchemeSpec SchemeSpec::neighborCoverage() {
  SchemeSpec s;
  s.type = Type::kNeighborCoverage;
  return s;
}

SchemeSpec SchemeSpec::clusterBased(int innerCounter) {
  SchemeSpec s;
  s.type = Type::kCluster;
  s.clusterInnerCounter = innerCounter;
  return s;
}

std::unique_ptr<core::RebroadcastPolicy> SchemeSpec::build() const {
  switch (type) {
    case Type::kFlooding:
      return std::make_unique<core::FloodingPolicy>();
    case Type::kProbabilistic:
      return std::make_unique<core::ProbabilisticPolicy>(probability);
    case Type::kCounter:
      return std::make_unique<core::CounterPolicy>(counterC);
    case Type::kDistance:
      return std::make_unique<core::DistancePolicy>(distanceD);
    case Type::kLocation:
      return std::make_unique<core::LocationPolicy>(areaA);
    case Type::kAdaptiveCounter:
      return std::make_unique<core::AdaptiveCounterPolicy>(
          counterFn, label.empty() ? "AC" : label);
    case Type::kAdaptiveLocation:
      return std::make_unique<core::AdaptiveLocationPolicy>(
          areaFn, label.empty() ? "AL" : label);
    case Type::kNeighborCoverage:
      return std::make_unique<core::NeighborCoveragePolicy>();
    case Type::kCluster:
      return std::make_unique<cluster::ClusterPolicy>(clusterInnerCounter);
  }
  MANET_ASSERT(false);
  return nullptr;
}

std::string SchemeSpec::name() const {
  if (!label.empty()) return label;
  return build()->name();
}

bool SchemeSpec::needsNeighborInfo() const {
  switch (type) {
    case Type::kAdaptiveCounter:
    case Type::kAdaptiveLocation:
    case Type::kNeighborCoverage:
    case Type::kCluster:
      return true;
    default:
      return false;
  }
}

bool SchemeSpec::needsTwoHopInfo() const {
  return type == Type::kNeighborCoverage || type == Type::kCluster;
}

SchemeSpec parseScheme(const std::string& text) {
  const std::string quoted = "scheme \"" + text + "\"";
  std::optional<SchemeSpec> scheme;
  if (text == "flooding") scheme = SchemeSpec::flooding();
  if (text == "nc") scheme = SchemeSpec::neighborCoverage();
  if (text == "ac") scheme = SchemeSpec::adaptiveCounter();
  if (text == "al") scheme = SchemeSpec::adaptiveLocation();
  if (text == "cluster") scheme = SchemeSpec::clusterBased();
  const std::size_t eq = text.find('=');
  if (!scheme && eq != std::string::npos) {
    const std::string key = text.substr(0, eq);
    const char* value = text.c_str() + eq + 1;
    const auto real = [&] { return util::parseDouble(key.c_str(), value); };
    const auto whole = [&] {
      return util::parseInt(key.c_str(), value, INT_MIN, INT_MAX);
    };
    try {
      if (key == "p") scheme = SchemeSpec::probabilistic(real());
      if (key == "c") scheme = SchemeSpec::counter(whole());
      if (key == "d") scheme = SchemeSpec::distance(real());
      if (key == "a") scheme = SchemeSpec::location(real());
      if (key == "cluster") scheme = SchemeSpec::clusterBased(whole());
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(quoted + ": " + e.what());
    }
  }
  if (!scheme) {
    throw std::invalid_argument(quoted + " is not one of " + kSchemeGrammar);
  }
  // The scheme fields' domains, checked in an otherwise default config.
  ScenarioConfig config;
  config.scheme = *scheme;
  try {
    validate(config);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(quoted + ": " + e.what());
  }
  return *scheme;
}

}  // namespace manet::experiment
