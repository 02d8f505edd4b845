#include "experiment/bench_util.hpp"

#include <limits>

#include "util/env.hpp"

namespace manet::experiment {

BenchScale benchScale(int defaultBroadcasts, int defaultReps,
                      int defaultHosts) {
  BenchScale s;
  constexpr int kMax = std::numeric_limits<int>::max();
  s.broadcasts = util::envInt("REPRO_BROADCASTS", defaultBroadcasts, 0, kMax);
  s.repetitions = util::envInt("REPRO_REPS", defaultReps, 1, kMax);
  s.seed = static_cast<std::uint64_t>(util::envInt("REPRO_SEED", 42));
  s.numHosts = util::envInt("REPRO_HOSTS", defaultHosts, 1, kMax);
  return s;
}

void applyScale(ScenarioConfig& config, const BenchScale& scale) {
  config.numBroadcasts = scale.broadcasts;
  config.seed = scale.seed;
  config.numHosts = scale.numHosts;
}

const std::vector<int>& paperMapSizes() {
  static const std::vector<int> sizes{1, 3, 5, 7, 9, 11};
  return sizes;
}

}  // namespace manet::experiment
