#include "fault/config.hpp"

#include <stdexcept>
#include <string>

#include "util/env.hpp"

namespace manet::fault {

namespace {

/// envDouble for a probability knob: unset or empty keeps `fallback`, a
/// value outside [0, 1] throws std::invalid_argument naming the knob.
double envProbability(const char* name, double fallback) {
  const auto raw = util::envString(name);
  if (!raw || raw->empty()) return fallback;
  const double p = util::envDouble(name, fallback);
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string(name) + "=\"" + *raw +
                                "\" must lie in [0, 1]");
  }
  return p;
}

}  // namespace

FaultConfig FaultConfig::withEnvOverrides() const {
  FaultConfig out = *this;

  const auto lossName = util::envString("MANET_FAULT_LOSS");
  if (lossName && !lossName->empty()) {
    if (*lossName == "none") {
      out.loss = Loss::kNone;
    } else if (*lossName == "iid") {
      out.loss = Loss::kIid;
    } else if (*lossName == "ge") {
      out.loss = Loss::kGilbertElliott;
    } else {
      throw std::invalid_argument("MANET_FAULT_LOSS=\"" + *lossName +
                                  "\" is not one of none, iid, ge");
    }
  }
  if (util::envString("MANET_FAULT_PER")) {
    out.per = envProbability("MANET_FAULT_PER", out.per);
    // A bare PER means i.i.d. loss unless the model was named explicitly.
    if (!lossName && out.loss == Loss::kNone) {
      out.loss = Loss::kIid;
    }
  }
  out.geLossGood = envProbability("MANET_FAULT_GE_LOSS_GOOD", out.geLossGood);
  out.geLossBad = envProbability("MANET_FAULT_GE_LOSS_BAD", out.geLossBad);
  out.geGoodToBad = envProbability("MANET_FAULT_GE_P_GB", out.geGoodToBad);
  out.geBadToGood = envProbability("MANET_FAULT_GE_P_BG", out.geBadToGood);

  out.churn = util::envInt("MANET_FAULT_CHURN", out.churn ? 1 : 0) != 0;
  out.churnFraction =
      envProbability("MANET_FAULT_CHURN_FRACTION", out.churnFraction);
  if (auto up = util::envString("MANET_FAULT_UP_S")) {
    (void)up;
    out.meanUpTime =
        sim::scaleTrunc(sim::kSecond, util::envDouble("MANET_FAULT_UP_S", 0));
  }
  if (auto down = util::envString("MANET_FAULT_DOWN_S")) {
    (void)down;
    out.meanDownTime = sim::scaleTrunc(
        sim::kSecond, util::envDouble("MANET_FAULT_DOWN_S", 0));
  }
  return out;
}

}  // namespace manet::fault
