// Fault-injection configuration (DESIGN.md §8): link impairment models and
// host churn. Everything defaults to off, and a disabled FaultConfig leaves
// a run bit-identical to one that predates the fault subsystem — fault RNG
// streams are forked from dedicated stream ids, so enabling or disabling
// faults never shifts mobility, traffic, or MAC draws.
#pragma once

#include <vector>

#include "net/ids.hpp"
#include "sim/time.hpp"

namespace manet::fault {

/// One scripted churn transition: `node` goes down (`up = false`) or comes
/// back up at absolute simulation time `at`.
struct ChurnEvent {
  net::HostId node = net::kInvalidHost;
  sim::TimePoint at{};
  bool up = false;
};

struct FaultConfig {
  // --- link impairment -----------------------------------------------------
  enum class Loss {
    kNone,            // bit-identical to the fault-free channel
    kIid,             // i.i.d. per-reception loss with probability `per`
    kGilbertElliott,  // two-state bursty model, per-(src,dst) chain state
  };
  Loss loss = Loss::kNone;

  /// kIid: probability each reception is dropped.
  double per = 0.0;

  /// kGilbertElliott: loss probability in the Good/Bad states and the
  /// state-transition probabilities, evaluated once per reception on that
  /// link (draw loss from the current state, then maybe transition). The
  /// stationary Bad-state share is gb/(gb+bg); defaults give a long-run
  /// average loss of ~0.19 concentrated in bursts of mean length 1/bg = 4.
  double geLossGood = 0.0;
  double geLossBad = 0.75;
  double geGoodToBad = 0.085;  // P(Good -> Bad) per reception
  double geBadToGood = 0.25;   // P(Bad -> Good) per reception

  // --- host churn ----------------------------------------------------------
  /// Random up/down cycling: each host independently joins the churn pool
  /// with probability `churnFraction`; pool members alternate exponentially
  /// distributed up/down dwell times.
  bool churn = false;
  double churnFraction = 0.3;
  sim::Duration meanUpTime = 20 * sim::kSecond;
  sim::Duration meanDownTime = 5 * sim::kSecond;

  /// Explicit crash/recover timeline; when non-empty it replaces the random
  /// schedule (and `churn` need not be set). Events may be given in any
  /// order; the world sorts by (at, node).
  std::vector<ChurnEvent> script;

  bool lossEnabled() const { return loss != Loss::kNone; }
  bool churnEnabled() const { return churn || !script.empty(); }
  bool enabled() const { return lossEnabled() || churnEnabled(); }
};

}  // namespace manet::fault
