// Benchmark program: builds and runs experiment::World instances back to back
// on one thread (a closed loop with one client) and prints one JSON object
// per line on stdout. perfbench/run.py spawns it, turns the lines into the
// benchmark's metrics and checks the simulation outputs.
//
//   perfbench_sim --workload paper_sweep --seed 1 --seconds 30 --trace 0
//                    [--spans FILE]
//
// Untraced mode (--trace 0) repeats the workload's scenario list ("a pass")
// until --seconds have elapsed, with no obs::Registry and no trace sink
// installed — how users run the simulator by default. Traced mode
// (--trace 1) alternates untraced and traced passes for --seconds, then runs
// the layer probes and prints one "layers" line. Every layer is measured
// from outside, by timing calls into the library's public API; probes only
// ever touch standalone objects or a separately built twin world, never a
// world whose output is reported.
//
// Lines (all carry "kind"):
//   scenario  one scenario of one pass: host times, outputs, check verdict
//   pass      one pass: wall, CPU, set-up and run-phase host time
//   layers    traced mode only: per-layer counts, probes and estimates
//   end       build and host facts, peak RSS
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "experiment/scenario.hpp"
#include "experiment/world.hpp"
#include "geom/coverage.hpp"
#include "mobility/random_roam.hpp"
#include "net/neighbor_table.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "trace/event.hpp"

namespace {

using namespace manet;
using Clock = std::chrono::steady_clock;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::int64_t nanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

std::int64_t cpuNanos() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto toNs = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return toNs(usage.ru_utime) + toNs(usage.ru_stime);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ------------------------------------------------------------ JSON lines

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Builds one flat JSON object. Doubles print with 17 significant digits,
/// so they round-trip exactly (the output digest depends on it).
class JsonLine {
 public:
  JsonLine& add(const std::string& key, const std::string& value) {
    return raw(key, jsonString(value));
  }
  JsonLine& add(const std::string& key, const char* value) {
    return raw(key, jsonString(value));
  }
  JsonLine& add(const std::string& key, double value) {
    if (!std::isfinite(value)) return raw(key, "null");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  JsonLine& add(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& add(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& add(const std::string& key, int value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& add(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + jsonString(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// -------------------------------------------------------------- workloads

struct Scenario {
  std::string label;
  experiment::ScenarioConfig config;
};

/// The scenario seed for entry `index` of a workload run with `seed`.
std::uint64_t scenarioSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  return sim::splitmix64(state);
}

std::string mapLabel(int units) {
  return std::to_string(units) + "x" + std::to_string(units);
}

/// Fig. 13's grid: 8 schemes on the 1x1..11x11 maps, 100 hosts, the
/// paper's U(0, 2 s) arrivals, 20 broadcasts per cell.
std::vector<Scenario> paperSweep(std::uint64_t seed) {
  struct Entry {
    experiment::SchemeSpec scheme;
    bool ncDhi = false;
  };
  std::vector<Entry> entries{
      {experiment::SchemeSpec::flooding()},
      {experiment::SchemeSpec::counter(2)},
      {experiment::SchemeSpec::counter(6)},
      {experiment::SchemeSpec::adaptiveCounter()},
      {experiment::SchemeSpec::location(0.1871)},
      {experiment::SchemeSpec::location(0.0134)},
      {experiment::SchemeSpec::adaptiveLocation()},
      {experiment::SchemeSpec::neighborCoverage(), true},
  };
  entries.back().scheme.label = "NC-DHI";
  std::vector<Scenario> out;
  for (int units : {1, 3, 5, 7, 9, 11}) {
    for (const Entry& entry : entries) {
      Scenario s;
      s.config.mapUnits = units;
      s.config.numHosts = 100;
      s.config.numBroadcasts = 20;
      s.config.scheme = entry.scheme;
      if (entry.ncDhi) {
        s.config.neighborSource = experiment::NeighborSource::kHello;
        s.config.hello.dynamic = true;
      }
      s.config.seed = scenarioSeed(seed, out.size());
      s.label = mapLabel(units) + "/" + entry.scheme.name();
      out.push_back(std::move(s));
    }
  }
  return out;
}

/// The dense regime of the micro_shard scenario (16 hosts per radio-range
/// square, C=3, oracle neighbors, HELLO off, serial) at 576 hosts on 6x6.
/// The grid rebuild per transmit and one reachability BFS per broadcast
/// dominate at this size as at 2000 hosts on 11x11 (grid estimate 23-38% of
/// the run span against 21% at 1000 hosts), while its smaller working set
/// slows less when other tenants load the host: on a shared VM, the medians
/// of 4 s runs spread 8% at this size against 17% at 1000 hosts, and
/// 2000-host runs spread 16-33%.
std::vector<Scenario> denseStorm(std::uint64_t seed) {
  Scenario s;
  s.config.mapUnits = 6;
  s.config.numHosts = 576;
  s.config.numBroadcasts = 30;
  s.config.scheme = experiment::SchemeSpec::counter(3);
  s.config.seed = scenarioSeed(seed, 0);
  s.label = "6x6/C=3/576";
  return {s};
}

/// NC-DHI on HELLO tables under host churn, Gilbert-Elliott link loss and
/// bursty arrivals: few broadcasts over a long horizon, so neighbor-table
/// writes (HELLO receptions, joins and leaves, crash resets) dominate.
std::vector<Scenario> helloChurn(std::uint64_t seed) {
  std::vector<Scenario> out;
  for (int rep = 0; rep < 12; ++rep) {
    for (int units : {3, 5, 7, 9, 11}) {
      Scenario s;
      s.config.mapUnits = units;
      s.config.numHosts = 100;
      s.config.numBroadcasts = 16;
      s.config.scheme = experiment::SchemeSpec::neighborCoverage();
      s.config.scheme.label = "NC-DHI";
      s.config.neighborSource = experiment::NeighborSource::kHello;
      s.config.hello.dynamic = true;
      s.config.traffic.arrival = traffic::TrafficConfig::Arrival::kBurst;
      s.config.traffic.burstLength = 4;
      s.config.traffic.burstIdleMean = 5 * sim::kSecond;
      s.config.fault.loss = fault::FaultConfig::Loss::kGilbertElliott;
      s.config.fault.churn = true;
      s.config.seed = scenarioSeed(seed, out.size());
      s.label = mapLabel(units) + "/NC-DHI/churn#" + std::to_string(rep);
      out.push_back(std::move(s));
    }
  }
  return out;
}

struct Workload {
  std::vector<Scenario> scenarios;
  /// Scenario whose twin the layer probes advance (a HELLO-table world where
  /// the workload has one).
  std::size_t probeIndex = 0;
};

bool makeWorkload(const std::string& name, std::uint64_t seed, Workload& out) {
  if (name == "paper_sweep") {
    out.scenarios = paperSweep(seed);
    out.probeIndex = 2 * 8 + 7;  // 5x5 NC-DHI
  } else if (name == "dense_storm") {
    out.scenarios = denseStorm(seed);
    out.probeIndex = 0;
  } else if (name == "hello_churn") {
    out.scenarios = helloChurn(seed);
    out.probeIndex = 4;  // 11x11
  } else {
    return false;
  }
  return true;
}

bool locationFamily(const experiment::SchemeSpec& scheme) {
  return scheme.type == experiment::SchemeSpec::Type::kLocation ||
         scheme.type == experiment::SchemeSpec::Type::kAdaptiveLocation;
}

// ------------------------------------------------------------------ spans

/// In-memory span recorder for traced passes (name, start, end, parent),
/// written out once when the run ends.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}
  std::size_t begin(std::string name, std::size_t parent,
                    std::string detail = {}) {
    spans_.push_back({std::move(name), std::move(detail), parent,
                      nanosSince(origin_), -1});
    return spans_.size();  // ids start at 1; 0 is the root
  }
  void end(std::size_t id) { spans_[id - 1].end = nanosSince(origin_); }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << JsonLine()
                 .add("id", static_cast<std::uint64_t>(i + 1))
                 .add("parent", static_cast<std::uint64_t>(s.parent))
                 .add("name", s.name)
                 .add("detail", s.detail)
                 .add("start_ns", s.start)
                 .add("end_ns", s.end)
                 .str()
          << "\n";
    }
  }

 private:
  struct Span {
    std::string name;
    std::string detail;
    std::size_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------- counting sink

/// Counts trace events by kind and tracks, per (host, broadcast), how many
/// senders a host has heard while its rebroadcast decision is still open —
/// the k of each coverage estimate a location-family decider makes.
class CountingSink final : public trace::TraceSink {
 public:
  void onEvent(const trace::Event& event) override {
    ++counts[static_cast<std::size_t>(event.kind)];
    switch (event.kind) {
      case trace::EventKind::kDelivered:
        open_[key(event)] = 1;
        ++decisionsByK[1];
        break;
      case trace::EventKind::kDuplicateHeard: {
        auto it = open_.find(key(event));
        if (it != open_.end()) {
          const int k = ++it->second;
          ++decisionsByK[static_cast<std::size_t>(std::min(k, 4))];
        }
        break;
      }
      case trace::EventKind::kTxStarted:
      case trace::EventKind::kInhibited:
        open_.erase(key(event));
        break;
      default:
        break;
    }
  }

  std::uint64_t count(trace::EventKind kind) const {
    return counts[static_cast<std::size_t>(kind)];
  }

  std::array<std::uint64_t, trace::kEventKindCount> counts{};
  /// decisionsByK[k]: decisions made with k heard senders (k >= 4 pooled).
  std::array<std::uint64_t, 5> decisionsByK{};

 private:
  struct Key {
    std::uint32_t node;
    std::uint32_t origin;
    std::uint32_t seq;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t state = (static_cast<std::uint64_t>(k.node) << 40) ^
                            (static_cast<std::uint64_t>(k.origin) << 20) ^
                            k.seq;
      return static_cast<std::size_t>(sim::splitmix64(state));
    }
  };
  static Key key(const trace::Event& e) {
    return {e.node.value(), e.bid.origin.value(), e.bid.seq.value()};
  }
  std::unordered_map<Key, int, KeyHash> open_;
};

// ------------------------------------------------------- one scenario

struct Outcome {
  std::int64_t buildNs = 0;
  std::int64_t beginNs = 0;
  std::int64_t runNs = 0;
  std::int64_t collectNs = 0;
  std::int64_t destroyNs = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t offered = 0;
  std::uint64_t injected = 0;  // requests whose source was up at fire time
  double re = 0.0;
  double srb = 0.0;
  double latencySeconds = 0.0;
  std::uint64_t tx = 0;
  std::uint64_t delivered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t rOverE = 0;  // broadcasts with r > e (see checkOutputs)
  std::string failure;  // empty when every check passed
  // Traced passes only.
  std::unique_ptr<obs::Registry> registry;
  CountingSink sink;
};

/// Requests the world should have injected: a request is blocked only when
/// its source is down at fire time. Requests are scheduled before the churn
/// timeline, so at equal instants the request fires first and sees the
/// state before the transition.
std::uint64_t expectedInjected(const experiment::World& world) {
  std::vector<fault::ChurnEvent> churn = world.churnTimeline();
  std::stable_sort(churn.begin(), churn.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  std::vector<bool> up(world.hostCount(), true);
  std::size_t next = 0;
  std::uint64_t injected = 0;
  for (const traffic::Request& request : world.workloadSchedule()) {
    for (; next < churn.size() && churn[next].at < request.at; ++next) {
      up[churn[next].node.value()] = churn[next].up;
    }
    if (up[request.source.value()]) ++injected;
  }
  return injected;
}

/// The output checks: one per-broadcast record for every injected request;
/// per broadcast t <= r <= N-1 and e <= N-1, RE and SRB in [0, 1] and
/// latency >= 0; the same ranges for the run means. Returns the first
/// violation, or "".
///
/// r <= e is not checked: e is the BFS snapshot at initiation, and a
/// broadcast also reaches hosts that join the source's component while it
/// propagates (mobility closes a link, a crashed host recovers) — which is
/// why stats::PerBroadcast clamps RE to 1. Such broadcasts are counted in
/// `rOverE` instead.
std::string checkOutputs(experiment::World& world,
                         const stats::RunSummary& summary,
                         std::uint64_t injected, std::uint64_t& rOverE) {
  const std::vector<stats::PerBroadcast>& records =
      world.metrics().broadcasts();
  std::ostringstream why;
  if (records.size() != injected) {
    why << records.size() << " per-broadcast records for " << injected
        << " injected requests";
    return why.str();
  }
  const int others = static_cast<int>(world.hostCount()) - 1;
  auto unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  rOverE = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const stats::PerBroadcast& b = records[i];
    if (b.received > b.reachable) ++rOverE;
    if (b.received > others || b.reachable > others) {
      why << "broadcast " << i << ": r=" << b.received << ", e="
          << b.reachable << " with " << others << " other hosts";
    } else if (b.rebroadcast > b.received) {
      why << "broadcast " << i << ": t=" << b.rebroadcast << " > r="
          << b.received;
    } else if (!unit(b.reachability()) || !unit(b.savedRebroadcast())) {
      why << "broadcast " << i << ": RE " << b.reachability() << ", SRB "
          << b.savedRebroadcast();
    } else if (b.lastFinal < b.start) {
      why << "broadcast " << i << ": negative latency";
    }
    if (!why.str().empty()) return why.str();
  }
  if (!unit(summary.meanRe)) why << "mean RE " << summary.meanRe;
  else if (!unit(summary.meanSrb)) why << "mean SRB " << summary.meanSrb;
  else if (!(summary.meanLatencySeconds >= 0.0))
    why << "mean latency " << summary.meanLatencySeconds;
  return why.str();
}

/// Simulated length of one continueUntil slice in traced passes.
constexpr sim::Duration kSlice = 1 * sim::kSecond;

void runScenario(const Scenario& scenario, Spans* spans, std::size_t parent,
                 Outcome& out) {
  const bool traced = spans != nullptr;
  if (traced) out.registry = std::make_unique<obs::Registry>();
  // nullptr keeps collection off on untraced passes.
  obs::ScopedRegistry scoped(out.registry.get());
  const std::size_t scenarioSpan =
      traced ? spans->begin("scenario", parent, scenario.label) : 0;

  auto t0 = Clock::now();
  std::size_t span =
      traced ? spans->begin("experiment.build", scenarioSpan) : 0;
  auto world = std::make_unique<experiment::World>(scenario.config);
  out.buildNs = nanosSince(t0);
  if (traced) {
    spans->end(span);
    world->setTraceSink(&out.sink);
  }

  t0 = Clock::now();
  span = traced ? spans->begin("experiment.begin_run", scenarioSpan) : 0;
  world->beginRun();
  out.beginNs = nanosSince(t0);
  if (traced) spans->end(span);

  t0 = Clock::now();
  if (traced) {
    const sim::TimePoint horizon = world->horizonTime();
    sim::TimePoint cursor = world->scheduler().now();
    while (cursor < horizon) {
      cursor = std::min(cursor + kSlice, horizon);
      span = spans->begin("world.continue_until", scenarioSpan);
      world->continueUntil(cursor);
      spans->end(span);
    }
  } else {
    world->runToEnd();
  }
  out.runNs = nanosSince(t0);

  t0 = Clock::now();
  span = traced ? spans->begin("experiment.collect", scenarioSpan) : 0;
  const stats::RunSummary summary = world->metrics().summarize();
  out.broadcasts = world->metrics().broadcasts().size();
  out.offered = world->workloadSchedule().size();
  out.re = summary.meanRe;
  out.srb = summary.meanSrb;
  out.latencySeconds = summary.meanLatencySeconds;
  out.tx = world->channel().framesTransmitted();
  out.delivered = world->channel().framesDelivered();
  out.corrupted = world->channel().framesCorrupted();
  out.collectNs = nanosSince(t0);
  if (traced) spans->end(span);

  // The checks are the benchmark's own work: untimed.
  out.injected = expectedInjected(*world);
  out.failure = checkOutputs(*world, summary, out.injected, out.rOverE);
  if (traced && out.failure.empty()) {
    // Cross-check the independent injected count against the library's own
    // traffic counter and trace stream.
    const std::uint64_t counted =
        out.registry->counter(obs::Counter::kTrafficInjected);
    const std::uint64_t originated =
        out.sink.count(trace::EventKind::kBroadcastOriginated);
    if (counted != out.injected || originated != out.injected) {
      out.failure = "traffic.injected=" + std::to_string(counted) +
                    ", originated events=" + std::to_string(originated) +
                    ", expected " + std::to_string(out.injected);
    }
  }

  t0 = Clock::now();
  world.reset();
  out.destroyNs = nanosSince(t0);
  if (traced) spans->end(scenarioSpan);
}

// ------------------------------------------------------------------ passes

/// Builds timed per scenario for the set-up figure. One World construction
/// plus beginRun takes 0.1-1 ms, too short to time steadily once.
constexpr int kSetupSamples = 9;

/// Host time of World construction plus beginRun for `config`: the median
/// over kSetupSamples fresh worlds, each destroyed untimed and never run.
std::int64_t sampleSetupNs(const experiment::ScenarioConfig& config) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    auto world = std::make_unique<experiment::World>(config);
    world->beginRun();
    samples.push_back(static_cast<double>(nanosSince(t0)));
  }
  return static_cast<std::int64_t>(median(samples));
}

struct PassTotals {
  std::int64_t setupNs = 0;  // build + beginRun, sampled (untraced passes)
  std::int64_t runNs = 0;
  std::uint64_t broadcasts = 0;
};

struct PassRecord {
  bool traced = false;
  PassTotals totals;
  std::vector<Outcome> outcomes;  // kept for traced passes only
};

PassRecord runPass(const Workload& workload, int index, Spans* spans) {
  PassRecord record;
  record.traced = spans != nullptr;
  const std::size_t passSpan =
      spans != nullptr ? spans->begin("pass", 0, std::to_string(index)) : 0;
  const auto wall0 = Clock::now();
  const std::int64_t cpu0 = cpuNanos();
  for (const Scenario& scenario : workload.scenarios) {
    Outcome out;
    runScenario(scenario, spans, passSpan, out);
    record.totals.runNs += out.runNs;
    record.totals.broadcasts += out.broadcasts;
    std::cout << JsonLine()
                     .add("kind", "scenario")
                     .add("pass", index)
                     .add("traced", record.traced)
                     .add("label", scenario.label)
                     .add("hosts", scenario.config.numHosts)
                     .add("build_ns", out.buildNs)
                     .add("begin_ns", out.beginNs)
                     .add("run_ns", out.runNs)
                     .add("collect_ns", out.collectNs)
                     .add("destroy_ns", out.destroyNs)
                     .add("offered", out.offered)
                     .add("injected", out.injected)
                     .add("broadcasts", out.broadcasts)
                     .add("re", out.re)
                     .add("srb", out.srb)
                     .add("latency_s", out.latencySeconds)
                     .add("tx", out.tx)
                     .add("delivered", out.delivered)
                     .add("corrupted", out.corrupted)
                     .add("r_over_e", out.rOverE)
                     .add("ok", out.failure.empty())
                     .add("why", out.failure)
                     .str()
              << "\n";
    if (record.traced) record.outcomes.push_back(std::move(out));
  }
  const std::int64_t cpuNs = cpuNanos() - cpu0;
  const std::int64_t wallNs = nanosSince(wall0);
  if (spans != nullptr) spans->end(passSpan);
  // Outside the pass's wall and CPU time, and after its worlds have run, so
  // a divergence the extra worlds caused would show in the next pass's
  // output digest.
  if (!record.traced) {
    for (const Scenario& scenario : workload.scenarios) {
      record.totals.setupNs += sampleSetupNs(scenario.config);
    }
  }
  std::cout << JsonLine()
                   .add("kind", "pass")
                   .add("pass", index)
                   .add("traced", record.traced)
                   .add("wall_ns", wallNs)
                   .add("cpu_ns", cpuNs)
                   .add("setup_ns", record.totals.setupNs)
                   .add("run_ns", record.totals.runNs)
                   .add("broadcasts", record.totals.broadcasts)
                   .str()
            << std::endl;
  return record;
}

// ------------------------------------------------------------------ probes

/// Probe loops store their results here so the compiler cannot drop them.
volatile double gProbeSink = 0.0;

/// Times `reps` calls of `fn` and returns nanoseconds per call.
template <typename F>
double nsPerCall(int reps, F&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn(i);
  return static_cast<double>(nanosSince(t0)) / reps;
}

/// Standalone scheduler churn: schedule, cancel (at `cancelRatio`) and
/// runOne at a steady queue depth of `depth`. Nanoseconds per runOne.
double probeSchedulerChurn(std::size_t depth, double cancelRatio,
                           std::uint64_t seed) {
  sim::Scheduler scheduler;
  sim::Rng rng(seed);
  std::uint64_t fired = 0;
  auto noop = [&fired] { ++fired; };
  auto delay = [&rng] {
    return sim::Duration::microseconds(rng.uniformInt(1, 1000000));
  };
  depth = std::max<std::size_t>(depth, 1);
  std::vector<sim::Scheduler::Handle> recent(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    recent[i] = scheduler.scheduleAfter(delay(), noop);
  }
  constexpr int kOps = 200000;
  std::vector<double> samples;
  for (int round = 0; round < 5; ++round) {
    samples.push_back(nsPerCall(kOps, [&](int i) {
      recent[static_cast<std::size_t>(i) % depth] =
          scheduler.scheduleAfter(delay(), noop);
      if (rng.uniform() < cancelRatio) {
        const auto victim = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(depth) - 1));
        recent[victim].cancel();
        recent[victim] = scheduler.scheduleAfter(delay(), noop);
      }
      scheduler.runOne();
    }));
  }
  return median(samples);
}

/// positionAt on standalone RandomRoam models of the workload's map and
/// speed, queried every simulated millisecond.
double probePositionNs(const experiment::ScenarioConfig& config,
                       std::uint64_t seed) {
  const experiment::ScenarioConfig resolved = config.resolved();
  const mobility::MapSpec map =
      mobility::MapSpec::square(resolved.mapUnits, resolved.unitMeters);
  mobility::RoamParams params;
  params.maxSpeedMps = mobility::kmhToMps(resolved.maxSpeedKmh);
  sim::Rng rng(seed);
  constexpr int kModels = 64;
  std::vector<mobility::RandomRoam> models;
  models.reserve(kModels);
  for (int i = 0; i < kModels; ++i) {
    models.emplace_back(map, map.uniformPoint(rng), params,
                        rng.fork(static_cast<std::uint64_t>(i)));
  }
  double sink = 0.0;
  std::vector<double> samples;
  sim::TimePoint t = sim::kTimeZero;
  for (int round = 0; round < 5; ++round) {
    samples.push_back(nsPerCall(kModels * 2000, [&](int i) {
      if (i % kModels == 0) t += sim::kMillisecond;
      sink += models[static_cast<std::size_t>(i % kModels)].positionAt(t).x;
    }));
  }
  gProbeSink = sink;
  return median(samples);
}

/// onHello into a standalone table: 24 senders advertising 16 neighbors
/// each, one HELLO per simulated millisecond.
double probeTableWriteNs() {
  net::NeighborTable table;
  net::Packet hello;
  hello.type = net::PacketType::kHello;
  hello.helloInterval = 1 * sim::kSecond;
  for (std::uint32_t i = 0; i < 16; ++i) {
    hello.helloNeighbors.push_back(net::HostId{100 + i});
  }
  sim::TimePoint now = sim::kTimeZero;
  std::vector<double> samples;
  for (int round = 0; round < 5; ++round) {
    samples.push_back(nsPerCall(100000, [&](int i) {
      now += sim::kMillisecond;
      hello.sender = net::HostId{static_cast<std::uint32_t>(i % 24)};
      table.onHello(hello.sender, hello, now);
    }));
  }
  return median(samples);
}

/// geom::uncoveredFraction with k senders placed uniformly in the
/// receiver's disk, at the location schemes' default sample count.
double probeUncoveredUs(int k, std::uint64_t seed) {
  constexpr double kRadius = 500.0;
  sim::Rng rng(seed + static_cast<std::uint64_t>(k));
  std::vector<std::vector<geom::Vec2>> senderSets(32);
  for (auto& set : senderSets) {
    for (int i = 0; i < k; ++i) {
      const double rr = kRadius * std::sqrt(rng.uniform());
      const double a = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
      set.push_back({rr * std::cos(a), rr * std::sin(a)});
    }
  }
  const int samples = core::CoverageSampling{}.samples;
  double sink = 0.0;
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    rounds.push_back(nsPerCall(256, [&](int i) {
      sink += geom::uncoveredFraction(
          {0.0, 0.0}, senderSets[static_cast<std::size_t>(i) % 32], kRadius,
          rng, samples);
    }) / 1000.0);
  }
  gProbeSink = sink;
  return median(rounds);
}

struct TwinProbes {
  double rebuildUs = 0.0;
  double queryNs = 0.0;
  double reachableUs = 0.0;
  double tableReadNs = 0.0;
};

/// Builds a twin of `config` and advances it to fixed simulated instants
/// after warmup; at each instant times the first range query (which pays
/// the grid rebuild and its position pass), later range queries, the
/// reachability BFS and neighbor-table reads.
TwinProbes probeTwin(const experiment::ScenarioConfig& config, Spans& spans,
                     std::size_t parent) {
  const std::size_t twinSpan = spans.begin("probe.twin", parent);
  experiment::World twin(config);
  twin.beginRun();
  const sim::TimePoint start = sim::kTimeZero + twin.config().warmup;
  std::vector<double> rebuild, query, reachable, tableRead;
  const auto hosts = static_cast<std::uint32_t>(twin.hostCount());
  for (int step = 1; step <= 16; ++step) {
    const sim::TimePoint at = start + step * 50 * sim::kMillisecond;
    twin.continueUntil(at);
    std::vector<net::HostId> live;
    for (std::uint32_t i = 0; i < hosts; ++i) {
      if (twin.hostUp(net::HostId{i})) live.push_back(net::HostId{i});
    }
    if (live.empty()) continue;
    // Rebuild once, then advance the clock by 1 ms so the timed query pays
    // a rebuild with caches as warm as the run's back-to-back transmits.
    (void)twin.channel().inRangeCount(live[0]);
    twin.continueUntil(at + sim::kMillisecond);
    auto t0 = Clock::now();
    (void)twin.channel().inRangeCount(live[0]);
    rebuild.push_back(static_cast<double>(nanosSince(t0)) / 1000.0);

    std::size_t acc = 0;
    query.push_back(nsPerCall(256, [&](int i) {
      acc += twin.channel().inRangeCount(
          live[static_cast<std::size_t>(i) % live.size()]);
    }));

    reachable.push_back(nsPerCall(4, [&](int i) {
      acc += static_cast<std::size_t>(twin.reachableFrom(
          live[static_cast<std::size_t>(i * 7919) % live.size()]));
    }) / 1000.0);

    // The reads a neighbor-coverage decision makes: |N_x|, then N_{x,h} of
    // a neighbor h it heard from.
    const sim::TimePoint now = twin.scheduler().now();
    const std::size_t readers = std::min<std::size_t>(live.size(), 32);
    std::vector<net::HostId> heardFrom(readers, live[0]);
    for (std::size_t i = 0; i < readers; ++i) {
      const auto ids = twin.host(live[i]).table().neighborIds(now);
      if (!ids.empty()) heardFrom[i] = ids.front();
    }
    tableRead.push_back(nsPerCall(static_cast<int>(readers), [&](int i) {
      const auto r = static_cast<std::size_t>(i);
      net::NeighborTable& table = twin.host(live[r]).table();
      acc += static_cast<std::size_t>(table.neighborCount(now));
      const auto neighbors = table.neighborsOf(heardFrom[r], now);
      acc += neighbors ? neighbors->size() : 0;
    }) / 2.0);  // two reads per call
    gProbeSink = static_cast<double>(acc);
  }
  spans.end(twinSpan);
  return {median(rebuild), median(query), median(reachable),
          median(tableRead)};
}

// ------------------------------------------------------------ layer ledger

using Metrics = std::vector<std::pair<std::string, double>>;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer ledger of a traced run: counts from the first traced pass,
/// probes, and the probe x count estimates, against the untraced run span.
Metrics layerMetrics(const Workload& workload, const PassRecord& traced,
                     double untracedRunS, double tracedRunS,
                     const std::vector<double>& buildUs,
                     const std::vector<double>& beginUs,
                     const std::vector<double>& collectUs, std::uint64_t seed,
                     Spans& spans) {
  obs::Registry total;
  std::array<std::uint64_t, trace::kEventKindCount> events{};
  std::uint64_t geomByK[5] = {};
  double positionEvals = 0.0;
  std::uint64_t broadcasts = 0;
  for (std::size_t i = 0; i < traced.outcomes.size(); ++i) {
    const Outcome& out = traced.outcomes[i];
    const experiment::ScenarioConfig& config = workload.scenarios[i].config;
    total.merge(*out.registry);
    for (std::size_t k = 0; k < events.size(); ++k) {
      events[k] += out.sink.counts[k];
    }
    if (locationFamily(config.scheme)) {
      for (int k = 1; k <= 4; ++k) geomByK[k] += out.sink.decisionsByK[k];
    }
    const auto originated =
        out.sink.count(trace::EventKind::kBroadcastOriginated);
    broadcasts += originated;
    // One position pass per grid rebuild and per reachability snapshot.
    positionEvals +=
        static_cast<double>(out.registry->counter(obs::Counter::kGridRebuilds) +
                            originated) *
        config.numHosts;
  }
  auto c = [&](obs::Counter counter) {
    return static_cast<double>(total.counter(counter));
  };
  auto ev = [&](trace::EventKind kind) {
    return static_cast<double>(events[static_cast<std::size_t>(kind)]);
  };

  const std::size_t probeSpan = spans.begin("probes", 0);
  const experiment::ScenarioConfig& probeConfig =
      workload.scenarios[workload.probeIndex].config;
  const double cancelRatio =
      ratio(c(obs::Counter::kSchedulerCancelled),
            c(obs::Counter::kSchedulerScheduled));
  const auto depth = total.gauge(obs::Gauge::kSchedulerQueueDepth);
  std::size_t span = spans.begin("probe.scheduler", probeSpan);
  const double churnNs = probeSchedulerChurn(depth, cancelRatio, seed);
  spans.end(span);
  span = spans.begin("probe.mobility", probeSpan);
  const double positionNs = probePositionNs(probeConfig, seed);
  spans.end(span);
  span = spans.begin("probe.table_write", probeSpan);
  const double tableWriteNs = probeTableWriteNs();
  spans.end(span);
  span = spans.begin("probe.geom", probeSpan);
  double uncoveredUs[5] = {};
  for (int k = 1; k <= 4; ++k) uncoveredUs[k] = probeUncoveredUs(k, seed);
  spans.end(span);
  const TwinProbes twin = probeTwin(probeConfig, spans, probeSpan);
  spans.end(probeSpan);

  const double drops = c(obs::Counter::kChannelDropCollision) +
                       c(obs::Counter::kChannelDropHalfDuplex) +
                       c(obs::Counter::kChannelDropFault) +
                       c(obs::Counter::kChannelDropHostDown);
  const double airtimeUs = c(obs::Counter::kAirtimeBroadcastUs) +
                           c(obs::Counter::kAirtimeDataUs) +
                           c(obs::Counter::kAirtimeRtsCtsUs) +
                           c(obs::Counter::kAirtimeAckUs);
  const double executed = c(obs::Counter::kSchedulerExecuted);
  double geomCalls = 0.0;
  double geomS = 0.0;
  for (int k = 1; k <= 4; ++k) {
    geomCalls += static_cast<double>(geomByK[k]);
    geomS += static_cast<double>(geomByK[k]) * uncoveredUs[k] * 1e-6;
  }
  const double gridS = c(obs::Counter::kGridRebuilds) * twin.rebuildUs * 1e-6;
  const double reachableS =
      static_cast<double>(broadcasts) * twin.reachableUs * 1e-6;
  const double simS = executed * churnNs * 1e-9;
  const double delivered = ev(trace::EventKind::kDelivered);

  return Metrics{
      {"experiment.build_us", median(buildUs)},
      {"experiment.begin_run_us", median(beginUs)},
      {"experiment.collect_us", median(collectUs)},
      {"sim.events", executed},
      {"sim.scheduled", c(obs::Counter::kSchedulerScheduled)},
      {"sim.cancel_ratio", cancelRatio},
      {"sim.queue_depth_hw", static_cast<double>(depth)},
      {"sim.ns_per_event", ratio(untracedRunS * 1e9, executed)},
      {"sim.probe.churn_ns", churnNs},
      {"sim.est_s", simS},
      {"phy.tx", c(obs::Counter::kChannelTx)},
      {"phy.delivered", c(obs::Counter::kChannelDelivered)},
      {"phy.delivery_ratio",
       ratio(c(obs::Counter::kChannelDelivered),
             c(obs::Counter::kChannelDelivered) + drops)},
      {"phy.drop.collision", c(obs::Counter::kChannelDropCollision)},
      {"phy.grid.rebuilds", c(obs::Counter::kGridRebuilds)},
      {"phy.grid.rebuilds_per_tx",
       ratio(c(obs::Counter::kGridRebuilds), c(obs::Counter::kChannelTx))},
      {"phy.grid.cells_scanned_per_query",
       ratio(c(obs::Counter::kGridCellsScanned),
             c(obs::Counter::kGridQueries))},
      {"phy.probe.rebuild_us", twin.rebuildUs},
      {"phy.probe.query_ns", twin.queryNs},
      {"phy.est_grid_s", gridS},
      {"phy.est_grid_share", ratio(gridS, untracedRunS)},
      {"mobility.probe.position_ns", positionNs},
      {"mobility.est_evals", positionEvals},
      {"mac.backoff_draws_per_tx",
       ratio(c(obs::Counter::kMacBackoffDraws), c(obs::Counter::kChannelTx))},
      {"mac.airtime_s", airtimeUs * 1e-6},
      {"net.hello.tx", c(obs::Counter::kHelloTx)},
      {"net.hello.rx", c(obs::Counter::kHelloRx)},
      {"net.hello.rx_per_broadcast",
       ratio(c(obs::Counter::kHelloRx), static_cast<double>(broadcasts))},
      {"net.neighbor.joins", c(obs::Counter::kNeighborJoins)},
      {"net.neighbor.leaves", c(obs::Counter::kNeighborLeaves)},
      {"net.neighbor.table_size_hw",
       static_cast<double>(total.gauge(obs::Gauge::kNeighborTableSize))},
      {"net.probe.table_read_ns", twin.tableReadNs},
      {"net.probe.table_write_ns", tableWriteNs},
      {"core.decisions", delivered + ev(trace::EventKind::kDuplicateHeard)},
      {"core.inhibited", ev(trace::EventKind::kInhibited)},
      {"core.inhibit_ratio",
       ratio(ev(trace::EventKind::kInhibited), delivered)},
      {"geom.probe.uncovered_fraction_us.k1", uncoveredUs[1]},
      {"geom.probe.uncovered_fraction_us.k2", uncoveredUs[2]},
      {"geom.probe.uncovered_fraction_us.k3", uncoveredUs[3]},
      {"geom.probe.uncovered_fraction_us.k4", uncoveredUs[4]},
      {"geom.est_calls", geomCalls},
      {"geom.est_s", geomS},
      {"geom.est_share", ratio(geomS, untracedRunS)},
      {"stats.probe.reachable_us", twin.reachableUs},
      {"stats.est_reachable_s", reachableS},
      {"traffic.offered", c(obs::Counter::kTrafficOffered)},
      {"traffic.injected", c(obs::Counter::kTrafficInjected)},
      {"traffic.blocked_ratio",
       ratio(c(obs::Counter::kTrafficBlockedHostDown),
             c(obs::Counter::kTrafficOffered))},
      {"fault.drop_loss", c(obs::Counter::kChannelDropFault)},
      {"fault.drop_host_down", c(obs::Counter::kChannelDropHostDown)},
      {"fault.churn_events",
       ev(trace::EventKind::kHostDown) + ev(trace::EventKind::kHostUp)},
      {"trace.overhead_ratio", ratio(tracedRunS, untracedRunS)},
      {"layers.explained_ratio",
       ratio(gridS + geomS + reachableS + simS, untracedRunS)},
  };
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spansPath;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_sim: " << why
            << "\nusage: perfbench_sim --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0))
        usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spansPath = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  Workload workload;
  if (!makeWorkload(args.workload, args.seed, workload)) {
    usage("unknown workload " + args.workload);
  }

  const auto budget = std::chrono::duration<double>(args.seconds);
  const auto start = Clock::now();
  Spans spans;
  std::vector<PassTotals> untraced;
  std::vector<double> tracedRun;
  std::vector<double> buildUs, beginUs, collectUs;
  PassRecord firstTraced;
  int index = 0;
  do {
    PassRecord pass = runPass(workload, index++, nullptr);
    untraced.push_back(pass.totals);
    if (args.trace) {
      PassRecord tracedPass = runPass(workload, index++, &spans);
      tracedRun.push_back(static_cast<double>(tracedPass.totals.runNs) * 1e-9);
      double build = 0.0, begin = 0.0, collect = 0.0;
      for (const Outcome& out : tracedPass.outcomes) {
        build += static_cast<double>(out.buildNs) / 1000.0;
        begin += static_cast<double>(out.beginNs) / 1000.0;
        collect += static_cast<double>(out.collectNs) / 1000.0;
      }
      buildUs.push_back(build);
      beginUs.push_back(begin);
      collectUs.push_back(collect);
      if (firstTraced.outcomes.empty()) firstTraced = std::move(tracedPass);
    }
  } while (Clock::now() - start < budget);

  if (args.trace) {
    std::vector<double> untracedRun;
    for (const PassTotals& t : untraced) {
      untracedRun.push_back(static_cast<double>(t.runNs) * 1e-9);
    }
    const Metrics metrics =
        layerMetrics(workload, firstTraced, median(untracedRun),
                     median(tracedRun), buildUs, beginUs, collectUs,
                     args.seed, spans);
    JsonLine values;
    for (const auto& [name, value] : metrics) values.add(name, value);
    std::cout << JsonLine()
                     .add("kind", "layers")
                     .raw("metrics", values.str())
                     .str()
              << "\n";
    if (!args.spansPath.empty()) spans.write(args.spansPath);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::cout << JsonLine()
                   .add("kind", "end")
                   .add("peak_rss_kb",
                        static_cast<std::int64_t>(usage.ru_maxrss))
                   .add("compiler", kCompiler)
                   .add("build_type", PERFBENCH_BUILD_TYPE)
                   .add("nproc", static_cast<int>(
                                     std::thread::hardware_concurrency()))
                   .add("scenarios", static_cast<std::uint64_t>(
                                         workload.scenarios.size()))
                   .str()
            << std::endl;
  return 0;
}
