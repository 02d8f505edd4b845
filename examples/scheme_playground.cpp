// Scheme playground: a small CLI over the full public API. Pick any scheme,
// any density, any mobility, any neighbor-information source, and get the
// paper's three metrics — useful both for exploring the design space and as
// a template for embedding the library in your own experiments.
//
//   ./build/examples/scheme_playground --scheme=ac --map=7 --speed=50
//       --broadcasts=100 --hosts=100 --seed=3 --hello --dhi
//
// Schemes: flooding | nc | ac | al | cluster | cluster=<C> | p=<P> | c=<C> |
//          d=<D> | a=<A>   (experiment::parseScheme, shared with
//          MANET_CKPT_SCHEME)
//
// Bad input (an unknown scheme, a number with trailing text, a value
// outside its field's domain) names the flag or field and exits 1.
#include <climits>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>

#include "experiment/config_schema.hpp"
#include "experiment/runner.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scheme=S] [--map=N] [--speed=KMH] [--broadcasts=B]\n"
               "          [--hosts=H] [--seed=SEED] [--hello] [--dhi] "
               "[--no-collisions]\n"
               "schemes: "
            << experiment::kSchemeGrammar << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  experiment::ScenarioConfig config;
  config.mapUnits = 5;
  config.numBroadcasts = 50;
  config.seed = 1;
  config.scheme = experiment::SchemeSpec::adaptiveCounter();
  bool hello = false;
  bool dhi = false;
  experiment::ScenarioConfig resolved;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string flag = arg.substr(0, eq);
      // A flag's value; a number must be the whole of it.
      const char* value = eq == std::string::npos ? "" : argv[i] + eq + 1;
      const auto whole = [&] {
        return util::parseInt(flag.c_str(), value, INT_MIN, INT_MAX);
      };
      if (flag == "--scheme") {
        config.scheme = experiment::parseScheme(value);
      } else if (flag == "--map") {
        config.mapUnits = whole();
      } else if (flag == "--speed") {
        config.maxSpeedKmh = util::parseDouble(flag.c_str(), value);
      } else if (flag == "--broadcasts") {
        config.numBroadcasts = whole();
      } else if (flag == "--hosts") {
        config.numHosts = whole();
      } else if (flag == "--seed") {
        config.seed =
            static_cast<std::uint64_t>(util::parseInt(flag.c_str(), value));
      } else if (arg == "--hello") {
        hello = true;
      } else if (arg == "--dhi") {
        hello = true;
        dhi = true;
      } else if (arg == "--no-collisions") {
        config.collisions = false;
      } else {
        usage(argv[0]);
        return arg == "--help" ? 0 : 1;
      }
    }
    if (hello || config.scheme.needsTwoHopInfo()) {
      config.neighborSource = experiment::NeighborSource::kHello;
      config.hello.enabled = true;
      config.hello.dynamic = dhi;
    }
    // Everything the run needs, checked before any subsystem sees it.
    resolved = config.resolved();
    experiment::validate(resolved);
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }

  std::cout << "scheme=" << config.scheme.name() << " map=" << config.mapUnits
            << "x" << config.mapUnits << " hosts=" << resolved.numHosts
            << " speed=" << resolved.maxSpeedKmh << "km/h broadcasts="
            << config.numBroadcasts << " neighborInfo="
            << (resolved.neighborSource == experiment::NeighborSource::kHello
                    ? (dhi ? "hello+dhi" : "hello")
                    : "oracle")
            << " collisions=" << (config.collisions ? "on" : "off") << "\n\n";

  const auto r = experiment::runScenario(config);
  util::Table table({"metric", "value"});
  table.addRow({"RE (reachability)", util::fmt(r.re(), 4)});
  table.addRow({"SRB (saved rebroadcasts)", util::fmt(r.srb(), 4)});
  table.addRow({"avg latency (s)", util::fmt(r.latency(), 4)});
  table.addRow({"latency p50 / p95 (s)",
                util::fmt(r.summary.latencyP50Seconds, 4) + " / " +
                    util::fmt(r.summary.latencyP95Seconds, 4)});
  table.addRow({"mean delivery hops", util::fmt(r.summary.meanHops, 2)});
  table.addRow({"data frames sent",
                std::to_string(r.summary.dataFramesSent)});
  table.addRow({"hello frames sent", std::to_string(r.summary.hellosSent)});
  table.addRow({"frames corrupted (collisions)",
                std::to_string(r.framesCorrupted)});
  table.addRow({"simulated seconds", util::fmt(r.simulatedSeconds, 1)});
  table.print(std::cout);
  return 0;
}
