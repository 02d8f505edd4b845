// google-benchmark timings of the channel's spatial-grid range resolution
// (DESIGN.md §7): receiver lists, oracle neighbor counts, reachability and
// full transmit cycles. Not a paper figure — the regression guard for the
// range oracle, run at tiny scale by the `perf_smoke` ctest label.
//
// The workload mirrors what one simulation epoch pays: mobile hosts whose
// positions come through the same mobility-model callbacks the real World
// wires up, time advancing between iterations (so the grid is rebuilt every
// epoch, never amortized across iterations for free), and neighbor
// resolution for every host — the per-receiver work transmit() does plus the
// oracle neighborhood queries the adaptive schemes issue at frame-end
// timestamps.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "experiment/runner.hpp"
#include "mobility/map.hpp"
#include "mobility/random_roam.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

using namespace manet;

namespace {

class NullListener : public phy::Channel::Listener {
 public:
  void onFrameReceived(const phy::Frame&, phy::DropReason) override {}
};

/// A channel populated like a World: one RandomRoam model per host, position
/// callbacks evaluated at the scheduler's current time.
struct MobileChannel {
  MobileChannel(int hosts, int mapUnits) {
    const mobility::MapSpec map = mobility::MapSpec::square(mapUnits);
    sim::Rng master(7);
    phy::PhyParams params;
    channel = std::make_unique<phy::Channel>(scheduler, params);
    for (int i = 0; i < hosts; ++i) {
      sim::Rng rng = master.fork(0xA000 + static_cast<std::uint64_t>(i));
      mobility::RoamParams roam;
      roam.maxSpeedMps = mobility::kmhToMps(10.0 * mapUnits);
      models.push_back(std::make_unique<mobility::RandomRoam>(
          map, map.uniformPoint(rng), roam, rng.fork(0xA0)));
      mobility::MobilityModel* model = models.back().get();
      channel->attach(net::HostId{static_cast<std::uint32_t>(i)}, &listener,
                      [this, model] { return model->positionAt(scheduler.now()); });
    }
  }

  /// Moves simulation time forward so the next query sees a fresh epoch.
  void advance(sim::Duration dt) {
    scheduler.schedule(scheduler.now() + dt, [] {});
    scheduler.runAll();
  }

  sim::Scheduler scheduler;
  NullListener listener;
  std::unique_ptr<phy::Channel> channel;
  std::vector<std::unique_ptr<mobility::MobilityModel>> models;
};

/// Neighbor resolution for every host at one epoch: the inner loop of
/// transmit() and of the oracle neighborhood queries.
void BM_NeighborResolution(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int mapUnits = static_cast<int>(state.range(1));
  MobileChannel mc(hosts, mapUnits);
  std::vector<net::HostId> receivers;  // reused like transmit()'s scratch
  for (auto _ : state) {
    // 1 ms epochs: the spacing of back-to-back frames during a storm, so
    // per-epoch costs (mobility integration, grid rebuild) weigh as they
    // do in a real run.
    mc.advance(1 * sim::kMillisecond);
    std::size_t neighbors = 0;
    for (int i = 0; i < hosts; ++i) {
      mc.channel->nodesInRange(net::HostId{static_cast<std::uint32_t>(i)}, receivers);
      neighbors += receivers.size();
    }
    benchmark::DoNotOptimize(neighbors);
  }
  state.SetItemsProcessed(state.iterations() * hosts);
}
// 100 hosts on the 1x1 map (everyone in range of everyone), plus the
// mid-density 5x5 map where cell culling also kicks in.
BENCHMARK(BM_NeighborResolution)->Args({100, 1})->Args({100, 5})
    ->Args({400, 5});

/// The oracle neighbor-count query `n` that the adaptive schemes (AC/AL/NC
/// tuning) issue on every rebroadcast decision — many per frame-end epoch.
void BM_OracleNeighborCount(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int mapUnits = static_cast<int>(state.range(1));
  MobileChannel mc(hosts, mapUnits);
  for (auto _ : state) {
    mc.advance(1 * sim::kMillisecond);
    std::size_t total = 0;
    for (int i = 0; i < hosts; ++i) {
      total += mc.channel->inRangeCount(net::HostId{static_cast<std::uint32_t>(i)});
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * hosts);
}
BENCHMARK(BM_OracleNeighborCount)->Args({100, 1})->Args({100, 5});

/// The RE denominator e: one breadth-first reachability count per broadcast,
/// from a rotating source, at a fresh epoch each time.
void BM_ReachableCount(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int mapUnits = static_cast<int>(state.range(1));
  MobileChannel mc(hosts, mapUnits);
  int src = 0;
  for (auto _ : state) {
    mc.advance(1 * sim::kMillisecond);
    benchmark::DoNotOptimize(mc.channel->reachableCount(
        net::HostId{static_cast<std::uint32_t>(src)}));
    src = (src + 1) % hosts;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReachableCount)->Args({100, 5})->Args({576, 6});

/// Floor probe: one epoch advance + a single query, which pays mobility
/// integration + the full rebuild; the difference to the 100-query
/// benchmarks above is the pure per-query cost.
void BM_EpochFloor(benchmark::State& state) {
  MobileChannel mc(100, 1);
  for (auto _ : state) {
    mc.advance(1 * sim::kMillisecond);
    benchmark::DoNotOptimize(mc.channel->inRangeCount(net::HostId{0}));
  }
}
BENCHMARK(BM_EpochFloor);

/// Full transmit + event-drain cycles (receiver resolution, busy/idle
/// bookkeeping, reception completion) from a rotating source.
void BM_TransmitDrain(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int mapUnits = static_cast<int>(state.range(1));
  MobileChannel mc(hosts, mapUnits);
  int src = 0;
  for (auto _ : state) {
    mc.advance(1 * sim::kMillisecond);
    const net::HostId id{static_cast<std::uint32_t>(src)};
    mc.channel->transmit(id, net::makeDataPacket({id, net::BroadcastSeq{0}}, id), 280);
    mc.scheduler.runAll();
    src = (src + 1) % hosts;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransmitDrain)->Args({100, 1})->Args({100, 5});

/// End-to-end scenario throughput; the per-result frames-per-wall-second
/// rate is what BENCH-style outputs report.
void BM_ScenarioThroughput(benchmark::State& state) {
  double framesPerSec = 0.0;
  for (auto _ : state) {
    experiment::ScenarioConfig config;
    config.mapUnits = static_cast<int>(state.range(0));
    config.numHosts = 100;
    config.numBroadcasts = 5;
    config.scheme = experiment::SchemeSpec::adaptiveCounter();
    config.seed = 3;
    const experiment::RunResult r = experiment::runScenario(config);
    framesPerSec = r.framesPerWallSecond();
    benchmark::DoNotOptimize(r);
  }
  state.counters["frames/s"] = framesPerSec;
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_ScenarioThroughput)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
