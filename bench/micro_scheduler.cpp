// Scheduler memory-layout microbench (DESIGN.md §11): schedule/cancel/fire
// churn at MAC-realistic cancel rates, packet-pool churn, and a broadcast
// storm on a bare radio channel. Not a paper figure — a regression guard for
// the engine's allocation behaviour.
//
// Every case reports `allocs_per_item`, measured by a global operator
// new/delete override: the pooled scheduler and packet arena should hold it
// near zero in steady state, so a capture outgrowing InlineFn's buffer or a
// pool bypass shows up as a counter jump, not just a throughput dip. The
// channel storm asserts exactly zero per reception: it marks itself failed
// and the process exits non-zero otherwise.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "geom/vec2.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace {

std::atomic<std::uint64_t> gHeapAllocs{0};
/// Set by a case whose allocation assertion failed; main() exits non-zero.
bool gAllocAssertFailed = false;

}  // namespace

// Count every heap allocation in the process. The bench runs single-threaded
// and the counter is relaxed: we only ever read it quiesced, between phases.
// noinline: keeps GCC from pairing the builtin operator-new semantics with
// the free() inside delete at inlined call sites (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t bytes) {
  return ::operator new(bytes);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace manet;

namespace {

/// Steady-state event churn: a warm scheduler fires batches of MAC-like
/// timers, a fraction of which are cancelled before they fire (the range
/// argument, percent). The capture mimics the MAC's largest hot-path
/// callback — an owner pointer, a refcounted packet, and a size — so this
/// also guards the InlineFn capacity audit. The fig13 run measures ~8%
/// cancels (sim.scheduler.cancelled / scheduled); 50% models
/// suppression-heavy schemes where most rebroadcasts are inhibited.
void BM_SchedulerChurn(benchmark::State& state) {
  const int cancelPct = static_cast<int>(state.range(0));
  constexpr int kBatch = 256;
  constexpr sim::Duration kMaxDelay{977};

  sim::Scheduler s;
  sim::Rng rng(42);
  auto packet = std::make_shared<net::Packet>();  // stand-in captured payload
  std::vector<sim::Scheduler::Handle> handles(kBatch);
  long sink = 0;

  // Warm the node pool so the (bounded) slab carving happens off-clock.
  for (int i = 0; i < kBatch; ++i) {
    handles[static_cast<std::size_t>(i)] =
        s.scheduleAfter(sim::kMicrosecond + rng.uniformDuration(sim::Duration{}, kMaxDelay),
                        [&sink, packet, i] { sink += i; });
  }
  s.runUntil(s.now() + 2 * kMaxDelay);

  const std::uint64_t allocsBefore = gHeapAllocs.load();
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      handles[static_cast<std::size_t>(i)] =
          s.scheduleAfter(sim::kMicrosecond + rng.uniformDuration(sim::Duration{}, kMaxDelay),
                          [&sink, packet, i] { sink += i; });
    }
    for (int i = 0; i < kBatch; ++i) {
      if (rng.uniformInt(0, 99) < cancelPct) {
        handles[static_cast<std::size_t>(i)].cancel();
      }
    }
    s.runUntil(s.now() + 2 * kMaxDelay);
  }
  benchmark::DoNotOptimize(sink);

  const auto items = static_cast<double>(state.iterations()) * kBatch;
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(gHeapAllocs.load() - allocsBefore) / items);
}
BENCHMARK(BM_SchedulerChurn)->Arg(8)->Arg(50);

/// Packet churn in the control-frame pattern: allocate, stamp, drop. With
/// the arena (range argument 1) steady-state traffic recycles one block;
/// without it (0) every packet is a fresh make_shared.
void BM_PacketChurn(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pooled ? &pool : nullptr);

  // Warm the pool: the first block is the one steady state recycles.
  net::makePacket().reset();

  const std::uint64_t allocsBefore = gHeapAllocs.load();
  for (auto _ : state) {
    auto p = net::makePacket();
    p->type = net::PacketType::kAck;
    p->sender = net::HostId{1};
    p->dest = net::HostId{2};
    benchmark::DoNotOptimize(p);
  }
  const auto items = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(gHeapAllocs.load() - allocsBefore) / items);
}
BENCHMARK(BM_PacketChurn)->Arg(0)->Arg(1);

/// Worst-case heap discipline: every event cancelled, none fire. Guards the
/// eager-removal path (heapRemove from arbitrary positions) staying
/// allocation-free and O(log n) rather than degrading to lazy tombstones.
void BM_SchedulerCancelAll(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::Scheduler s;
  sim::Rng rng(7);
  std::vector<sim::Scheduler::Handle> handles(
      static_cast<std::size_t>(batch));
  long sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      handles[static_cast<std::size_t>(i)] =
          s.scheduleAfter(sim::kMicrosecond + rng.uniformDuration(sim::Duration{}, sim::Duration{997}),
                          [&sink] { ++sink; });
    }
    // Cancel in a shuffled order so removals hit interior heap positions.
    for (int i = batch - 1; i > 0; --i) {
      std::swap(handles[static_cast<std::size_t>(i)],
                handles[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::uint32_t>(i)))]);
    }
    for (auto& h : handles) h.cancel();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SchedulerCancelAll)->Arg(4096);

/// Broadcast storm on a bare phy::Channel: each iteration, kSenders hosts
/// start a frame at the same instant and every other host receives all of
/// them (overlapping, so they collide), then the frames drain. Reception
/// cohorts (DESIGN.md §11.6) keep one pooled record per transmission and two
/// events per frame, so after a warm-up storm the reception path must
/// allocate nothing at all: the case fails on any allocation.
void BM_ChannelStorm(benchmark::State& state) {
  constexpr std::uint32_t kHosts = 64;
  constexpr std::uint32_t kSenders = 4;
  struct Sink : phy::Channel::Listener {
    void onFrameReceived(const phy::Frame&, phy::DropReason) override {
      ++receptions;
    }
    std::uint64_t receptions = 0;
  };

  sim::Scheduler s;
  phy::Channel channel(s, phy::PhyParams{});
  std::vector<Sink> sinks(kHosts);
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    const geom::Vec2 pos{7.0 * i, 3.0 * (i % 5)};  // all within one radius
    channel.attach(net::HostId{i}, &sinks[i], [pos] { return pos; });
  }
  const net::PacketPtr packet = net::makeDataPacket(
      net::BroadcastId{net::HostId{0}, net::BroadcastSeq{0}}, net::HostId{0});
  std::uint32_t round = 0;
  auto storm = [&] {
    for (std::uint32_t k = 0; k < kSenders; ++k) {
      channel.transmit(net::HostId{(round * kSenders + k) % kHosts}, packet,
                       280);
    }
    s.runAll();
    ++round;
  };
  // One full rotation of senders warms every per-node reception list.
  for (std::uint32_t i = 0; i < kHosts / kSenders; ++i) storm();

  std::uint64_t totalBefore = 0;
  for (const Sink& sink : sinks) totalBefore += sink.receptions;
  const std::uint64_t allocsBefore = gHeapAllocs.load();
  for (auto _ : state) storm();
  const std::uint64_t allocs = gHeapAllocs.load() - allocsBefore;
  std::uint64_t total = 0;
  for (const Sink& sink : sinks) total += sink.receptions;

  const auto receptions = static_cast<double>(total - totalBefore);
  state.SetItemsProcessed(static_cast<std::int64_t>(total - totalBefore));
  state.counters["allocs_per_item"] =
      benchmark::Counter(static_cast<double>(allocs) / receptions);
  if (allocs != 0) {
    gAllocAssertFailed = true;
    state.SkipWithError("reception path allocated after warm-up");
  }
}
BENCHMARK(BM_ChannelStorm);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gAllocAssertFailed ? 1 : 0;
}
