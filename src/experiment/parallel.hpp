// Parallel execution of embarrassingly-parallel experiment jobs. Each job is
// an independent simulation (own World/Scheduler/RNG), so the only shared
// state is the next-index counter and the per-index result slots the
// callers own.
//
// Thread count resolution (DESIGN.md §7): an explicit `threads` argument
// wins; 0 means "auto" = MANET_THREADS from the environment, falling back to
// std::thread::hardware_concurrency(). One thread (or one job) short-circuits
// to a plain loop on the calling thread — no threads, no synchronization.
#pragma once

#include <cstddef>
#include <functional>

namespace manet::experiment {

/// Threads to use when a caller passes `threads = 0`: the MANET_THREADS
/// environment variable if set and >= 1, else hardware concurrency, else 1.
int defaultThreadCount();

/// Runs fn(0) .. fn(n-1) on min(threads, n) std::threads (threads 0 = auto)
/// that claim indices from a shared counter. Callers write results into
/// pre-sized slots indexed by the argument, so completion order never
/// affects output order. Blocks until all calls finished; then rethrows the
/// first exception any call raised (the other indices still ran).
void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int threads = 0);

}  // namespace manet::experiment
