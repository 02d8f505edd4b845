#include "experiment/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/env.hpp"

namespace manet::experiment {

int defaultThreadCount() {
  const std::int64_t fromEnv = util::envInt("MANET_THREADS", 0);
  if (fromEnv >= 1) {
    return static_cast<int>(std::min<std::int64_t>(fromEnv, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int threads) {
  MANET_EXPECTS(fn != nullptr);
  if (threads <= 0) threads = defaultThreadCount();
  if (threads == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex errorMutex;
  std::exception_ptr firstError;
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
      }
    }
  };
  const std::size_t count =
      std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  std::vector<std::thread> workers;
  workers.reserve(count);
  try {
    while (workers.size() < count) workers.emplace_back(work);
  } catch (const std::system_error&) {
    work();  // the OS refused a thread: this one claims what is left
  }
  for (std::thread& worker : workers) worker.join();
  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace manet::experiment
