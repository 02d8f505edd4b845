#include "util/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace manet::util {

namespace {

[[noreturn]] void reject(const char* name, const char* raw,
                         const std::string& why) {
  throw std::invalid_argument(std::string(name) + "=\"" + raw + "\" " + why);
}

}  // namespace

std::int64_t envInt(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') reject(name, raw, "is not an integer");
  if (errno == ERANGE) reject(name, raw, "is out of range");
  return static_cast<std::int64_t>(value);
}

int envInt(const char* name, int fallback, int lo, int hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::int64_t value = envInt(name, fallback);
  if (value < lo || value > hi) {
    reject(name, raw,
           "is outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
               "]");
  }
  return static_cast<int>(value);
}

double envDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0') reject(name, raw, "is not a number");
  if (!std::isfinite(value)) reject(name, raw, "is not finite");
  return value;
}

bool envBool(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  if (std::strcmp(raw, "0") == 0) return false;
  if (std::strcmp(raw, "1") == 0) return true;
  reject(name, raw, "is not 0 or 1");
}

std::optional<std::string> envString(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return std::string(raw);
}

}  // namespace manet::util
