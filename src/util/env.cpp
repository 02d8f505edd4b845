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

std::int64_t parseInt(const char* name, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') reject(name, text, "is not an integer");
  if (errno == ERANGE) reject(name, text, "is out of range");
  return static_cast<std::int64_t>(value);
}

int parseInt(const char* name, const char* text, int lo, int hi) {
  const std::int64_t value = parseInt(name, text);
  if (value < lo || value > hi) {
    reject(name, text,
           "is outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
               "]");
  }
  return static_cast<int>(value);
}

double parseDouble(const char* name, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') reject(name, text, "is not a number");
  if (!std::isfinite(value)) reject(name, text, "is not finite");
  return value;
}

std::int64_t envInt(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr || *raw == '\0' ? fallback : parseInt(name, raw);
}

int envInt(const char* name, int fallback, int lo, int hi) {
  const char* raw = std::getenv(name);
  return raw == nullptr || *raw == '\0' ? fallback
                                         : parseInt(name, raw, lo, hi);
}

double envDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr || *raw == '\0' ? fallback : parseDouble(name, raw);
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
