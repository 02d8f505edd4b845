#include "ckpt/config_io.hpp"

#include <climits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "ckpt/io.hpp"
#include "experiment/config_schema.hpp"

namespace manet::ckpt {
namespace {

using experiment::Domain;
using experiment::ScenarioConfig;

// One io() per field type serves both directions: `Out` writes each
// primitive, `In` reads it back into the same reference. Decoding checks
// only what the representation requires (counts that fit the payload, ints
// that fit an int, thresholds their constructors accept); the field domains
// are validate()'s.

struct Out {
  Writer& w;
  void u8(std::uint8_t& v) { w.u8(v); }
  void u32(std::uint32_t& v) { w.u32(v); }
  void u64(std::uint64_t& v) { w.u64(v); }
  void i64(std::int64_t& v) { w.i64(v); }
  void f64(double& v) { w.f64(v); }
  void str(std::string& v) { w.str(v); }
};

struct In {
  Reader& r;
  void u8(std::uint8_t& v) { v = r.u8(); }
  void u32(std::uint32_t& v) { v = r.u32(); }
  void u64(std::uint64_t& v) { v = r.u64(); }
  void i64(std::int64_t& v) { v = r.i64(); }
  void f64(double& v) { v = r.f64(); }
  void str(std::string& v) { v = r.str(); }
};

[[noreturn]] void fail(const char* field, const std::string& why) {
  throw Error(std::string("config ") + field + " " + why);
}

template <class IO, class T>
void io(IO& s, T& v, const char* field) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    auto raw = static_cast<std::uint8_t>(v);
    s.u8(raw);
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, int>) {
    std::int64_t raw = v;
    s.i64(raw);
    if (raw < INT_MIN || raw > INT_MAX) {
      fail(field, std::to_string(raw) + " does not fit an int");
    }
    v = static_cast<int>(raw);
  } else if constexpr (std::is_same_v<T, sim::Duration> ||
                       std::is_same_v<T, sim::TimePoint>) {
    std::int64_t ticks = v.ticks();
    s.i64(ticks);
    v = T{ticks};
  } else if constexpr (std::is_same_v<T, net::HostId>) {
    std::uint32_t raw = v.value();
    s.u32(raw);
    v = T{raw};
  } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 8) {
    std::uint64_t raw = v;
    s.u64(raw);
    v = raw;
  } else if constexpr (std::is_same_v<T, double>) {
    s.f64(v);
  } else {
    static_assert(std::is_same_v<T, std::string>, "no CFG0 encoding");
    s.str(v);
  }
}

template <class IO>
void io(IO& s, geom::Vec2& p, const char* field) {
  io(s, p.x, field);
  io(s, p.y, field);
}

template <class IO>
void io(IO& s, traffic::Request& q, const char* field) {
  io(s, q.at, field);
  io(s, q.source, field);
  s.u32(q.seq);
}

template <class IO>
void io(IO& s, fault::ChurnEvent& e, const char* field) {
  io(s, e.node, field);
  io(s, e.at, field);
  io(s, e.up, field);
}

template <class IO, class E>
void io(IO& s, std::vector<E>& items, const char* field) {
  std::uint64_t n = items.size();
  s.u64(n);
  if constexpr (std::is_same_v<IO, In>) {
    if (n > s.r.remaining()) {
      fail(field, "count " + std::to_string(n) + " is implausible");
    }
    items.resize(static_cast<std::size_t>(n));
  }
  for (E& item : items) io(s, item, field);
}

template <class IO>
void io(IO& s, core::CounterThreshold& fn, const char* field) {
  std::vector<int> values = fn.values();
  io(s, values, field);
  if (!core::CounterThreshold::validValues(values)) {
    fail(field, "values must be a non-empty list of counts >= 1");
  }
  fn = core::CounterThreshold(std::move(values));
}

template <class IO>
void io(IO& s, core::AreaThreshold& fn, const char* field) {
  double low = fn.low();
  double high = fn.high();
  int n1 = fn.n1();
  int n2 = fn.n2();
  io(s, low, field);
  io(s, high, field);
  io(s, n1, field);
  io(s, n2, field);
  if (!core::AreaThreshold::valid(low, high, n1, n2)) {
    fail(field, "needs 0 <= low <= high and n1 <= n2");
  }
  fn = core::AreaThreshold(low, high, n1, n2);
}

template <class IO>
void ioFields(IO& s, ScenarioConfig& c) {
  auto each = [&s](const char* name, auto& field, const Domain&) {
    io(s, field, name);
  };
  experiment::visitFields(c, each);
}

}  // namespace

std::vector<std::uint8_t> encodeConfig(const ScenarioConfig& c) {
  Writer w;
  Out out{w};
  ScenarioConfig copy = c;  // io() takes every field by reference
  ioFields(out, copy);
  return w.take();
}

ScenarioConfig decodeConfig(const std::vector<std::uint8_t>& b) {
  Reader r(b);
  In in{r};
  ScenarioConfig c;
  ioFields(in, c);
  if (!r.atEnd()) {
    throw Error("trailing bytes after config payload");
  }
  try {
    experiment::validate(c);
  } catch (const std::invalid_argument& e) {
    throw Error(e.what());
  }
  return c;
}

}  // namespace manet::ckpt
