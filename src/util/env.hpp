// Helpers for reading scaling knobs from the environment so benchmarks can be
// run quickly by default and at paper scale on demand, and the strict number
// parsers behind them, which command-line flags share.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace manet::util {

/// Parses `text` as a whole base-10 integer. Throws std::invalid_argument
/// naming `name` and the text when it is not one (trailing characters
/// included) or is out of range.
std::int64_t parseInt(const char* name, const char* text);

/// parseInt narrowed to [lo, hi]: a value outside is rejected by name
/// instead of wrapping.
int parseInt(const char* name, const char* text, int lo, int hi);

/// Parses `text` as a whole finite number. Throws std::invalid_argument
/// naming `name` and the text otherwise.
double parseDouble(const char* name, const char* text);

/// Returns the integer value of environment variable `name`, or `fallback`
/// when unset or empty. Throws std::invalid_argument naming the variable
/// and its value when the text is not a whole base-10 integer (trailing
/// characters included) or is out of range.
std::int64_t envInt(const char* name, std::int64_t fallback);

/// envInt narrowed to an `int` knob: additionally throws
/// std::invalid_argument naming the variable when a set value lies outside
/// [lo, hi], so a value past `int` is rejected instead of wrapping.
int envInt(const char* name, int fallback, int lo, int hi);

/// Returns the double value of environment variable `name`, or `fallback`
/// when unset or empty. Throws std::invalid_argument naming the variable
/// and its value when the text is not a whole number or is not finite.
double envDouble(const char* name, double fallback);

/// Returns the on/off value of environment variable `name`: "1" is true,
/// "0" false, unset or empty `fallback`. Throws std::invalid_argument
/// naming the variable and its value on any other text.
bool envBool(const char* name, bool fallback);

/// Returns the string value of environment variable `name` if set.
std::optional<std::string> envString(const char* name);

}  // namespace manet::util
