#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace manet::util {
namespace {

// ------------------------------------------------------------------ table

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.addRow({"a", "1"});
  t.addRow({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  // Header and both rows present; separator line present.
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  // Each line ends right after the last cell (no trailing padding).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) {
      EXPECT_NE(line.back(), ' ');
    }
  }
}

TEST(Table, CsvOutput) {
  Table t({"a", "b", "c"});
  t.addRow({"1", "2", "3"});
  std::ostringstream os;
  t.printCsv(os);
  EXPECT_EQ(os.str(), "a,b,c\n1,2,3\n");
}

TEST(Table, RowCount) {
  Table t({"x"});
  EXPECT_EQ(t.rowCount(), 0u);
  t.addRow({"1"});
  t.addRow({"2"});
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableDeath, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.addRow({"only-one"}), "Precondition");
}

TEST(TableDeath, RejectsEmptyHeader) {
  EXPECT_DEATH(Table({}), "Precondition");
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Format, Percent) {
  EXPECT_EQ(fmtPercent(0.5), "50.0%");
  EXPECT_EQ(fmtPercent(1.0, 0), "100%");
  EXPECT_EQ(fmtPercent(0.123, 1), "12.3%");
}

// -------------------------------------------------------------------- env

TEST(Env, IntFallbacks) {
  unsetenv("MANET_TEST_ENV_X");
  EXPECT_EQ(envInt("MANET_TEST_ENV_X", 42), 42);
  setenv("MANET_TEST_ENV_X", "17", 1);
  EXPECT_EQ(envInt("MANET_TEST_ENV_X", 42), 17);
  setenv("MANET_TEST_ENV_X", "", 1);
  EXPECT_EQ(envInt("MANET_TEST_ENV_X", 42), 42);
  unsetenv("MANET_TEST_ENV_X");
}

TEST(Env, NegativeInt) {
  setenv("MANET_TEST_ENV_N", "-5", 1);
  EXPECT_EQ(envInt("MANET_TEST_ENV_N", 0), -5);
  unsetenv("MANET_TEST_ENV_N");
}

TEST(Env, DoubleParsing) {
  setenv("MANET_TEST_ENV_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(envDouble("MANET_TEST_ENV_D", 1.0), 2.5);
  unsetenv("MANET_TEST_ENV_D");
  EXPECT_DOUBLE_EQ(envDouble("MANET_TEST_ENV_D", 1.0), 1.0);
}

/// Sets `name` to `value`, runs `fn`, and expects std::invalid_argument
/// whose message names both the variable and the offending text.
template <typename Fn>
void expectRejected(const char* name, const char* value, Fn fn) {
  setenv(name, value, 1);
  try {
    fn();
    ADD_FAILURE() << name << "=" << value << " was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(name), std::string::npos) << what;
    EXPECT_NE(what.find(value), std::string::npos) << what;
  }
  unsetenv(name);
}

TEST(Env, RejectsMalformedIntegersNamingTheVariable) {
  const auto read = [] { envInt("MANET_TEST_ENV_I", 42); };
  expectRejected("MANET_TEST_ENV_I", "3x", read);
  expectRejected("MANET_TEST_ENV_I", "7 ", read);
  expectRejected("MANET_TEST_ENV_I", "2.5", read);
  expectRejected("MANET_TEST_ENV_I", "not-a-number", read);
  expectRejected("MANET_TEST_ENV_I", "99999999999999999999", read);
  expectRejected("MANET_TEST_ENV_I", "-99999999999999999999", read);
}

TEST(Env, RangedIntRejectsValuesOutsideIntNamingTheVariable) {
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  const auto read = [] { envInt("MANET_TEST_ENV_R", 42, kMin, kMax); };
  // 2^32 + 2 used to wrap to 2 through a static_cast<int>.
  expectRejected("MANET_TEST_ENV_R", "4294967298", read);
  expectRejected("MANET_TEST_ENV_R", "2147483648", read);
  expectRejected("MANET_TEST_ENV_R", "-2147483649", read);
  expectRejected("MANET_TEST_ENV_R", "12x", read);
  setenv("MANET_TEST_ENV_R", "2147483647", 1);
  EXPECT_EQ(envInt("MANET_TEST_ENV_R", 42, kMin, kMax), kMax);
  unsetenv("MANET_TEST_ENV_R");
  EXPECT_EQ(envInt("MANET_TEST_ENV_R", 42, kMin, kMax), 42);

  const auto readPositive = [] { envInt("MANET_TEST_ENV_R", 42, 1, 100); };
  expectRejected("MANET_TEST_ENV_R", "0", readPositive);
  expectRejected("MANET_TEST_ENV_R", "101", readPositive);
}

TEST(Env, RejectsMalformedOrNonFiniteDoublesNamingTheVariable) {
  const auto read = [] { envDouble("MANET_TEST_ENV_F", 1.0); };
  expectRejected("MANET_TEST_ENV_F", "0.5s", read);
  expectRejected("MANET_TEST_ENV_F", "abc", read);
  expectRejected("MANET_TEST_ENV_F", "1e400", read);
  expectRejected("MANET_TEST_ENV_F", "inf", read);
  expectRejected("MANET_TEST_ENV_F", "-infinity", read);
  expectRejected("MANET_TEST_ENV_F", "nan", read);
  setenv("MANET_TEST_ENV_F", "", 1);
  EXPECT_DOUBLE_EQ(envDouble("MANET_TEST_ENV_F", 1.0), 1.0);
  setenv("MANET_TEST_ENV_F", "-1e-3", 1);
  EXPECT_DOUBLE_EQ(envDouble("MANET_TEST_ENV_F", 1.0), -1e-3);
  unsetenv("MANET_TEST_ENV_F");
}

TEST(Env, BoolAcceptsOnlyZeroOrOne) {
  const auto read = [] { envBool("MANET_TEST_ENV_B", false); };
  // Each used to count as "on" through an `envInt(...) != 0` read.
  expectRejected("MANET_TEST_ENV_B", "2", read);
  expectRejected("MANET_TEST_ENV_B", "-1", read);
  expectRejected("MANET_TEST_ENV_B", "yes", read);
  expectRejected("MANET_TEST_ENV_B", "01", read);
  setenv("MANET_TEST_ENV_B", "1", 1);
  EXPECT_TRUE(envBool("MANET_TEST_ENV_B", false));
  setenv("MANET_TEST_ENV_B", "0", 1);
  EXPECT_FALSE(envBool("MANET_TEST_ENV_B", true));
  setenv("MANET_TEST_ENV_B", "", 1);
  EXPECT_TRUE(envBool("MANET_TEST_ENV_B", true));
  unsetenv("MANET_TEST_ENV_B");
  EXPECT_FALSE(envBool("MANET_TEST_ENV_B", false));
}

TEST(Env, StringPresence) {
  unsetenv("MANET_TEST_ENV_S");
  EXPECT_FALSE(envString("MANET_TEST_ENV_S").has_value());
  setenv("MANET_TEST_ENV_S", "hello", 1);
  EXPECT_EQ(envString("MANET_TEST_ENV_S").value(), "hello");
  unsetenv("MANET_TEST_ENV_S");
}

// -------------------------------------------------------------------- log

TEST(Log, ThresholdFiltersLevels) {
  const LogLevel old = logLevel();
  setLogLevel(LogLevel::kError);
  EXPECT_EQ(logLevel(), LogLevel::kError);
  // These must not crash (output is discarded below the threshold).
  logInfo("discarded ", 1);
  logDebug("discarded ", 2.5);
  logWarn("discarded");
  setLogLevel(LogLevel::kOff);
  log(LogLevel::kError, "also discarded");
  setLogLevel(old);
}

TEST(Log, ComposesArguments) {
  // Exercise the variadic formatting path with the threshold open; we can't
  // capture stderr portably here, so this is a smoke test.
  const LogLevel old = logLevel();
  setLogLevel(LogLevel::kOff);
  log(LogLevel::kError, "x=", 42, " y=", 1.5, " z=", "str");
  setLogLevel(old);
}

}  // namespace
}  // namespace manet::util
