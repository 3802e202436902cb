// Unit tests for the util module: tables, statistics, RNG, ensure.
#include <gtest/gtest.h>

#include "util/ensure.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace asbr {
namespace {

TEST(EnsureTest, PassesAndThrows) {
    EXPECT_NO_THROW(ASBR_ENSURE(1 + 1 == 2, "fine"));
    try {
        ASBR_ENSURE(false, "the message");
        FAIL() << "expected EnsureError";
    } catch (const EnsureError& e) {
        EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
    }
}

TEST(EnsureTest, WithoutLocationDropsOnlyTheFileAndLine) {
    try {
        ASBR_ENSURE(1 + 1 == 3, "arithmetic");
        FAIL() << "expected EnsureError";
    } catch (const EnsureError& e) {
        EXPECT_EQ(e.withoutLocation(),
                  "ASBR_ENSURE failed: (1 + 1 == 3) — arithmetic");
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("ASBR_ENSURE failed: (1 + 1 == 3) at ", 0), 0u);
        EXPECT_NE(what.find("util_test.cpp:"), std::string::npos);
    }
    // Errors not raised by ASBR_ENSURE carry no location to drop.
    EXPECT_EQ(SimTimeoutError("watchdog").withoutLocation(), "watchdog");
}

TEST(RngTest, DeterministicStreams) {
    Xorshift64 a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Xorshift64 a2(42);
    for (int i = 0; i < 100; ++i) differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(RngTest, RangesRespected) {
    Xorshift64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
        const std::int64_t v = rng.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        const double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
    EXPECT_THROW(rng.below(0), EnsureError);
    EXPECT_THROW(rng.range(3, 2), EnsureError);
}

TEST(RngTest, ChanceRoughlyCalibrated) {
    Xorshift64 rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ZeroSeedStillWorks) {
    Xorshift64 rng(0);
    EXPECT_NE(rng.next(), 0u);  // degenerate all-zero state avoided
}

TEST(StatsTest, RatioBasics) {
    Ratio r;
    EXPECT_DOUBLE_EQ(r.value(), 0.0);
    r.record(true);
    r.record(true);
    r.record(false);
    EXPECT_NEAR(r.value(), 2.0 / 3.0, 1e-12);
}

TEST(StatsTest, MeanStddevGeomean) {
    const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
    const double gs[] = {1.0, 4.0, 16.0};
    EXPECT_NEAR(geomean(gs), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    const double bad[] = {1.0, -1.0};
    EXPECT_THROW(geomean(bad), EnsureError);
}

TEST(StatsTest, Improvement) {
    EXPECT_DOUBLE_EQ(improvement(100, 84), 0.16);
    EXPECT_DOUBLE_EQ(improvement(100, 100), 0.0);
    EXPECT_LT(improvement(100, 110), 0.0);
    EXPECT_THROW(improvement(0, 5), EnsureError);
}

TEST(TableTest, RenderAlignsColumns) {
    TextTable t("Title");
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableTest, CsvEscaping) {
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"plain", "with,comma"});
    t.addRow({"with\"quote", "multi\nline"});
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
    EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
}

TEST(TableTest, RowWidthValidation) {
    TextTable t;
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), EnsureError);
    t.addRow({"1", "2"});
    EXPECT_THROW(t.setHeader({"late"}), EnsureError);
}

TEST(FormatTest, Commas) {
    EXPECT_EQ(formatWithCommas(0), "0");
    EXPECT_EQ(formatWithCommas(999), "999");
    EXPECT_EQ(formatWithCommas(1000), "1,000");
    EXPECT_EQ(formatWithCommas(12232809), "12,232,809");
    EXPECT_EQ(formatWithCommas(1234567890123ull), "1,234,567,890,123");
}

TEST(FormatTest, FixedAndPercent) {
    EXPECT_EQ(formatFixed(1.852, 2), "1.85");
    EXPECT_EQ(formatFixed(-0.5, 1), "-0.5");
    EXPECT_EQ(formatPercent(0.32), "32%");
    EXPECT_EQ(formatPercent(0.068, 1), "6.8%");
}

}  // namespace
}  // namespace asbr
