/**
 * @file
 * Unit tests for the common substrate: RNG, histogram, summary
 * statistics, error metrics, the text-table printer, the shared
 * command-line parser (including the unknown-flag rejection
 * regression tests) and the shortest round-trip number formatter.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/histogram.hh"
#include "common/json.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace mech {
namespace {

// ---- Rng ------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.below(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(17);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(19);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, WeightedRespectsWeights)
{
    Rng r(23);
    std::vector<double> w = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 8000; ++i)
        ++counts[r.weighted(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, PowerLawFavorsSmallValues)
{
    Rng r(29);
    std::uint64_t ones = 0, fours = 0;
    for (int i = 0; i < 8000; ++i) {
        std::uint64_t d = r.powerLaw(1.5, 8);
        EXPECT_GE(d, 1u);
        EXPECT_LE(d, 8u);
        ones += d == 1;
        fours += d == 4;
    }
    EXPECT_GT(ones, fours * 2);
}

TEST(Rng, GeometricBounded)
{
    Rng r(31);
    for (int i = 0; i < 200; ++i)
        EXPECT_LE(r.geometric(0.9, 5), 5u);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(37);
    Rng b = a.fork();
    EXPECT_NE(a.next(), b.next());
}

// ---- Histogram --------------------------------------------------------------

TEST(Histogram, StartsEmpty)
{
    Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.at(0), 0u);
    EXPECT_EQ(h.at(100), 0u);
    EXPECT_EQ(h.maxKey(), 0u);
}

TEST(Histogram, AddAndQuery)
{
    Histogram h;
    h.add(3);
    h.add(3);
    h.add(7, 5);
    EXPECT_EQ(h.at(3), 2u);
    EXPECT_EQ(h.at(7), 5u);
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.maxKey(), 7u);
}

TEST(Histogram, SumRange)
{
    Histogram h;
    for (std::uint64_t k = 0; k < 10; ++k)
        h.add(k, k);
    EXPECT_EQ(h.sumRange(2, 4), 2u + 3u + 4u);
    EXPECT_EQ(h.sumRange(8, 100), 8u + 9u);
    EXPECT_EQ(h.sumRange(20, 30), 0u);
}

TEST(Histogram, Mean)
{
    Histogram h;
    h.add(2, 2);
    h.add(4, 2);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, Merge)
{
    Histogram a, b;
    a.add(1, 2);
    b.add(1, 3);
    b.add(9, 1);
    a.merge(b);
    EXPECT_EQ(a.at(1), 5u);
    EXPECT_EQ(a.at(9), 1u);
    EXPECT_EQ(a.total(), 6u);
}

TEST(Histogram, Clear)
{
    Histogram h;
    h.add(5, 5);
    h.clear();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.at(5), 0u);
}

// ---- SummaryStats ------------------------------------------------------------

TEST(SummaryStats, Empty)
{
    SummaryStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SummaryStats, MeanMinMax)
{
    SummaryStats s;
    for (double v : {2.0, 4.0, 6.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_EQ(s.count(), 3u);
}

TEST(SummaryStats, Stddev)
{
    SummaryStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-9);
}

// ---- error metrics -------------------------------------------------------------

TEST(ErrorMetrics, AbsRelativeError)
{
    EXPECT_DOUBLE_EQ(absRelativeError(110.0, 100.0), 0.1);
    EXPECT_DOUBLE_EQ(absRelativeError(90.0, 100.0), 0.1);
    EXPECT_DOUBLE_EQ(absRelativeError(100.0, 100.0), 0.0);
}

TEST(ErrorMetrics, EmpiricalCdf)
{
    std::vector<double> samples = {0.01, 0.02, 0.03, 0.10};
    auto cdf = empiricalCdf(samples, {0.0, 0.02, 0.05, 0.2});
    ASSERT_EQ(cdf.size(), 4u);
    EXPECT_DOUBLE_EQ(cdf[0], 0.0);
    EXPECT_DOUBLE_EQ(cdf[1], 0.5);
    EXPECT_DOUBLE_EQ(cdf[2], 0.75);
    EXPECT_DOUBLE_EQ(cdf[3], 1.0);
}

TEST(ErrorMetrics, Percentile)
{
    std::vector<double> s = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(s, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(s, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(s, 50.0), 3.0);
}

// ---- TextTable ------------------------------------------------------------------

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2"});
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTable, SciFormatsScientific)
{
    EXPECT_EQ(TextTable::sci(12345.0, 3), "1.234e+04");
    EXPECT_EQ(TextTable::sci(1.5e-10, 1), "1.5e-10");
}

// ---- NumFmt ---------------------------------------------------------------

/**
 * The reference definition of exactDouble(): the smallest precision P
 * whose printf("%.Pg") form parses back to the same double, found by
 * trying every P from 1 to 17.
 */
std::string
printfTrialLoop(double value)
{
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

double
fromBits(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** Seeded inputs covering every shape the formatter has to get right. */
std::vector<double>
numFmtInputs()
{
    std::vector<double> values;
    Rng rng(0x6e756d666d74ull);
    for (int i = 0; i < 45000; ++i)
        values.push_back(rng.uniform() * 10.0);
    // CPI, energy, latency and frequency magnitudes: 1e-12 .. 1e3.
    for (int i = 0; i < 45000; ++i)
        values.push_back(std::pow(10.0, -12.0 + 15.0 * rng.uniform()));
    // Arbitrary bit patterns: every exponent, sign, NaN payloads.
    for (int i = 0; i < 40000; ++i)
        values.push_back(fromBits(rng.next()));
    // Short decimals such as "0.8" or "2.25e-05", the common case.
    for (int i = 0; i < 20000; ++i) {
        char text[40];
        std::snprintf(text, sizeof(text), "%llue%d",
                      static_cast<unsigned long long>(rng.below(100000)),
                      static_cast<int>(rng.range(-30, 30)));
        values.push_back(std::strtod(text, nullptr));
    }
    // Integers up to 2^53.
    for (int i = 0; i < 20000; ++i)
        values.push_back(static_cast<double>(rng.below((1ull << 53) + 1)));
    for (int i = 0; i < 5000; ++i)
        values.push_back(static_cast<double>(rng.below(100000)));
    // Subnormals.
    for (int i = 0; i < 20000; ++i)
        values.push_back(fromBits(rng.below(1ull << 52) |
                                  (rng.below(2) << 63)));
    // Every power of two and its neighbours: the rounding interval
    // is asymmetric exactly there.
    for (int e = -1074; e <= 1023; ++e) {
        double p = std::ldexp(1.0, e);
        for (double v : {p, std::nextafter(p, 0.0),
                         std::nextafter(p, HUGE_VAL)}) {
            values.push_back(v);
            values.push_back(-v);
        }
    }
    for (double v : {0.0, 1.0, 0.8, 0.1, 1e308, 1e-308, 9007199254740992.0,
                     DBL_MAX, DBL_MIN, DBL_TRUE_MIN, DBL_EPSILON,
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
        values.push_back(v);
        values.push_back(-v);
    }
    return values;
}

TEST(NumFmt, MatchesPrintfTrialLoop)
{
    std::vector<double> values = numFmtInputs();
    ASSERT_GE(values.size(), 200000u);
    std::size_t mismatches = 0;
    for (double v : values) {
        std::string expected = printfTrialLoop(v);
        std::string got = exactDouble(v);
        std::ostringstream json;
        json::writeNumber(json, v);
        bool same = got == expected && json.str() == expected;
        bool exact = !std::isfinite(v) ||
                     std::strtod(got.c_str(), nullptr) == v;
        if (!same || !exact) {
            if (++mismatches <= 10) {
                ADD_FAILURE() << std::hexfloat << v << std::defaultfloat
                              << ": expected \"" << expected << "\", got \""
                              << got << "\" (writeNumber \"" << json.str()
                              << "\")";
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

// ---- ArgParser ------------------------------------------------------------

/** tryParse over a writable copy of @p args (argv[0] included). */
std::optional<std::string>
parseArgs(cli::ArgParser &parser, std::vector<std::string> args)
{
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parser.tryParse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, ParsesDeclaredOptionsAndPositionals)
{
    std::string strategy;
    unsigned budget = 0;
    bool json = false;
    std::string pos;
    cli::ArgParser parser("prog", "test");
    parser.add("strategy", "name", "h", &strategy);
    parser.add("budget", "N", "h", &budget);
    parser.addFlag("json", "h", &json);
    parser.addPositional("input", "h", &pos);
    auto err = parseArgs(parser, {"prog", "--strategy", "genetic",
                                  "--budget=2000", "--json", "file"});
    EXPECT_FALSE(err.has_value()) << *err;
    EXPECT_EQ(strategy, "genetic");
    EXPECT_EQ(budget, 2000u);
    EXPECT_TRUE(json);
    EXPECT_EQ(pos, "file");
}

// Regression: a mistyped flag must fail loudly, never be silently
// ignored (`mech_search --strateg typo` used to be able to slip a
// dash-led token into a positional slot).
TEST(ArgParser, RejectsUnknownDoubleDashOption)
{
    std::string strategy;
    cli::ArgParser parser("prog", "test");
    parser.add("strategy", "name", "h", &strategy);
    auto err = parseArgs(parser, {"prog", "--strateg", "typo"});
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("unknown option '--strateg'"),
              std::string::npos);
}

TEST(ArgParser, RejectsSingleDashTokenInsteadOfBindingPositional)
{
    std::string pos = "unset";
    cli::ArgParser parser("prog", "test");
    parser.addPositional("input", "h", &pos);
    auto err = parseArgs(parser, {"prog", "-threads"});
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("unknown option '-threads'"),
              std::string::npos);
    EXPECT_EQ(pos, "unset");
}

TEST(ArgParser, NegativeNumbersStillBindToPositionals)
{
    int value = 0;
    cli::ArgParser parser("prog", "test");
    parser.addPositional("n", "h", &value);
    auto err = parseArgs(parser, {"prog", "-3"});
    EXPECT_FALSE(err.has_value()) << *err;
    EXPECT_EQ(value, -3);
}

TEST(ArgParser, RejectsValueOnFlagAndMissingValue)
{
    bool flag = false;
    std::string opt;
    cli::ArgParser parser("prog", "test");
    parser.addFlag("list", "h", &flag);
    parser.add("out", "path", "h", &opt);
    auto err = parseArgs(parser, {"prog", "--list=yes"});
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("takes no value"), std::string::npos);
    err = parseArgs(parser, {"prog", "--out"});
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("needs a value"), std::string::npos);
}

TEST(ArgParser, RejectsExcessPositionalsAndBadNumbers)
{
    unsigned n = 0;
    cli::ArgParser parser("prog", "test");
    parser.addPositional("n", "h", &n);
    auto err = parseArgs(parser, {"prog", "12", "extra"});
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("unexpected argument"), std::string::npos);
    err = parseArgs(parser, {"prog", "--", "12"});
    ASSERT_TRUE(err.has_value());
    err = parseArgs(parser, {"prog", "12x"});
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("invalid value"), std::string::npos);
}

} // namespace
} // namespace mech
