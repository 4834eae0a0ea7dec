/**
 * @file
 * Numeric formatting and strict parsing shared by the
 * round-trippable string codecs (DesignPoint::toKey()/fromKey(),
 * SpaceSpec::describe()/tryParse()) and every JSON number
 * (json::writeNumber).
 *
 * Doubles print as printf("%.Pg") with the smallest precision P that
 * parses back bit-identically; P starts at the digit count of
 * std::to_chars' shortest round-trip form (formatExactDouble()).
 * Formatting and the round-trip check go through <charconv>, so the
 * output does not depend on LC_NUMERIC.
 *
 * Both sides of every round-trip pair must use these one
 * definitions: a second hand-rolled copy is exactly how silent
 * truncation and formatting drift creep in.
 */

#ifndef MECH_COMMON_NUMFMT_HH
#define MECH_COMMON_NUMFMT_HH

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace mech {

/** Buffer size formatExactDouble() needs, e.g. "-2.2250738585072014e-308". */
constexpr std::size_t kExactDoubleChars = 32;

/**
 * Write the shortest decimal form of @p value that parses back
 * bit-identically into @p out (not NUL-terminated); returns its length.
 *
 * The form is printf("%.Pg") for the smallest precision P that round
 * trips: %.17g always does, but prints "0.80000000000000004"-style
 * noise for values with short exact forms, and the smallest P keeps
 * keys readable ("freq=0.8") without giving up exact recovery.
 *
 * P starts at the digit count of std::to_chars' shortest round-trip
 * scientific form: no shorter "%.Pg" form can round trip.  That form
 * is printed with to_chars(general, P), which the standard defines as
 * "%.Pg" in the C locale, and checked by parsing it back.  At a power
 * of two the interval that rounds to @p value is narrower below it
 * than above, so the correctly rounded P-digit form can miss it while
 * the shortest form does not; P then steps up until the check holds.
 * Non-finite values print as glibc's printf does: "inf", "-inf",
 * "nan", "-nan".
 */
inline std::size_t
formatExactDouble(double value, char (&out)[kExactDoubleChars])
{
    char *const first = out;
    char *const last = out + kExactDoubleChars;
    if (!std::isfinite(value)) {
        char *p = first;
        if (std::signbit(value))
            *p++ = '-';
        for (const char *s = std::isnan(value) ? "nan" : "inf"; *s; ++s)
            *p++ = *s;
        return static_cast<std::size_t>(p - first);
    }
    char *end = std::to_chars(first, last, value,
                              std::chars_format::scientific).ptr;
    int prec = 0;
    for (const char *p = first; p != end && *p != 'e'; ++p)
        prec += *p >= '0' && *p <= '9';
    for (;; ++prec) {
        end = std::to_chars(first, last, value, std::chars_format::general,
                            prec).ptr;
        double parsed = 0.0;
        std::from_chars(first, end, parsed);
        if (parsed == value || prec >= 17)
            return static_cast<std::size_t>(end - first);
    }
}

/** formatExactDouble() as a string, for the key and spec codecs. */
inline std::string
exactDouble(double value)
{
    char buf[kExactDoubleChars];
    return std::string(buf, formatExactDouble(value, buf));
}

/**
 * Parse a non-negative decimal integer; false unless the input is
 * digits from the very first character (no sign, no leading
 * whitespace — strtoull would skip it and wrap a negative to a huge
 * value) through the last, without overflow.
 */
inline bool
parseU64(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text.front() < '0' || text.front() > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (errno || *end)
        return false;
    *out = v;
    return true;
}

/** parseU64 plus a range check into 32 bits. */
inline bool
parseU32(const std::string &text, std::uint32_t *out)
{
    std::uint64_t v = 0;
    if (!parseU64(text, &v) || v > UINT32_MAX)
        return false;
    *out = static_cast<std::uint32_t>(v);
    return true;
}

/** Checked uint64 -> uint32 narrowing. */
inline bool
narrowU32(std::uint64_t value, std::uint32_t *out)
{
    if (value > UINT32_MAX)
        return false;
    *out = static_cast<std::uint32_t>(value);
    return true;
}

/**
 * Parse a double; false on empty input, trailing garbage, overflow or
 * underflow to zero.  A subnormal result is kept: strtod flags it
 * with ERANGE, but it is still the nearest double, the one
 * exactDouble() printed.
 */
inline bool
parseF64(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (*end || (errno && (v == 0.0 || std::isinf(v))))
        return false;
    *out = v;
    return true;
}

} // namespace mech

#endif // MECH_COMMON_NUMFMT_HH
