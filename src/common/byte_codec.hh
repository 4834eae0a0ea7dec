/**
 * @file
 * The one little-endian byte codec behind every binary artifact.
 *
 * `.mprof` profile artifacts (profiler/profile_io.hh) and `.mcache`
 * warm-cache spills (search/cache_io.hh) both encode through
 * ByteWriter and decode through ByteReader, so the byte layout rules
 * live in exactly one place:
 *
 *   - integers are little-endian and written byte by byte, so a file
 *     is stable across hosts of either endianness;
 *   - doubles travel as their IEEE-754 bit pattern, so a round trip
 *     is bit-exact;
 *   - strings carry a length prefix whose width the format picks
 *     (`.mprof` uses u64, `.mcache` u32).
 *
 * ByteReader is bounded: every read, and every element count a
 * decoder is about to allocate for, is checked against the bytes
 * left in the input first.  A forged length in a corrupt file
 * therefore fails fast with ByteCodecError instead of turning into a
 * multi-GiB allocation.  Each format catches ByteCodecError at its
 * decode entry point and reports it under its own contract
 * (ProfileIoError for `.mprof`, bool + message for `.mcache`).
 */

#ifndef MECH_COMMON_BYTE_CODEC_HH
#define MECH_COMMON_BYTE_CODEC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace mech {

/** Raised by ByteReader on truncated or implausibly sized input. */
class ByteCodecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Appends little-endian fields to a growing byte string. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

    void bytes(std::string_view b) { out.append(b); }

    /** @p s behind a length prefix of type @p Len. */
    template <typename Len>
    void
    str(std::string_view s)
    {
        put(static_cast<Len>(s.size()));
        out.append(s);
    }

    /** The bytes written so far (moves them out). */
    std::string take() { return std::move(out); }

  private:
    template <typename T>
    void
    put(T v)
    {
        static_assert(std::is_unsigned_v<T>);
        char b[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            b[i] = static_cast<char>(v >> (8 * i));
        out.append(b, sizeof(T));
    }

    std::string out;
};

/** Bounded little-endian reader over a byte view. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : data(bytes) {}

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    double f64() { return std::bit_cast<double>(get<std::uint64_t>()); }

    /** The next @p n bytes, as a view into the input. */
    std::string_view
    bytes(std::size_t n)
    {
        if (n > remaining()) {
            throw ByteCodecError(
                "truncated: " + std::to_string(n) + " byte(s) needed at "
                "offset " + std::to_string(pos) + ", " +
                std::to_string(remaining()) + " left");
        }
        std::string_view v = data.substr(pos, n);
        pos += n;
        return v;
    }

    /**
     * A string behind a length prefix of type @p Len, rejected when
     * longer than @p max_len or than the input left.
     */
    template <typename Len>
    std::string
    str(std::uint64_t max_len = std::numeric_limits<std::uint64_t>::max())
    {
        const std::uint64_t n = get<Len>();
        if (n > max_len) {
            throw ByteCodecError("implausible string length " +
                                 std::to_string(n));
        }
        return std::string(bytes(count(n, 1)));
    }

    /**
     * Check that @p n elements of at least @p min_bytes_each encoded
     * bytes can still follow, and return @p n.  Call it before
     * sizing any container by a count read from the input: the
     * allocation is then bounded by the input's own size.
     */
    std::size_t
    count(std::uint64_t n, std::size_t min_bytes_each)
    {
        if (min_bytes_each != 0 && n > remaining() / min_bytes_each) {
            throw ByteCodecError(
                "truncated: " + std::to_string(n) + " element(s) of " +
                std::to_string(min_bytes_each) + " byte(s) cannot fit "
                "in the " + std::to_string(remaining()) +
                " byte(s) left at offset " + std::to_string(pos));
        }
        return static_cast<std::size_t>(n);
    }

    std::size_t remaining() const { return data.size() - pos; }
    bool atEnd() const { return pos == data.size(); }

  private:
    template <typename T>
    T
    get()
    {
        static_assert(std::is_unsigned_v<T>);
        const std::string_view b = bytes(sizeof(T));
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<unsigned char>(b[i])) << (8 * i);
        return v;
    }

    std::string_view data;
    std::size_t pos = 0;
};

} // namespace mech

#endif // MECH_COMMON_BYTE_CODEC_HH
