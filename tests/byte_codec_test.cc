/**
 * @file
 * Tests for the shared byte codec (common/byte_codec.hh) and seeded
 * mutation tests over both binary artifact decoders built on it and
 * over the `.mdesc` text parser.
 *
 * The mutation test starts from the committed fixtures (tests/data)
 * and derives every input by flipping bytes, stamping a forged
 * all-ones length, truncating, or splicing two fixtures.  Each input
 * goes to both the `.mprof` and the `.mcache` decoder, and each
 * decode must end in exactly one of two ways: a clean result, or the
 * format's own rejection (ProfileIoError; false plus a message).  It
 * must never crash, throw anything else (std::bad_alloc included),
 * or make one allocation out of proportion to its input.  Seeds and
 * iteration counts are fixed, so any failure reproduces exactly; the
 * sanitizer builds run the same loop under ASan+UBSan.
 *
 * The `.mdesc` test mutates the canonical text of the built-in
 * machine description, with and without its throughput table, by
 * byte flips, truncations, splices and digit edits.  parseMdesc must
 * return or throw MdescError, and an accepted mutant must survive
 * writeMdesc -> parseMdesc unchanged.
 */

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "characterize/mdesc.hh"
#include "common/byte_codec.hh"
#include "common/rng.hh"
#include "dse/design_space.hh"
#include "profiler/profile_io.hh"
#include "search/cache_io.hh"
#include "search/eval_cache.hh"

// Sanitizer runtimes own operator new; only plain builds count
// allocations (the sanitizers catch oversized ones themselves).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MECH_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MECH_SANITIZER_ALLOCATOR 1
#endif
#endif

namespace {

/** Largest single operator-new request while tracking is on. */
std::atomic<bool> trackAllocations{false};
std::atomic<std::size_t> largestAllocation{0};

} // namespace

#ifndef MECH_SANITIZER_ALLOCATOR
// Out of line so the compiler never pairs an inlined free() with the
// operator new it cannot see is malloc-backed.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (trackAllocations.load(std::memory_order_relaxed) &&
        n > largestAllocation.load(std::memory_order_relaxed)) {
        largestAllocation.store(n, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#endif

namespace mech {
namespace {

// ---- the codec itself ------------------------------------------------------------

TEST(ByteCodec, EveryFieldRoundTripsLittleEndian)
{
    ByteWriter w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    w.u64(0x0102030405060708ull);
    w.f64(-0.1);
    w.bytes("raw");
    w.str<std::uint32_t>("key");
    w.str<std::uint64_t>("");
    const std::string bytes = w.take();

    // Little-endian regardless of the host: least significant first.
    ASSERT_EQ(bytes.size(), 1u + 2 + 4 + 8 + 8 + 3 + (4 + 3) + 8);
    EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0x34);
    EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0xef);
    EXPECT_EQ(static_cast<unsigned char>(bytes[7]), 0x08);

    ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0102030405060708ull);
    EXPECT_EQ(r.f64(), -0.1);
    EXPECT_EQ(r.bytes(3), "raw");
    EXPECT_EQ(r.str<std::uint32_t>(), "key");
    EXPECT_EQ(r.str<std::uint64_t>(), "");
    EXPECT_TRUE(r.atEnd());
    EXPECT_THROW(r.u8(), ByteCodecError);
}

TEST(ByteCodec, CountsAreBoundedByTheBytesLeft)
{
    const std::string bytes(64, '\0');
    ByteReader r(bytes);
    EXPECT_EQ(r.count(8, 8), 8u);
    EXPECT_THROW(r.count(9, 8), ByteCodecError);
    // A forged count near 2^64 neither overflows nor allocates.
    EXPECT_THROW(r.count(std::numeric_limits<std::uint64_t>::max(), 3),
                 ByteCodecError);
    EXPECT_EQ(r.remaining(), 64u);
}

TEST(ByteCodec, StringLengthsAreCheckedBeforeCopying)
{
    ByteWriter w;
    w.u32(1000); // claims 1000 bytes, carries 3
    w.bytes("abc");
    const std::string bytes = w.take();
    ByteReader r(bytes);
    EXPECT_THROW(r.str<std::uint32_t>(), ByteCodecError);

    ByteWriter capped;
    capped.str<std::uint64_t>("toolong");
    const std::string capped_bytes = capped.take();
    ByteReader rc(capped_bytes);
    EXPECT_THROW(rc.str<std::uint64_t>(4), ByteCodecError);
}

// ---- seeded mutation of both decoders -------------------------------------------

constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr int kIterationsPerSeed = 1000;

/** A single allocation may exceed the input by the widest record's
 *  in-memory growth (an L2Ref is 17 bytes encoded, 24 in memory, and
 *  vector growth can double that), plus a constant for messages. */
constexpr std::size_t kAllocGrowth = 2;
constexpr std::size_t kAllocSlack = 4096;

const char *const kCacheGroupKey = "bench=sha|backends=model|obj=cpi,edp";

std::string
readFixture(const std::string &name)
{
    const std::string path = std::string(MECHSIM_TEST_DATA_DIR) + "/" + name;
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "cannot open " << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

std::string
mutate(Rng &rng, const std::vector<std::string> &fixtures)
{
    std::string bytes = fixtures[rng.below(fixtures.size())];
    switch (rng.below(4)) {
    case 0: {
        // Flip a few bytes, half of them among the headers and the
        // first length fields.
        const std::uint64_t flips = 1 + rng.below(8);
        for (std::uint64_t f = 0; f < flips; ++f) {
            const std::size_t span =
                rng.chance(0.5) ? std::min<std::size_t>(bytes.size(), 256)
                                : bytes.size();
            bytes[rng.below(span)] ^= static_cast<char>(1 + rng.below(255));
        }
        break;
    }
    case 1: {
        // Forge a huge length: eight all-ones bytes anywhere.
        const std::size_t at = rng.below(bytes.size() - 8);
        bytes.replace(at, 8, 8, '\xff');
        break;
    }
    case 2:
        bytes.resize(rng.below(bytes.size()));
        break;
    default: {
        const std::string &other = fixtures[rng.below(fixtures.size())];
        bytes = bytes.substr(0, rng.below(bytes.size() + 1)) +
                other.substr(rng.below(other.size() + 1));
        break;
    }
    }
    return bytes;
}

void
beginTracking()
{
    largestAllocation.store(0);
    trackAllocations.store(true);
}

/** Stop tracking; fail if one allocation outgrew @p input. */
void
endTracking(const std::string &input, const char *decoder,
            const std::string &where)
{
    trackAllocations.store(false);
#ifndef MECH_SANITIZER_ALLOCATOR
    EXPECT_LE(largestAllocation.load(),
              kAllocGrowth * input.size() + kAllocSlack)
        << decoder << " allocation out of proportion to a "
        << input.size() << "-byte input at " << where;
#else
    (void)input;
    (void)decoder;
    (void)where;
#endif
}

TEST(CodecMutation, DecodersAcceptOrRejectEveryMutantCleanly)
{
    const std::vector<std::string> fixtures = {
        readFixture("sha_2000.mprof"),
        readFixture("sha_2000_notrace.mprof"),
        readFixture("sha_cpi_edp.mcache"),
    };

    std::size_t profile_ok = 0, profile_rejected = 0;
    std::size_t cache_ok = 0, cache_rejected = 0;
    for (std::uint64_t seed : kSeeds) {
        Rng rng(seed);
        for (int i = 0; i < kIterationsPerSeed; ++i) {
            const std::string input = mutate(rng, fixtures);
            const std::string where = "seed " + std::to_string(seed) +
                                      " iteration " + std::to_string(i);

            beginTracking();
            try {
                decodeProfileArtifact(input);
                ++profile_ok;
            } catch (const ProfileIoError &) {
                ++profile_rejected;
            } catch (const std::exception &e) {
                ADD_FAILURE() << ".mprof decoder threw '" << e.what()
                              << "' at " << where;
            }
            endTracking(input, ".mprof", where);

            EvalCache cache;
            std::string error;
            beginTracking();
            try {
                if (decodeEvalCache(input, kCacheGroupKey, 2, 2, &cache,
                                    &error)) {
                    ++cache_ok;
                } else {
                    EXPECT_FALSE(error.empty()) << where;
                    ++cache_rejected;
                }
            } catch (const std::exception &e) {
                ADD_FAILURE() << ".mcache decoder threw '" << e.what()
                              << "' at " << where;
            }
            endTracking(input, ".mcache", where);
        }
    }

    // Both outcomes occur for both decoders: the mutants are neither
    // all harmless nor all rejected at the magic.
    EXPECT_GT(profile_ok, 0u);
    EXPECT_GT(profile_rejected, 0u);
    EXPECT_GT(cache_ok, 0u);
    EXPECT_GT(cache_rejected, 0u);
}

// ---- seeded mutation of the .mdesc parser -------------------------------------------

/** @p text with one to three edits at its digits. */
std::string
editDigits(Rng &rng, std::string text)
{
    std::vector<std::size_t> digits;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] >= '0' && text[i] <= '9')
            digits.push_back(i);
    }
    const std::uint64_t edits = 1 + rng.below(3);
    for (std::uint64_t e = 0; e < edits && !digits.empty(); ++e) {
        const std::size_t at = digits[rng.below(digits.size())];
        const char digit = static_cast<char>('0' + rng.below(10));
        switch (rng.below(4)) {
        case 0:
            text[at] = digit;
            break;
        case 1:
            // Lengthen the number; after edits shift positions this
            // may land beside any character, which is fine.
            text.insert(at, 1, digit);
            break;
        case 2:
            text.erase(at, 1);
            break;
        default:
            text[at] = "-.e+"[rng.below(4)];
            break;
        }
    }
    return text;
}

TEST(CodecMutation, MdescParserAcceptsOrRejectsEveryMutantCleanly)
{
    MachineDescription builtin;
    builtin.machine = machineFor(defaultDesignPoint());
    builtin.sourceBackend = "sim";
    builtin.sourcePoint = defaultDesignPoint().toKey();
    MachineDescription measured = builtin;
    measured.hasThroughput = true;
    for (std::size_t i = 0; i < kNumOpClasses; ++i)
        measured.throughput[i] = 1.0 / static_cast<double>(i + 1);
    const std::vector<std::string> texts = {writeMdesc(builtin),
                                            writeMdesc(measured)};

    std::size_t accepted = 0, rejected = 0;
    for (std::uint64_t seed : kSeeds) {
        Rng rng(seed);
        for (int i = 0; i < kIterationsPerSeed; ++i) {
            std::string input = texts[rng.below(texts.size())];
            switch (rng.below(4)) {
            case 0: {
                const std::uint64_t flips = 1 + rng.below(4);
                for (std::uint64_t f = 0; f < flips; ++f) {
                    input[rng.below(input.size())] ^=
                        static_cast<char>(1 + rng.below(255));
                }
                break;
            }
            case 1:
                input.resize(rng.below(input.size()));
                break;
            case 2: {
                const std::string &other = texts[rng.below(texts.size())];
                input = input.substr(0, rng.below(input.size() + 1)) +
                        other.substr(rng.below(other.size() + 1));
                break;
            }
            default:
                input = editDigits(rng, std::move(input));
                break;
            }
            SCOPED_TRACE("seed " + std::to_string(seed) + " iteration " +
                         std::to_string(i));

            MachineDescription parsed;
            try {
                parsed = parseMdesc(input);
            } catch (const MdescError &) {
                ++rejected;
                continue;
            } catch (const std::exception &e) {
                ADD_FAILURE() << "parseMdesc threw '" << e.what() << "'";
                continue;
            }
            ++accepted;
            try {
                EXPECT_EQ(parseMdesc(writeMdesc(parsed)), parsed);
            } catch (const std::exception &e) {
                ADD_FAILURE() << "re-written mutant rejected: " << e.what();
            }
        }
    }

    // Both outcomes occur: digit edits leave many mutants valid.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace mech
