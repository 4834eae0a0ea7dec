/**
 * @file
 * Tests for the `.mcache` warm-cache spill codec (search/cache_io.hh)
 * and the file utilities underneath it (common/file_util.hh): bit
 * identity across a save/load round trip, strict rejection of every
 * mismatch class (version, probe hash, group key, layout, truncation,
 * trailing bytes, corrupted entries), and atomic write + mmap read.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "common/file_util.hh"
#include "dse/design_space.hh"
#include "search/cache_io.hh"
#include "search/eval_cache.hh"
#include "search/space_spec.hh"

namespace mech {
namespace {

constexpr const char *kGroupKey =
    "bench=jpeg_c|backends=model|obj=cpi,edp";
constexpr std::uint32_t kAggLen = 2;
constexpr std::uint32_t kPerBenchLen = 2;

/** A cache of @p n distinct points with recognizable bit patterns. */
void
fillCache(EvalCache &cache, std::size_t n)
{
    SpaceSpec spec = SpaceSpec::table2();
    for (std::size_t i = 0; i < n; ++i) {
        SearchEval eval;
        eval.point = spec.at(i % spec.size());
        // Values exercise exact-bit preservation: negatives,
        // subnormal-ish magnitudes, and non-terminating fractions.
        eval.aggregate = {1.0 / 3.0 + static_cast<double>(i),
                          -2.5e-308 * static_cast<double>(i + 1)};
        eval.perBench = {0.1 * static_cast<double>(i), 7e300};
        cache.insert(std::move(eval));
    }
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

void
expectSameEntries(const EvalCache &a, const EvalCache &b)
{
    const auto ea = a.entries();
    const auto eb = b.entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i]->point.toKey(), eb[i]->point.toKey());
        EXPECT_EQ(ea[i]->firstIndex, eb[i]->firstIndex);
        ASSERT_EQ(ea[i]->aggregate.size(), eb[i]->aggregate.size());
        for (std::size_t k = 0; k < ea[i]->aggregate.size(); ++k) {
            EXPECT_EQ(bitsOf(ea[i]->aggregate[k]),
                      bitsOf(eb[i]->aggregate[k]));
        }
        ASSERT_EQ(ea[i]->perBench.size(), eb[i]->perBench.size());
        for (std::size_t k = 0; k < ea[i]->perBench.size(); ++k) {
            EXPECT_EQ(bitsOf(ea[i]->perBench[k]),
                      bitsOf(eb[i]->perBench[k]));
        }
    }
}

TEST(CacheIo, RoundTripIsBitIdentical)
{
    EvalCache cache;
    fillCache(cache, 17);
    const std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);

    EvalCache loaded;
    std::string error;
    ASSERT_TRUE(decodeEvalCache(bytes, kGroupKey, kAggLen,
                                kPerBenchLen, &loaded, &error))
        << error;
    expectSameEntries(cache, loaded);

    // Re-encoding the loaded cache reproduces the file exactly.
    EXPECT_EQ(bytes, encodeEvalCache(loaded, kGroupKey, kAggLen,
                                     kPerBenchLen));
}

TEST(CacheIo, EmptyCacheRoundTrips)
{
    EvalCache cache;
    const std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);
    EvalCache loaded;
    ASSERT_TRUE(decodeEvalCache(bytes, kGroupKey, kAggLen,
                                kPerBenchLen, &loaded));
    EXPECT_EQ(loaded.size(), 0u);
}

TEST(CacheIo, RejectsBadMagic)
{
    EvalCache cache;
    fillCache(cache, 3);
    std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);
    bytes[0] = 'X';
    EvalCache loaded;
    std::string error;
    EXPECT_FALSE(decodeEvalCache(bytes, kGroupKey, kAggLen,
                                 kPerBenchLen, &loaded, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(CacheIo, RejectsFutureFormatVersion)
{
    EvalCache cache;
    fillCache(cache, 3);
    std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);
    bytes[4] = static_cast<char>(kCacheSpillFormatVersion + 1);
    EvalCache loaded;
    std::string error;
    EXPECT_FALSE(decodeEvalCache(bytes, kGroupKey, kAggLen,
                                 kPerBenchLen, &loaded, &error));
    EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(CacheIo, RejectsProbeHashMismatch)
{
    // The probe hash occupies bytes [8, 16); flipping any bit there
    // simulates a DesignPoint::hash() scheme change.
    EvalCache cache;
    fillCache(cache, 3);
    std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);
    bytes[9] = static_cast<char>(bytes[9] ^ 0x40);
    EvalCache loaded;
    std::string error;
    EXPECT_FALSE(decodeEvalCache(bytes, kGroupKey, kAggLen,
                                 kPerBenchLen, &loaded, &error));
    EXPECT_NE(error.find("hash scheme"), std::string::npos);
}

TEST(CacheIo, RejectsGroupKeyMismatch)
{
    EvalCache cache;
    fillCache(cache, 3);
    const std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);
    EvalCache loaded;
    std::string error;
    EXPECT_FALSE(decodeEvalCache(
        bytes, "bench=sha|backends=model|obj=cpi,edp", kAggLen,
        kPerBenchLen, &loaded, &error));
    EXPECT_NE(error.find("group"), std::string::npos);
}

TEST(CacheIo, RejectsObjectiveLayoutMismatch)
{
    EvalCache cache;
    fillCache(cache, 3);
    const std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);
    EvalCache loaded;
    std::string error;
    EXPECT_FALSE(decodeEvalCache(bytes, kGroupKey, kAggLen + 1,
                                 kPerBenchLen, &loaded, &error));
    EXPECT_NE(error.find("layout"), std::string::npos);
}

TEST(CacheIo, RejectsEveryTruncation)
{
    EvalCache cache;
    fillCache(cache, 3);
    const std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);
    // Every proper prefix must be rejected without crashing — a
    // half-written spill (the atomic writer makes this impossible,
    // but a copied or damaged file does not) must read as cold.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EvalCache loaded;
        EXPECT_FALSE(decodeEvalCache(bytes.substr(0, len), kGroupKey,
                                     kAggLen, kPerBenchLen, &loaded))
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(CacheIo, RejectsTrailingBytes)
{
    EvalCache cache;
    fillCache(cache, 3);
    std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);
    bytes += '\0';
    EvalCache loaded;
    std::string error;
    EXPECT_FALSE(decodeEvalCache(bytes, kGroupKey, kAggLen,
                                 kPerBenchLen, &loaded, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(CacheIo, RejectsCorruptedEntryKey)
{
    EvalCache cache;
    fillCache(cache, 1);
    std::string bytes =
        encodeEvalCache(cache, kGroupKey, kAggLen, kPerBenchLen);
    // First entry's key begins after the fixed header (16), the
    // length-prefixed group key (4 + len), the layout pair (8), the
    // count (8) and the entry key's own length prefix (4).
    const std::size_t key_pos =
        16 + 4 + std::strlen(kGroupKey) + 8 + 8 + 4;
    ASSERT_LT(key_pos, bytes.size());
    bytes[key_pos] = '?';
    EvalCache loaded;
    std::string error;
    EXPECT_FALSE(decodeEvalCache(bytes, kGroupKey, kAggLen,
                                 kPerBenchLen, &loaded, &error));
    EXPECT_FALSE(error.empty());
}

TEST(CacheIo, SpillPathIsStableAndFilesystemSafe)
{
    const std::string a = cacheSpillPath("/tmp/warm", kGroupKey);
    const std::string b = cacheSpillPath("/tmp/warm/", kGroupKey);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("/tmp/warm/"), std::string::npos);
    EXPECT_EQ(a.substr(a.size() - 7), ".mcache");
    // Distinct groups land in distinct files.
    EXPECT_NE(a, cacheSpillPath("/tmp/warm",
                                "bench=sha|backends=model|obj=cpi"));
}

TEST(FileUtil, AtomicWriteThenMmapRoundTrip)
{
    const std::string dir =
        ::testing::TempDir() + "cache_io_test_files";
    ASSERT_TRUE(ensureDirectory(dir));
    ASSERT_TRUE(ensureDirectory(dir)); // idempotent

    const std::string path = dir + "/blob.bin";
    EXPECT_FALSE(fileExists(path));

    std::string payload = "mcache\0binary\xff payload";
    payload += std::string(1 << 16, '\x5a'); // larger than one page
    std::string error;
    ASSERT_TRUE(atomicWriteFile(path, payload, &error)) << error;
    EXPECT_TRUE(fileExists(path));

    MappedFile map;
    ASSERT_TRUE(map.open(path, &error)) << error;
    EXPECT_EQ(map.view(), payload);

    // Overwrite is atomic too: the new content fully replaces the old.
    ASSERT_TRUE(atomicWriteFile(path, "shorter", &error)) << error;
    MappedFile remap;
    ASSERT_TRUE(remap.open(path, &error)) << error;
    EXPECT_EQ(remap.view(), "shorter");
    std::remove(path.c_str());
}

TEST(FileUtil, AtomicWriteCreatesFilesUnderTheUmask)
{
    // A staged-and-renamed artifact gets the mode any ordinary output
    // file would (0666 less the umask), not a temp file's 0600.
    const std::string path =
        ::testing::TempDir() + "cache_io_mode.bin";
    const mode_t old_mask = ::umask(022);
    std::string error;
    const bool wrote = atomicWriteFile(path, "mode", &error);
    ::umask(old_mask);
    ASSERT_TRUE(wrote) << error;
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 0777, 0644u);
    std::remove(path.c_str());
}

TEST(FileUtil, MappedFileReportsMissingFile)
{
    MappedFile map;
    std::string error;
    EXPECT_FALSE(map.open(::testing::TempDir() + "nope/missing.bin",
                          &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(map.isOpen());
}

TEST(FileUtil, EmptyFileMapsToEmptyView)
{
    const std::string path =
        ::testing::TempDir() + "cache_io_empty.bin";
    std::string error;
    ASSERT_TRUE(atomicWriteFile(path, "", &error)) << error;
    MappedFile map;
    ASSERT_TRUE(map.open(path, &error)) << error;
    EXPECT_TRUE(map.isOpen());
    EXPECT_EQ(map.size(), 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace mech
