/**
 * @file
 * Byte pins for the binary artifact formats: committed `.mprof` and
 * `.mcache` fixtures must decode, and re-encode to the very same
 * bytes.  Any codec change that moves a byte of the on-disk layout
 * fails here, so files written by earlier builds keep loading.
 *
 * The fixtures under tests/data were written by:
 *
 *   sha_2000.mprof          mech_profile --bench sha --instructions 2000
 *                           (the trace runs to the end of its last block:
 *                           2033 instructions)
 *   sha_2000_notrace.mprof  the same with --no-trace
 *   sha_cpi_edp.mcache      mech_serve --deterministic --instructions 2000
 *                           --cache-dir <dir>, after three model evals
 *                           of sha with objectives cpi,edp
 */

#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "profiler/profile_io.hh"
#include "search/cache_io.hh"
#include "search/eval_cache.hh"

namespace mech {
namespace {

std::string
dataPath(const std::string &name)
{
    return std::string(MECHSIM_TEST_DATA_DIR) + "/" + name;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "cannot open " << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

/** Load @p fixture, save it again, and require identical bytes. */
ProfileArtifact
expectProfileReencodesIdentically(const std::string &fixture)
{
    const std::string original = readBytes(dataPath(fixture));
    ProfileArtifact artifact = loadProfileArtifact(dataPath(fixture));

    const std::string copy = testing::TempDir() + "pin_" + fixture;
    saveProfileArtifact(artifact, copy);
    const std::string again = readBytes(copy);
    EXPECT_EQ(again.size(), original.size());
    // Compare as a bool: a failing EXPECT_EQ would print 64 KiB.
    EXPECT_TRUE(again == original)
        << fixture << " does not re-encode byte for byte";
    return artifact;
}

TEST(ArtifactPin, ProfileWithTraceReencodesByteForByte)
{
    ProfileArtifact artifact =
        expectProfileReencodesIdentically("sha_2000.mprof");
    EXPECT_EQ(artifact.name, "sha");
    EXPECT_TRUE(artifact.hasTrace);
    EXPECT_EQ(artifact.profile.program.n, 2033u);
    EXPECT_EQ(artifact.trace.size(), 2033u);
}

TEST(ArtifactPin, TracelessProfileReencodesByteForByte)
{
    ProfileArtifact artifact =
        expectProfileReencodesIdentically("sha_2000_notrace.mprof");
    EXPECT_EQ(artifact.name, "sha");
    EXPECT_FALSE(artifact.hasTrace);
    EXPECT_EQ(artifact.profile.program.n, 2033u);
    EXPECT_EQ(artifact.trace.size(), 0u);
}

TEST(ArtifactPin, CacheSpillReencodesByteForByte)
{
    const std::string key = "bench=sha|backends=model|obj=cpi,edp";
    const std::string original = readBytes(dataPath("sha_cpi_edp.mcache"));

    EvalCache cache;
    std::string error;
    ASSERT_TRUE(decodeEvalCache(original, key, 2, 2, &cache, &error))
        << error;
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_TRUE(encodeEvalCache(cache, key, 2, 2) == original)
        << "sha_cpi_edp.mcache does not re-encode byte for byte";
}

} // namespace
} // namespace mech
