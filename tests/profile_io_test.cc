/**
 * @file
 * Tests for the `.mprof` profile artifact codec: bit-identical model
 * results across a save/load round trip over the full 192-point
 * Table 2 space (the acceptance contract of the artifact workflow),
 * lossless field-level round trips, rejection of truncated files,
 * trailing bytes, bad magic, and future format versions, and atomic
 * overwrites that never disturb a reader holding the old file.
 */

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.hh"
#include "dse/design_space.hh"
#include "dse/study.hh"
#include "eval/registry.hh"
#include "profiler/profile_io.hh"
#include "workload/suites.hh"

namespace {

using namespace mech;

constexpr InstCount kLen = 20000;

/** One shared in-memory artifact encoding for the format tests. */
const std::string &
encodedArtifact()
{
    static const std::string encoded = [] {
        DseStudy study(profileByName("patricia"), kLen);
        ProfileArtifact artifact;
        artifact.name = study.name();
        artifact.profile = study.profile();
        artifact.trace = study.trace();
        artifact.hasTrace = true;
        return encodeProfileArtifact(artifact);
    }();
    return encoded;
}

ProfileArtifact
decode(const std::string &bytes)
{
    return decodeProfileArtifact(bytes);
}

// ---- golden equality: artifact path vs in-process path --------------------------

TEST(ProfileIo, ModelResultsBitIdenticalAcrossFullTable2Space)
{
    const std::string path =
        testing::TempDir() + "profile_io_roundtrip.mprof";

    DseStudy fresh(profileByName("tiffdither"), kLen);
    fresh.save(path);
    DseStudy loaded = DseStudy::load(path);

    EXPECT_EQ(loaded.name(), fresh.name());
    ASSERT_TRUE(loaded.hasTrace());

    auto space = table2Space();
    ASSERT_EQ(space.size(), 192u);
    for (const auto &point : space) {
        EvalResult a = fresh.evaluate(point).model();
        EvalResult b = loaded.evaluate(point).model();
        // Bitwise equality: the artifact round trip must be exact,
        // not approximately equal.
        ASSERT_EQ(a.cycles, b.cycles) << point.label();
        ASSERT_EQ(a.instructions, b.instructions) << point.label();
        ASSERT_EQ(a.edp, b.edp) << point.label();
        for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
            auto comp = static_cast<CpiComponent>(c);
            ASSERT_EQ(a.stack[comp], b.stack[comp])
                << point.label() << " component "
                << cpiComponentName(comp);
        }
    }
}

TEST(ProfileIo, SimulationBitIdenticalFromLoadedTrace)
{
    const std::string path =
        testing::TempDir() + "profile_io_sim.mprof";

    DseStudy fresh(profileByName("sha"), kLen);
    fresh.save(path);
    DseStudy loaded = DseStudy::load(path);

    const BackendSet backends = backendSet("sim");
    DesignPoint point = defaultDesignPoint();
    EvalResult a = fresh.evaluate(point, backends).of(kSimBackend);
    EvalResult b = loaded.evaluate(point, backends).of(kSimBackend);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.detail->cycles, b.detail->cycles);
    EXPECT_EQ(a.detail->mispredicts, b.detail->mispredicts);
    EXPECT_EQ(a.detail->dependencyStallCycles,
              b.detail->dependencyStallCycles);
}

// ---- lossless field round trip ---------------------------------------------------

TEST(ProfileIo, FieldsRoundTripLosslessly)
{
    ProfileArtifact artifact = decode(encodedArtifact());
    const std::string reencoded = encodeProfileArtifact(artifact);
    ASSERT_EQ(reencoded, encodedArtifact())
        << "re-encoding must be byte-identical";
    ProfileArtifact again = decode(reencoded);

    const WorkloadProfile &p = artifact.profile;
    const WorkloadProfile &q = again.profile;
    EXPECT_EQ(artifact.name, again.name);
    EXPECT_EQ(p.program.n, q.program.n);
    EXPECT_EQ(p.program.branches, q.program.branches);
    EXPECT_EQ(p.program.takenBranches, q.program.takenBranches);
    for (std::size_t oc = 0; oc < kNumOpClasses; ++oc) {
        EXPECT_EQ(p.program.mix.counts[oc], q.program.mix.counts[oc]);
        const Histogram &ha =
            p.program.deps.of(static_cast<OpClass>(oc));
        const Histogram &hb =
            q.program.deps.of(static_cast<OpClass>(oc));
        EXPECT_EQ(ha.total(), hb.total());
        EXPECT_EQ(ha.maxKey(), hb.maxKey());
        for (std::uint64_t k = 0; k <= ha.maxKey(); ++k)
            EXPECT_EQ(ha.at(k), hb.at(k));
    }
    EXPECT_EQ(p.memory.loadMemoryIdx, q.memory.loadMemoryIdx);
    EXPECT_EQ(p.memory.loadL2HitIdx, q.memory.loadL2HitIdx);
    EXPECT_EQ(p.l2Stream.size(), q.l2Stream.size());
    ASSERT_EQ(p.branchProfiles.size(), q.branchProfiles.size());
    for (std::size_t i = 0; i < p.branchProfiles.size(); ++i) {
        EXPECT_EQ(p.branchProfiles[i].kind, q.branchProfiles[i].kind);
        EXPECT_EQ(p.branchProfiles[i].mispredicts,
                  q.branchProfiles[i].mispredicts);
        EXPECT_EQ(p.branchProfiles[i].predictedTakenCorrect,
                  q.branchProfiles[i].predictedTakenCorrect);
    }
    ASSERT_EQ(artifact.trace.size(), again.trace.size());
    for (std::size_t i = 0; i < artifact.trace.size(); ++i) {
        EXPECT_EQ(artifact.trace[i].pc, again.trace[i].pc);
        EXPECT_EQ(artifact.trace[i].op, again.trace[i].op);
        EXPECT_EQ(artifact.trace[i].taken, again.trace[i].taken);
    }
}

TEST(ProfileIo, TracelessArtifactSupportsModelOnly)
{
    const std::string path =
        testing::TempDir() + "profile_io_notrace.mprof";

    DseStudy fresh(profileByName("qsort"), kLen);
    fresh.save(path, /*include_trace=*/false);
    DseStudy loaded = DseStudy::load(path);

    EXPECT_FALSE(loaded.hasTrace());
    EvalResult a = fresh.evaluate(defaultDesignPoint()).model();
    EvalResult b = loaded.evaluate(defaultDesignPoint()).model();
    EXPECT_EQ(a.cycles, b.cycles);
}

// ---- malformed input rejection ---------------------------------------------------

TEST(ProfileIo, RejectsBadMagic)
{
    std::string bytes = encodedArtifact();
    bytes[0] = 'X';
    EXPECT_THROW(decode(bytes), ProfileIoError);
}

TEST(ProfileIo, RejectsFutureVersion)
{
    std::string bytes = encodedArtifact();
    // The version is the little-endian u32 right after the magic.
    bytes[4] = static_cast<char>(kProfileFormatVersion + 1);
    EXPECT_THROW(decode(bytes), ProfileIoError);
}

TEST(ProfileIo, RejectsVersionZero)
{
    std::string bytes = encodedArtifact();
    bytes[4] = 0;
    EXPECT_THROW(decode(bytes), ProfileIoError);
}

TEST(ProfileIo, RejectsTruncation)
{
    const std::string &bytes = encodedArtifact();
    // Cut everywhere interesting: inside the header, inside each
    // section, and one byte short of complete.
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{3}, std::size_t{6},
          std::size_t{16}, bytes.size() / 4, bytes.size() / 2,
          bytes.size() - 1}) {
        ASSERT_LT(cut, bytes.size());
        EXPECT_THROW(decode(bytes.substr(0, cut)), ProfileIoError)
            << "cut at " << cut;
    }
}

TEST(ProfileIo, RejectsTrailingCorruption)
{
    std::string bytes = encodedArtifact();
    // Damage the end marker: everything parses but the file cannot
    // be trusted.
    bytes[bytes.size() - 1] = '?';
    EXPECT_THROW(decode(bytes), ProfileIoError);
}

TEST(ProfileIo, RejectsTrailingBytes)
{
    const std::string bytes = encodedArtifact() + '\0';
    EXPECT_THROW(decode(bytes), ProfileIoError);

    // The file path decodes the same bytes the same way.
    const std::string path =
        testing::TempDir() + "profile_io_trailing.mprof";
    ASSERT_TRUE(atomicWriteFile(path, bytes));
    EXPECT_THROW(loadProfileArtifact(path), ProfileIoError);
}

TEST(ProfileIo, OverwriteLeavesOldMappingIntact)
{
    const std::filesystem::path dir =
        testing::TempDir() + "profile_io_overwrite";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    const std::string path = (dir / "patricia.mprof").string();

    const ProfileArtifact a = decode(encodedArtifact());
    ProfileArtifact b = a;
    b.name = "patricia-notrace";
    b.hasTrace = false;
    b.trace = Trace();

    saveProfileArtifact(a, path);
    MappedFile held;
    ASSERT_TRUE(held.open(path));
    saveProfileArtifact(b, path);

    // The reader that mapped A before the overwrite still sees all
    // of A: the save replaced the directory entry, not the bytes.
    ASSERT_EQ(held.size(), encodedArtifact().size());
    EXPECT_TRUE(held.view() == encodedArtifact());
    EXPECT_EQ(decodeProfileArtifact(held.view()).name, a.name);

    ProfileArtifact loaded = loadProfileArtifact(path);
    EXPECT_EQ(loaded.name, b.name);
    EXPECT_FALSE(loaded.hasTrace);

    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "staging file left behind: " << entry.path();
    }
}

TEST(ProfileIo, MissingFileThrows)
{
    EXPECT_THROW(
        loadProfileArtifact(testing::TempDir() +
                            "profile_io_does_not_exist.mprof"),
        ProfileIoError);
}

TEST(ProfileIo, ArtifactPathJoinsDirAndName)
{
    EXPECT_EQ(profileArtifactPath("profiles", "sha"),
              "profiles/sha.mprof");
    EXPECT_EQ(profileArtifactPath("profiles/", "sha"),
              "profiles/sha.mprof");
}

} // namespace
