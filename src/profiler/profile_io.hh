/**
 * @file
 * Serializable profile artifacts: the `.mprof` format.
 *
 * The paper's workflow is "profile once, predict the whole design
 * space"; an on-disk profile artifact makes the expensive half of that
 * workflow persistent, so a profiling pass in one process serves model
 * evaluations in any number of later processes (tools/mech_profile
 * writes artifacts; calibrate and the figure benches consume them via
 * --profile-dir).
 *
 * An artifact carries the complete profiling result for one benchmark:
 * the machine-independent ProgramStats, the MemoryStats of the profiled
 * hierarchy, every trained BranchProfile, and the captured L2 input
 * stream from which sweepL2() derives MemoryStats for any L2
 * geometry.  The dynamic trace itself is included by default so
 * trace-replaying backends ("sim") work from a loaded artifact too;
 * model-only artifacts can omit it (roughly 40x smaller).
 *
 * Format: a versioned little-endian binary layout, encoded through
 * the shared byte codec (common/byte_codec.hh) that `.mcache` spills
 * use too — stable across hosts of either endianness because every
 * integer is encoded byte-by-byte.  All profile quantities are
 * integers, so a round trip is exact and model results computed from
 * a loaded artifact are bit-identical to the in-process path.  A JSON
 * debug dump (writeProfileJson) mirrors the summary statistics for
 * humans.
 *
 * Files go through the same path as every other binary artifact:
 * saves are atomic (atomicWriteFile stages, fsyncs and renames, so a
 * concurrent reader sees the old artifact or the new one, never a
 * prefix) and loads decode straight out of a MappedFile.
 *
 * Decoding rejects bad magic, truncation, trailing bytes after the
 * end marker, artifacts written by future format versions, and any
 * count too large for the bytes that follow, with ProfileIoError.
 */

#ifndef MECH_PROFILER_PROFILE_IO_HH
#define MECH_PROFILER_PROFILE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "profiler/profile_data.hh"
#include "trace/trace.hh"

namespace mech {

/** Error raised for any malformed or unreadable artifact. */
class ProfileIoError : public std::runtime_error
{
  public:
    explicit ProfileIoError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Current `.mprof` format version. */
inline constexpr std::uint32_t kProfileFormatVersion = 1;

/** File extension of profile artifacts. */
inline constexpr const char *kProfileExtension = ".mprof";

/** A complete serializable profiling result for one benchmark. */
struct ProfileArtifact
{
    /** Benchmark name the profile was collected for. */
    std::string name;

    /** The profiling result (program + memory + branch + L2 stream). */
    WorkloadProfile profile;

    /** The profiled dynamic trace (empty when hasTrace is false). */
    Trace trace;

    /** True when the artifact carries the trace. */
    bool hasTrace = true;
};

/** Encode @p artifact as `.mprof` bytes. */
std::string encodeProfileArtifact(const ProfileArtifact &artifact);

/**
 * Decode an artifact from @p bytes, which must hold exactly one.
 *
 * Throws ProfileIoError on bad magic, truncation, trailing bytes,
 * unsupported future versions, or any malformed payload.
 */
ProfileArtifact decodeProfileArtifact(std::string_view bytes);

/**
 * Save @p artifact to @p path atomically (see atomicWriteFile).
 * Throws ProfileIoError when the file cannot be written.
 */
void saveProfileArtifact(const ProfileArtifact &artifact,
                         const std::string &path);

/** Map and decode the artifact at @p path (throws ProfileIoError). */
ProfileArtifact loadProfileArtifact(const std::string &path);

/**
 * Human-readable JSON summary of @p artifact (counters and per-kind
 * branch statistics; not a lossless encoding — the binary format is).
 */
void writeProfileJson(const ProfileArtifact &artifact, std::ostream &os);

/** Canonical artifact path for benchmark @p name under @p dir. */
std::string profileArtifactPath(const std::string &dir,
                                const std::string &name);

} // namespace mech

#endif // MECH_PROFILER_PROFILE_IO_HH
