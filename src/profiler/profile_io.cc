#include "profiler/profile_io.hh"

#include <ostream>
#include <string_view>

#include "branch/predictor.hh"
#include "common/byte_codec.hh"
#include "common/file_util.hh"

namespace mech {

namespace {

/** File magic. */
constexpr std::string_view kMagic = "MPRF";

/** Trailing end marker (catches tail truncation). */
constexpr std::string_view kEndMarker = "MEND";

/** Artifact flag bits. */
constexpr std::uint32_t kFlagHasTrace = 1u << 0;

/**
 * Encoded bytes of one record in each length-prefixed section, for
 * ByteReader::count(): a forged length fails before anything is
 * reserved for it.
 */
constexpr std::size_t kU64Bytes = 8;
constexpr std::size_t kBranchProfileBytes = 1 + 4 * 8;
constexpr std::size_t kL2RefBytes = 8 + 8 + 1;
constexpr std::size_t kTraceInstrBytes = 3 * 8 + 3 * 2 + 1 + 1;

void
writeHistogram(ByteWriter &w, const Histogram &h)
{
    const auto &counts = h.data();
    w.u64(counts.size());
    for (std::uint64_t c : counts)
        w.u64(c);
}

Histogram
readHistogram(ByteReader &r)
{
    Histogram h;
    std::uint64_t size = r.u64();
    if (size > (1u << 24))
        throw ProfileIoError("implausible histogram size");
    r.count(size, kU64Bytes);
    for (std::uint64_t k = 0; k < size; ++k) {
        std::uint64_t c = r.u64();
        if (c)
            h.add(k, c);
    }
    return h;
}

void
writeIdxVector(ByteWriter &w, const std::vector<std::uint64_t> &v)
{
    w.u64(v.size());
    for (std::uint64_t x : v)
        w.u64(x);
}

std::vector<std::uint64_t>
readIdxVector(ByteReader &r)
{
    std::uint64_t n = r.u64();
    if (n > (1ull << 32))
        throw ProfileIoError("implausible index-vector length");
    std::vector<std::uint64_t> v(r.count(n, kU64Bytes));
    for (std::uint64_t &x : v)
        x = r.u64();
    return v;
}

void
writeMemoryStats(ByteWriter &w, const MemoryStats &m)
{
    w.u64(m.iFetchL2Hits);
    w.u64(m.iFetchMemory);
    w.u64(m.loadL2Hits);
    w.u64(m.loadMemory);
    w.u64(m.storeL1Misses);
    w.u64(m.itlbMisses);
    w.u64(m.dtlbMisses);
    writeIdxVector(w, m.loadMemoryIdx);
    writeIdxVector(w, m.loadL2HitIdx);
}

MemoryStats
readMemoryStats(ByteReader &r)
{
    MemoryStats m;
    m.iFetchL2Hits = r.u64();
    m.iFetchMemory = r.u64();
    m.loadL2Hits = r.u64();
    m.loadMemory = r.u64();
    m.storeL1Misses = r.u64();
    m.itlbMisses = r.u64();
    m.dtlbMisses = r.u64();
    m.loadMemoryIdx = readIdxVector(r);
    m.loadL2HitIdx = readIdxVector(r);
    return m;
}

void
writeProgramStats(ByteWriter &w, const ProgramStats &p)
{
    w.u64(p.n);
    w.u32(static_cast<std::uint32_t>(kNumOpClasses));
    for (InstCount c : p.mix.counts)
        w.u64(c);
    w.u64(p.mix.total);
    for (std::size_t oc = 0; oc < kNumOpClasses; ++oc)
        writeHistogram(w, p.deps.of(static_cast<OpClass>(oc)));
    w.u64(p.branches);
    w.u64(p.takenBranches);
}

ProgramStats
readProgramStats(ByteReader &r)
{
    ProgramStats p;
    p.n = r.u64();
    if (r.u32() != kNumOpClasses)
        throw ProfileIoError("op-class count mismatch");
    for (InstCount &c : p.mix.counts)
        c = r.u64();
    p.mix.total = r.u64();
    for (std::size_t oc = 0; oc < kNumOpClasses; ++oc)
        p.deps.of(static_cast<OpClass>(oc)) = readHistogram(r);
    p.branches = r.u64();
    p.takenBranches = r.u64();
    return p;
}

void
writeBranchProfiles(ByteWriter &w, const std::vector<BranchProfile> &bps)
{
    w.u32(static_cast<std::uint32_t>(bps.size()));
    for (const BranchProfile &bp : bps) {
        w.u8(static_cast<std::uint8_t>(bp.kind));
        w.u64(bp.branches);
        w.u64(bp.mispredicts);
        w.u64(bp.predictedTaken);
        w.u64(bp.predictedTakenCorrect);
    }
}

std::vector<BranchProfile>
readBranchProfiles(ByteReader &r)
{
    std::uint32_t n = r.u32();
    if (n > 64)
        throw ProfileIoError("implausible branch-profile count");
    std::vector<BranchProfile> bps(r.count(n, kBranchProfileBytes));
    for (BranchProfile &bp : bps) {
        std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(PredictorKind::Hybrid3K5))
            throw ProfileIoError("unknown predictor kind in artifact");
        bp.kind = static_cast<PredictorKind>(kind);
        bp.branches = r.u64();
        bp.mispredicts = r.u64();
        bp.predictedTaken = r.u64();
        bp.predictedTakenCorrect = r.u64();
    }
    return bps;
}

void
writeL2Stream(ByteWriter &w, const std::vector<L2Ref> &stream)
{
    w.u64(stream.size());
    for (const L2Ref &ref : stream) {
        w.u64(ref.addr);
        w.u64(ref.instrIdx);
        w.u8(static_cast<std::uint8_t>(ref.kind));
    }
}

std::vector<L2Ref>
readL2Stream(ByteReader &r)
{
    std::uint64_t n = r.u64();
    if (n > (1ull << 32))
        throw ProfileIoError("implausible L2-stream length");
    std::vector<L2Ref> stream(r.count(n, kL2RefBytes));
    for (L2Ref &ref : stream) {
        ref.addr = r.u64();
        ref.instrIdx = r.u64();
        std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(L2RefKind::Store))
            throw ProfileIoError("unknown L2 reference kind");
        ref.kind = static_cast<L2RefKind>(kind);
    }
    return stream;
}

void
writeTrace(ByteWriter &w, const Trace &trace)
{
    w.u64(trace.size());
    for (const DynInstr &di : trace) {
        w.u64(di.pc);
        w.u64(di.effAddr);
        w.u64(di.targetPc);
        w.u16(di.dst);
        w.u16(di.src1);
        w.u16(di.src2);
        w.u8(static_cast<std::uint8_t>(di.op));
        w.u8(di.taken ? 1 : 0);
    }
}

Trace
readTrace(ByteReader &r)
{
    std::uint64_t n = r.u64();
    if (n > (1ull << 32))
        throw ProfileIoError("implausible trace length");
    Trace trace;
    trace.reserve(r.count(n, kTraceInstrBytes));
    for (std::uint64_t i = 0; i < n; ++i) {
        DynInstr di;
        di.pc = r.u64();
        di.effAddr = r.u64();
        di.targetPc = r.u64();
        di.dst = r.u16();
        di.src1 = r.u16();
        di.src2 = r.u16();
        std::uint8_t op = r.u8();
        if (op >= kNumOpClasses)
            throw ProfileIoError("unknown op class in trace");
        di.op = static_cast<OpClass>(op);
        di.taken = r.u8() != 0;
        trace.push(di);
    }
    return trace;
}

ProfileArtifact
readArtifact(ByteReader &r)
{
    if (r.bytes(kMagic.size()) != kMagic)
        throw ProfileIoError("not a profile artifact (bad magic)");

    std::uint32_t version = r.u32();
    if (version == 0 || version > kProfileFormatVersion) {
        throw ProfileIoError(
            "unsupported profile format version " +
            std::to_string(version) + " (reader supports up to " +
            std::to_string(kProfileFormatVersion) + ")");
    }

    std::uint32_t flags = r.u32();
    ProfileArtifact artifact;
    artifact.hasTrace = (flags & kFlagHasTrace) != 0;
    artifact.name = r.str<std::uint64_t>(1u << 20);

    artifact.profile.program = readProgramStats(r);
    artifact.profile.memory = readMemoryStats(r);
    artifact.profile.branchProfiles = readBranchProfiles(r);
    artifact.profile.l2Stream = readL2Stream(r);

    if (artifact.hasTrace)
        artifact.trace = readTrace(r);

    if (r.bytes(kEndMarker.size()) != kEndMarker)
        throw ProfileIoError("corrupt profile artifact (bad end marker)");
    if (!r.atEnd())
        throw ProfileIoError("trailing bytes after the end marker");
    return artifact;
}

} // namespace

std::string
encodeProfileArtifact(const ProfileArtifact &artifact)
{
    ByteWriter w;
    w.bytes(kMagic);
    w.u32(kProfileFormatVersion);
    w.u32(artifact.hasTrace ? kFlagHasTrace : 0);
    w.str<std::uint64_t>(artifact.name);

    writeProgramStats(w, artifact.profile.program);
    writeMemoryStats(w, artifact.profile.memory);
    writeBranchProfiles(w, artifact.profile.branchProfiles);
    writeL2Stream(w, artifact.profile.l2Stream);

    if (artifact.hasTrace)
        writeTrace(w, artifact.trace);

    w.bytes(kEndMarker);
    return w.take();
}

ProfileArtifact
decodeProfileArtifact(std::string_view bytes)
{
    ByteReader r(bytes);
    try {
        return readArtifact(r);
    } catch (const ByteCodecError &e) {
        throw ProfileIoError(std::string("corrupt profile artifact (") +
                             e.what() + ")");
    }
}

void
saveProfileArtifact(const ProfileArtifact &artifact,
                    const std::string &path)
{
    std::string error;
    if (!atomicWriteFile(path, encodeProfileArtifact(artifact), &error))
        throw ProfileIoError("cannot save profile artifact: " + error);
}

ProfileArtifact
loadProfileArtifact(const std::string &path)
{
    MappedFile file;
    std::string error;
    if (!file.open(path, &error))
        throw ProfileIoError("cannot load profile artifact: " + error);
    return decodeProfileArtifact(file.view());
}

void
writeProfileJson(const ProfileArtifact &artifact, std::ostream &os)
{
    const WorkloadProfile &p = artifact.profile;
    os << "{\n"
       << "  \"name\": \"" << artifact.name << "\",\n"
       << "  \"format_version\": " << kProfileFormatVersion << ",\n"
       << "  \"instructions\": " << p.program.n << ",\n"
       << "  \"branches\": " << p.program.branches << ",\n"
       << "  \"taken_branches\": " << p.program.takenBranches << ",\n"
       << "  \"mix\": {";
    bool first = true;
    for (std::size_t oc = 0; oc < kNumOpClasses; ++oc) {
        InstCount c = p.program.mix.counts[oc];
        if (!c)
            continue;
        os << (first ? "" : ", ") << '"'
           << opClassName(static_cast<OpClass>(oc)) << "\": " << c;
        first = false;
    }
    os << "},\n"
       << "  \"memory\": {\n"
       << "    \"ifetch_l2_hits\": " << p.memory.iFetchL2Hits << ",\n"
       << "    \"ifetch_memory\": " << p.memory.iFetchMemory << ",\n"
       << "    \"load_l2_hits\": " << p.memory.loadL2Hits << ",\n"
       << "    \"load_memory\": " << p.memory.loadMemory << ",\n"
       << "    \"store_l1_misses\": " << p.memory.storeL1Misses << ",\n"
       << "    \"itlb_misses\": " << p.memory.itlbMisses << ",\n"
       << "    \"dtlb_misses\": " << p.memory.dtlbMisses << "\n"
       << "  },\n"
       << "  \"branch_profiles\": [";
    for (std::size_t i = 0; i < p.branchProfiles.size(); ++i) {
        const BranchProfile &bp = p.branchProfiles[i];
        os << (i ? ", " : "") << "{\"kind\": \""
           << predictorName(bp.kind)
           << "\", \"branches\": " << bp.branches
           << ", \"mispredicts\": " << bp.mispredicts << "}";
    }
    os << "],\n"
       << "  \"l2_stream_refs\": " << p.l2Stream.size() << ",\n"
       << "  \"has_trace\": " << (artifact.hasTrace ? "true" : "false")
       << ",\n"
       << "  \"trace_instructions\": " << artifact.trace.size() << "\n"
       << "}\n";
}

std::string
profileArtifactPath(const std::string &dir, const std::string &name)
{
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    return path + name + kProfileExtension;
}

} // namespace mech
