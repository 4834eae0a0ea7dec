#include "search/cache_io.hh"

#include <cstdio>
#include <optional>
#include <utility>

#include "common/byte_codec.hh"

namespace mech {

namespace {

constexpr std::string_view kMagic = "MCSP";

/** FNV-1a over a string, for spill file names. */
std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
fail(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

} // namespace

std::string
encodeEvalCache(const EvalCache &cache, const std::string &group_key,
                std::uint32_t aggregate_len,
                std::uint32_t per_bench_len)
{
    ByteWriter w;
    w.bytes(kMagic);
    w.u32(kCacheSpillFormatVersion);
    // Probe hash: lets a reader detect a changed DesignPoint::hash()
    // from the header alone, before touching any entry.
    w.u64(defaultDesignPoint().hash());
    w.str<std::uint32_t>(group_key);
    w.u32(aggregate_len);
    w.u32(per_bench_len);

    const std::vector<const SearchEval *> entries = cache.entries();
    w.u64(entries.size());
    for (const SearchEval *eval : entries) {
        w.str<std::uint32_t>(eval->point.toKey());
        w.u64(eval->point.hash());
        for (double v : eval->aggregate)
            w.f64(v);
        for (double v : eval->perBench)
            w.f64(v);
    }
    return w.take();
}

bool
decodeEvalCache(std::string_view bytes,
                const std::string &expected_group_key,
                std::uint32_t aggregate_len,
                std::uint32_t per_bench_len, EvalCache *out,
                std::string *error)
{
    ByteReader r(bytes);
    try {
        if (r.bytes(kMagic.size()) != kMagic)
            return fail(error, "not a cache spill (bad magic)");
        std::uint32_t version = r.u32();
        if (version != kCacheSpillFormatVersion) {
            return fail(error,
                        "unsupported spill format version " +
                            std::to_string(version) + " (this build "
                            "reads version " +
                            std::to_string(kCacheSpillFormatVersion) +
                            ")");
        }
        if (r.u64() != defaultDesignPoint().hash()) {
            return fail(error,
                        "DesignPoint hash scheme changed since this "
                        "spill was written; discarding it");
        }
        std::string group_key = r.str<std::uint32_t>();
        if (group_key != expected_group_key) {
            return fail(error, "spill belongs to group '" + group_key +
                                   "', not '" + expected_group_key +
                                   "'");
        }
        std::uint32_t agg_len = r.u32();
        std::uint32_t pb_len = r.u32();
        if (agg_len != aggregate_len || pb_len != per_bench_len) {
            return fail(error, "objective layout mismatch (spill " +
                                   std::to_string(agg_len) + "/" +
                                   std::to_string(pb_len) + ", group " +
                                   std::to_string(aggregate_len) + "/" +
                                   std::to_string(per_bench_len) + ")");
        }

        // Each entry holds at least a key prefix, a hash and its
        // objective values.
        const std::size_t entry_bytes =
            4 + 8 + 8 * (std::size_t{aggregate_len} + per_bench_len);
        const std::size_t count = r.count(r.u64(), entry_bytes);
        for (std::size_t i = 0; i < count; ++i) {
            const std::string key = r.str<std::uint32_t>();
            std::optional<DesignPoint> point = DesignPoint::fromKey(key);
            if (!point) {
                return fail(error, "entry " + std::to_string(i) +
                                       " has a malformed point key '" +
                                       key + "'");
            }
            if (point->hash() != r.u64()) {
                return fail(error,
                            "entry " + std::to_string(i) +
                                " hash mismatch (stale DesignPoint hash "
                                "scheme); discarding spill");
            }
            SearchEval eval;
            eval.point = *point;
            eval.aggregate.resize(aggregate_len);
            eval.perBench.resize(per_bench_len);
            for (double &v : eval.aggregate)
                v = r.f64();
            for (double &v : eval.perBench)
                v = r.f64();
            out->insert(std::move(eval));
        }
    } catch (const ByteCodecError &e) {
        return fail(error, std::string("corrupt cache spill (") +
                               e.what() + ")");
    }
    if (!r.atEnd())
        return fail(error, "trailing bytes after the last entry");
    return true;
}

std::string
cacheSpillPath(const std::string &dir, const std::string &group_key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(group_key)));
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    return path + hex + kCacheSpillExtension;
}

} // namespace mech
