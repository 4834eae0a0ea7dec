/**
 * @file
 * Persistent spills of a serve group's EvalCache: the `.mcache`
 * format behind mech_serve --cache-dir.
 *
 * A long-running server converges to a warm memo — restarting it
 * used to throw that state away.  A spill captures one group's
 * cache exactly: every SearchEval in first-evaluation order, each as
 * its DesignPoint::toKey() string, its content hash, and the raw
 * aggregate/per-benchmark objective values (IEEE-754 bit patterns,
 * so a load is bit-identical to the evaluations that produced it).
 *
 * The layout is a versioned little-endian binary encoding written
 * and read through the byte codec every binary artifact shares
 * (common/byte_codec.hh, also behind `.mprof`), so the file is stable
 * across hosts of either endianness.
 *
 * Loads are strict — a spill is a cache, and a stale cache is worse
 * than a cold one.  decodeEvalCache() rejects, without crashing:
 *
 *   - bad magic, truncation, trailing bytes, future format versions,
 *     an entry count too large for the bytes that follow;
 *   - a group-key mismatch (the file belongs to another
 *     bench/backends/objectives combination);
 *   - an objective-layout mismatch (aggregate/per-bench lengths);
 *   - any DesignPoint hash mismatch: each entry's stored hash is
 *     recomputed from its re-parsed key, and a header probe hash
 *     (the default point, hashed at write time) is checked first —
 *     so artifacts keyed by an older DesignPoint::hash() (PR 7
 *     widened it) are invalidated wholesale instead of silently
 *     colliding.
 *
 * Rejection means "start cold", never "crash the server".
 */

#ifndef MECH_SEARCH_CACHE_IO_HH
#define MECH_SEARCH_CACHE_IO_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "search/eval_cache.hh"

namespace mech {

/** Current `.mcache` spill format version. */
inline constexpr std::uint32_t kCacheSpillFormatVersion = 1;

/** File extension of cache spills. */
inline constexpr const char *kCacheSpillExtension = ".mcache";

/**
 * Serialize @p cache (entries in firstIndex order) for the group
 * identified by @p group_key, whose SearchEval layout is
 * @p aggregate_len aggregate and @p per_bench_len per-benchmark
 * values per entry.
 */
std::string encodeEvalCache(const EvalCache &cache,
                            const std::string &group_key,
                            std::uint32_t aggregate_len,
                            std::uint32_t per_bench_len);

/**
 * Decode a spill into @p out (which must be empty), validating it
 * against the expected group key and layout.  Returns false with a
 * reason in @p error (when non-null) on any mismatch or corruption;
 * @p out may then hold a partial load and must be discarded.
 * Insertion order equals the writer's firstIndex order, so a loaded
 * cache reproduces the original entries() sequence exactly.
 */
bool decodeEvalCache(std::string_view bytes,
                     const std::string &expected_group_key,
                     std::uint32_t aggregate_len,
                     std::uint32_t per_bench_len, EvalCache *out,
                     std::string *error = nullptr);

/**
 * Canonical spill path for @p group_key under @p dir: a stable FNV-1a
 * hash of the key (keys name benchmarks/backends/objectives and are
 * not file-system safe) plus ".mcache".
 */
std::string cacheSpillPath(const std::string &dir,
                           const std::string &group_key);

} // namespace mech

#endif // MECH_SEARCH_CACHE_IO_HH
