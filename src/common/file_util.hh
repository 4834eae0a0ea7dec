/**
 * @file
 * Small file-system utilities for persistent artifacts.
 *
 * Every persistent artifact goes through this header — `.mprof` profiles
 * (profiler/profile_io.hh), `.mcache` warm-cache spills
 * (search/cache_io.hh) and `.mdesc` machine descriptions
 * (characterize/mdesc.hh) — so they share two guarantees.  Reads do
 * not copy: MappedFile wraps mmap(2) behind a movable RAII view and a
 * decoder works straight out of the page cache.  Writes are atomic:
 * atomicWriteFile() stages into a same-directory temp file, fsyncs it
 * and rename(2)s it into place, so a crash, a signal or a concurrent
 * reader can never observe a half-written artifact, and a reader that
 * already holds a mapping of the old file keeps seeing the old bytes.
 *
 * Everything reports failure through a bool + message out-param
 * rather than exceptions, so each caller keeps its own contract: the
 * serve layer treats a missing or unreadable spill as an ordinary
 * cold start, while `.mprof` and `.mdesc` raise their format's error.
 */

#ifndef MECH_COMMON_FILE_UTIL_HH
#define MECH_COMMON_FILE_UTIL_HH

#include <cstddef>
#include <string>
#include <string_view>

namespace mech {

/** Read-only mmap(2) view of a whole file. */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /**
     * Map @p path read-only.  Returns false (with a message in
     * @p error when non-null) if the file cannot be opened or
     * mapped.  An empty file maps successfully to an empty view.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    /** Unmap; the object returns to the default-constructed state. */
    void close();

    /** True while a mapping is held (empty files included). */
    bool isOpen() const { return opened; }

    /** The mapped bytes (valid until close()/destruction). */
    std::string_view view() const
    {
        return {static_cast<const char *>(base), length};
    }

    std::size_t size() const { return length; }

  private:
    void *base = nullptr;
    std::size_t length = 0;
    bool opened = false;
};

/**
 * Write @p bytes to @p path atomically: stage into a unique temp file
 * (`<path>.tmp.<pid>.<n>`) in the same directory, fsync it, then
 * rename(2) over the target.  Readers see either the old file or the
 * complete new one, never a prefix.  The file is created with mode
 * 0666 less the umask, like any ordinary output file.  Returns false
 * with a message on any failure (the temp file is removed).
 */
bool atomicWriteFile(const std::string &path, std::string_view bytes,
                     std::string *error = nullptr);

/**
 * Create directory @p path (one level; parents must exist).  An
 * already-existing directory succeeds.
 */
bool ensureDirectory(const std::string &path,
                     std::string *error = nullptr);

/** True when @p path names an existing regular file. */
bool fileExists(const std::string &path);

} // namespace mech

#endif // MECH_COMMON_FILE_UTIL_HH
