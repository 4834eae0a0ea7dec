#include "common/file_util.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mech {

namespace {

void
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what + ": " + std::strerror(errno);
}

} // namespace

MappedFile::~MappedFile()
{
    close();
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : base(std::exchange(other.base, nullptr)),
      length(std::exchange(other.length, 0)),
      opened(std::exchange(other.opened, false))
{
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        close();
        base = std::exchange(other.base, nullptr);
        length = std::exchange(other.length, 0);
        opened = std::exchange(other.opened, false);
    }
    return *this;
}

bool
MappedFile::open(const std::string &path, std::string *error)
{
    close();
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        setError(error, "open '" + path + "'");
        return false;
    }
    struct stat st;
    if (::fstat(fd, &st) < 0 || !S_ISREG(st.st_mode)) {
        setError(error, "stat '" + path + "'");
        ::close(fd);
        return false;
    }
    length = static_cast<std::size_t>(st.st_size);
    if (length > 0) {
        void *p = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
        if (p == MAP_FAILED) {
            setError(error, "mmap '" + path + "'");
            length = 0;
            ::close(fd);
            return false;
        }
        base = p;
    }
    ::close(fd); // the mapping outlives the descriptor
    opened = true;
    return true;
}

void
MappedFile::close()
{
    if (base)
        ::munmap(base, length);
    base = nullptr;
    length = 0;
    opened = false;
}

bool
atomicWriteFile(const std::string &path, std::string_view bytes,
                std::string *error)
{
    // Stage in the target's directory so the final rename(2) cannot
    // cross file systems (a cross-device rename is not atomic).  The
    // name is unique per process and call; O_EXCL skips a leftover
    // of a crashed process that had the same pid.  Unlike mkstemp(3),
    // open(2) applies the umask instead of forcing mode 0600.
    static std::atomic<unsigned> serial{0};
    std::string tmp;
    int fd = -1;
    for (int attempt = 0; fd < 0 && attempt < 16; ++attempt) {
        tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
              std::to_string(serial++);
        fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                    0666);
        if (fd < 0 && errno != EEXIST)
            break;
    }
    if (fd < 0) {
        setError(error, "create '" + tmp + "'");
        return false;
    }

    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t put =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            setError(error, "write '" + tmp + "'");
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        off += static_cast<std::size_t>(put);
    }
    if (::fsync(fd) < 0 || ::close(fd) < 0) {
        setError(error, "fsync '" + tmp + "'");
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) < 0) {
        setError(error, "rename '" + tmp + "' -> '" + path + "'");
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

bool
ensureDirectory(const std::string &path, std::string *error)
{
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST)
        return true;
    setError(error, "mkdir '" + path + "'");
    return false;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

} // namespace mech
