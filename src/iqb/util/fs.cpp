#include "iqb/util/fs.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

namespace iqb::util::fs {

namespace {

/// Slice-by-16 tables for the reflected IEEE polynomial 0xEDB88320,
/// built once. tables[0] is the classic byte-at-a-time table;
/// tables[k] advances a byte through k additional zero bytes, so
/// sixteen input bytes fold into the state with sixteen independent
/// table lookups instead of sixteen dependent byte steps.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

util::Error io_error(const std::string& what,
                     const std::filesystem::path& path) {
  return util::make_error(util::ErrorCode::kIoError,
                          what + " '" + path.string() +
                              "': " + std::strerror(errno));
}

/// Write the whole buffer to fd, retrying on EINTR / short writes.
bool write_all(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written,
                              data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync the directory holding `path` so the rename itself is durable.
/// Best-effort: some filesystems reject O_DIRECTORY fsync; the write
/// is still atomic with respect to readers either way.
void sync_parent_dir(const std::filesystem::path& path) {
  std::filesystem::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  static_cast<void>(fsync_dir(dir));  // best-effort: result ignored
}

}  // namespace

std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state,
                           std::string_view data) noexcept {
  const auto& t = crc32_tables();
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  // Little-endian u32 loads; compilers fuse the byte ORs into single
  // loads on LE targets, and the expression is correct on BE.
  const auto load_le32 = [](const unsigned char* q) {
    return static_cast<std::uint32_t>(q[0]) |
           static_cast<std::uint32_t>(q[1]) << 8 |
           static_cast<std::uint32_t>(q[2]) << 16 |
           static_cast<std::uint32_t>(q[3]) << 24;
  };
  while (n >= 16) {
    const std::uint32_t a = state ^ load_le32(p);
    const std::uint32_t b = load_le32(p + 4);
    const std::uint32_t c = load_le32(p + 8);
    const std::uint32_t d = load_le32(p + 12);
    state = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
            t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^ t[11][b & 0xFFu] ^
            t[10][(b >> 8) & 0xFFu] ^ t[9][(b >> 16) & 0xFFu] ^
            t[8][b >> 24] ^ t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^
            t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^ t[3][d & 0xFFu] ^
            t[2][(d >> 8) & 0xFFu] ^ t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
    p += 16;
    n -= 16;
  }
  while (n-- > 0) {
    state = t[0][(state ^ *p++) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::string_view data) noexcept {
  return crc32_final(crc32_update(crc32_init(), data));
}

util::Result<void> atomic_write(const std::filesystem::path& path,
                                std::string_view data) {
  // Unique-per-process temp name beside the target; a counter keeps
  // concurrent atomic_write calls from one process apart.
  static std::atomic<std::uint64_t> sequence{0};
  const std::filesystem::path temp =
      path.string() + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(sequence.fetch_add(1));

  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return io_error("cannot create temp file", temp);

  auto fail = [&](const std::string& what,
                  const std::filesystem::path& where) {
    util::Error error = io_error(what, where);
    ::close(fd);
    ::unlink(temp.c_str());
    return error;
  };

  if (!write_all(fd, data)) return fail("cannot write", temp);
  if (::fsync(fd) != 0) return fail("cannot fsync", temp);
  if (::close(fd) != 0) {
    util::Error error = io_error("cannot close", temp);
    ::unlink(temp.c_str());
    return error;
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    util::Error error = io_error("cannot rename into", path);
    ::unlink(temp.c_str());
    return error;
  }
  sync_parent_dir(path);
  return {};
}

util::Result<void> fsync_dir(const std::filesystem::path& dir) {
  const std::filesystem::path target = dir.empty() ? "." : dir;
  const int fd = ::open(target.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return io_error("cannot open directory", target);
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved_errno;
    return io_error("cannot fsync directory", target);
  }
  return {};
}

util::Result<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::make_error(util::ErrorCode::kIoError,
                            "cannot open '" + path.string() + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return util::make_error(util::ErrorCode::kIoError,
                            "read failed for '" + path.string() + "'");
  }
  return std::move(buffer).str();
}

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  if (!mapped_ && data_ != nullptr) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this == &other) return *this;
  reset();
  data_ = other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  fallback_ = std::move(other.fallback_);
  if (!mapped_ && data_ != nullptr) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  return *this;
}

void MappedFile::reset() noexcept {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<void*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

util::Result<MappedFile> MappedFile::open(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return io_error("cannot open", path);
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    util::Error error = io_error("cannot stat", path);
    ::close(fd);
    return error;
  }

  MappedFile file;
  if (S_ISREG(st.st_mode) && st.st_size > 0) {
    void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                        PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      ::close(fd);
      file.data_ = addr;
      file.size_ = static_cast<std::size_t>(st.st_size);
      file.mapped_ = true;
      return file;
    }
    // Fall through to the read() slurp: a filesystem that refuses
    // mmap still reads fine, and callers only ever see the view.
  }
  std::string buffer;
  if (st.st_size > 0) buffer.reserve(static_cast<std::size_t>(st.st_size));
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      util::Error error = io_error("cannot read", path);
      ::close(fd);
      return error;
    }
    if (n == 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  file.fallback_ = std::move(buffer);
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  file.mapped_ = false;
  return file;
}

}  // namespace iqb::util::fs
