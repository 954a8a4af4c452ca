#include "util/wal.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace mirage::util::wal {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'M', 'W', 'A', 'L', 'S', 'E', 'G', '1'};
constexpr std::size_t kMagicSize = sizeof(kMagic);
constexpr std::size_t kHeaderSize = 8;  // u32 size + u32 crc

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

std::string errno_message(const char* what, const std::string& path) {
  return std::string(what) + " failed for " + path + ": " + std::strerror(errno);
}

}  // namespace

std::uint32_t crc32c(std::uint32_t seed, const void* data, std::size_t size) {
  // Software table for the reflected Castagnoli polynomial 0x82F63B78;
  // portable, no SSE4.2 requirement, and fast enough that record CRCs are
  // noise next to the write(2) they guard.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

// ---- fault injector -------------------------------------------------------

namespace testing {
namespace {
// One process-wide injector. The armed flag is the only thing the hot
// path reads when tests aren't running; everything else is written under
// arm_fault/disarm_fault (tests are single-threaded around arming).
std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_ops{0};
std::uint64_t g_trigger = 0;
FaultMode g_mode = FaultMode::kNone;
double g_fraction = 0.0;
}  // namespace

void arm_fault(std::uint64_t trigger_op, FaultMode mode, double short_write_fraction) {
  g_ops.store(0, std::memory_order_relaxed);
  g_trigger = trigger_op;
  g_mode = mode;
  g_fraction = std::clamp(short_write_fraction, 0.0, 1.0);
  g_armed.store(true, std::memory_order_release);
}

void disarm_fault() {
  g_armed.store(false, std::memory_order_release);
  g_ops.store(0, std::memory_order_relaxed);
}

std::uint64_t fault_ops_seen() { return g_ops.load(std::memory_order_relaxed); }

}  // namespace testing

namespace {

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// The one fault hook. Every durable primitive (write, fsync, segment
// create, rename) calls it before the real op, so each call is one
// countable fault boundary. At the armed op it kills the process or fails
// with injected EIO; the short-write modes first complete a prefix of
// `data` when the op is a write. Returns false when the real op must not
// run.
bool fault_allows(const char* op, const std::string& path, std::string* error, int fd = -1,
                  const void* data = nullptr, std::size_t size = 0) {
  using testing::FaultMode;
  if (!testing::g_armed.load(std::memory_order_acquire)) return true;
  const std::uint64_t n = testing::g_ops.fetch_add(1, std::memory_order_relaxed) + 1;
  const FaultMode mode = testing::g_mode;
  if (n != testing::g_trigger || mode == FaultMode::kNone) return true;
  if (data != nullptr &&
      (mode == FaultMode::kShortWriteKill || mode == FaultMode::kShortWriteError)) {
    write_all(fd, data, static_cast<std::size_t>(static_cast<double>(size) * testing::g_fraction));
  }
  if (mode == FaultMode::kKill || mode == FaultMode::kShortWriteKill) {
    ::raise(SIGKILL);
    ::_exit(137);  // unreachable unless SIGKILL is somehow blocked
  }
  set_error(error, std::string("injected EIO ") + op + " " + path);
  return false;
}

bool fault_write(int fd, const void* data, std::size_t size, const std::string& path,
                 std::string* error) {
  if (!fault_allows("writing", path, error, fd, data, size)) return false;
  if (!write_all(fd, data, size)) {
    set_error(error, errno_message("write", path));
    return false;
  }
  return true;
}

bool fault_fsync(int fd, const std::string& path, std::string* error) {
  if (!fault_allows("syncing", path, error)) return false;
  if (::fsync(fd) != 0) {
    set_error(error, errno_message("fsync", path));
    return false;
  }
  return true;
}

// ---- segment scanning / torn-tail truncation ------------------------------

struct SegmentFile {
  std::uint64_t index;
  std::string path;
};

std::string segment_path(const std::string& dir, std::uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08" PRIu64 ".seg", index);
  return dir + "/" + name;
}

std::vector<SegmentFile> list_segments(const std::string& dir) {
  std::vector<SegmentFile> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() != 16 || name.rfind("wal-", 0) != 0 || name.substr(12) != ".seg") continue;
    char* end = nullptr;
    const std::uint64_t index = std::strtoull(name.c_str() + 4, &end, 10);
    if (end != name.c_str() + 12) continue;
    segments.push_back({index, entry.path().string()});
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) { return a.index < b.index; });
  return segments;
}

/// The shared recovery core: walk segments in index order, replay valid
/// records into `fn` (when given), and on the first torn/corrupt byte
/// truncate that segment there and DELETE every later segment — whatever
/// was appended after a lost byte is not a prefix and must not survive.
/// Also treats a gap in segment numbering as a torn point for the same
/// reason. Returns the list of surviving segments.
bool scan_and_truncate(const std::string& dir,
                       const std::function<void(const void*, std::size_t)>* fn, RecoveryInfo* info,
                       std::vector<SegmentFile>* surviving, std::string* error) {
  std::vector<SegmentFile> segments = list_segments(dir);
  bool torn = false;
  std::uint64_t prev_index = 0;
  bool have_prev = false;
  std::vector<std::uint8_t> bytes;  // recovery path; allocation is fine here
  std::vector<SegmentFile> keep;

  for (const SegmentFile& segment : segments) {
    std::error_code ec;
    const std::uint64_t file_size = fs::file_size(segment.path, ec);
    if (ec) {
      set_error(error, "stat failed for " + segment.path + ": " + ec.message());
      return false;
    }
    if (torn || (have_prev && segment.index != prev_index + 1)) {
      // Everything past a torn tail (or numbering gap) is unreachable
      // history — delete it so recovery is idempotent and the writer
      // never resurrects it.
      torn = true;
      if (info != nullptr) {
        info->truncated_bytes += file_size;
        info->torn_tail = true;
      }
      fs::remove(segment.path, ec);
      continue;
    }
    prev_index = segment.index;
    have_prev = true;

    bytes.resize(file_size);
    if (file_size > 0) {
      FILE* f = std::fopen(segment.path.c_str(), "rb");
      if (f == nullptr) {
        set_error(error, errno_message("open", segment.path));
        return false;
      }
      const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
      std::fclose(f);
      if (got != bytes.size()) {
        set_error(error, "short read from " + segment.path);
        return false;
      }
    }

    // A zero-length segment is a valid empty one (created, magic not yet
    // durable); anything shorter than the magic or with a wrong magic is
    // torn at offset 0.
    std::size_t off = 0;
    if (file_size > 0) {
      if (file_size >= kMagicSize && std::memcmp(bytes.data(), kMagic, kMagicSize) == 0) {
        off = kMagicSize;
        while (off + kHeaderSize <= file_size) {
          const std::uint32_t payload_size = load_u32_le(bytes.data() + off);
          const std::uint32_t stored_crc = load_u32_le(bytes.data() + off + 4);
          if (payload_size > file_size - off - kHeaderSize) break;  // torn length/payload
          std::uint32_t crc = crc32c(0, bytes.data() + off, 4);
          crc = crc32c(crc, bytes.data() + off + kHeaderSize, payload_size);
          if (crc != stored_crc) break;  // torn or corrupt record
          if (fn != nullptr && *fn) (*fn)(bytes.data() + off + kHeaderSize, payload_size);
          if (info != nullptr) ++info->records;
          off += kHeaderSize + payload_size;
        }
      }
      if (off < file_size) {
        torn = true;
        if (info != nullptr) {
          info->truncated_bytes += file_size - off;
          info->torn_tail = true;
        }
        std::error_code trunc_ec;
        fs::resize_file(segment.path, off, trunc_ec);
        if (trunc_ec) {
          set_error(error, "truncate failed for " + segment.path + ": " + trunc_ec.message());
          return false;
        }
      }
    }
    keep.push_back(segment);
    if (info != nullptr) ++info->segments;
  }

  if (surviving != nullptr) *surviving = std::move(keep);
  return true;
}

}  // namespace

bool recover(const std::string& dir, const std::function<void(const void*, std::size_t)>& fn,
             RecoveryInfo* info, std::string* error) {
  if (info != nullptr) *info = RecoveryInfo{};
  std::error_code ec;
  if (!fs::exists(dir, ec)) return true;  // nothing journaled yet — empty log
  return scan_and_truncate(dir, &fn, info, nullptr, error);
}

// ---- Writer ---------------------------------------------------------------

Writer::~Writer() { close(); }

bool Writer::open(const std::string& dir, const WalOptions& options, std::string* error) {
  close();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    set_error(error, "create_directories failed for " + dir + ": " + ec.message());
    return false;
  }

  dir_ = dir;
  options_ = options;
  options_.segment_bytes = std::max<std::size_t>(options_.segment_bytes, kMagicSize + kHeaderSize);
  buffer_.assign(kAppendBufferBytes, 0);
  buffered_ = 0;

  // Reopening over a crashed log: run the same truncation recover() does,
  // then continue appending after the last valid record.
  std::vector<SegmentFile> segments;
  if (!scan_and_truncate(dir, nullptr, nullptr, &segments, error)) return false;

  dir_fd_ = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd_ < 0) {
    set_error(error, errno_message("open(dir)", dir));
    return false;
  }

  if (segments.empty()) return open_segment(0, error) || stop();

  const SegmentFile& last = segments.back();
  fd_ = ::open(last.path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    set_error(error, errno_message("open", last.path));
    return stop();
  }
  segment_index_ = last.index;
  std::error_code size_ec;
  segment_size_ = fs::file_size(last.path, size_ec);
  if (size_ec) {
    set_error(error, "stat failed for " + last.path + ": " + size_ec.message());
    return stop();
  }
  if (segment_size_ == 0) {
    // Recovery truncated a torn magic back to zero — restore the header
    // before the first new record.
    if (!fault_write(fd_, kMagic, kMagicSize, last.path, error)) return stop();
    segment_size_ = kMagicSize;
  }
  return true;
}

bool Writer::open_segment(std::uint64_t index, std::string* error) {
  const std::string path = segment_path(dir_, index);
  if (!fault_allows("creating", path, error)) return false;
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    set_error(error, errno_message("open", path));
    return false;
  }
  if (!fault_write(fd, kMagic, kMagicSize, path, error)) {
    ::close(fd);
    return false;
  }
  if (options_.sync == SyncLevel::kOnCommit) {
    // Make the segment's directory entry durable so a power loss can't
    // orphan records written into a file the directory forgot.
    if (!fault_fsync(dir_fd_, dir_, error)) {
      ::close(fd);
      return false;
    }
  }
  fd_ = fd;
  segment_index_ = index;
  segment_size_ = kMagicSize;
  return true;
}

bool Writer::append(const void* data, std::size_t size, std::string* error) {
  const Chunk chunk{data, size};
  return append(&chunk, 1, error);
}

bool Writer::append(const Chunk* chunks, std::size_t count, std::string* error) {
  if (fd_ < 0) {
    set_error(error, "wal writer is not open");
    return false;
  }
  std::size_t payload_size = 0;
  for (std::size_t i = 0; i < count; ++i) payload_size += chunks[i].size;
  if (payload_size > UINT32_MAX) {
    set_error(error, "wal record exceeds 4 GiB");
    return false;
  }

  std::uint8_t header[kHeaderSize];
  store_u32_le(header, static_cast<std::uint32_t>(payload_size));
  std::uint32_t crc = crc32c(0, header, 4);
  for (std::size_t i = 0; i < count; ++i) crc = crc32c(crc, chunks[i].data, chunks[i].size);
  store_u32_le(header + 4, crc);

  const std::size_t record_size = kHeaderSize + payload_size;
  if (buffered_ + record_size > buffer_.size() && buffered_ > 0) {
    if (!flush_buffer(error)) return stop();
  }
  if (record_size > buffer_.size()) {
    // Oversized record: stream straight to the file, keeping append
    // allocation-free regardless of record size.
    if (!fault_write(fd_, header, kHeaderSize, dir_, error)) return stop();
    for (std::size_t i = 0; i < count; ++i) {
      if (!fault_write(fd_, chunks[i].data, chunks[i].size, dir_, error)) return stop();
    }
  } else {
    std::memcpy(buffer_.data() + buffered_, header, kHeaderSize);
    std::size_t at = buffered_ + kHeaderSize;
    for (std::size_t i = 0; i < count; ++i) {
      std::memcpy(buffer_.data() + at, chunks[i].data, chunks[i].size);
      at += chunks[i].size;
    }
    buffered_ += record_size;
  }
  segment_size_ += record_size;
  return true;
}

bool Writer::flush_buffer(std::string* error) {
  if (buffered_ == 0) return true;
  if (!fault_write(fd_, buffer_.data(), buffered_, dir_, error)) return false;
  buffered_ = 0;
  return true;
}

bool Writer::commit(std::string* error) {
  if (fd_ < 0) {
    set_error(error, "wal writer is not open");
    return false;
  }
  if (!flush_buffer(error)) return stop();
  if (options_.sync == SyncLevel::kOnCommit && !fault_fsync(fd_, dir_, error)) return stop();
  if (segment_size_ < options_.segment_bytes) return true;
  // Rotate at this commit boundary, so records never span segments.
  ::close(fd_);
  fd_ = -1;
  return open_segment(segment_index_ + 1, error) || stop();
}

void Writer::close() {
  if (fd_ >= 0) {
    std::string ignored;
    commit(&ignored);  // best effort: don't lose buffered records on close
  }
  stop();
}

bool Writer::stop() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (dir_fd_ >= 0) ::close(dir_fd_);
  dir_fd_ = -1;
  buffered_ = 0;
  return false;
}

// ---- durable filesystem helpers ------------------------------------------

bool fsync_path(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    set_error(error, errno_message("open", path));
    return false;
  }
  const bool ok = fault_fsync(fd, path, error);
  ::close(fd);
  return ok;
}

namespace {
bool fsync_dir(const std::string& dir, std::string* error) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    set_error(error, errno_message("open(dir)", dir));
    return false;
  }
  const bool ok = fault_fsync(fd, dir, error);
  ::close(fd);
  return ok;
}
}  // namespace

bool rename_durable(const std::string& from, const std::string& to, std::string* error) {
  if (!fault_allows("renaming", from, error)) return false;
  if (::rename(from.c_str(), to.c_str()) != 0) {
    set_error(error, errno_message("rename", from + " -> " + to));
    return false;
  }
  const std::string parent = fs::path(to).parent_path().string();
  return fsync_dir(parent.empty() ? "." : parent, error);
}

}  // namespace mirage::util::wal
