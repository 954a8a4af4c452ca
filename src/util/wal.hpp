// Crash-safe append-only WAL segment store (snkv's journaling discipline
// applied to this codebase: WAL mode, explicit sync levels, crash safety
// as a test-enforced contract rather than a hope).
//
// On-disk layout: a directory of monotonically numbered segment files
// (wal-<index>.seg), each starting with an 8-byte magic followed by
// records. A record is
//
//   u32le payload_size | u32le crc32c(size_le_bytes + payload) | payload
//
// so a torn header, torn payload or flipped byte fails the checksum and
// recovery TRUNCATES the log at that exact offset (and deletes every
// later segment) — replay always yields a prefix of what was appended,
// never garbage. Records never span segments: rotation happens at commit
// boundaries once a segment crosses WalOptions::segment_bytes, so a
// record may legally exceed the segment size.
//
// Durability levels mirror snkv's sync levels:
//   kNone     — no fsync anywhere. Survives process death for everything
//               the writer flushed (write(2) completed); buffered bytes
//               since the last commit() are lost with the process.
//   kOnCommit — fsync the segment on every commit(). Survives power loss
//               up to the last commit.
//   kOnRoll   — fsync only when a segment is finished (rotation) plus the
//               directory when a segment is created. Survives power loss
//               up to the last completed segment.
//
// The writer appends into one preallocated buffer and flushes with plain
// write(2), so steady-state append()+commit() performs ZERO heap
// allocations — serve journals decisions from its zero-alloc decide path.
//
// Every low-level durable operation (write, fsync, segment create,
// rename) consults wal::testing's fault injector, so the crash-injection
// harness can kill or error the writer at any of hundreds of randomized
// write/fsync/roll/rename boundaries and assert that recovery is
// prefix-consistent every time.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace mirage::util::wal {

/// Castagnoli CRC (iSCSI polynomial). Chains: crc32c(crc32c(0,a),b) ==
/// crc32c(0, a||b).
std::uint32_t crc32c(std::uint32_t seed, const void* data, std::size_t size);

/// Preallocated append buffer; records larger than it bypass the buffer
/// and stream straight to the file.
inline constexpr std::size_t kAppendBufferBytes = 64u << 10;

enum class SyncLevel { kNone, kOnCommit, kOnRoll };
const char* sync_level_name(SyncLevel level);

struct WalOptions {
  SyncLevel sync = SyncLevel::kOnCommit;
  /// Rotate to a fresh segment once the current one crosses this many
  /// bytes (checked at commit boundaries; records never span segments).
  std::size_t segment_bytes = 1u << 20;
};

/// One piece of a record assembled from multiple client buffers (header +
/// payload) without an intermediate allocation.
struct Chunk {
  const void* data;
  std::size_t size;
};

// ---- little-endian field helpers for journal record encodings -----------
inline void store_u32_le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}
inline void store_u64_le(std::uint8_t* out, std::uint64_t v) {
  store_u32_le(out, static_cast<std::uint32_t>(v));
  store_u32_le(out + 4, static_cast<std::uint32_t>(v >> 32));
}
inline std::uint32_t load_u32_le(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) | (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) | (static_cast<std::uint32_t>(in[3]) << 24);
}
inline std::uint64_t load_u64_le(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(load_u32_le(in)) |
         (static_cast<std::uint64_t>(load_u32_le(in + 4)) << 32);
}

/// Bounds-checked sequential reader over one recovered record's payload.
/// Any over-read clears `ok` and returns zeros instead of touching memory
/// past the record — a truncated or foreign record parses to a rejected
/// record, never UB.
struct RecordReader {
  const std::uint8_t* p;
  std::size_t remaining;
  bool ok = true;

  RecordReader(const void* data, std::size_t size)
      : p(static_cast<const std::uint8_t*>(data)), remaining(size) {}

  bool take(void* out, std::size_t n) {
    if (!ok || remaining < n) {
      ok = false;
      return false;
    }
    std::memcpy(out, p, n);
    p += n;
    remaining -= n;
    return true;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    take(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint8_t b[4] = {};
    return take(b, 4) ? load_u32_le(b) : 0;
  }
  std::uint64_t u64() {
    std::uint8_t b[8] = {};
    return take(b, 8) ? load_u64_le(b) : 0;
  }
};

struct RecoveryInfo {
  std::uint64_t records = 0;          ///< valid records replayed
  std::uint64_t segments = 0;         ///< segment files surviving recovery
  std::uint64_t truncated_bytes = 0;  ///< torn/corrupt tail bytes removed
  bool torn_tail = false;             ///< any truncation happened
};

/// Replay every record in segment order. On the first bad length or
/// checksum the log is physically truncated there (the segment is
/// shortened; every later segment is deleted) and replay stops — the
/// store is prefix-consistent after every recovery, and recovering an
/// already-recovered log is a bitwise no-op (idempotent). A missing
/// directory recovers as an empty log. Returns false only on IO errors.
bool recover(const std::string& dir, const std::function<void(const void*, std::size_t)>& fn,
             RecoveryInfo* info = nullptr, std::string* error = nullptr);

/// Append-only writer. open() runs the same torn-tail truncation as
/// recover() and then positions at the end of the last valid record, so
/// a writer reopened over a crashed log continues the prefix.
class Writer {
 public:
  Writer() = default;
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  bool open(const std::string& dir, const WalOptions& options, std::string* error = nullptr);
  bool is_open() const { return fd_ >= 0; }

  /// Buffer one record (flushed to the OS by commit(), or earlier when
  /// the buffer fills). Zero heap allocations on success.
  bool append(const void* data, std::size_t size, std::string* error = nullptr);
  bool append(const Chunk* chunks, std::size_t count, std::string* error = nullptr);
  /// Flush buffered records to the segment; fsync at kOnCommit; rotate
  /// the segment once it crosses segment_bytes.
  bool commit(std::string* error = nullptr);
  /// Commit and close (also run by the destructor).
  void close();

  std::uint64_t segment_index() const { return segment_index_; }

 private:
  bool flush_buffer(std::string* error);
  bool roll_if_needed(std::string* error);
  bool open_segment(std::uint64_t index, std::string* error);

  std::string dir_;
  WalOptions options_;
  std::vector<std::uint8_t> buffer_;  ///< preallocated append buffer
  std::size_t buffered_ = 0;
  int fd_ = -1;
  int dir_fd_ = -1;
  std::uint64_t segment_index_ = 0;
  std::uint64_t segment_size_ = 0;  ///< bytes in the current segment (incl. buffered)
};

// ---- durable filesystem helpers ------------------------------------------
// The tmp-then-rename commit lab::ArtifactStore uses for every run file:
// fsync the temp file BEFORE the rename and the parent directory AFTER
// it, so a committed file survives power loss, not just process death.
// Both route through the fault-injectable low-level ops.
bool fsync_path(const std::string& path, std::string* error = nullptr);
/// rename(2) + fsync of the destination's parent directory.
bool rename_durable(const std::string& from, const std::string& to, std::string* error = nullptr);

// ---- crash-injection hooks (tests only) ----------------------------------
namespace testing {

/// The low-level durable operations a fault can land on.
enum class FaultPoint { kWrite, kFsync, kSegmentOpen, kRename };

enum class FaultMode {
  kNone,             ///< count ops without faulting (calibration pass)
  kKill,             ///< SIGKILL the process at the op boundary
  kError,            ///< the op fails with an injected-EIO error
  kShortWriteKill,   ///< write a prefix of the buffer, then SIGKILL
  kShortWriteError,  ///< write a prefix, then fail with injected-EIO
};

/// Arm the process-wide injector: the trigger_op-th durable op from now
/// (1-based, counted across all fault points) performs `mode`;
/// trigger_op == 0 counts without firing. `short_write_fraction` in
/// [0, 1) picks how much of a kWrite completes for the short-write modes
/// (non-write points degrade short-write modes to kKill / kError).
/// Deterministic: the same (workload, trigger_op, mode, fraction) always
/// faults at the same boundary.
void arm_fault(std::uint64_t trigger_op, FaultMode mode, double short_write_fraction = 0.0);
void disarm_fault();
/// Durable ops counted since the last arm_fault/disarm_fault.
std::uint64_t fault_ops_seen();

}  // namespace testing

}  // namespace mirage::util::wal
