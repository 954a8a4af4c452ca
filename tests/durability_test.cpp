// Durability tests (ISSUE 10): the WAL segment store's format and
// recovery contracts, proven three ways —
//
//   1. property tests: random record sizes/batches (including 0-byte and
//      larger-than-a-segment records) round-trip bitwise across every
//      sync level, so do records larger than the append buffer (and one
//      torn mid-payload recovers the prefix), recovery is idempotent,
//      torn tails truncate, any single-byte corruption yields a clean
//      prefix (never a crash or a garbage record), and a segment-numbering
//      gap drops everything after the gap;
//   2. a fork-based crash-injection harness: hundreds of randomized
//      kill/short-write/EIO points at write/fsync/segment-roll
//      boundaries, every recovery prefix-consistent with what the dead
//      writer had committed;
//   3. client recovery: the lab ArtifactStore's fsynced tmp-then-rename
//      commits (plan, checkpoints, manifests) resume to complete artifact
//      sets (and bitwise-identical leaderboards) after kill -9, and a
//      warm-restarted ProvisioningService replays session rings from its
//      journal (the WAL's one client) so post-restart decisions are
//      bitwise identical to an uninterrupted service. The served model
//      itself comes back by resuming the lab plan and re-promoting
//      (lab_test's Promotion.RestartRepromotesSameCheckpoint).
//
// On a harness failure the trial's surviving WAL segments are copied to
// ./wal_crash_artifacts/ (CI uploads the directory) before the test
// aborts, so torn logs from a red run can be replayed locally.
#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "lab/artifact_store.hpp"
#include "lab/experiment.hpp"
#include "lab/leaderboard.hpp"
#include "lab/runner.hpp"
#include "rl/dqn.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/wal.hpp"

namespace mirage {
namespace {

namespace fs = std::filesystem;
namespace wal = util::wal;
namespace walt = util::wal::testing;

/// Unique scratch dir per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() / ("mirage_dur_" + tag);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string dir(const std::string& name) const { return (path / name).string(); }
};

/// Copy a trial's surviving WAL segments somewhere CI can upload them.
void preserve_artifacts(const fs::path& dir, const std::string& tag) {
  std::error_code ec;
  const fs::path dst = fs::current_path() / "wal_crash_artifacts" / tag;
  fs::create_directories(dst, ec);
  fs::copy(dir, dst, fs::copy_options::recursive | fs::copy_options::overwrite_existing, ec);
  std::fprintf(stderr, "preserved surviving WAL segments: %s\n", dst.string().c_str());
}

// --------------------------------------------------------------- workload
//
// The crash workload is a pure function of its seed: record i's payload,
// the commit cadence and the sync level are all derived deterministically,
// so the parent can recompute exactly what a killed child was writing.

std::vector<std::uint8_t> trial_payload(std::uint64_t seed, std::size_t index) {
  util::Rng rng(seed * 2654435761ull + index + 1);
  const auto pick = rng.uniform_int(0, 9);
  std::size_t size = 0;
  if (pick == 0) {
    size = 0;  // empty records are legal
  } else if (pick < 7) {
    size = static_cast<std::size_t>(rng.uniform_int(1, 48));
  } else if (pick < 9) {
    size = static_cast<std::size_t>(rng.uniform_int(49, 200));
  } else {
    size = static_cast<std::size_t>(rng.uniform_int(300, 700));  // > segment_bytes
  }
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

wal::WalOptions trial_options(std::uint64_t seed) {
  wal::WalOptions options;
  switch (seed % 3) {
    case 0: options.sync = wal::SyncLevel::kNone; break;
    case 1: options.sync = wal::SyncLevel::kOnCommit; break;
    default: options.sync = wal::SyncLevel::kOnRoll; break;
  }
  options.segment_bytes = 256;  // every trial rolls segments many times
  return options;
}

struct Workload {
  std::string dir;
  std::uint64_t seed = 0;
  std::size_t records = 48;
  wal::WalOptions options;
};

/// Append the workload's records, committing every third record (and at
/// the end). Each successful commit's record count is reported through
/// `pipe_fd` (when >= 0), so a killed child's parent knows the durability
/// floor recovery must meet. Returns the committed count; `failed` (when
/// non-null) reports whether an append/commit returned an injected error.
std::uint64_t run_workload(const Workload& w, int pipe_fd, bool* failed = nullptr) {
  if (failed) *failed = false;
  std::uint64_t committed = 0;
  wal::Writer writer;
  if (!writer.open(w.dir, w.options)) {
    if (failed) *failed = true;
    return committed;
  }
  for (std::size_t i = 0; i < w.records; ++i) {
    const auto payload = trial_payload(w.seed, i);
    if (!writer.append(payload.data(), payload.size())) {
      if (failed) *failed = true;
      return committed;
    }
    if (i % 3 != 2 && i + 1 != w.records) continue;
    if (!writer.commit()) {
      if (failed) *failed = true;
      return committed;
    }
    committed = i + 1;
    if (pipe_fd >= 0) {
      const std::uint64_t n = committed;
      (void)!::write(pipe_fd, &n, sizeof(n));
    }
  }
  writer.close();
  return committed;
}

std::vector<std::vector<std::uint8_t>> recover_records(const std::string& dir,
                                                       wal::RecoveryInfo* info = nullptr,
                                                       bool* ok = nullptr,
                                                       std::string* error = nullptr) {
  std::vector<std::vector<std::uint8_t>> out;
  const bool good = wal::recover(
      dir,
      [&out](const void* data, std::size_t size) {
        const auto* p = static_cast<const std::uint8_t*>(data);
        out.emplace_back(p, p + size);
      },
      info, error);
  if (ok) *ok = good;
  return out;
}

std::vector<fs::path> segment_files(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// ------------------------------------------------------- format properties

TEST(WalCrc, KnownVectorAndChaining) {
  // iSCSI CRC32C check value ("123456789" -> 0xE3069283).
  const char digits[] = "123456789";
  EXPECT_EQ(wal::crc32c(0, digits, 9), 0xE3069283u);
  // Chaining: crc(crc(0, a), b) == crc(0, a||b).
  EXPECT_EQ(wal::crc32c(wal::crc32c(0, digits, 4), digits + 4, 5), 0xE3069283u);
  EXPECT_NE(wal::crc32c(0, digits, 9), wal::crc32c(0, digits, 8));
}

TEST(WalRoundTrip, RandomSizesBatchesAndReopenAcrossSyncLevels) {
  TempDir tmp("roundtrip");
  for (const auto sync :
       {wal::SyncLevel::kNone, wal::SyncLevel::kOnCommit, wal::SyncLevel::kOnRoll}) {
    const std::string dir = tmp.dir(std::string("log_") + wal::sync_level_name(sync));
    wal::WalOptions options;
    options.sync = sync;
    options.segment_bytes = 256;  // force rotation
    const std::uint64_t seed = 77 + static_cast<std::uint64_t>(sync);

    std::vector<std::vector<std::uint8_t>> expected;
    util::Rng rng(seed);
    {
      wal::Writer writer;
      ASSERT_TRUE(writer.open(dir, options));
      for (std::size_t i = 0; i < 40; ++i) {
        auto payload = trial_payload(seed, i);
        if (i % 4 == 3 && payload.size() >= 2) {
          // Multi-chunk append: header/payload split must byte-match the
          // contiguous form.
          const std::size_t cut = payload.size() / 2;
          const wal::Chunk chunks[] = {{payload.data(), cut},
                                       {payload.data() + cut, payload.size() - cut}};
          ASSERT_TRUE(writer.append(chunks, 2));
        } else {
          ASSERT_TRUE(writer.append(payload.data(), payload.size()));
        }
        expected.push_back(std::move(payload));
        if (rng.uniform_int(0, 2) == 0) ASSERT_TRUE(writer.commit());
      }
      writer.close();
    }
    {
      // Reopen appends after the last valid record.
      wal::Writer writer;
      ASSERT_TRUE(writer.open(dir, options));
      for (std::size_t i = 40; i < 48; ++i) {
        auto payload = trial_payload(seed, i);
        ASSERT_TRUE(writer.append(payload.data(), payload.size()) && writer.commit());
        expected.push_back(std::move(payload));
      }
      EXPECT_GT(writer.segment_index(), 0u);  // 256-byte segments rolled
    }

    wal::RecoveryInfo info;
    bool ok = false;
    std::string error;
    const auto recovered = recover_records(dir, &info, &ok, &error);
    ASSERT_TRUE(ok) << error;
    ASSERT_EQ(recovered.size(), expected.size()) << wal::sync_level_name(sync);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(recovered[i], expected[i]) << "record " << i;
    }
    EXPECT_FALSE(info.torn_tail);
    EXPECT_GT(info.segments, 1u);
    // The size mix guarantees both extremes appeared.
    bool saw_empty = false, saw_oversize = false;
    for (const auto& r : expected) {
      saw_empty = saw_empty || r.empty();
      saw_oversize = saw_oversize || r.size() > 256;
    }
    EXPECT_TRUE(saw_empty);
    EXPECT_TRUE(saw_oversize);
  }
}

TEST(WalRoundTrip, RecordsLargerThanTheAppendBufferStreamAndTearToThePrefix) {
  // Records past the append buffer stream straight to the segment, after
  // the small records buffered ahead of them.
  constexpr std::size_t kBig = 200u << 10;
  static_assert(kBig > wal::kAppendBufferBytes);
  TempDir tmp("oversize");
  wal::WalOptions options;
  options.segment_bytes = 256;
  std::vector<std::vector<std::uint8_t>> expected;
  {
    wal::Writer writer;
    ASSERT_TRUE(writer.open(tmp.dir("log"), options));
    for (std::size_t i = 0; i < 9; ++i) {
      util::Rng rng(1000 + i);
      std::vector<std::uint8_t> payload(i % 3 == 1 ? kBig + i : rng.uniform_int(0, 40));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      const std::size_t cut = payload.size() / 2;
      const wal::Chunk chunks[] = {{payload.data(), cut},
                                   {payload.data() + cut, payload.size() - cut}};
      ASSERT_TRUE(writer.append(chunks, 2));
      expected.push_back(std::move(payload));
      ASSERT_TRUE(i % 3 != 2 || writer.commit());
    }
    // Die halfway through the next oversize payload (op 1 writes its
    // header, op 2 its payload): the log keeps a torn record.
    const std::vector<std::uint8_t> torn(kBig, 0x5A);
    walt::arm_fault(2, walt::FaultMode::kShortWriteError, 0.5);
    EXPECT_FALSE(writer.append(torn.data(), torn.size()));
    walt::disarm_fault();
  }
  wal::RecoveryInfo info;
  bool ok = false;
  std::string error;
  const auto recovered = recover_records(tmp.dir("log"), &info, &ok, &error);
  ASSERT_TRUE(ok) << error;
  EXPECT_TRUE(info.torn_tail);
  EXPECT_EQ(info.truncated_bytes, 8u + kBig / 2);  // header + the half written
  ASSERT_EQ(recovered.size(), expected.size());
  EXPECT_TRUE(recovered == expected);
}

TEST(WalRecovery, IdempotentAndTornTailTruncation) {
  TempDir tmp("idempotent");
  Workload w;
  w.dir = tmp.dir("log");
  w.seed = 11;
  w.options = trial_options(/*seed=*/0);  // kNone
  ASSERT_EQ(run_workload(w, -1), w.records);

  bool ok = false;
  wal::RecoveryInfo first_info;
  const auto first = recover_records(w.dir, &first_info, &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(first.size(), w.records);
  EXPECT_FALSE(first_info.torn_tail);

  // Recovery of a clean log is a read-only scan: bytes on disk unchanged,
  // second pass identical.
  std::vector<std::string> bytes_before;
  for (const auto& f : segment_files(w.dir)) bytes_before.push_back(read_file(f));
  const auto second = recover_records(w.dir, nullptr, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(second, first);
  const auto files_after = segment_files(w.dir);
  ASSERT_EQ(files_after.size(), bytes_before.size());
  for (std::size_t i = 0; i < files_after.size(); ++i) {
    EXPECT_EQ(read_file(files_after[i]), bytes_before[i]);
  }

  // A torn tail (garbage appended to the last segment) is truncated on
  // the first recovery; the records already committed are untouched and a
  // third recovery no longer sees the tear.
  {
    std::ofstream out(segment_files(w.dir).back(), std::ios::binary | std::ios::app);
    for (int i = 0; i < 37; ++i) out.put(static_cast<char>(0xAB));
  }
  wal::RecoveryInfo torn_info;
  const auto torn = recover_records(w.dir, &torn_info, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(torn, first);
  EXPECT_TRUE(torn_info.torn_tail);
  EXPECT_EQ(torn_info.truncated_bytes, 37u);

  wal::RecoveryInfo clean_info;
  const auto clean = recover_records(w.dir, &clean_info, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(clean, first);
  EXPECT_FALSE(clean_info.torn_tail);
}

TEST(WalRecovery, SingleByteFlipsNeverYieldGarbageRecords) {
  TempDir tmp("byteflip");
  // Small log (~3 segments) so flipping EVERY byte stays cheap.
  const std::uint64_t seed = 5;
  std::vector<std::vector<std::uint8_t>> expected;
  {
    wal::WalOptions options;
    options.segment_bytes = 256;
    wal::Writer writer;
    ASSERT_TRUE(writer.open(tmp.dir("log"), options));
    for (std::size_t i = 0; i < 18; ++i) {
      util::Rng rng(seed * 131 + i);
      std::vector<std::uint8_t> payload(static_cast<std::size_t>(rng.uniform_int(0, 40)));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      ASSERT_TRUE(writer.append(payload.data(), payload.size()) && writer.commit());
      expected.push_back(std::move(payload));
    }
  }

  std::size_t flips = 0, truncations = 0;
  for (const auto& segment : segment_files(tmp.dir("log"))) {
    const auto size = fs::file_size(segment);
    for (std::uintmax_t offset = 0; offset < size; ++offset) {
      const std::string scratch = tmp.dir("scratch");
      fs::remove_all(scratch);
      fs::copy(tmp.dir("log"), scratch, fs::copy_options::recursive);
      {
        std::fstream f(fs::path(scratch) / segment.filename(),
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(static_cast<std::streamoff>(offset));
        const char byte = static_cast<char>(f.get());
        f.seekp(static_cast<std::streamoff>(offset));
        f.put(static_cast<char>(byte ^ 0x5A));
      }
      bool ok = false;
      std::string error;
      const auto recovered = recover_records(scratch, nullptr, &ok, &error);
      // Corruption must never fail recovery (prefix-consistent truncation
      // is the contract) and never surface a record that was not written.
      ASSERT_TRUE(ok) << segment << " offset " << offset << ": " << error;
      ASSERT_LE(recovered.size(), expected.size()) << segment << " offset " << offset;
      for (std::size_t i = 0; i < recovered.size(); ++i) {
        ASSERT_EQ(recovered[i], expected[i])
            << "garbage record " << i << " after flipping " << segment << " offset " << offset;
      }
      ++flips;
      truncations += recovered.size() < expected.size();
    }
  }
  // Sanity on coverage: many flips ran and most landed inside live data.
  EXPECT_GT(flips, 500u);
  EXPECT_GT(truncations, flips / 2);
}

TEST(WalRecovery, SegmentNumberingGapDropsEverythingAfterTheGap) {
  TempDir tmp("gap");
  Workload w;
  w.dir = tmp.dir("log");
  w.seed = 21;
  w.options = trial_options(/*seed=*/0);
  ASSERT_EQ(run_workload(w, -1), w.records);

  bool ok = false;
  const auto full = recover_records(w.dir, nullptr, &ok);
  ASSERT_TRUE(ok);
  auto files = segment_files(w.dir);
  ASSERT_GE(files.size(), 3u);

  // Losing a middle segment breaks the contiguous prefix: recovery keeps
  // what precedes the gap and deletes the unreachable later segments.
  const fs::path lost = files[files.size() / 2];
  fs::remove(lost);
  const auto after = recover_records(w.dir, nullptr, &ok);
  ASSERT_TRUE(ok);
  ASSERT_LT(after.size(), full.size());
  for (std::size_t i = 0; i < after.size(); ++i) ASSERT_EQ(after[i], full[i]);
  for (const auto& f : segment_files(w.dir)) {
    EXPECT_LT(f.filename().string(), lost.filename().string());
  }
}

TEST(WalRecovery, MissingDirAndEmptySegmentAreValidEmptyLogs) {
  TempDir tmp("empty");
  bool ok = false;
  std::string error;
  EXPECT_TRUE(recover_records(tmp.dir("never_created"), nullptr, &ok, &error).empty());
  EXPECT_TRUE(ok) << error;

  // Open/close with no appends leaves a magic-only segment — zero records,
  // not an error, and the log is still appendable.
  {
    wal::Writer writer;
    ASSERT_TRUE(writer.open(tmp.dir("log"), {}));
  }
  wal::RecoveryInfo info;
  EXPECT_TRUE(recover_records(tmp.dir("log"), &info, &ok).empty());
  ASSERT_TRUE(ok);
  EXPECT_EQ(info.segments, 1u);
  {
    wal::Writer writer;
    ASSERT_TRUE(writer.open(tmp.dir("log"), {}));
    ASSERT_TRUE(writer.append("x", 1) && writer.commit());
  }
  EXPECT_EQ(recover_records(tmp.dir("log"), nullptr, &ok).size(), 1u);
  EXPECT_TRUE(ok);
}

TEST(WalFaults, FsyncAndRenameHardeningReportInjectedErrors) {
  TempDir tmp("rename");
  const std::string src = tmp.dir("a.tmp");
  const std::string dst = tmp.dir("a.final");
  std::ofstream(src) << "payload";
  std::string error;
  ASSERT_TRUE(wal::fsync_path(src, &error)) << error;
  ASSERT_TRUE(wal::rename_durable(src, dst, &error)) << error;
  EXPECT_FALSE(fs::exists(src));
  ASSERT_TRUE(fs::exists(dst));

  // Injected EIO on the very next op surfaces as a diagnostic, and a
  // failed rename leaves the source in place.
  walt::arm_fault(1, walt::FaultMode::kError);
  error.clear();
  EXPECT_FALSE(wal::fsync_path(dst, &error));
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
  walt::disarm_fault();

  walt::arm_fault(1, walt::FaultMode::kError);
  error.clear();
  EXPECT_FALSE(wal::rename_durable(dst, tmp.dir("b.final"), &error));
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
  walt::disarm_fault();
  EXPECT_TRUE(fs::exists(dst));
  EXPECT_FALSE(fs::exists(tmp.dir("b.final")));
}

// ----------------------------------------------------- crash harness (WAL)

TEST(WalFaults, InjectedWriteErrorsFailLoudlyAndRecoverCommittedPrefix) {
  TempDir tmp("eio");
  util::Rng rng(0xE10E10);
  constexpr std::size_t kTrials = 48;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = 500 + trial;
    Workload w;
    w.seed = seed;
    w.options = trial_options(seed);

    // Calibrate the op count for this workload shape (count-only mode).
    w.dir = tmp.dir("calib_" + std::to_string(trial));
    walt::arm_fault(0, walt::FaultMode::kNone);
    ASSERT_EQ(run_workload(w, -1), w.records);
    const std::uint64_t ops = walt::fault_ops_seen();
    walt::disarm_fault();
    ASSERT_GT(ops, 0u);
    fs::remove_all(w.dir);

    const auto trigger =
        1 + static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(ops) - 1));
    const auto mode =
        trial % 2 ? walt::FaultMode::kShortWriteError : walt::FaultMode::kError;
    w.dir = tmp.dir("eio_" + std::to_string(trial));
    walt::arm_fault(trigger, mode, rng.uniform(0.0, 1.0));
    bool failed = false;
    const std::uint64_t committed = run_workload(w, -1, &failed);
    walt::disarm_fault();

    bool ok = false;
    std::string error;
    const auto recovered = recover_records(w.dir, nullptr, &ok, &error);
    EXPECT_TRUE(ok) << error;
    EXPECT_GE(recovered.size(), committed) << "trial " << trial << " trigger " << trigger;
    EXPECT_LE(recovered.size(), w.records);
    for (std::size_t i = 0; i < recovered.size() && !HasFailure(); ++i) {
      EXPECT_EQ(recovered[i], trial_payload(seed, i)) << "trial " << trial << " record " << i;
    }
    if (HasFailure()) {
      preserve_artifacts(w.dir, "eio_" + std::to_string(trial));
      return;
    }
    fs::remove_all(w.dir);
  }
}

TEST(WalCrashHarness, RandomizedKillPointsRecoverPrefixConsistent) {
  TempDir tmp("kills");
  util::Rng rng(0xD00D5EED);
  constexpr std::size_t kTrials = 168;
  std::size_t survived = 0;  // trials whose trigger never fired
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = 1000 + trial;
    Workload w;
    w.seed = seed;
    w.options = trial_options(seed);

    // Calibration pass: same deterministic workload, fault point counting
    // only. The kill trigger is then drawn uniformly over every
    // write/fsync/segment-open boundary the real run will cross.
    w.dir = tmp.dir("calib");
    fs::remove_all(w.dir);
    walt::arm_fault(0, walt::FaultMode::kNone);
    ASSERT_EQ(run_workload(w, -1), w.records);
    const std::uint64_t ops = walt::fault_ops_seen();
    walt::disarm_fault();
    ASSERT_GT(ops, 0u);

    const auto trigger =
        1 + static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(ops) - 1));
    const auto mode = trial % 2 ? walt::FaultMode::kShortWriteKill : walt::FaultMode::kKill;
    const double fraction = rng.uniform(0.0, 1.0);

    w.dir = tmp.dir("trial_" + std::to_string(trial));
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: arm the kill and write until it fires. Commits are
      // reported through the pipe BEFORE the next append, so the last
      // value the parent reads is a floor recovery must reach.
      ::close(fds[0]);
      walt::arm_fault(trigger, mode, fraction);
      bool failed = false;
      run_workload(w, fds[1], &failed);
      ::_exit(failed ? 9 : 0);
    }
    ::close(fds[1]);
    std::uint64_t committed = 0, word = 0;
    while (::read(fds[0], &word, sizeof(word)) == static_cast<ssize_t>(sizeof(word))) {
      committed = word;
    }
    ::close(fds[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    EXPECT_TRUE(killed || clean)
        << "trial " << trial << ": child neither killed nor clean, status " << status;
    survived += !killed;

    // Prefix consistency: recovery sees every record the child reported
    // committed (process death keeps the page cache, at every sync
    // level), nothing beyond what it wrote, and no record is garbled.
    wal::RecoveryInfo info;
    bool ok = false;
    std::string error;
    const auto recovered = recover_records(w.dir, &info, &ok, &error);
    EXPECT_TRUE(ok) << "trial " << trial << ": " << error;
    EXPECT_GE(recovered.size(), committed)
        << "trial " << trial << " lost committed records (trigger " << trigger << ")";
    EXPECT_LE(recovered.size(), w.records);
    for (std::size_t i = 0; i < recovered.size() && !HasFailure(); ++i) {
      EXPECT_EQ(recovered[i], trial_payload(seed, i))
          << "trial " << trial << " record " << i << " (trigger " << trigger << ")";
    }

    // The recovered log is a live log: a fresh writer extends it.
    if (!HasFailure()) {
      wal::Writer writer;
      EXPECT_TRUE(writer.open(w.dir, w.options, &error)) << error;
      EXPECT_TRUE(writer.append("post-crash", 10) && writer.commit());
      writer.close();
      bool ok2 = false;
      const auto extended = recover_records(w.dir, nullptr, &ok2);
      EXPECT_TRUE(ok2);
      EXPECT_EQ(extended.size(), recovered.size() + 1);
    }

    if (HasFailure()) {
      preserve_artifacts(w.dir, "kill_" + std::to_string(trial));
      return;
    }
    fs::remove_all(w.dir);
  }
  // The harness only proves something if the kills actually fire.
  EXPECT_LE(survived, kTrials / 10);
}

// ------------------------------------------------- lab ArtifactStore crash

/// Tiny plan shaped like lab_test's: 2 cells x {Avg, MoE-DQN} = 4 jobs.
lab::ExperimentPlan crash_plan(const std::string& name, std::uint64_t seed = 42) {
  using scenario::ScenarioEventKind;
  lab::ExperimentPlan plan;
  plan.name = name;
  plan.methods = {core::Method::kAvg, core::Method::kMoeDqn};
  plan.budget.collector_anchors = 6;
  plan.budget.pretrain_epochs = 2;
  plan.budget.online_episodes = 8;
  plan.budget.eval_episodes = 6;
  auto& base = plan.matrix.base;
  base.cluster = "a100";
  base.nodes_override = 20;
  base.months_begin = 0;
  base.months_end = 1;
  base.seed = seed;
  base.job_count_scale = 0.3;
  scenario::EventProfile flash;
  flash.name = "flash";
  flash.events = {{ScenarioEventKind::kBurst, 5 * util::kDay, 2, 20, 2 * util::kHour,
                   4 * util::kHour, util::kHour, util::kWeek, 4}};
  plan.matrix.event_profiles = {{"none", {}}, flash};
  return plan;
}

/// Deterministic synthetic result for a job — no training, so the kill
/// harness iterates fast. Every job records a checkpoint to exercise the
/// orphan-purge path.
lab::JobResult synth_row(const lab::ExperimentPlan& plan, const lab::LabJob& job) {
  lab::JobResult r;
  r.cell_index = job.cell_index;
  r.cell = job.cell.name;
  r.cluster = job.cell.cluster;
  r.seed = job.cell.seed;
  r.method = core::method_name(job.method);
  r.eventful = job.cell_index != 0;
  r.episodes = 6 + job.cell_index;
  r.mean_interruption_h = 1.0 / (3.0 + static_cast<double>(job.cell_index));
  r.max_interruption_h = 2.0 * r.mean_interruption_h;
  r.mean_overlap_h = 0.5;
  r.zero_fraction = 0.25;
  r.cell_load = "light";
  r.checkpoint = job.id() + ".ckpt";
  (void)plan;
  return r;
}

/// Writes a job's synthetic checkpoint bytes for ArtifactStore::save.
lab::ArtifactStore::FileWriter synth_checkpoint(const lab::LabJob& job) {
  return [id = job.id()](const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    out << "ckpt-bytes-" << id;
    out.close();
    return !out.fail();
  };
}

/// The child's save loop: init the store, then per job commit the
/// checkpoint and the manifest through save(). Returns false on an
/// (injected) IO failure.
bool run_lab_workload(const std::string& root, const lab::ExperimentPlan& plan) {
  lab::ArtifactStore store(root);
  if (!store.init_run(plan)) return false;
  for (const auto& job : lab::expand_jobs(plan)) {
    if (!store.save(plan, job, synth_row(plan, job), nullptr, std::nullopt,
                    synth_checkpoint(job))) {
      return false;
    }
  }
  return true;
}

TEST(LabCrashHarness, KilledSavesRecoverToCompleteSetsOnly) {
  TempDir tmp("labkill");
  const auto plan = crash_plan("labkill");
  const auto jobs = lab::expand_jobs(plan);
  util::Rng rng(0xAB5EED);

  // Calibrate once: the save sequence is deterministic, so one count-only
  // pass covers every trial (the fsync/rename boundaries of the plan.txt,
  // checkpoint and manifest tmp-then-rename commits).
  walt::arm_fault(0, walt::FaultMode::kNone);
  ASSERT_TRUE(run_lab_workload(tmp.dir("calib"), plan));
  const std::uint64_t ops = walt::fault_ops_seen();
  walt::disarm_fault();
  ASSERT_GT(ops, 4u);

  constexpr std::size_t kTrials = 24;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const auto trigger =
        1 + static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(ops) - 1));
    const std::string root = tmp.dir("trial_" + std::to_string(trial));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      walt::arm_fault(trigger, trial % 2 ? walt::FaultMode::kShortWriteKill
                                         : walt::FaultMode::kKill,
                      0.5);
      run_lab_workload(root, plan);
      ::_exit(0);  // trigger landed past the workload's last op
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    ASSERT_TRUE(killed || (WIFEXITED(status) && WEXITSTATUS(status) == 0));

    // Recovery: init_run purges strands. The surviving artifact set must
    // contain ONLY complete, loadable, bitwise-correct (manifest,
    // checkpoint) pairs.
    lab::ArtifactStore store(root);
    std::string error;
    ASSERT_TRUE(store.init_run(plan, &error)) << error;
    // The checkpoint commits before the manifest, so no manifest on disk
    // names a checkpoint that never landed.
    for (const auto& job : jobs) {
      if (fs::exists(store.manifest_path(plan, job))) {
        EXPECT_TRUE(fs::exists(store.checkpoint_path(plan, job)))
            << "trial " << trial << ": manifest ahead of its checkpoint: " << job.id();
      }
    }

    std::set<std::string> referenced;
    std::size_t complete = 0;
    for (const auto& job : jobs) {
      if (const auto loaded = store.load(plan, job)) {
        ++complete;
        EXPECT_TRUE(*loaded == synth_row(plan, job)) << job.id();
        // The checkpoint commits before the manifest, so a loadable job's
        // checkpoint bytes are complete.
        EXPECT_EQ(read_file(store.checkpoint_path(plan, job)), "ckpt-bytes-" + job.id());
        referenced.insert(fs::path(store.checkpoint_path(plan, job)).filename().string());
      }
    }
    EXPECT_EQ(complete, store.count_complete(plan));
    for (const auto& entry : fs::directory_iterator(store.run_dir(plan))) {
      const auto name = entry.path().filename().string();
      EXPECT_NE(entry.path().extension(), ".tmp") << "stranded temp survived: " << name;
      if (entry.path().extension() == ".ckpt") {
        EXPECT_TRUE(referenced.count(name)) << "orphaned checkpoint survived: " << name;
      }
    }

    // Truncate-then-resume: finish the interrupted run through the
    // recovered store; the full set must load back bitwise.
    for (const auto& job : jobs) {
      if (store.load(plan, job)) continue;
      ASSERT_TRUE(store.save(plan, job, synth_row(plan, job), &error, std::nullopt,
                             synth_checkpoint(job)))
          << error;
    }
    EXPECT_EQ(store.count_complete(plan), jobs.size());
    for (const auto& job : jobs) {
      const auto loaded = store.load(plan, job);
      ASSERT_TRUE(loaded) << job.id();
      EXPECT_TRUE(*loaded == synth_row(plan, job));
    }

    if (HasFailure()) {
      preserve_artifacts(root, "lab_" + std::to_string(trial));
      return;
    }
    fs::remove_all(root);
  }
}

TEST(LabCrashHarness, DamagedRunResumesToBitwiseIdenticalLeaderboard) {
  // The real-runner acceptance: a run that lost artifacts AND grew
  // strands resumes — through init_run's purge — to a leaderboard bitwise
  // equal to an uninterrupted run.
  TempDir tmp("labresume");
  const auto plan = crash_plan("labresume");

  lab::ArtifactStore reference_store(tmp.dir("reference"));
  const auto reference = lab::LabRunner::run_serial(plan, reference_store);

  lab::ArtifactStore first(tmp.dir("crashed"));
  (void)lab::LabRunner::run_serial(plan, first);
  const std::string run_dir = first.run_dir(plan);

  // Damage: drop cell 1's artifacts and strand a temp file and an orphan
  // checkpoint.
  const auto jobs = lab::expand_jobs(plan);
  std::size_t dropped = 0;
  for (const auto& job : jobs) {
    if (job.cell_index != 1) continue;
    dropped += fs::remove(first.manifest_path(plan, job));
    fs::remove(first.checkpoint_path(plan, job));
  }
  ASSERT_EQ(dropped, 2u);
  std::ofstream(fs::path(run_dir) / "half-written.tmp") << "strand";
  std::ofstream(fs::path(run_dir) / "orphan.ckpt") << "no manifest references me";

  lab::ArtifactStore resumed_store(tmp.dir("crashed"));
  const auto resumed = lab::LabRunner(/*threads=*/2).run(plan, resumed_store);
  EXPECT_EQ(resumed.jobs_resumed, 2u);
  EXPECT_EQ(resumed.jobs_run, 2u);
  EXPECT_TRUE(resumed.leaderboard == reference.leaderboard);
  EXPECT_FALSE(fs::exists(fs::path(run_dir) / "half-written.tmp"));
  EXPECT_FALSE(fs::exists(fs::path(run_dir) / "orphan.ckpt"));
}

// ------------------------------------------------------ serve warm restart

nn::FoundationConfig serve_net() {
  nn::FoundationConfig net;
  net.history_len = 6;
  net.state_dim = rl::kFrameDim;
  net.d_model = 16;
  net.num_heads = 2;
  net.num_layers = 1;
  net.ffn_hidden = 32;
  net.moe_experts = 2;
  return net;
}

serve::RegistryConfig serve_registry_config() {
  serve::RegistryConfig cfg;
  cfg.net_defaults = serve_net();
  return cfg;
}

rl::DqnAgent serve_dqn(std::uint64_t seed) {
  rl::DqnConfig cfg;
  cfg.foundation = nn::FoundationType::kMoE;
  cfg.net = serve_net();
  return rl::DqnAgent(cfg, seed);
}

sim::StateSample serve_sample(std::uint64_t session, std::uint64_t step) {
  util::Rng rng(session * 1000003ull + step * 7919ull + 1);
  sim::StateSample s;
  s.now = static_cast<util::SimTime>(step) * 600;
  s.total_nodes = 88;
  s.free_nodes = static_cast<std::int32_t>(rng.uniform_int(0, 88));
  const auto nq = rng.uniform_int(0, 10);
  for (std::int64_t i = 0; i < nq; ++i) {
    s.queued_sizes.push_back(static_cast<double>(rng.uniform_int(1, 8)));
    s.queued_ages.push_back(rng.uniform(0.0, 86400.0));
    s.queued_limits.push_back(rng.uniform(3600.0, 172800.0));
  }
  return s;
}

rl::JobPairContext serve_ctx(std::uint64_t session) {
  rl::JobPairContext ctx;
  ctx.pred_nodes = 1 + static_cast<std::int32_t>(session % 4);
  ctx.pred_elapsed = static_cast<util::SimTime>(session % 7) * util::kHour;
  return ctx;
}

serve::ServiceConfig serve_wal_config(const std::string& wal_dir) {
  serve::ServiceConfig cfg;
  cfg.history_len = serve_net().history_len;
  cfg.shards = 2;
  cfg.engine.max_batch = 4;
  cfg.engine.coalesce_wait = std::chrono::microseconds(0);
  cfg.wal.dir = wal_dir;
  cfg.wal.wal.sync = wal::SyncLevel::kOnCommit;  // per-record durability
  return cfg;
}

TEST(ServeWal, WarmRestartReplaysRingsCountersAndServesBitwiseDecisions) {
  TempDir tmp("swarm");
  auto agent = serve_dqn(23);
  ASSERT_TRUE(core::save_agent(agent, tmp.dir("a100__serve.ckpt")));
  serve::ModelRegistry registry(serve_registry_config());
  const auto load = registry.load_file(tmp.dir("a100__serve.ckpt"), "a100");
  ASSERT_TRUE(load.ok) << load.error;
  const auto model = registry.lookup(load.key);
  ASSERT_NE(model, nullptr);

  const auto cfg = serve_wal_config(tmp.dir("swal"));
  std::vector<float> h1, h2;
  serve::ServiceReport before;
  {
    serve::ProvisioningService a(model, cfg);
    a.start();
    const auto s1 = a.open_session();
    const auto s2 = a.open_session();
    const auto s3 = a.open_session();
    for (std::uint64_t t = 0; t < 9; ++t) a.observe(s1, serve_sample(1, t), serve_ctx(1));
    for (std::uint64_t t = 0; t < 4; ++t) a.observe(s2, serve_sample(2, t), serve_ctx(2));
    a.observe(s3, serve_sample(3, 0), serve_ctx(3));
    for (int i = 0; i < 2; ++i) {
      (void)a.decide(s1);
      (void)a.decide(s2);
      (void)a.decide(s3);
    }
    a.close_session(s3);
    h1 = a.session_history(s1);
    h2 = a.session_history(s2);
    before = a.report();
    EXPECT_FALSE(a.wal_failed());
    a.drain_and_stop();
  }

  // Control: the same streams, never interrupted.
  serve::ServiceConfig plain = cfg;
  plain.wal.dir.clear();
  serve::ProvisioningService control(model, plain);
  control.start();
  const auto c1 = control.open_session();
  const auto c2 = control.open_session();
  for (std::uint64_t t = 0; t < 9; ++t) control.observe(c1, serve_sample(1, t), serve_ctx(1));
  for (std::uint64_t t = 0; t < 4; ++t) control.observe(c2, serve_sample(2, t), serve_ctx(2));

  // Warm restart: the journal replays rings, counters and session ids.
  serve::ProvisioningService b(model, cfg);
  const auto& restore = b.wal_restore_info();
  EXPECT_TRUE(restore.replayed);
  EXPECT_EQ(restore.sessions, 2u);
  EXPECT_EQ(restore.sessions_opened, 3u);
  EXPECT_EQ(restore.closes, 1u);
  EXPECT_EQ(restore.decisions, 6u);
  EXPECT_EQ(restore.frames, 14u);
  EXPECT_FALSE(restore.torn_tail);
  EXPECT_EQ(b.session_count(), 2u);
  EXPECT_EQ(b.session_history(1), h1);  // bitwise: same floats, same order
  EXPECT_EQ(b.session_history(2), h2);
  EXPECT_EQ(b.session_frames_seen(1), 9u);
  EXPECT_EQ(b.session_frames_seen(2), 4u);
  const auto after = b.report();
  EXPECT_EQ(after.decisions, before.decisions);
  EXPECT_EQ(after.submits, before.submits);
  EXPECT_EQ(after.total_sessions, before.total_sessions);
  EXPECT_THROW((void)b.session_history(3), std::out_of_range);  // closed stays closed

  // Post-restart serving is bitwise identical to the uninterrupted
  // control, including after one MORE observed frame.
  b.start();
  const auto d1 = b.decide(1);
  const auto e1 = control.decide(c1);
  EXPECT_EQ(d1.action, e1.action);
  EXPECT_EQ(d1.score_submit, e1.score_submit);
  EXPECT_EQ(d1.score_wait, e1.score_wait);
  b.observe(2, serve_sample(2, 4), serve_ctx(2));
  control.observe(c2, serve_sample(2, 4), serve_ctx(2));
  const auto d2 = b.decide(2);
  const auto e2 = control.decide(c2);
  EXPECT_EQ(d2.action, e2.action);
  EXPECT_EQ(d2.score_submit, e2.score_submit);
  EXPECT_EQ(d2.score_wait, e2.score_wait);

  // New sessions never reuse replayed ids.
  EXPECT_GT(b.open_session(), 3u);
  b.drain_and_stop();
  control.drain_and_stop();

  // Second-generation restart: B's post-restart appends extended the same
  // journal, and they replay too.
  serve::ProvisioningService c(model, cfg);
  EXPECT_EQ(c.session_count(), 3u);  // s1, s2 + the session opened on B
  EXPECT_EQ(c.session_frames_seen(2), 5u);
  EXPECT_EQ(c.report().decisions, before.decisions + 2);
}

TEST(ServeWal, KillNineThenWarmRestartServesBitwiseIdenticalDecisions) {
  TempDir tmp("skill9");
  auto agent = serve_dqn(29);
  ASSERT_TRUE(core::save_agent(agent, tmp.dir("a100__serve.ckpt")));
  serve::ModelRegistry registry(serve_registry_config());
  const auto load = registry.load_file(tmp.dir("a100__serve.ckpt"), "a100");
  ASSERT_TRUE(load.ok) << load.error;
  const auto model = registry.lookup(load.key);
  ASSERT_NE(model, nullptr);
  const auto cfg = serve_wal_config(tmp.dir("swal"));

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: serve with per-record durability, then die without any
    // shutdown path. Blocking decide() journals on the calling thread
    // before returning, so everything below is on disk when we die.
    serve::ProvisioningService victim(model, cfg);
    victim.start();
    const auto s1 = victim.open_session();
    const auto s2 = victim.open_session();
    for (std::uint64_t t = 0; t < 8; ++t) {
      victim.observe(s1, serve_sample(1, t), serve_ctx(1));
      victim.observe(s2, serve_sample(2, t), serve_ctx(2));
    }
    (void)victim.decide(s1);
    (void)victim.decide(s2);
    ::raise(SIGKILL);
    ::_exit(7);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Control service, uninterrupted.
  serve::ServiceConfig plain = cfg;
  plain.wal.dir.clear();
  serve::ProvisioningService control(model, plain);
  control.start();
  const auto c1 = control.open_session();
  const auto c2 = control.open_session();
  for (std::uint64_t t = 0; t < 8; ++t) {
    control.observe(c1, serve_sample(1, t), serve_ctx(1));
    control.observe(c2, serve_sample(2, t), serve_ctx(2));
  }

  serve::ProvisioningService survivor(model, cfg);
  const auto& restore = survivor.wal_restore_info();
  EXPECT_TRUE(restore.replayed);
  EXPECT_EQ(restore.sessions, 2u);
  EXPECT_EQ(restore.frames, 16u);
  EXPECT_EQ(restore.decisions, 2u);
  EXPECT_EQ(survivor.session_count(), 2u);
  EXPECT_EQ(survivor.session_history(1), control.session_history(c1));
  EXPECT_EQ(survivor.session_history(2), control.session_history(c2));

  survivor.start();
  const std::vector<std::pair<serve::SessionId, serve::SessionId>> pairs = {{1, c1}, {2, c2}};
  for (const auto& [mine, theirs] : pairs) {
    survivor.observe(mine, serve_sample(mine, 8), serve_ctx(mine));
    control.observe(theirs, serve_sample(mine, 8), serve_ctx(mine));
    const auto d = survivor.decide(mine);
    const auto e = control.decide(theirs);
    EXPECT_EQ(d.action, e.action);
    EXPECT_EQ(d.score_submit, e.score_submit);
    EXPECT_EQ(d.score_wait, e.score_wait);
  }
  survivor.drain_and_stop();
  control.drain_and_stop();
}

TEST(ServeWal, TornJournalTailRestoresThePrefixAndKeepsServing) {
  TempDir tmp("storn");
  auto agent = serve_dqn(31);
  ASSERT_TRUE(core::save_agent(agent, tmp.dir("a100__serve.ckpt")));
  serve::ModelRegistry registry(serve_registry_config());
  const auto load = registry.load_file(tmp.dir("a100__serve.ckpt"), "a100");
  ASSERT_TRUE(load.ok) << load.error;
  const auto model = registry.lookup(load.key);
  const auto cfg = serve_wal_config(tmp.dir("swal"));
  {
    serve::ProvisioningService a(model, cfg);
    a.start();
    const auto s1 = a.open_session();
    for (std::uint64_t t = 0; t < 5; ++t) a.observe(s1, serve_sample(1, t), serve_ctx(1));
    a.drain_and_stop();
  }
  {
    std::ofstream tear(segment_files(tmp.dir("swal")).back(),
                       std::ios::binary | std::ios::app);
    for (int i = 0; i < 13; ++i) tear.put(static_cast<char>(0xCD));
  }
  serve::ProvisioningService b(model, cfg);
  EXPECT_TRUE(b.wal_restore_info().replayed);
  EXPECT_TRUE(b.wal_restore_info().torn_tail);
  EXPECT_EQ(b.session_count(), 1u);
  EXPECT_EQ(b.session_frames_seen(1), 5u);
  b.start();
  EXPECT_NO_THROW((void)b.decide(1));
  b.drain_and_stop();
}

TEST(ServeWal, JournalFailureLatchesDegradedHealthWhileDecisionsFlow) {
  TempDir tmp("sdegraded");
  auto agent = serve_dqn(37);
  ASSERT_TRUE(core::save_agent(agent, tmp.dir("a100__serve.ckpt")));
  serve::ModelRegistry registry(serve_registry_config());
  const auto load = registry.load_file(tmp.dir("a100__serve.ckpt"), "a100");
  ASSERT_TRUE(load.ok) << load.error;
  const auto model = registry.lookup(load.key);

  serve::ProvisioningService unjournaled(model, serve_wal_config(""));
  EXPECT_NE(unjournaled.health_text().find("durability: off\n"), std::string::npos);

  serve::ProvisioningService service(model, serve_wal_config(tmp.dir("swal")));
  service.start();
  const auto id = service.open_session();
  service.observe(id, serve_sample(1, 0), serve_ctx(1));
  (void)service.decide(id);
  EXPECT_NE(service.health_text().find("durability: ok\n"), std::string::npos);

  // The next durable op is the journal's write of the next observed
  // frame: fail it, then keep serving.
  walt::arm_fault(1, walt::FaultMode::kError);
  for (std::uint64_t t = 1; t < 6; ++t) {
    service.observe(id, serve_sample(1, t), serve_ctx(1));
    EXPECT_NO_THROW((void)service.decide(id));
  }
  walt::disarm_fault();
  EXPECT_TRUE(service.wal_failed());
  EXPECT_EQ(service.report().decisions, 6u);
  const std::string health = service.health_text();
  EXPECT_NE(health.find("durability: degraded\n"), std::string::npos) << health;
  service.drain_and_stop();
}

}  // namespace
}  // namespace mirage
