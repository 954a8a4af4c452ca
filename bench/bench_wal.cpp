// WAL segment-store microbench (ISSUE 10 satellite): append throughput at
// every sync level, recovery replay rate, and a zero-allocation audit of
// the steady-state append path (append+commit inside one segment must not
// touch the heap — the serve journal rides this path on every decide).
//
// Emits BENCH_wal.json; wal_appends_per_sec (sync=none, batched group
// commit — the serve journal's configuration) is the bench_compare-gated
// key.
//
//   ./bench_wal [records=200000] [payload=96] [batch=16] [segment_kb=1024]
//               [recover_reps=3]
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/config.hpp"
#include "util/time_utils.hpp"
#include "util/wal.hpp"

using namespace mirage;

namespace {

struct AppendRun {
  double appends_per_sec = 0.0;
  double mb_per_sec = 0.0;
  std::uint64_t records = 0;
};

AppendRun run_appends(const std::string& dir, util::wal::SyncLevel sync,
                      std::size_t segment_bytes, std::uint64_t records,
                      std::size_t payload_size, std::uint64_t batch) {
  util::wal::WalOptions options;
  options.sync = sync;
  options.segment_bytes = segment_bytes;
  util::wal::Writer writer;
  if (!writer.open(dir, options)) {
    std::fprintf(stderr, "bench_wal: cannot open %s\n", dir.c_str());
    std::exit(2);
  }
  std::vector<std::uint8_t> payload(payload_size);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const double t0 = util::wall_seconds();
  for (std::uint64_t i = 0; i < records; ++i) {
    if (!writer.append(payload.data(), payload.size())) std::exit(2);
    if (i % batch == batch - 1 && !writer.commit()) std::exit(2);
  }
  if (!writer.commit()) std::exit(2);
  const double seconds = util::wall_seconds() - t0;
  writer.close();
  AppendRun run;
  run.records = records;
  run.appends_per_sec = static_cast<double>(records) / seconds;
  run.mb_per_sec = static_cast<double>(records) * static_cast<double>(payload_size) /
                   (seconds * 1024.0 * 1024.0);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = util::Config::from_args(argc, argv);
  const auto records = static_cast<std::uint64_t>(cli.get_int("records", 200000));
  const auto payload = static_cast<std::size_t>(cli.get_int("payload", 96));
  const auto batch = static_cast<std::uint64_t>(cli.get_int("batch", 16));
  const auto segment_bytes = static_cast<std::size_t>(cli.get_int("segment_kb", 1024)) * 1024;
  const auto recover_reps = static_cast<std::size_t>(cli.get_int("recover_reps", 3));

  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "mirage_bench_wal";
  fs::remove_all(root);
  fs::create_directories(root);
  std::printf("wal bench: %llu records x %zu B, commit every %llu, %zu KiB segments\n\n",
              static_cast<unsigned long long>(records), payload,
              static_cast<unsigned long long>(batch), segment_bytes / 1024);

  // ---- append throughput per sync level ----------------------------------
  // kNone is the serving configuration (group commit on the sweeper tick);
  // kOnCommit fsyncs every batch, so it runs a trimmed record count.
  const auto none =
      run_appends((root / "none").string(), util::wal::SyncLevel::kNone, segment_bytes,
                  records, payload, batch);
  std::printf("sync=none    %10.0f appends/s  (%.1f MiB/s payload)\n", none.appends_per_sec,
              none.mb_per_sec);
  const auto commit =
      run_appends((root / "commit").string(), util::wal::SyncLevel::kOnCommit, segment_bytes,
                  std::max<std::uint64_t>(records / 50, 2000), payload, batch);
  std::printf("sync=commit  %10.0f appends/s  (%.1f MiB/s payload, fsync/batch)\n",
              commit.appends_per_sec, commit.mb_per_sec);

  // ---- zero-allocation audit ---------------------------------------------
  // Within one segment (no roll, which legitimately builds a path string)
  // append+commit must be allocation-free: stack headers into the writer's
  // preallocated buffer, plain write(2) on flush.
  std::uint64_t steady_allocs = 0;
  {
    util::wal::WalOptions options;
    options.sync = util::wal::SyncLevel::kNone;
    options.segment_bytes = 64u << 20;  // the audit window stays in segment 0
    util::wal::Writer writer;
    if (!writer.open((root / "audit").string(), options)) std::exit(2);
    std::vector<std::uint8_t> bytes(payload, 0x5A);
    for (int i = 0; i < 1024; ++i) {  // warmup
      (void)writer.append(bytes.data(), bytes.size());
    }
    (void)writer.commit();
    const std::uint64_t alloc0 = bench::allocation_count();
    for (int i = 0; i < 10000; ++i) {
      if (!writer.append(bytes.data(), bytes.size())) std::exit(2);
      if (i % 16 == 15 && !writer.commit()) std::exit(2);
    }
    if (!writer.commit()) std::exit(2);
    steady_allocs = bench::allocation_count() - alloc0;
  }
  std::printf("steady-state %llu heap allocations across 10000 audited appends\n",
              static_cast<unsigned long long>(steady_allocs));

  // ---- recovery replay rate ----------------------------------------------
  double recover_records_per_sec = 0.0;
  std::uint64_t recovered = 0;
  for (std::size_t rep = 0; rep < recover_reps; ++rep) {
    std::uint64_t count = 0, bytes = 0;
    const double t0 = util::wall_seconds();
    std::string error;
    const bool ok = util::wal::recover(
        (root / "none").string(),
        [&count, &bytes](const void*, std::size_t size) {
          ++count;
          bytes += size;
        },
        nullptr, &error);
    const double seconds = util::wall_seconds() - t0;
    if (!ok) {
      std::fprintf(stderr, "bench_wal: recovery failed: %s\n", error.c_str());
      std::exit(2);
    }
    recovered = count;
    recover_records_per_sec = std::max(recover_records_per_sec,
                                       static_cast<double>(count) / seconds);
  }
  std::printf("recovery     %10.0f records/s (best of %zu reps over %llu records)\n\n",
              recover_records_per_sec, recover_reps,
              static_cast<unsigned long long>(recovered));

  const bool ok = steady_allocs == 0 && recovered == none.records;
  std::printf("  [%s] zero steady-state allocations on the append path\n",
              steady_allocs == 0 ? "PASS" : "FAIL");
  std::printf("  [%s] recovery replays every committed record\n",
              recovered == none.records ? "PASS" : "FAIL");

  bench::BenchJson json("wal");
  json.add("params", "records=" + std::to_string(records) + ",payload=" +
                         std::to_string(payload) + ",batch=" + std::to_string(batch) +
                         ",segment_kb=" + std::to_string(segment_bytes / 1024))
      .add("wal_appends_per_sec", none.appends_per_sec)
      .add("wal_appends_per_sec_commit", commit.appends_per_sec)
      .add("wal_payload_mb_per_sec", none.mb_per_sec)
      .add("wal_recover_records_per_sec", recover_records_per_sec)
      .add("wal_recovered_records", static_cast<std::int64_t>(recovered))
      .add("steady_allocs", static_cast<std::int64_t>(steady_allocs))
      .add("target_met", static_cast<std::int64_t>(ok ? 1 : 0));
  json.add_resource_fields();
  json.write();

  fs::remove_all(root);
  std::printf("\nwal bench: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 2;
}
