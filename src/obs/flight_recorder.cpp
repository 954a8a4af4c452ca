#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/time_utils.hpp"

namespace mirage::obs {

namespace fs = std::filesystem;

namespace {

std::string sanitize_path_fragment(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "manual";
  return out;
}

bool write_file(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << contents;
  return static_cast<bool>(out);
}

bool read_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

std::string build_info_text() {
  std::string out;
  out += "project: mirage\n";
#if defined(__VERSION__)
  out += "compiler: ";
  out += __VERSION__;
  out += '\n';
#endif
  out += "compiled: " __DATE__ " " __TIME__ "\n";
#if defined(NDEBUG)
  out += "build: release\n";
#else
  out += "build: debug\n";
#endif
#if defined(__linux__)
  out += "platform: linux\n";
#elif defined(__APPLE__)
  out += "platform: darwin\n";
#else
  out += "platform: other\n";
#endif
  out += "pointer_bits: " + std::to_string(sizeof(void*) * 8) + "\n";
  return out;
}

void fatal_signal_trampoline(int sig) {
  detail::dump_on_fatal_signal(sig);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void FlightRecorder::configure(FlightRecorderConfig config) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config.max_events == 0) config.max_events = 1;
  if (config.max_bundles == 0) config.max_bundles = 1;
  config_ = std::move(config);
}

FlightRecorderConfig FlightRecorder::config() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

void FlightRecorder::register_provider(const std::string& filename, Provider provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  providers_[filename] = std::move(provider);
}

void FlightRecorder::unregister_provider(const std::string& filename) {
  std::lock_guard<std::mutex> lock(mutex_);
  providers_.erase(filename);
}

std::uint64_t FlightRecorder::dumps() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dumps_;
}

std::string FlightRecorder::dump(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  char seq_buf[32];
  std::snprintf(seq_buf, sizeof(seq_buf), "bundle_%08llu_",
                static_cast<unsigned long long>(++seq_));
  const fs::path bundle_dir =
      fs::path(config_.directory) / (seq_buf + sanitize_path_fragment(reason));
  std::error_code ec;
  fs::create_directories(bundle_dir, ec);
  if (ec) return "";

  // snapshot() is safe against live traffic recording into the ring.
  std::vector<TraceEvent> events = global_trace().snapshot();
  if (events.size() > config_.max_events) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(config_.max_events));
  }
  TraceRing last_n(events.empty() ? 1 : events.size());
  for (const auto& ev : events) last_n.record(ev);
  const std::string trace_json = to_chrome_json({{"flight", 0, &last_n}});

  std::vector<std::string> files;
  bool ok = true;
  const auto emit = [&](const char* name, const std::string& contents) {
    ok = write_file(bundle_dir / name, contents) && ok;
    files.emplace_back(name);
  };
  emit("trace.json", trace_json);
  emit("metrics.prom", registry().to_prometheus());
  emit("build.txt", build_info_text());
  for (const auto& [name, provider] : providers_) {
    std::string contents;
    try {
      contents = provider();
    } catch (const std::exception& e) {
      contents = std::string("provider error: ") + e.what() + "\n";
    } catch (...) {
      contents = "provider error: unknown\n";
    }
    emit(name.c_str(), contents);
  }

  std::string manifest;
  manifest += "reason: " + reason + "\n";
  manifest += "seq: " + std::to_string(seq_) + "\n";
  char ts[64];
  std::snprintf(ts, sizeof(ts), "wall_seconds: %.6f\n", util::wall_seconds());
  manifest += ts;
  manifest += "trace_events: " + std::to_string(events.size()) + "\n";
  manifest += "files:\n";
  for (const auto& f : files) manifest += "  - " + f + "\n";
  ok = write_file(bundle_dir / "MANIFEST.txt", manifest) && ok;

  if (!ok) return "";
  ++dumps_;
  prune_locked();
  return bundle_dir.string();
}

void FlightRecorder::prune_locked() {
  std::error_code ec;
  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(config_.directory, ec)) {
    if (entry.is_directory(ec) &&
        entry.path().filename().string().rfind("bundle_", 0) == 0) {
      bundles.push_back(entry.path());
    }
  }
  if (bundles.size() <= config_.max_bundles) return;
  // Zero-padded sequence numbers make lexicographic order dump order.
  std::sort(bundles.begin(), bundles.end());
  const std::size_t excess = bundles.size() - config_.max_bundles;
  for (std::size_t i = 0; i < excess; ++i) fs::remove_all(bundles[i], ec);
}

bool FlightRecorder::validate_bundle(const std::string& bundle_dir, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = bundle_dir + ": " + why;
    return false;
  };
  std::string contents;
  if (!read_file(fs::path(bundle_dir) / "MANIFEST.txt", &contents) || contents.empty()) {
    return fail("missing MANIFEST.txt");
  }
  if (contents.find("reason: ") == std::string::npos) {
    return fail("MANIFEST.txt missing reason");
  }
  if (!read_file(fs::path(bundle_dir) / "build.txt", &contents) || contents.empty()) {
    return fail("missing build.txt");
  }
  if (!read_file(fs::path(bundle_dir) / "trace.json", &contents)) {
    return fail("missing trace.json");
  }
  std::string why;
  if (!validate_chrome_trace(contents, &why)) return fail("trace.json invalid: " + why);
  if (!read_file(fs::path(bundle_dir) / "metrics.prom", &contents)) {
    return fail("missing metrics.prom");
  }
  if (!lint_prometheus_exposition(contents, &why)) {
    return fail("metrics.prom invalid: " + why);
  }
  return true;
}

void FlightRecorder::install_signal_handlers() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (signals_installed_) return;
  signals_installed_ = true;
  for (const int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    std::signal(sig, fatal_signal_trampoline);
  }
}

FlightRecorder& flight_recorder() {
  static FlightRecorder instance;
  return instance;
}

namespace detail {
void dump_on_fatal_signal(int sig) {
  // Best-effort crash dump: stop the trace gate first so the bundle is a
  // frozen picture of the moments before the fault.
  global_trace().set_recording(false);
  flight_recorder().dump("signal_" + std::to_string(sig));
}
}  // namespace detail

}  // namespace mirage::obs
