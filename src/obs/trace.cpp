#include "obs/trace.hpp"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace mirage::obs {

const char* trace_event_kind_name(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kJobRun: return "job_run";
    case TraceEventKind::kJobKill: return "job_kill";
    case TraceEventKind::kJobPreempt: return "job_preempt";
    case TraceEventKind::kJobRequeue: return "job_requeue";
    case TraceEventKind::kClusterEvent: return "cluster_event";
    case TraceEventKind::kCellStart: return "cell_start";
    case TraceEventKind::kCellFinish: return "cell_finish";
    case TraceEventKind::kBatchFormed: return "batch_formed";
    case TraceEventKind::kCheckpointReload: return "checkpoint_reload";
    case TraceEventKind::kSpan: return "span";
    case TraceEventKind::kRequestBegin: return "request_begin";
    case TraceEventKind::kRequestEnqueue: return "request_enqueue";
    case TraceEventKind::kRequestComplete: return "request_complete";
  }
  return "?";
}

TraceRing::TraceRing(std::size_t capacity) : slots_(capacity ? capacity : 1) {}

std::vector<TraceEvent> TraceRing::snapshot() const {
  const std::uint64_t n = recorded();
  const std::size_t cap = slots_.size();
  std::vector<TraceEvent> out;
  if (n == 0) return out;
  const std::size_t kept = n < cap ? static_cast<std::size_t>(n) : cap;
  out.reserve(kept);
  const std::uint64_t first = n < cap ? 0 : n - cap;
  for (std::uint64_t i = first; i < n; ++i) {
    const Slot& slot = slots_[static_cast<std::size_t>(i % cap)];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != 2 * i + 2) continue;  // not yet written, mid-write or overwritten
    std::uint64_t words[kWords];
    for (std::size_t w = 0; w < kWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;  // torn
    TraceEvent& ev = out.emplace_back();
    std::memcpy(&ev, words, sizeof ev);
  }
  return out;
}

void TraceRing::clear() {
  for (Slot& slot : slots_) slot.seq.store(0, std::memory_order_relaxed);
  cursor_.store(0, std::memory_order_relaxed);
}

TraceRing& global_trace() {
  static TraceRing ring(1 << 15);
  return ring;
}

namespace {

void append_json_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_event_json(std::string& out, const TraceEvent& ev, std::uint32_t pid) {
  out += "{\"name\":\"";
  append_json_escaped(out, ev.name[0] ? ev.name : trace_event_kind_name(ev.kind));
  out += "\",\"cat\":\"";
  out += trace_event_kind_name(ev.kind);
  if (ev.is_slice()) {
    out += "\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(ev.ts);
    out += ",\"dur\":";
    out += std::to_string(ev.dur);
  } else {
    out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    out += std::to_string(ev.ts);
  }
  out += ",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(ev.tid);
  out += ",\"args\":{\"arg0\":";
  out += std::to_string(ev.arg0);
  out += ",\"arg1\":";
  out += std::to_string(ev.arg1);
  out += "}}";
}

}  // namespace

std::string to_chrome_json(const std::vector<TraceTrack>& tracks) {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& track : tracks) {
    // Process-name metadata labels the track group in the viewer.
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(track.pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    append_json_escaped(out, track.label.c_str());
    out += "\"}}";
    if (!track.ring) continue;
    for (const auto& ev : track.ring->snapshot()) {
      out += ',';
      append_event_json(out, ev, track.pid);
    }
    if (const std::uint64_t drops = track.ring->dropped()) {
      out += ",{\"name\":\"dropped_events\",\"cat\":\"meta\",\"ph\":\"i\",\"s\":\"t\","
             "\"ts\":0,\"pid\":";
      out += std::to_string(track.pid);
      out += ",\"tid\":0,\"args\":{\"arg0\":";
      out += std::to_string(drops);
      out += ",\"arg1\":0}}";
    }
  }
  out += "]}\n";
  return out;
}

std::string to_trace_csv(const std::vector<TraceTrack>& tracks) {
  std::ostringstream out;
  out << "track,pid,tid,kind,name,ts,dur,arg0,arg1\n";
  for (const auto& track : tracks) {
    if (!track.ring) continue;
    for (const auto& ev : track.ring->snapshot()) {
      // Track labels and event names never contain commas or quotes (cell
      // names are slash-separated, event names are identifiers).
      out << track.label << ',' << track.pid << ',' << ev.tid << ','
          << trace_event_kind_name(ev.kind) << ','
          << (ev.name[0] ? ev.name : trace_event_kind_name(ev.kind)) << ',' << ev.ts << ','
          << ev.dur << ',' << ev.arg0 << ',' << ev.arg1 << '\n';
    }
  }
  return out.str();
}

// ------------------------------------------------------- trace validation

namespace {

/// Minimal recursive-descent JSON reader used only for validation. Tracks
/// whether each traceEvents element carries the required keys.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool run(std::string* error) {
    skip_ws();
    if (peek() != '{') return fail(error, "top level must be an object");
    if (!parse_object(/*top_level=*/true, error)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail(error, "trailing junk after top-level object");
    if (!saw_trace_events_) return fail(error, "missing \"traceEvents\" array");
    return true;
  }

  std::size_t events_checked() const { return events_checked_; }

 private:
  bool fail(std::string* error, const std::string& message) {
    if (error) *error = message + " (offset " + std::to_string(pos_) + ")";
    return false;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  char take() { return pos_ < s_.size() ? s_[pos_++] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool parse_string(std::string* out, std::string* error) {
    if (take() != '"') return fail(error, "expected string");
    std::string value;
    for (;;) {
      if (pos_ >= s_.size()) return fail(error, "unterminated string");
      const char c = take();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = take();
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(take()))) {
              return fail(error, "bad \\u escape");
            }
          }
        } else if (!std::strchr("\"\\/bfnrt", esc)) {
          return fail(error, "bad escape");
        }
        value += '?';  // escaped content is irrelevant to the schema check
        continue;
      }
      value += c;
    }
    if (out) *out = value;
    return true;
  }

  bool parse_number(std::string* error) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) {
      return fail(error, "bad number");
    }
    return true;
  }

  bool parse_literal(const char* word, std::string* error) {
    for (const char* p = word; *p; ++p) {
      if (take() != *p) return fail(error, std::string("bad literal, expected ") + word);
    }
    return true;
  }

  bool parse_value(std::string* error, bool event_element = false) {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(false, error, event_element);
      case '[': return parse_array(error, /*events_array=*/false);
      case '"': return parse_string(nullptr, error);
      case 't': return parse_literal("true", error);
      case 'f': return parse_literal("false", error);
      case 'n': return parse_literal("null", error);
      default: return parse_number(error);
    }
  }

  bool parse_array(std::string* error, bool events_array) {
    take();  // '['
    skip_ws();
    if (peek() == ']') {
      take();
      return true;
    }
    for (;;) {
      if (events_array) {
        skip_ws();
        if (peek() != '{') return fail(error, "traceEvents element must be an object");
      }
      if (!parse_value(error, events_array)) return false;
      skip_ws();
      const char c = take();
      if (c == ']') return true;
      if (c != ',') return fail(error, "expected ',' or ']' in array");
    }
  }

  bool parse_object(bool top_level, std::string* error, bool event_element = false) {
    take();  // '{'
    bool has_name = false, has_ph = false, has_ts = false, has_pid = false, has_tid = false;
    skip_ws();
    if (peek() == '}') {
      take();
      if (event_element) return fail(error, "trace event missing required keys");
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key, error)) return false;
      skip_ws();
      if (take() != ':') return fail(error, "expected ':' after key");
      skip_ws();
      if (top_level && key == "traceEvents") {
        if (peek() != '[') return fail(error, "\"traceEvents\" must be an array");
        if (!parse_array(error, /*events_array=*/true)) return false;
        saw_trace_events_ = true;
      } else {
        if (!parse_value(error)) return false;
      }
      if (event_element) {
        has_name = has_name || key == "name";
        has_ph = has_ph || key == "ph";
        has_ts = has_ts || key == "ts";
        has_pid = has_pid || key == "pid";
        has_tid = has_tid || key == "tid";
      }
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') return fail(error, "expected ',' or '}' in object");
    }
    if (event_element) {
      ++events_checked_;
      // Metadata events ("ph":"M") still carry name/ph/pid; ts is allowed
      // to be absent on them, but this exporter always writes ts for
      // non-metadata events — require the common core.
      if (!has_name || !has_ph || !has_pid || !has_tid) {
        return fail(error, "trace event missing name/ph/pid/tid");
      }
      (void)has_ts;
    }
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  bool saw_trace_events_ = false;
  std::size_t events_checked_ = 0;
};

}  // namespace

bool validate_chrome_trace(const std::string& json, std::string* error) {
  JsonValidator v(json);
  if (!v.run(error)) return false;
  if (v.events_checked() == 0) {
    if (error) *error = "traceEvents array is empty";
    return false;
  }
  return true;
}

}  // namespace mirage::obs
