#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace mirage::obs {

namespace {
/// The alert condition: both windows burn the budget at least as fast as
/// it accrues.
constexpr double kBurnThreshold = 1.0;
}  // namespace

const char* alert_state_name(AlertState s) {
  switch (s) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "unnamed";
  return out;
}

void SloEngine::add(SloSpec spec) {
  if (spec.kind == SloKind::kLatencyQuantile) {
    if (!spec.latency) throw std::invalid_argument("SloEngine: latency SLO without a histogram");
    if (!(spec.quantile > 0.0 && spec.quantile < 100.0)) {
      throw std::invalid_argument("SloEngine: latency quantile must be in (0, 100)");
    }
  } else {
    if (!spec.bad || !spec.good) {
      throw std::invalid_argument("SloEngine: error-rate SLO needs bad and good counters");
    }
    if (!(spec.budget > 0.0 && spec.budget <= 1.0)) {
      throw std::invalid_argument("SloEngine: error budget must be in (0, 1]");
    }
  }
  if (!(spec.short_window_seconds > 0.0) || !(spec.long_window_seconds > 0.0)) {
    throw std::invalid_argument("SloEngine: windows must be positive");
  }

  Slo slo;
  slo.spec = std::move(spec);
  slo.spec.name = sanitize_metric_name(slo.spec.name);
  if (slo.spec.kind == SloKind::kLatencyQuantile) {
    slo.effective_budget = (100.0 - slo.spec.quantile) / 100.0;
    // Buckets whose upper bound still fits under the target are good; the
    // straddling bucket (and everything above) counts as bad — a
    // conservative rounding that can only fire EARLIER than the exact
    // sample split, never later.
    slo.first_bad_bucket = Histogram::kBuckets - 1;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (Histogram::bucket_upper_seconds(i) > slo.spec.target_seconds) {
        slo.first_bad_bucket = i;
        break;
      }
    }
  } else {
    slo.effective_budget = slo.spec.budget;
  }
  slo.ring.resize(kRingCapacity);  // preallocated: evaluate() never grows it

  const std::string base = "mirage_slo_" + slo.spec.name;
  auto& reg = registry();
  slo.state_gauge = reg.gauge(base + "_state",
                              "alert state: 0=inactive 1=pending 2=firing 3=resolved");
  slo.burn_short_gauge = reg.gauge(base + "_burn_short", "short-window error-budget burn rate");
  slo.burn_long_gauge = reg.gauge(base + "_burn_long", "long-window error-budget burn rate");
  slo.fires_counter = reg.counter(base + "_fires_total", "pending->firing transitions");

  std::lock_guard<std::mutex> lock(mutex_);
  slos_.push_back(std::move(slo));
  fired_scratch_.reserve(slos_.size());
}

void SloEngine::on_fire(FireCallback cb) {
  std::lock_guard<std::mutex> lock(mutex_);
  fire_callbacks_.push_back(std::move(cb));
}

void SloEngine::read_sources(const Slo& slo, double* bad, double* total) const {
  if (slo.spec.kind == SloKind::kLatencyQuantile) {
    // One snapshot: bad and total come from the same bucket reads.
    const Histogram::Snapshot snap = slo.spec.latency->snapshot();
    std::uint64_t bad_n = 0;
    for (std::size_t i = slo.first_bad_bucket; i < Histogram::kBuckets; ++i) {
      bad_n += snap.counts[i];
    }
    *bad = static_cast<double>(bad_n);
    *total = static_cast<double>(snap.count);
  } else {
    *bad = static_cast<double>(slo.spec.bad->value());
    *total = *bad + static_cast<double>(slo.spec.good->value());
  }
}

double SloEngine::burn_over_window(const Slo& slo, const Sample& now, double window) const {
  // Baseline = the newest sample at least `window` old; a younger-than-
  // window ring falls back to its oldest sample (burn over what we have).
  const Sample* baseline = nullptr;
  for (std::size_t i = 0; i < slo.ring_size; ++i) {
    const Sample& s = slo.ring[(slo.ring_head + i) % kRingCapacity];
    if (now.ts - s.ts >= window) {
      baseline = &s;
    } else {
      break;  // ring is time-ordered; everything later is too young
    }
  }
  if (!baseline && slo.ring_size > 0) baseline = &slo.ring[slo.ring_head];
  const double base_bad = baseline ? baseline->bad : 0.0;
  const double base_total = baseline ? baseline->total : 0.0;
  const double d_bad = std::max(0.0, now.bad - base_bad);
  const double d_total = std::max(0.0, now.total - base_total);
  if (d_total <= 0.0) return 0.0;  // no traffic in the window -> no burn
  return (d_bad / d_total) / slo.effective_budget;
}

std::size_t SloEngine::evaluate(double now_seconds) {
  std::size_t newly_firing = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  fired_scratch_.clear();
  for (std::size_t idx = 0; idx < slos_.size(); ++idx) {
    Slo& slo = slos_[idx];
    Sample now;
    now.ts = now_seconds;
    read_sources(slo, &now.bad, &now.total);

    slo.burn_short = burn_over_window(slo, now, slo.spec.short_window_seconds);
    slo.burn_long = burn_over_window(slo, now, slo.spec.long_window_seconds);

    // Store the snapshot only once the newest stored one is a ring
    // spacing old, so the ring always spans the long window however often
    // evaluate() runs (overwrite-oldest past capacity; no allocation).
    const std::size_t slot = (slo.ring_head + slo.ring_size) % kRingCapacity;
    const double spacing = slo.spec.long_window_seconds / (kRingCapacity - 1);
    if (slo.ring_size == 0 ||
        now.ts - slo.ring[(slot + kRingCapacity - 1) % kRingCapacity].ts >= spacing) {
      slo.ring[slot] = now;
      if (slo.ring_size < kRingCapacity) {
        ++slo.ring_size;
      } else {
        slo.ring_head = (slo.ring_head + 1) % kRingCapacity;
      }
    }

    const bool condition = slo.burn_short >= kBurnThreshold && slo.burn_long >= kBurnThreshold;
    switch (slo.state) {
      case AlertState::kInactive:
      case AlertState::kResolved:
        if (condition) {
          slo.condition_since = now_seconds;
          if (slo.spec.pending_seconds <= 0.0) {
            slo.state = AlertState::kFiring;
            slo.state_since = now_seconds;
            ++slo.fires;
            slo.fires_counter->add();
            fired_scratch_.push_back(idx);
            ++newly_firing;
          } else {
            slo.state = AlertState::kPending;
            slo.state_since = now_seconds;
          }
        } else if (slo.state == AlertState::kResolved) {
          slo.state = AlertState::kInactive;
          slo.state_since = now_seconds;
        }
        break;
      case AlertState::kPending:
        if (!condition) {
          slo.state = AlertState::kInactive;
          slo.state_since = now_seconds;
        } else if (now_seconds - slo.condition_since >= slo.spec.pending_seconds) {
          slo.state = AlertState::kFiring;
          slo.state_since = now_seconds;
          ++slo.fires;
          slo.fires_counter->add();
          fired_scratch_.push_back(idx);
          ++newly_firing;
        }
        break;
      case AlertState::kFiring:
        if (condition) {
          slo.clear_since = 0.0;
        } else {
          if (slo.clear_since <= 0.0) slo.clear_since = now_seconds;
          if (now_seconds - slo.clear_since >= slo.spec.resolve_seconds) {
            slo.state = AlertState::kResolved;
            slo.state_since = now_seconds;
            slo.clear_since = 0.0;
          }
        }
        break;
    }

    slo.state_gauge->set(static_cast<double>(static_cast<int>(slo.state)));
    slo.burn_short_gauge->set(slo.burn_short);
    slo.burn_long_gauge->set(slo.burn_long);
  }

  if (fired_scratch_.empty() || fire_callbacks_.empty()) return newly_firing;
  // Copy what the callbacks need, then release the lock so a callback can
  // re-enter statuses()/health_text() (the flight-recorder dump path).
  std::vector<SloStatus> fired;
  fired.reserve(fired_scratch_.size());
  for (const std::size_t idx : fired_scratch_) fired.push_back(status_of_locked(slos_[idx]));
  std::vector<FireCallback> callbacks = fire_callbacks_;
  lock.unlock();
  for (const auto& status : fired) {
    for (const auto& cb : callbacks) cb(status);
  }
  return newly_firing;
}

SloStatus SloEngine::status_of_locked(const Slo& slo) const {
  SloStatus s;
  s.name = slo.spec.name;
  s.kind = slo.spec.kind;
  s.state = slo.state;
  s.burn_short = slo.burn_short;
  s.burn_long = slo.burn_long;
  s.budget = slo.effective_budget;
  s.fires = slo.fires;
  s.since_seconds = slo.state_since;
  return s;
}

std::vector<SloStatus> SloEngine::statuses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SloStatus> out;
  out.reserve(slos_.size());
  for (const auto& slo : slos_) out.push_back(status_of_locked(slo));
  return out;
}

std::string SloEngine::health_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(256);
  out += "# mirage health v1\n";
  bool any_firing = false, any_pending = false;
  for (const auto& slo : slos_) {
    any_firing = any_firing || slo.state == AlertState::kFiring;
    any_pending = any_pending || slo.state == AlertState::kPending;
  }
  out += "status: ";
  out += any_firing ? "firing" : (any_pending ? "pending" : "ok");
  out += '\n';
  char line[256];
  for (const auto& slo : slos_) {
    std::snprintf(line, sizeof(line),
                  "slo %s kind=%s state=%s burn_short=%.6g burn_long=%.6g budget=%.6g "
                  "windows=%.6gs/%.6gs fires=%llu\n",
                  slo.spec.name.c_str(),
                  slo.spec.kind == SloKind::kLatencyQuantile ? "latency" : "error_rate",
                  alert_state_name(slo.state), slo.burn_short, slo.burn_long,
                  slo.effective_budget, slo.spec.short_window_seconds,
                  slo.spec.long_window_seconds,
                  static_cast<unsigned long long>(slo.fires));
    out += line;
  }
  return out;
}

std::size_t SloEngine::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slos_.size();
}

}  // namespace mirage::obs
