// Measurement helpers for the full-stack benchmark: wall clock, latency
// samples and their quantiles, operation accounting, and the in-memory
// span log of the traced run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace fullstack {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Wall seconds spent in fn().
template <typename Fn>
double timed_s(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; sorts `v`. 0 for
/// an empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Attempted / failed operations of one kind, with the failure reasons
/// the stack can produce.
struct OpCount {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
};

struct Tally {
  OpCount reads;     // JourneyQuery submissions
  OpCount writes;    // DurableEngine::apply calls
  OpCount closures;  // ClosureQuery submissions
  OpCount checks;    // correctness-gate comparisons
  // Traced run only: direct calls one layer down that mirror a client
  // operation (engine replays of probed reads, the in-memory twin's
  // reads and applies). Not client operations, so not counted above.
  OpCount probes;
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> errors{0};      // any other exception
  std::atomic<std::uint64_t> mismatches{0};  // gate comparisons that differ

  [[nodiscard]] std::uint64_t attempted() const {
    return reads.attempted + writes.attempted + closures.attempted +
           checks.attempted + probes.attempted;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return reads.failed + writes.failed + closures.failed + checks.failed +
           probes.failed;
  }
};

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` names the layer whose call caused this one ("" for
/// a root span issued by a client).
struct Span {
  std::uint64_t request{0};
  const char* layer{""};
  const char* parent{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// Spans kept in memory during the traced run and written out once at
/// the end, one JSON object per line.
class SpanLog {
 public:
  void add(const std::vector<Span>& part) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), part.begin(), part.end());
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  /// Writes every span to `path`; false on I/O failure.
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"request\":%llu,\"layer\":\"%s\",\"parent\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.request), s.layer,
                   s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace fullstack
