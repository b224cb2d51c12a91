#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point Epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

}  // namespace

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - Epoch())
      .count();
}

void SleepUntilMs(double t) {
  std::this_thread::sleep_until(
      Epoch() + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(t)));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

size_t CountAbove(const std::vector<double>& values, double threshold) {
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t SpanLog::Add(const char* name, uint64_t parent, uint64_t key,
                      double start_ms, double dur_ms) {
  const double t0 = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.key = key;
  s.start_ms = start_ms;
  s.dur_ms = dur_ms;
  spans_.push_back(s);
  recording_ms_ += NowMs() - t0;
  return s.id;
}

void SpanLog::SetDuration(uint64_t id, double dur_ms) {
  const double t0 = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].dur_ms = dur_ms;
  recording_ms_ += NowMs() - t0;
}

double SpanLog::recording_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recording_ms_;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::vector<double>> SpanLog::SelfTimes() const {
  const std::vector<Span> all = spans();
  // Children's intervals per parent id (ids are 1-based positions).
  std::vector<std::vector<std::pair<double, double>>> kids(all.size() + 1);
  for (const Span& s : all) {
    if (s.parent != 0 && s.parent <= all.size()) {
      kids[s.parent].push_back({s.start_ms, s.start_ms + s.dur_ms});
    }
  }
  std::map<std::string, std::vector<double>> self;
  for (const Span& s : all) {
    std::vector<std::pair<double, double>>& iv = kids[s.id];
    std::sort(iv.begin(), iv.end());
    const double lo = s.start_ms;
    const double hi = s.start_ms + s.dur_ms;
    double covered = 0.0;
    double reach = lo;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      const double to = std::min(b, hi);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(b, hi));
    }
    self[s.name].push_back(s.dur_ms - covered);
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"key\": %llu}}%s\n",
                 s.name, s.start_ms * 1e3, s.dur_ms * 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.key),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
