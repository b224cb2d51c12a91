#ifndef FTA_PERFBENCH_REPORT_H_
#define FTA_PERFBENCH_REPORT_H_

// Shared plumbing of the benchmark driver: the clock, order statistics,
// the in-memory span log of traced runs, and the result record every
// workload returns to main.cc.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock since the first call in this process.
double NowMs();
/// Sleeps until NowMs() >= t (returns at once when t has passed).
void SleepUntilMs(double t);

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> values, double q);
double MeanOf(const std::vector<double>& values);
/// Number of values strictly greater than `threshold`.
size_t CountAbove(const std::vector<double>& values, double threshold);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// One closed span. Spans of one request or batch share `key`; `parent`
/// is the id of the enclosing span (0 for a root).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t key = 0;
  double start_ms = 0.0;
  double dur_ms = 0.0;
};

/// In-memory span store of a traced run, written out once at exit.
/// Thread-safe; Add() also accounts its own cost so a run can report what
/// recording spans took out of the measured phase.
class SpanLog {
 public:
  /// Records a span and returns its id (ids start at 1).
  uint64_t Add(const char* name, uint64_t parent, uint64_t key,
               double start_ms, double dur_ms);
  /// Closes a span opened with a placeholder duration.
  void SetDuration(uint64_t id, double dur_ms);
  /// Wall time spent inside Add() so far, summed over threads.
  double recording_ms() const;
  std::vector<Span> spans() const;
  /// Self time per span name: a span's duration minus the part of its
  /// interval that its children cover.
  std::map<std::string, std::vector<double>> SelfTimes() const;
  /// Chrome trace-event JSON (one complete event per span).
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  double recording_ms_ = 0.0;
};

/// What one workload run hands back to main.cc. `e2e` and `layer` are
/// keyed by metric name; layer metrics a workload does not exercise are
/// left out and printed as 0.
struct WorkloadResult {
  bool correct = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// What main.cc passes to a workload. The workload derives its inputs
/// from `seed` through datagen; the code under test never sees the seed.
struct RunSpec {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes for the self-test.
  bool toy = false;
  /// Self-test hook: corrupt the expected reference so the correctness
  /// check must fail.
  bool corrupt_reference = false;
  /// Print a digest of the generated inputs and stop before measuring.
  bool input_digest_only = false;
  SpanLog* spans = nullptr;
};

/// FNV-1a over bytes; used for the input digests of the self-test.
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // FTA_PERFBENCH_REPORT_H_
