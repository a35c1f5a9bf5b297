// Shared pieces of the engine benchmark: run configuration, exact order
// statistics, the in-memory span recorder of the traced run, and the
// result every workload returns.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Chrome trace-event JSON written at exit of a traced run.
  std::string trace_file;
  /// Tiny data and short windows, for the self-test only.
  bool smoke = false;

  // Host sizing: executors + pool threads never exceed the 4 cores the
  // benchmark is sized for; clients outnumber executors so queueing is real.
  int clients = 4;
  int executors = 2;
  int pool_threads = 2;
};

/// Exact order statistic of `v` (nearest rank, q in [0, 1]); 0 when empty.
double Percentile(std::vector<double> v, double q);

/// Seconds of CPU used by every thread of the process.
double ProcessCpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();
/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

/// One finished span. `parent` indexes the recorder's span list (-1 for a
/// root); spans of one request or pass share `id`.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  int64_t parent = -1;
  int thread = 0;
  double start_s = 0;
  double end_s = 0;
};

/// Records spans around calls into the engine, in memory, for the traced
/// run. Disabled (the default) every operation is one branch.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_ = on; }

  /// Opens a span on the calling thread (child of its innermost open span)
  /// and returns its index, or -1 when disabled.
  int64_t Begin(std::string_view name, uint64_t id);
  void End(int64_t index);

  /// Writes every span as a Chrome trace-event "X" event.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span against the global tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, uint64_t id = 0)
      : index_(Tracer::Get().Begin(name, id)) {}
  ~ScopedSpan() { Tracer::Get().End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
};

struct Metric {
  double value = 0;
  std::string unit;
  /// Samples behind a percentile or mean (0 for counts and totals).
  size_t samples = 0;
};

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  /// Set when the run did not measure what it should (e.g. a window ended
  /// early): the program then prints no result and exits nonzero.
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Sizes and settings of the run, printed with the result.
  std::map<std::string, std::string> provenance;
};

Outcome RunServeMix(const Config& config);
Outcome RunServeAdhoc(const Config& config);
Outcome RunBatchMatrix(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
