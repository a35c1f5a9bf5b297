#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <thread>
#include <utility>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Innermost open span of the calling thread, for parent links.
thread_local int64_t tls_open = -1;

int ThreadNumber() {
  static std::mutex mu;
  static std::map<std::thread::id, int> numbers;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = numbers.emplace(std::this_thread::get_id(),
                                        static_cast<int>(numbers.size()));
  return it->second;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(std::string_view name, uint64_t id) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = std::string(name);
  span.id = id;
  span.parent = tls_open;
  static thread_local const int thread = ThreadNumber();
  span.thread = thread;
  span.start_s = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  tls_open = static_cast<int64_t>(spans_.size()) - 1;
  return tls_open;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_[static_cast<size_t>(index)];
  span.end_s = now;
  tls_open = span.parent;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out.good()) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().start_s;
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread << ",\"name\":" << ptp::JsonQuote(s.name)
        << ",\"ts\":" << (s.start_s - t0) * 1e6
        << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"id\":" << s.id << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace perfbench
