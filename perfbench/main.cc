// Engine benchmark program: runs one workload and prints every metric by
// name with its unit, the run's provenance, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace=1 the
// metrics are the per-layer ones of a traced window and the layer probes;
// otherwise the end-to-end ones of an untraced window. Exits 1 when any
// output differs from its reference, 2 on a usage error.
//
// Usually started through run.py, which builds this binary first:
//   perfbench --workload=serve_mix --seed=1 --seconds=10 --trace=0

#include <cstdio>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/trace.h"
#include "runtime/parallel.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=serve_mix|serve_adhoc|"
               "batch_matrix --seed=N --seconds=S --trace=0|1 "
               "[--trace-file=PATH] [--source-id=ID] [--smoke]\n");
  return 2;
}

void PrintMetrics(const char* kind, const std::map<std::string, Metric>& m) {
  for (const auto& [name, metric] : m) {
    std::printf("%s %-32s %14.6g %s", kind, name.c_str(), metric.value,
                metric.unit.c_str());
    if (metric.samples > 0) std::printf("  (n=%zu)", metric.samples);
    std::printf("\n");
  }
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (out.size() > 1) out += ", ";
    out += ptp::JsonQuote(name) + ": {\"value\": " + value +
           ", \"unit\": " + ptp::JsonQuote(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        config.workload = value;
      } else if (key == "--seed") {
        config.seed = std::stoull(value);
      } else if (key == "--seconds") {
        config.seconds = std::stod(value);
      } else if (key == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else if (key == "--trace-file") {
        config.trace_file = value;
      } else if (key == "--source-id") {
        source_id = value;
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (config.seconds <= 0) return Usage();

  ptp::runtime::SetThreads(config.pool_threads);
  Outcome out;
  if (config.workload == "serve_mix") {
    out = RunServeMix(config);
  } else if (config.workload == "serve_adhoc") {
    out = RunServeAdhoc(config);
  } else if (config.workload == "batch_matrix") {
    out = RunBatchMatrix(config);
    out.provenance["executors"] = "0";
    out.provenance["clients"] = "0";
  } else {
    return Usage();
  }
  if (!out.error.empty()) {
    std::fprintf(stderr, "error: %s\n", out.error.c_str());
    return 1;
  }
  out.end_to_end["peak_rss_mb"] = Metric{PeakRssMb(), "MB", 0};

  out.provenance.emplace("executors", std::to_string(config.executors));
  out.provenance.emplace("clients", std::to_string(config.clients));
  out.provenance["workload"] = config.workload;
  out.provenance["seed"] = std::to_string(config.seed);
  out.provenance["seconds"] = std::to_string(config.seconds);
  out.provenance["trace"] = config.trace ? "1" : "0";
  out.provenance["source"] = source_id;
  out.provenance["build_type"] = PERFBENCH_BUILD_TYPE;
  out.provenance["nproc"] =
      std::to_string(std::thread::hardware_concurrency());
  out.provenance["clock"] =
      "steady_clock wall; CLOCK_PROCESS_CPUTIME_ID cpu";
  if (config.smoke) out.provenance["smoke"] = "1";

  PrintMetrics("end_to_end", out.end_to_end);
  if (config.trace) {
    PrintMetrics("per_layer", out.per_layer);
    if (!config.trace_file.empty()) {
      if (!Tracer::Get().WriteChromeJson(config.trace_file)) {
        std::fprintf(stderr, "cannot write %s\n", config.trace_file.c_str());
        return 1;
      }
      std::printf("trace written to %s\n", config.trace_file.c_str());
    }
  }
  std::string prov = "{";
  for (const auto& [k, v] : out.provenance) {
    if (prov.size() > 1) prov += ", ";
    prov += ptp::JsonQuote(k) + ": " + ptp::JsonQuote(v);
  }
  std::printf("provenance %s}\n", prov.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(config.trace ? out.per_layer : out.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
