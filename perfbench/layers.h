// Layer probes of the traced run: each engine layer called directly through
// its public function on one workload's data, with a span around each call.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace ptp {
class Catalog;
struct NormalizedQuery;
}  // namespace ptp

namespace perfbench {

struct LayerInputs {
  /// Query texts for the query and plan probes, each with the catalog it
  /// resolves against.
  std::vector<std::pair<std::string, ptp::Catalog*>> texts;
  /// Query whose base relations feed the shuffle, join, sort and trie
  /// probes, at `workers` simulated workers.
  const ptp::NormalizedQuery* probe = nullptr;
  /// Queries for plan.<strategy>_s; empty when the workload measures those
  /// itself.
  std::vector<const ptp::NormalizedQuery*> matrix;
  int workers = 0;
};

/// Runs every probe and adds its per-layer metrics to `out`.
void ProbeLayers(const LayerInputs& in, std::map<std::string, Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
