#include "layers.h"

#include <algorithm>
#include <string>
#include <vector>

#include "ptp/ptp.h"
#include "storage/sort.h"

namespace perfbench {
namespace {

constexpr int kCallSamples = 100;  // per-call probes (us-scale calls)
constexpr int kBulkReps = 5;       // whole-relation probes (ms-scale calls)

// Runs `fn` inside a span and returns its wall time in seconds.
template <typename Fn>
double Timed(const std::string& name, uint64_t id, Fn&& fn) {
  ScopedSpan span(name, id);
  const double t0 = NowSeconds();
  fn();
  return NowSeconds() - t0;
}

void Put(std::map<std::string, Metric>* out, const std::string& name,
         const std::vector<double>& samples, double scale,
         const std::string& unit) {
  (*out)[name] = Metric{Percentile(samples, 0.5) * scale, unit,
                        samples.size()};
}

void ProbeQueryAndPlan(const LayerInputs& in,
                       std::map<std::string, Metric>* out) {
  std::vector<double> normalize, parse, prepare, advise;
  for (int i = 0; i < kCallSamples; ++i) {
    const auto& [text, catalog] =
        in.texts[static_cast<size_t>(i) % in.texts.size()];
    const uint64_t id = static_cast<uint64_t>(i);
    ScopedSpan probe("probe.query_plan", id);
    normalize.push_back(Timed("query.NormalizeQueryText", id, [&] {
      ptp::NormalizeQueryText(text);
    }));
    ptp::Result<ptp::ConjunctiveQuery> cq = ptp::Status::OK();
    parse.push_back(Timed("query.ParseDatalog", id, [&] {
      cq = ptp::ParseDatalog(text, &catalog->dictionary());
    }));
    PTP_CHECK(cq.ok()) << cq.status().ToString();
    prepare.push_back(Timed("plan.PlanCache::Prepare", id, [&] {
      ptp::PlanCache empty;
      PTP_CHECK(empty.Prepare(text, in.workers, catalog, nullptr).ok());
    }));
    auto nq = ptp::Normalize(*cq, *catalog);
    PTP_CHECK(nq.ok()) << nq.status().ToString();
    advise.push_back(Timed("plan.AdviseStrategy", id, [&] {
      ptp::AdviseStrategy(*nq, in.workers);
    }));
  }
  Put(out, "query.normalize_text_us", normalize, 1e6, "us");
  Put(out, "query.parse_us", parse, 1e6, "us");
  Put(out, "plan.prepare_miss_us", prepare, 1e6, "us");
  Put(out, "plan.advise_us", advise, 1e6, "us");
}

// Column permutation that puts an atom's variables in `order`.
std::vector<int> PermutationFor(const std::vector<std::string>& vars,
                                const std::vector<std::string>& order) {
  std::vector<int> perm;
  for (const std::string& v : order) {
    auto it = std::find(vars.begin(), vars.end(), v);
    if (it != vars.end()) perm.push_back(static_cast<int>(it - vars.begin()));
  }
  return perm;
}

void ProbeExec(const LayerInputs& in, std::map<std::string, Metric>* out) {
  const ptp::NormalizedQuery& q = *in.probe;
  const int W = in.workers;
  const size_t atoms = q.atoms.size();

  std::vector<double> optimize;
  const ptp::ShareProblem problem = ptp::MakeShareProblem(q);
  ptp::ConfigChoice choice;
  for (int i = 0; i < kCallSamples; ++i) {
    optimize.push_back(Timed("hypercube.OptimizeShares", i, [&] {
      choice = ptp::OptimizeShares(problem, W);
    }));
  }
  Put(out, "hypercube.optimize_us", optimize, 1e6, "us");
  const uint64_t salt = ptp::StrategyOptions{}.salt;
  choice.config.salt = salt;
  const std::vector<int> cell_map = ptp::IdentityCellMap(choice.config);

  std::vector<ptp::DistributedRelation> base;
  for (const ptp::NormalizedAtom& atom : q.atoms) {
    base.push_back(ptp::PartitionRoundRobin(atom.relation, W));
  }
  const std::vector<int> join_order = ptp::GreedyLeftDeepOrder(q);
  const std::vector<std::string> var_order =
      ptp::OptimizeVariableOrder(q).order;
  const size_t budget = ptp::StrategyOptions{}.intermediate_budget;

  std::vector<double> hash, broadcast, hypercube, hash_join, sort, tj;
  double seeks = 0;
  for (int rep = 0; rep < kBulkReps; ++rep) {
    const uint64_t id = static_cast<uint64_t>(rep);
    ScopedSpan probe("probe.exec", id);
    double h = 0, b = 0, c = 0;
    std::vector<ptp::DistributedRelation> cube(atoms);
    for (size_t i = 0; i < atoms; ++i) {
      const std::string label = "probe " + q.atoms[i].relation.name();
      h += Timed("exec.HashShuffle", id, [&] {
        PTP_CHECK(ptp::HashShuffle(base[i], {0}, W, salt, label).ok());
      });
      b += Timed("exec.BroadcastShuffle", id, [&] {
        PTP_CHECK(ptp::BroadcastShuffle(base[i], W, label).ok());
      });
      c += Timed("exec.HypercubeShuffle", id, [&] {
        auto r = ptp::HypercubeShuffle(base[i], q.atoms[i].variables,
                                       choice.config, cell_map, W, label);
        PTP_CHECK(r.ok()) << r.status().ToString();
        cube[i] = std::move(r->data);
      });
    }
    hash.push_back(h);
    broadcast.push_back(b);
    hypercube.push_back(c);

    hash_join.push_back(Timed("exec.LeftDeepJoinLocal", id, [&] {
      PTP_CHECK(ptp::runtime::ParallelFor(W, [&](int w) {
                  std::vector<const ptp::Relation*> inputs;
                  for (const auto& dist : cube) inputs.push_back(&dist[w]);
                  return ptp::LeftDeepJoinLocal(inputs, join_order,
                                                q.predicates, budget)
                      .status();
                }).ok());
    }));

    // Fragments permuted to the trie order, sorted, then joined.
    std::vector<std::vector<ptp::Relation>> sorted(static_cast<size_t>(W));
    for (int w = 0; w < W; ++w) {
      for (size_t i = 0; i < atoms; ++i) {
        sorted[w].push_back(cube[i][w].PermuteColumns(
            PermutationFor(q.atoms[i].variables, var_order)));
      }
    }
    sort.push_back(Timed("storage.SortRowsLex", id, [&] {
      PTP_CHECK(ptp::runtime::ParallelFor(W, [&](int w) {
                  for (ptp::Relation& r : sorted[w]) {
                    ptp::SortRowsLex(&r.mutable_data(), r.arity());
                  }
                  return ptp::Status::OK();
                }).ok());
    }));
    std::vector<ptp::TJMetrics> tj_metrics(static_cast<size_t>(W));
    tj.push_back(Timed("tj.TributaryJoin", id, [&] {
      PTP_CHECK(ptp::runtime::ParallelFor(W, [&](int w) {
                  std::vector<const ptp::Relation*> inputs;
                  for (const ptp::Relation& r : sorted[w]) inputs.push_back(&r);
                  return ptp::TributaryJoin(inputs, var_order, q.predicates,
                                            {}, &tj_metrics[w])
                      .status();
                }).ok());
    }));
    seeks = 0;
    for (const ptp::TJMetrics& m : tj_metrics) {
      seeks += static_cast<double>(m.seeks);
    }
  }
  Put(out, "exec.shuffle.hash_ms", hash, 1e3, "ms");
  Put(out, "exec.shuffle.broadcast_ms", broadcast, 1e3, "ms");
  Put(out, "exec.shuffle.hypercube_ms", hypercube, 1e3, "ms");
  Put(out, "exec.hash_join_ms", hash_join, 1e3, "ms");
  Put(out, "storage.sort_ms", sort, 1e3, "ms");
  Put(out, "tj.join_ms", tj, 1e3, "ms");
  (*out)["tj.seeks"] = Metric{seeks, "count", 0};

  std::vector<double> barrier;
  for (int i = 0; i < kCallSamples; ++i) {
    barrier.push_back(Timed("runtime.ParallelFor", i, [&] {
      PTP_CHECK(ptp::runtime::ParallelFor(
                    W, [](int) { return ptp::Status::OK(); })
                    .ok());
    }));
  }
  Put(out, "runtime.barrier_us", barrier, 1e6, "us");
}

// plan.<strategy>_s: RunStrategy wall time per strategy summed over the
// matrix queries, median of a few passes.
void ProbeMatrix(const LayerInputs& in, std::map<std::string, Metric>* out) {
  for (const auto& [shuffle, join] : ptp::AllStrategies()) {
    const std::string name = ptp::StrategyName(shuffle, join);
    std::vector<double> sums;
    for (int rep = 0; rep < 3; ++rep) {
      double sum = 0;
      for (const ptp::NormalizedQuery* q : in.matrix) {
        ptp::StrategyOptions opts;
        opts.num_workers = in.workers;
        sum += Timed("plan.RunStrategy." + name, rep, [&] {
          PTP_CHECK(ptp::RunStrategy(*q, shuffle, join, opts).ok());
        });
      }
      sums.push_back(sum);
    }
    Put(out, "plan." + name + "_s", sums, 1, "s");
  }
}

}  // namespace

void ProbeLayers(const LayerInputs& in, std::map<std::string, Metric>* out) {
  ProbeQueryAndPlan(in, out);
  ProbeExec(in, out);
  if (!in.matrix.empty()) ProbeMatrix(in, out);
}

}  // namespace perfbench
