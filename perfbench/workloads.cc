// The three workloads. Each sets up (several times, for a steady setup_s),
// measures one untraced window for the end-to-end metrics, and in a traced
// run measures a second, traced window plus the layer probes. Outputs are
// compared with their references after the windows, never inside them.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "bench.h"
#include "layers.h"
#include "ptp/ptp.h"

namespace perfbench {
namespace {

using ptp::Catalog;
using ptp::NormalizedQuery;
using ptp::QueryHandle;
using ptp::QueryRequest;
using ptp::QueryResponse;
using ptp::QueryServer;
using ptp::Relation;

// The datasets are fixed, like the paper's: --seed varies what runs on them
// (request sequences, lookup constants, hash salts), so a run-to-run spread
// reflects the engine rather than a differently shaped graph.
constexpr uint64_t kDataSeed = 42;

// Data sizes. The full sizes keep every (query, strategy) pair of the
// matrix inside the default budgets and give the serve workloads enough
// requests per window for an exact p95 (>= 200 samples).
struct Sizes {
  int setup_reps = 3;
  int serve_workers = 16;
  // serve_mix: the eight paper queries, Twitter at zipf 0.7 plus Freebase.
  size_t mix_nodes = 600;
  size_t mix_edges = 4000;
  double mix_freebase_scale = 0.05;
  // serve_adhoc: distinct Q3/Q7 lookups against the Freebase catalog.
  double adhoc_freebase_scale = 0.1;
  double absent_name_share = 0.1;
  size_t adhoc_warmup = 1200;  // past the plan cache's 1024-entry cap
  // The fixed request sequences hold enough lookups for a window at ten
  // times the rate measured on a 4-vCPU host (about 114 OK requests/s). A
  // window that runs out of lookups fails the run rather than end early.
  double adhoc_measured_qps = 114;
  double adhoc_qps_margin = 10;
  // batch_matrix: six strategies on Q1 and Q6 over a skewed Twitter graph.
  size_t matrix_nodes = 1200;
  size_t matrix_edges = 6500;
  double matrix_zipf = 0.8;
  int matrix_workers = 64;
  int min_passes = 3;
};

Sizes SizesFor(const Config& config) {
  Sizes s;
  if (config.smoke) {
    s.setup_reps = 2;
    s.serve_workers = 4;
    s.mix_nodes = 150;
    s.mix_edges = 600;
    s.mix_freebase_scale = 0.02;
    s.adhoc_freebase_scale = 0.02;
    s.adhoc_warmup = 40;
    s.matrix_nodes = 200;
    s.matrix_edges = 900;
    s.matrix_workers = 8;
    s.min_passes = 2;
  }
  return s;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void Put(std::map<std::string, Metric>* out, const std::string& name,
         double value, const std::string& unit, size_t samples = 0) {
  (*out)[name] = Metric{value, unit, samples};
}

// Median over `reps` runs of `setup`; the state of the last run is kept.
template <typename Fn>
double MedianSetupSeconds(int reps, Fn setup) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    setup();
    times.push_back(NowSeconds() - t0);
  }
  return Percentile(times, 0.5);
}

bool StrategyFromName(const std::string& name, ptp::ShuffleKind* shuffle,
                      ptp::JoinKind* join) {
  for (const auto& [s, j] : ptp::AllStrategies()) {
    if (name == ptp::StrategyName(s, j)) {
      *shuffle = s;
      *join = j;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Served workloads.
// ---------------------------------------------------------------------------

struct ServedQuery {
  std::string text;
  Catalog* catalog = nullptr;
  /// Null for ad-hoc texts, which the check parses on demand.
  const NormalizedQuery* normalized = nullptr;
};

// Order-independent fingerprint of a relation: its row count and the sum
// of its row hashes. A window keeps this instead of the response, so the
// benchmark's memory does not grow with the requests it completed.
struct Fingerprint {
  size_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const Relation& r) {
  Fingerprint f;
  f.rows = r.NumTuples();
  for (size_t i = 0; i < f.rows; ++i) {
    const ptp::Value* row = r.Row(i);
    uint64_t h = 0;
    for (size_t c = 0; c < r.arity(); ++c) {
      h = ptp::HashCombine(h, ptp::Mix64(static_cast<uint64_t>(row[c])));
    }
    f.sum += h;
  }
  return f;
}

// One completed request, reduced to what the metrics and checks read.
struct Served {
  int query = 0;  // index into the query table
  double latency_s = 0;
  double submit_s = 0;
  bool ok = false;
  std::string id;
  std::string strategy;
  bool bloom = false;
  double queue_s = 0;
  double exec_s = 0;
  double tuples_shuffled = 0;
  double max_skew = 0;
  double done_s = 0;  // completion, in seconds since the window opened
  Fingerprint output;
};

// Timed windows are cut into slices of this length; qps and cpu_ms_per_op
// are medians over slices, so a burst of host noise shorter than half the
// window does not move them.
constexpr double kSliceSeconds = 2.0;

struct Window {
  std::vector<Served> served;
  double wall_s = 0;
  double cpu_s = 0;
  /// (seconds since the window opened, process CPU seconds) at every slice
  /// boundary, starting with the opening.
  std::vector<std::pair<double, double>> ticks;
  int pool_threads = 0;
  /// Some session reached the end of its sequence before `seconds` elapsed
  /// or it had sent `max_per_session` requests: the window ended early.
  bool exhausted = false;
  ptp::PlanCache::Stats cache0, cache1;
  QueryServer::Stats stats0, stats1;
};

struct ServeState {
  std::unique_ptr<ptp::WorkloadFactory> factory;
  std::vector<ptp::Workload> workloads;
  std::vector<ServedQuery> table;
  /// Fixed per-session request sequences (indices into `table`).
  std::vector<std::vector<int>> sequences;
  std::vector<size_t> cursors;
  // Declared last so it is destroyed before the catalogs it serves.
  std::unique_ptr<QueryServer> server;
  std::vector<QueryServer::Session*> sessions;
};

// Closed loop: every session keeps one request in flight, walking its
// fixed sequence, until `seconds` elapse, `max_per_session` requests were
// sent, or the sequence ends.
Window RunWindow(ServeState* st, int workers, double seconds,
                 size_t max_per_session) {
  Window w;
  const size_t clients = st->sessions.size();
  std::vector<std::vector<Served>> per_client(clients);
  std::vector<int> pool_seen(clients, 0);
  std::vector<char> ran_out(clients, 0);
  w.cache0 = st->server->plan_cache().stats();
  w.stats0 = st->server->stats();
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  const double deadline = t0 + seconds;
  w.ticks.emplace_back(0, cpu0);
  std::mutex tick_mu;
  std::condition_variable tick_cv;
  bool clients_done = false;
  std::thread sampler([&] {
    std::unique_lock<std::mutex> lock(tick_mu);
    for (int k = 1;; ++k) {
      const auto at = std::chrono::steady_clock::now() +
                      std::chrono::duration<double>(t0 + k * kSliceSeconds -
                                                    NowSeconds());
      if (tick_cv.wait_until(lock, at, [&] { return clients_done; })) return;
      w.ticks.emplace_back(NowSeconds() - t0, ProcessCpuSeconds());
    }
  });
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const std::vector<int>& seq = st->sequences[c];
        size_t& pos = st->cursors[c];
        const size_t start = pos;
        const size_t stop =
            pos + std::min(seq.size() - pos, max_per_session);
        while (pos < stop && NowSeconds() < deadline) {
          const int q = seq[pos++];
          const uint64_t id = (static_cast<uint64_t>(c + 1) << 32) | pos;
          QueryRequest req;
          req.text = st->table[static_cast<size_t>(q)].text;
          req.catalog = st->table[static_cast<size_t>(q)].catalog;
          req.workers = workers;
          ScopedSpan request_span("request", id);
          Served s;
          s.query = q;
          const double a = NowSeconds();
          QueryHandle handle;
          {
            ScopedSpan span("server.Submit", id);
            handle = st->sessions[c]->Submit(req);
          }
          const double b = NowSeconds();
          {
            ScopedSpan span("server.Get", id);
            handle.Get();
          }
          s.submit_s = b - a;
          s.latency_s = NowSeconds() - a;
          s.done_s = a + s.latency_s - t0;
          pool_seen[c] = ptp::runtime::Threads();
          const QueryResponse& r = handle.Get();
          s.ok = r.status.ok();
          s.id = r.id;
          s.strategy = r.strategy;
          s.bloom = r.bloom;
          s.queue_s = r.queue_seconds;
          s.exec_s = r.exec_seconds;
          s.tuples_shuffled = static_cast<double>(r.metrics.TuplesShuffled());
          s.max_skew = r.metrics.MaxShuffleSkew();
          if (s.ok) s.output = FingerprintOf(r.output);
          per_client[c].push_back(std::move(s));
        }
        ran_out[c] = pos == seq.size() && pos - start < max_per_session &&
                     NowSeconds() < deadline;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(tick_mu);
    clients_done = true;
  }
  tick_cv.notify_all();
  sampler.join();
  w.wall_s = NowSeconds() - t0;
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  w.cache1 = st->server->plan_cache().stats();
  w.stats1 = st->server->stats();
  for (size_t c = 0; c < clients; ++c) {
    w.pool_threads = std::max(w.pool_threads, pool_seen[c]);
    w.exhausted |= ran_out[c] != 0;
    for (Served& s : per_client[c]) w.served.push_back(std::move(s));
  }
  return w;
}

// Records the end-to-end metrics of a window.
void WindowEndToEnd(const Window& w, std::map<std::string, Metric>* out) {
  std::vector<double> latency_ms;
  for (const Served& s : w.served) {
    if (s.ok) latency_ms.push_back(s.latency_s * 1e3);
  }
  // Per slice: OK completions per second and CPU per completion. A window
  // shorter than one slice is one slice.
  std::vector<std::pair<double, double>> ticks = w.ticks;
  if (ticks.size() < 2) ticks.emplace_back(w.wall_s, ticks[0].second + w.cpu_s);
  std::vector<double> rate, cpu_ms;
  for (size_t k = 0; k + 1 < ticks.size(); ++k) {
    double ops = 0;
    for (const Served& s : w.served) {
      ops += s.ok && s.done_s >= ticks[k].first &&
             s.done_s < ticks[k + 1].first;
    }
    rate.push_back(ops / (ticks[k + 1].first - ticks[k].first));
    if (ops > 0) {
      cpu_ms.push_back((ticks[k + 1].second - ticks[k].second) * 1e3 / ops);
    }
  }
  Put(out, "qps", Percentile(rate, 0.5), "1/s", rate.size());
  Put(out, "p50_ms", Percentile(latency_ms, 0.5), "ms", latency_ms.size());
  Put(out, "p95_ms", Percentile(latency_ms, 0.95), "ms", latency_ms.size());
  Put(out, "cpu_ms_per_op", Percentile(cpu_ms, 0.5), "ms", cpu_ms.size());
}

// Per-layer metrics of the server read from a (traced) window.
void ServerLayers(const Window& w, std::map<std::string, Metric>* out) {
  std::vector<double> submit_us, queue_ms, exec_ms, residual_ms;
  for (const Served& s : w.served) {
    if (!s.ok) continue;
    submit_us.push_back(s.submit_s * 1e6);
    queue_ms.push_back(s.queue_s * 1e3);
    exec_ms.push_back(s.exec_s * 1e3);
    residual_ms.push_back((s.latency_s - s.submit_s - s.queue_s - s.exec_s) *
                          1e3);
  }
  const size_t n = submit_us.size();
  Put(out, "server.submit_us", Percentile(submit_us, 0.5), "us", n);
  Put(out, "server.queue_p50_ms", Percentile(queue_ms, 0.5), "ms", n);
  Put(out, "server.queue_p95_ms", Percentile(queue_ms, 0.95), "ms", n);
  Put(out, "server.exec_ms", Percentile(exec_ms, 0.5), "ms", n);
  Put(out, "server.residual_ms", Percentile(residual_ms, 0.5), "ms", n);
  Put(out, "server.admission_stalls",
      static_cast<double>(w.stats1.admission_stalls -
                          w.stats0.admission_stalls),
      "count");
  Put(out, "server.large_dispatched",
      static_cast<double>(w.stats1.large_dispatched -
                          w.stats0.large_dispatched),
      "count");
  const double hits = static_cast<double>(w.cache1.hits - w.cache0.hits);
  const double misses =
      static_cast<double>(w.cache1.misses - w.cache0.misses);
  Put(out, "plan_cache.hit_ratio",
      hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
      static_cast<size_t>(hits + misses));
  Put(out, "plan_cache.evictions",
      static_cast<double>(w.cache1.evictions - w.cache0.evictions), "count");
  Put(out, "plan_cache.refreshes",
      static_cast<double>(w.cache1.refreshes - w.cache0.refreshes), "count");
}

// Per-layer metrics of execution read from a (traced) window.
void ExecLayers(const Window& w, const Config& config,
                std::map<std::string, Metric>* out) {
  double shuffled = 0, max_skew = 0;
  size_t n = 0;
  for (const Served& s : w.served) {
    if (!s.ok) continue;
    ++n;
    shuffled += s.tuples_shuffled;
    max_skew = std::max(max_skew, s.max_skew);
  }
  Put(out, "exec.tuples_shuffled", n > 0 ? shuffled / n : 0, "count", n);
  Put(out, "exec.max_consumer_skew", max_skew, "ratio", n);
  const double cores = config.executors + config.pool_threads;
  Put(out, "runtime.utilization",
      w.wall_s > 0 ? w.cpu_s / (w.wall_s * cores) : 0, "ratio");
}

// Replays every OK response solo (same text, strategy and bloom decision)
// and compares outputs. Returns the number of mismatches.
uint64_t CheckServed(ServeState* st, const std::vector<const Window*>& windows,
                     int workers) {
  std::map<std::tuple<int, std::string, bool>, Fingerprint> refs;
  uint64_t mismatches = 0;
  for (const Window* w : windows) {
    for (const Served& s : w->served) {
      if (!s.ok) continue;
      const auto key = std::make_tuple(s.query, s.strategy, s.bloom);
      auto it = refs.find(key);
      if (it == refs.end()) {
        const ServedQuery& sq = st->table[static_cast<size_t>(s.query)];
        NormalizedQuery parsed;
        const NormalizedQuery* nq = sq.normalized;
        if (nq == nullptr) {
          auto cq = ptp::ParseDatalog(sq.text, &sq.catalog->dictionary());
          PTP_CHECK(cq.ok()) << cq.status().ToString();
          auto n = ptp::Normalize(*cq, *sq.catalog);
          PTP_CHECK(n.ok()) << n.status().ToString();
          parsed = std::move(n).value();
          nq = &parsed;
        }
        ptp::ShuffleKind shuffle = ptp::ShuffleKind::kRegular;
        ptp::JoinKind join = ptp::JoinKind::kHashJoin;
        PTP_CHECK(StrategyFromName(s.strategy, &shuffle, &join)) << s.strategy;
        ptp::StrategyOptions opts;
        opts.num_workers = workers;
        opts.bloom = s.bloom;
        auto solo = ptp::RunStrategy(*nq, shuffle, join, opts);
        PTP_CHECK(solo.ok()) << solo.status().ToString();
        PTP_CHECK(!solo->metrics.failed) << solo->metrics.fail_reason;
        it = refs.emplace(key, FingerprintOf(solo->output)).first;
      }
      if (!(s.output == it->second)) {
        ++mismatches;
        std::fprintf(stderr, "MISMATCH: %s (%s) differs from its solo run\n",
                     s.id.c_str(), s.strategy.c_str());
      }
    }
  }
  return mismatches;
}

void StartServer(ServeState* st, const Config& config) {
  ptp::ServerOptions so;
  so.executors = config.executors;
  st->server = std::make_unique<QueryServer>(so);
  st->sessions.clear();
  for (int c = 0; c < config.clients; ++c) {
    st->sessions.push_back(st->server->OpenSession());
  }
  st->cursors.assign(st->sequences.size(), 0);
}

// Shared tail of both serve workloads: untraced window, traced window and
// probes, checks.
Outcome MeasureServe(ServeState* st, const Config& config, int workers,
                     const std::vector<std::pair<std::string, Catalog*>>&
                         probe_texts,
                     const std::vector<const NormalizedQuery*>& matrix,
                     Outcome out) {
  Window untraced = RunWindow(st, workers, config.seconds, SIZE_MAX);
  WindowEndToEnd(untraced, &out.end_to_end);
  out.provenance["pool_threads"] = std::to_string(untraced.pool_threads);
  if (st->workloads.size() == st->table.size()) {
    // Per paper query: strategies served and median execution time.
    std::string per_query;
    for (size_t q = 0; q < st->table.size(); ++q) {
      std::vector<double> exec_ms;
      std::set<std::string> plans;
      for (const Served& s : untraced.served) {
        if (s.query != static_cast<int>(q) || !s.ok) continue;
        exec_ms.push_back(s.exec_s * 1e3);
        plans.insert(s.strategy + (s.bloom ? "+bloom" : ""));
      }
      per_query += (q ? " " : "") + st->workloads[q].id + "=";
      for (const std::string& plan : plans) per_query += plan + "/";
      per_query += Fmt(Percentile(exec_ms, 0.5)) + "ms";
    }
    out.provenance["exec_p50_by_query"] = per_query;
  }
  std::vector<const Window*> windows = {&untraced};
  Window traced;
  if (config.trace) {
    Tracer::Get().Enable(true);
    traced = RunWindow(st, workers, config.seconds, SIZE_MAX);
    ServerLayers(traced, &out.per_layer);
    ExecLayers(traced, config, &out.per_layer);
    std::map<std::string, Metric> traced_e2e;
    WindowEndToEnd(traced, &traced_e2e);
    for (const auto& [name, m] : traced_e2e) {
      Put(&out.per_layer, "trace_overhead." + name,
          m.value - out.end_to_end[name].value, m.unit);
    }
    LayerInputs in;
    in.texts = probe_texts;
    in.probe = matrix.front();
    in.matrix = matrix;
    in.workers = workers;
    ProbeLayers(in, &out.per_layer);
    Tracer::Get().Enable(false);
    windows.push_back(&traced);
  }
  for (const Window* w : windows) {
    if (w->exhausted) {
      out.error = "a session ran out of requests before the window ended";
    }
  }
  const uint64_t mismatches = CheckServed(st, windows, workers);
  for (const Window* w : windows) {
    out.attempted += w->served.size();
    for (const Served& s : w->served) out.failed += !s.ok;
  }
  out.failed += mismatches;
  out.correct = mismatches == 0;
  return out;
}

// Warm-up: each query of the table once per round until two consecutive
// rounds execute the same (strategy, bloom) for every query, i.e. the plan
// cache holds every entry and the feedback re-advice has settled.
int WarmUp(ServeState* st, int workers, int max_rounds) {
  QueryServer::Session* session = st->server->OpenSession("warmup");
  std::vector<std::string> previous;
  for (int round = 1;; ++round) {
    std::vector<std::string> current;
    for (const ServedQuery& sq : st->table) {
      QueryRequest req;
      req.text = sq.text;
      req.catalog = sq.catalog;
      req.workers = workers;
      const QueryResponse r = session->Submit(req).Get();
      current.push_back(r.strategy + (r.bloom ? "+bloom" : ""));
    }
    if (round >= max_rounds || (round >= 3 && current == previous)) {
      return round;
    }
    previous = std::move(current);
  }
}

// ---------------------------------------------------------------------------
// Ad-hoc lookups: Q3-style co-star cast and Q7-style award-by-decade
// templates with constants drawn from the catalog's names. A fixed share of
// names is absent, so those lookups return nothing and intern new strings.
// ---------------------------------------------------------------------------

// A catalog name: with probability `absent_share` one the catalog lacks.
// Index 0 carries the famous name (awards); actors 0 and 1 are the two
// famous actors.
std::string DrawName(ptp::Rng* rng, size_t present, const char* prefix,
                     double absent_share) {
  const bool actor = std::string(prefix) == "actor";
  if (rng->NextDouble() < absent_share) {
    const size_t absent = present + rng->Uniform(1u << 30);
    return ptp::StrFormat("%s_%zu", prefix, absent);
  }
  const size_t i = static_cast<size_t>(rng->Uniform(present));
  if (i == 0) return actor ? "Joe Pesci" : "The Academy Awards";
  if (actor && i == 1) return "Robert De Niro";
  return ptp::StrFormat("%s_%zu", prefix, i);
}

// Q3 template: the cast of films two actors both appear in.
std::string CoStarText(ptp::Rng* rng, const ptp::FreebaseGenOptions& fb,
                       double absent_share) {
  const std::string a = DrawName(rng, fb.num_actors, "actor", absent_share);
  const std::string b = DrawName(rng, fb.num_actors, "actor", absent_share);
  return ptp::StrFormat(
      "CastMember(cast) :- ObjectName(a1, \"%s\"), ActorPerform(a1,p1), "
      "PerformFilm(p1,film), ObjectName(a2, \"%s\"), ActorPerform(a2,p2), "
      "PerformFilm(p2,film), PerformFilm(p,film), ActorPerform(cast,p).",
      a.c_str(), b.c_str());
}

// Q7 template: winners of one award within a window of at most a decade.
std::string AwardText(ptp::Rng* rng, const ptp::FreebaseGenOptions& fb,
                      double absent_share) {
  const std::string award =
      DrawName(rng, fb.num_awards, "award", absent_share);
  const int64_t lo = rng->UniformInt(1940, 2029);
  const int64_t len = rng->UniformInt(1, 10);
  return ptp::StrFormat(
      "AwardWinners(a) :- ObjectName(aw, \"%s\"), HonorAward(h,aw), "
      "HonorActor(h,a), HonorYear(h,y), y >= %lld, y < %lld.",
      award.c_str(), static_cast<long long>(lo),
      static_cast<long long>(lo + len));
}

// The server layer on batch_matrix's own queries. Its timed passes make no
// server call, so the traced run serves Q1 and Q6 separately: one warm-up
// round, then two requests per session, checked like a serve window.
void ProbeServer(const std::vector<const ptp::Workload*>& queries,
                 const Config& config, int workers, Outcome* out) {
  ServeState st;
  std::vector<int> seq;
  for (const ptp::Workload* wl : queries) {
    seq.push_back(static_cast<int>(st.table.size()));
    st.table.push_back(
        ServedQuery{wl->query.ToString(), wl->catalog.get(), &wl->normalized});
  }
  st.sequences.assign(static_cast<size_t>(config.clients), seq);
  StartServer(&st, config);
  WarmUp(&st, workers, 1);
  const Window w = RunWindow(&st, workers, 1e9, seq.size());
  ServerLayers(w, &out->per_layer);
  const uint64_t mismatches = CheckServed(&st, {&w}, workers);
  out->attempted += w.served.size();
  for (const Served& s : w.served) out->failed += !s.ok;
  out->failed += mismatches;
  if (mismatches > 0) out->correct = false;
}

}  // namespace

Outcome RunServeMix(const Config& config) {
  const Sizes sz = SizesFor(config);
  ServeState st;
  int warm_rounds = 0;
  Outcome out;
  const double setup_s = MedianSetupSeconds(sz.setup_reps, [&] {
    st.server.reset();
    st = ServeState();
    ptp::WorkloadScale scale;
    scale.twitter.num_nodes = sz.mix_nodes;
    scale.twitter.num_edges = sz.mix_edges;
    scale.twitter.zipf_exponent = 0.7;
    scale.freebase_scale = sz.mix_freebase_scale;
    scale.seed = kDataSeed;
    st.factory = std::make_unique<ptp::WorkloadFactory>(scale);
    for (int q : ptp::WorkloadFactory::AllQueries()) {
      auto wl = st.factory->Make(q);
      PTP_CHECK(wl.ok()) << wl.status().ToString();
      st.workloads.push_back(std::move(wl).value());
    }
    for (const ptp::Workload& wl : st.workloads) {
      st.table.push_back(
          ServedQuery{wl.query.ToString(), wl.catalog.get(), &wl.normalized});
    }
    // Each session draws its own fixed sequence from its own seed: blocks
    // holding every query once, each block in a seeded random order, so the
    // mix stays balanced however many requests a window completes.
    const size_t blocks = static_cast<size_t>(config.seconds * 60) + 10;
    for (int c = 0; c < config.clients; ++c) {
      ptp::Rng rng(config.seed * 1000003 + static_cast<uint64_t>(c));
      std::vector<int> seq;
      for (size_t b = 0; b < blocks; ++b) {
        std::vector<int> block(st.table.size());
        for (size_t i = 0; i < block.size(); ++i) {
          block[i] = static_cast<int>(i);
          std::swap(block[i], block[rng.Uniform(i + 1)]);
        }
        seq.insert(seq.end(), block.begin(), block.end());
      }
      st.sequences.push_back(std::move(seq));
    }
    StartServer(&st, config);
    warm_rounds = WarmUp(&st, sz.serve_workers, 12);
  });
  Put(&out.end_to_end, "setup_s", setup_s, "s", sz.setup_reps);
  out.provenance["data"] = ptp::StrFormat(
      "twitter %zu nodes/%zu edges zipf 0.7, freebase scale %g",
      sz.mix_nodes, sz.mix_edges, sz.mix_freebase_scale);
  out.provenance["W"] = std::to_string(sz.serve_workers);
  out.provenance["warmup_rounds"] = std::to_string(warm_rounds);

  std::vector<std::pair<std::string, Catalog*>> texts;
  for (const ServedQuery& sq : st.table) {
    texts.emplace_back(sq.text, sq.catalog);
  }
  // Q1 and Q6 (Twitter) are the workload's matrix queries.
  out = MeasureServe(&st, config, sz.serve_workers, texts,
                     {&st.workloads[0].normalized, &st.workloads[5].normalized},
                     std::move(out));
  return out;
}

Outcome RunServeAdhoc(const Config& config) {
  const Sizes sz = SizesFor(config);
  ServeState st;
  Outcome out;
  std::vector<NormalizedQuery> matrix;
  const double setup_s = MedianSetupSeconds(sz.setup_reps, [&] {
    st.server.reset();
    st = ServeState();
    ptp::WorkloadScale scale;
    scale.freebase_scale = sz.adhoc_freebase_scale;
    scale.seed = kDataSeed;
    st.factory = std::make_unique<ptp::WorkloadFactory>(scale);
    auto q3 = st.factory->Make(3);
    PTP_CHECK(q3.ok()) << q3.status().ToString();
    st.workloads.push_back(std::move(q3).value());
    Catalog* catalog = st.workloads[0].catalog.get();
    const ptp::FreebaseGenOptions fb =
        ptp::FreebaseGenOptions{}.Scaled(sz.adhoc_freebase_scale);

    // Every text is distinct across all sessions; session c's sequence is
    // fixed by the seed (round-robin draw, redrawn on a repeat).
    const size_t per_session =
        (sz.adhoc_warmup + static_cast<size_t>(
                               config.seconds * sz.adhoc_measured_qps *
                               sz.adhoc_qps_margin *
                               (config.trace ? 2 : 1))) /
            static_cast<size_t>(config.clients) +
        1;
    ptp::Rng rng(config.seed * 7919 + 17);
    std::unordered_set<std::string> seen;
    st.sequences.assign(static_cast<size_t>(config.clients), {});
    for (size_t i = 0; i < per_session; ++i) {
      for (int c = 0; c < config.clients; ++c) {
        std::string text;
        do {
          text = rng.Uniform(2) == 0
                     ? CoStarText(&rng, fb, sz.absent_name_share)
                     : AwardText(&rng, fb, sz.absent_name_share);
        } while (!seen.insert(text).second);
        st.table.push_back(ServedQuery{std::move(text), catalog, nullptr});
        st.sequences[static_cast<size_t>(c)].push_back(
            static_cast<int>(st.table.size() - 1));
      }
    }
    StartServer(&st, config);
    // Warm-up fills the plan cache past its cap, so the window evicts.
    RunWindow(&st, sz.serve_workers, 1e9,
              sz.adhoc_warmup / static_cast<size_t>(config.clients));
  });
  Put(&out.end_to_end, "setup_s", setup_s, "s", sz.setup_reps);
  out.provenance["data"] = ptp::StrFormat(
      "freebase scale %g, %.0f%% absent names, %zu warm-up lookups",
      sz.adhoc_freebase_scale, sz.absent_name_share * 100, sz.adhoc_warmup);
  out.provenance["W"] = std::to_string(sz.serve_workers);

  // Probe texts: the next lookups of the first session, after the windows.
  std::vector<std::pair<std::string, Catalog*>> texts;
  for (size_t i = 0; i < 200 && i < st.sequences[0].size(); ++i) {
    const ServedQuery& sq = st.table[static_cast<size_t>(
        st.sequences[0][st.sequences[0].size() - 1 - i])];
    texts.emplace_back(sq.text, sq.catalog);
  }
  // Matrix queries: one instance of each template with names the catalog
  // has. The Q7-style one comes first: its atoms feed the exec probes.
  ptp::Rng rng(config.seed + 31);
  const ptp::FreebaseGenOptions fb =
      ptp::FreebaseGenOptions{}.Scaled(sz.adhoc_freebase_scale);
  Catalog* catalog = st.table.front().catalog;
  for (const std::string& text :
       {AwardText(&rng, fb, 0), CoStarText(&rng, fb, 0)}) {
    auto cq = ptp::ParseDatalog(text, &catalog->dictionary());
    PTP_CHECK(cq.ok()) << cq.status().ToString();
    auto nq = ptp::Normalize(*cq, *catalog);
    PTP_CHECK(nq.ok()) << nq.status().ToString();
    matrix.push_back(std::move(nq).value());
  }
  out = MeasureServe(&st, config, sz.serve_workers, texts,
                     {&matrix[0], &matrix[1]}, std::move(out));
  return out;
}

// ---------------------------------------------------------------------------
// batch_matrix: the paper's experiment, RunStrategy straight, no server.
// ---------------------------------------------------------------------------

namespace {

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> call_s;  // per call, in matrix order
  std::vector<std::string> call_name;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  double shuffled = 0;
  double max_skew = 0;
};

// One pass: six strategies on each query. Outputs are compared (six
// strategies agree; every pass equals the first) after the pass's clock
// stopped.
Pass RunPass(const std::vector<const ptp::Workload*>& queries, int workers,
             uint64_t salt, std::vector<Relation>* reference) {
  Pass p;
  std::vector<Relation> outputs;
  std::vector<bool> ok;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  for (const ptp::Workload* wl : queries) {
    for (const auto& [shuffle, join] : ptp::AllStrategies()) {
      const std::string name = ptp::StrategyName(shuffle, join);
      ptp::StrategyOptions opts;
      opts.num_workers = workers;
      opts.salt = salt;
      const double a = NowSeconds();
      ptp::Result<ptp::StrategyResult> r = [&] {
        ScopedSpan span("plan.RunStrategy." + name);
        return ptp::RunStrategy(wl->normalized, shuffle, join, opts);
      }();
      p.call_s.push_back(NowSeconds() - a);
      p.call_name.push_back(name);
      ok.push_back(r.ok() && !r->metrics.failed);
      if (!ok.back()) {
        ++p.failed;
        std::fprintf(stderr, "FAIL: %s of %s: %s\n", name.c_str(),
                     wl->id.c_str(),
                     r.ok() ? r->metrics.fail_reason.c_str()
                            : r.status().ToString().c_str());
        outputs.emplace_back();
        continue;
      }
      p.shuffled += static_cast<double>(r->metrics.TuplesShuffled());
      p.max_skew = std::max(p.max_skew, r->metrics.MaxShuffleSkew());
      outputs.push_back(std::move(r->output));
    }
  }
  p.wall_s = NowSeconds() - t0;
  p.cpu_s = ProcessCpuSeconds() - cpu0;

  const size_t per_query = ptp::AllStrategies().size();
  for (size_t i = 0; i < outputs.size(); ++i) {
    const size_t first = i - i % per_query;
    if (!ok[i] || !ok[first]) continue;
    if (!outputs[i].EqualsUnordered(outputs[first]) ||
        (!reference->empty() && !outputs[i].EqualsUnordered((*reference)[i]))) {
      ++p.mismatches;
      std::fprintf(stderr, "MISMATCH: %s of %s differs\n",
                   p.call_name[i].c_str(),
                   queries[i / per_query]->id.c_str());
    }
  }
  if (reference->empty()) *reference = std::move(outputs);
  return p;
}

struct PassSet {
  std::vector<Pass> passes;
  double wall_s = 0;
};

PassSet RunPasses(const std::vector<const ptp::Workload*>& queries,
                  int workers, uint64_t salt, double seconds, int min_passes,
                  std::vector<Relation>* reference) {
  PassSet set;
  while (static_cast<int>(set.passes.size()) < min_passes ||
         set.wall_s < seconds) {
    set.passes.push_back(RunPass(queries, workers, salt, reference));
    set.wall_s += set.passes.back().wall_s;
  }
  return set;
}

// An operation of batch_matrix is one full pass (the paper's experiment):
// p50_ms is the median pass (matrix_s), cpu_ms_per_op the CPU of a pass
// (matrix_cpu_s).
void PassEndToEnd(const PassSet& set, std::map<std::string, Metric>* out) {
  std::vector<double> pass_ms, rate, cpu_ms;
  for (const Pass& p : set.passes) {
    pass_ms.push_back(p.wall_s * 1e3);
    rate.push_back(1 / p.wall_s);
    cpu_ms.push_back(p.cpu_s * 1e3);
  }
  const size_t n = pass_ms.size();
  Put(out, "qps", Percentile(rate, 0.5), "1/s", n);
  Put(out, "p50_ms", Percentile(pass_ms, 0.5), "ms", n);
  Put(out, "p95_ms", Percentile(pass_ms, 0.95), "ms", n);
  Put(out, "cpu_ms_per_op", Percentile(cpu_ms, 0.5), "ms", n);
}

}  // namespace

Outcome RunBatchMatrix(const Config& config) {
  const Sizes sz = SizesFor(config);
  Outcome out;
  std::unique_ptr<ptp::WorkloadFactory> factory;
  std::vector<ptp::Workload> workloads;
  const double setup_s = MedianSetupSeconds(sz.setup_reps, [&] {
    workloads.clear();
    factory.reset();
    ptp::WorkloadScale scale;
    scale.twitter.num_nodes = sz.matrix_nodes;
    scale.twitter.num_edges = sz.matrix_edges;
    scale.twitter.zipf_exponent = sz.matrix_zipf;
    scale.seed = kDataSeed;
    factory = std::make_unique<ptp::WorkloadFactory>(scale);
    for (int q : {1, 6}) {
      auto wl = factory->Make(q);
      PTP_CHECK(wl.ok()) << wl.status().ToString();
      workloads.push_back(std::move(wl).value());
    }
    // Warm-up: every strategy once on Q1.
    for (const auto& [shuffle, join] : ptp::AllStrategies()) {
      ptp::StrategyOptions opts;
      opts.num_workers = sz.matrix_workers;
      PTP_CHECK(ptp::RunStrategy(workloads[0].normalized, shuffle, join, opts)
                    .ok());
    }
  });
  Put(&out.end_to_end, "setup_s", setup_s, "s", sz.setup_reps);
  const std::vector<const ptp::Workload*> queries = {&workloads[0],
                                                     &workloads[1]};
  out.provenance["data"] = ptp::StrFormat(
      "twitter %zu nodes/%zu edges zipf %g", sz.matrix_nodes,
      sz.matrix_edges, sz.matrix_zipf);
  out.provenance["W"] = std::to_string(sz.matrix_workers);
  out.provenance["server_calls"] = "0";
  const uint64_t salt = config.seed * 0x9e3779b97f4a7c15ull + 0x9e1f;
  out.provenance["salt"] = std::to_string(salt);

  std::vector<Relation> reference;
  const PassSet untraced = RunPasses(queries, sz.matrix_workers, salt,
                                     config.seconds, sz.min_passes,
                                     &reference);
  PassEndToEnd(untraced, &out.end_to_end);
  out.provenance["pool_threads"] = std::to_string(ptp::runtime::Threads());
  out.provenance["passes"] = std::to_string(untraced.passes.size());
  std::string calls;
  for (size_t i = 0; i < untraced.passes[0].call_s.size(); ++i) {
    std::vector<double> v;
    for (const Pass& p : untraced.passes) v.push_back(p.call_s[i]);
    calls += (i ? " " : "") + queries[i / ptp::AllStrategies().size()]->id +
             "." + untraced.passes[0].call_name[i] + "=" +
             Fmt(Percentile(v, 0.5));
  }
  out.provenance["call_s"] = calls;

  std::vector<const PassSet*> sets = {&untraced};
  PassSet traced;
  if (config.trace) {
    Tracer::Get().Enable(true);
    traced = RunPasses(queries, sz.matrix_workers, salt, config.seconds,
                       sz.min_passes, &reference);
    std::map<std::string, Metric> traced_e2e;
    PassEndToEnd(traced, &traced_e2e);
    for (const auto& [name, m] : traced_e2e) {
      Put(&out.per_layer, "trace_overhead." + name,
          m.value - out.end_to_end[name].value, m.unit);
    }
    // Per strategy: median over passes of the time summed over Q1 and Q6.
    std::map<std::string, std::vector<double>> per_strategy;
    double shuffled = 0, max_skew = 0, wall = 0, cpu = 0;
    size_t calls = 0;
    for (const Pass& p : traced.passes) {
      std::map<std::string, double> sum;
      for (size_t i = 0; i < p.call_s.size(); ++i) {
        sum[p.call_name[i]] += p.call_s[i];
      }
      for (const auto& [name, s] : sum) per_strategy[name].push_back(s);
      shuffled += p.shuffled;
      max_skew = std::max(max_skew, p.max_skew);
      wall += p.wall_s;
      cpu += p.cpu_s;
      calls += p.call_s.size() - p.failed;
    }
    for (const auto& [name, v] : per_strategy) {
      Put(&out.per_layer, "plan." + name + "_s", Percentile(v, 0.5), "s",
          v.size());
    }
    Put(&out.per_layer, "exec.tuples_shuffled",
        calls > 0 ? shuffled / static_cast<double>(calls) : 0, "count",
        calls);
    Put(&out.per_layer, "exec.max_consumer_skew", max_skew, "ratio", calls);
    Put(&out.per_layer, "runtime.utilization",
        wall > 0 ? cpu / (wall * config.pool_threads) : 0, "ratio");

    LayerInputs in;
    for (const ptp::Workload* wl : queries) {
      in.texts.emplace_back(wl->query.ToString(), wl->catalog.get());
    }
    in.probe = &workloads[0].normalized;
    in.workers = sz.matrix_workers;
    ProbeLayers(in, &out.per_layer);
    ProbeServer(queries, config, sz.matrix_workers, &out);
    Tracer::Get().Enable(false);
    sets.push_back(&traced);
  }

  for (const PassSet* set : sets) {
    for (const Pass& p : set->passes) {
      ++out.attempted;
      if (p.failed + p.mismatches > 0) ++out.failed;
      if (p.mismatches > 0) out.correct = false;
    }
  }
  return out;
}

}  // namespace perfbench
