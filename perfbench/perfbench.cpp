// perfbench: the repository's end-to-end and per-layer benchmark.
//
// Sorts one named workload with the public sds_sort on a sim::Cluster for a
// fixed wall-clock budget, validates every output, and prints one JSON line
// of metrics as the last line of stdout: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Every layer is measured
// from outside: the benchmark times its own calls into public functions and
// reads what the library already returns (PhaseLedger, CommStats,
// SortReport, kernel counters, trace analysis). README.md lists every
// metric, its unit, and which end-to-end number it should move.
//
// Usage:
//   perfbench --workload <uniform-bulk|zipf-stable|uniform-manyrank>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sdss.hpp"
#include "sortcore/kernel_stats.hpp"
#include "trace/analyze.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"
#include "workloads/zipf.hpp"

namespace {
using namespace sdss;

using Tagged = workloads::Tagged<std::uint64_t>;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string_view name;
  int ranks;
  std::size_t per_rank;
  /// Stable sort of provenance-tagged Zipf(1.4) records; otherwise an
  /// unstable sort of uniform u64 keys.
  bool zipf_stable;
  /// The adaptive path sds_sort must take on this workload.
  ExchangeMode exchange;
  FinalOrdering ordering;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"uniform-bulk", 64, 250000, false, ExchangeMode::kOverlapped,
     FinalOrdering::kOverlapMerge},
    {"zipf-stable", 256, 40000, true, ExchangeMode::kSync,
     FinalOrdering::kMergeAll},
    {"uniform-manyrank", 512, 2000, false, ExchangeMode::kOverlapped,
     FinalOrdering::kOverlapMerge},
};

constexpr double kZipfAlpha = 1.4;
constexpr double kLambdaBound = 4.0;  // regular sampling's O(4N/p) bound
constexpr int kSetups = 3;            // setup_s is the median of these
constexpr std::size_t kMinSorts = 3;  // per timed variant

struct TagKey {
  std::uint64_t operator()(const Tagged& r) const noexcept { return r.key; }
};

template <typename T>
using KeyFor =
    std::conditional_t<std::is_same_v<T, Tagged>, TagKey, IdentityKey>;

template <typename T>
std::vector<T> make_shard(std::uint64_t seed, int rank, std::size_t n) {
  const std::uint64_t s = derive_seed(seed, static_cast<std::uint64_t>(rank));
  if constexpr (std::is_same_v<T, Tagged>) {
    return workloads::tag_keys(workloads::zipf_keys(n, kZipfAlpha, s), rank);
  } else {
    return workloads::uniform_u64(n, s, ~0ULL);
  }
}

// ---------------------------------------------------------------- arguments

struct Args {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        for (const WorkloadSpec& w : kWorkloads) {
          if (w.name == v) a.workload = &w;
        }
        if (a.workload == nullptr) usage("unknown workload " + v);
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload == nullptr || !have_seed || !(a.seconds > 0.0)) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  return a;
}

// ------------------------------------------------------------------ helpers

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// CPU seconds of the whole process (every worker thread).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return seconds_of(ru.ru_utime) + seconds_of(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <typename Sample, typename F>
double median_of(const std::vector<Sample>& samples, F f) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(static_cast<double>(f(s)));
  return median(std::move(v));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

sim::CommStats comm_delta(const sim::CommStats& after,
                          const sim::CommStats& before) {
  sim::CommStats d;
  d.p2p_messages = after.p2p_messages - before.p2p_messages;
  d.p2p_bytes = after.p2p_bytes - before.p2p_bytes;
  d.collectives = after.collectives - before.collectives;
  d.collective_bytes_out =
      after.collective_bytes_out - before.collective_bytes_out;
  d.collective_messages =
      after.collective_messages - before.collective_messages;
  for (std::size_t i = 0; i < sim::kNumCollAlgs; ++i) {
    d.per_alg[i].calls = after.per_alg[i].calls - before.per_alg[i].calls;
    d.per_alg[i].messages =
        after.per_alg[i].messages - before.per_alg[i].messages;
    d.per_alg[i].bytes_out =
        after.per_alg[i].bytes_out - before.per_alg[i].bytes_out;
  }
  return d;
}

/// The four pipeline phases sds_sort charges with default settings, in
/// pipeline order, with the metric names they report under. kNodeMerge
/// stays unused at cores_per_node = 1.
constexpr std::pair<Phase, const char*> kPhases[] = {
    {Phase::kOther, "local_sort"},
    {Phase::kPivotSelection, "pivot"},
    {Phase::kExchange, "exchange"},
    {Phase::kLocalOrdering, "ordering"},
};

/// The collective algorithms the three workloads' sorts select, in CollAlg
/// order. Anything else a sort selects is reported as "other".
constexpr sim::CollAlg kSortCollAlgs[] = {
    sim::CollAlg::kAllgatherRecDoubling,
    sim::CollAlg::kAllgathervGatherBcast,
    sim::CollAlg::kAlltoallBruck,
    sim::CollAlg::kAlltoallvPairwise,
    sim::CollAlg::kAllreduceRecDoubling,
};

// -------------------------------------------------------------------- spans

/// In-memory span log of the benchmark's own calls into each layer: name,
/// start, end, parent span, and the sort the span belongs to (-1 outside
/// any sort). Written out once, at exit. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int begin(const char* name, int parent, int sort_id) {
    if (!enabled_) return -1;
    const double now = elapsed();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, sort_id, now, now});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id < 0) return;
    const double now = elapsed();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }

  /// Each span's duration minus the part of it its children cover.
  std::vector<double> self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
      }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double reach = s.start;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, reach);
        hi = std::min(hi, s.end);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, hi);
      }
      self[i] = (s.end - s.start) - covered;
    }
    return self;
  }

  /// Median self time, in ms, of every span with this name.
  double median_self_ms(std::string_view name) const {
    const std::vector<double> self = self_times();
    std::vector<double> v;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) v.push_back(self[i] * 1e3);
    }
    return median(std::move(v));
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   path.c_str());
      return;
    }
    const std::vector<double> self = self_times();
    f << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[320];
      std::snprintf(line, sizeof line,
                    "%s\n {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"sort\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                    "\"self_s\": %.9f}",
                    i == 0 ? "" : ",", i, s.name, s.parent, s.sort_id,
                    s.start, s.end, self[i]);
      f << line;
    }
    f << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    int parent;
    int sort_id;
    double start;
    double end;
  };

  double elapsed() const { return clock_.seconds(); }

  bool enabled_;
  WallTimer clock_;
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Names of the spans the benchmark records; each reports its median self
/// time as span.<name>.self_ms.
constexpr const char* kSpanNames[] = {
    "setup",      "cluster_build",    "input_gen",         "input_checksum",
    "warmup",     "sort",             "sds_sort",          "validate",
    "micro.sim",  "micro.local_sort", "micro.kway_merge",  "determinism",
};

class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int parent = -1, int sort = -1)
      : log_(log), id_(log != nullptr ? log->begin(name, parent, sort) : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_ != nullptr) log_->end(id_);
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string coll_metric_name(sim::CollAlg a) {
  std::string n = sim::coll_alg_name(a);
  std::replace(n.begin(), n.end(), '/', '-');
  return n;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------- one sort

/// Everything measured about one sds_sort call on the whole cluster.
struct SortSample {
  bool ok = true;
  double wall_s = 0.0;      ///< first rank into sds_sort to last rank out
  double proc_cpu_s = 0.0;  ///< process CPU over the same window
  std::array<double, kNumPhases> cpu_sum{};  ///< Σ-rank ledger CPU per phase
  std::array<double, kNumPhases> cpu_max{};  ///< max-rank ledger CPU
  double cpu_total = 0.0;  ///< Σ-rank ledger CPU, all phases
  double crit_cpu = 0.0;   ///< max over ranks of a rank's ledger CPU
  double lambda = 0.0;     ///< max/avg of SortReport::recv_records
  sim::CommStats comm;     ///< Σ-rank CommStats delta across sds_sort
  KernelSnapshot kernels;  ///< process kernel-counter delta across the run
  std::size_t trace_events = 0;
  double blocked_frac = 0.0;  ///< filled only for sorts run with spans on

  double runtime_cpu() const { return proc_cpu_s - cpu_total; }

  /// Calls and bytes of the collective algorithms outside kSortCollAlgs.
  sim::CollAlgStats other_coll() const {
    sim::CollAlgStats other;
    for (std::size_t i = 0; i < sim::kNumCollAlgs; ++i) {
      const auto alg = static_cast<sim::CollAlg>(i);
      if (std::find(std::begin(kSortCollAlgs), std::end(kSortCollAlgs),
                    alg) == std::end(kSortCollAlgs)) {
        other += comm.per_alg[i];
      }
    }
    return other;
  }

  std::uint64_t wire_bytes() const {
    return comm.p2p_bytes + comm.collective_bytes_out;
  }

  /// Name of the first counter that differs from `o`'s, or "" when all the
  /// counters that must repeat exactly for identical input do. The overlapped
  /// exchange merges runs in arrival order, which the two scheduler workers
  /// do not fix, so its kernel byte counters are exact only when
  /// `kernels_exact` (the sync path).
  std::string count_mismatch(const SortSample& o, bool kernels_exact) const {
    const std::pair<const char*, bool> checks[] = {
        {"lambda_records", lambda == o.lambda},
        {"p2p_messages", comm.p2p_messages == o.comm.p2p_messages},
        {"p2p_bytes", comm.p2p_bytes == o.comm.p2p_bytes},
        {"coll_messages",
         comm.collective_messages == o.comm.collective_messages},
        {"coll_bytes",
         comm.collective_bytes_out == o.comm.collective_bytes_out},
        {"bytes_moved",
         !kernels_exact || kernels.bytes_moved == o.kernels.bytes_moved},
        {"merge_gallop_bytes",
         !kernels_exact ||
             kernels.merge_gallop_bytes == o.kernels.merge_gallop_bytes},
        {"heap_allocs", kernels.heap_allocs == o.kernels.heap_allocs},
    };
    for (const auto& [name, same] : checks) {
      if (!same) return name;
    }
    for (std::size_t i = 0; i < sim::kNumCollAlgs; ++i) {
      if (comm.per_alg[i].calls != o.comm.per_alg[i].calls ||
          comm.per_alg[i].bytes_out != o.comm.per_alg[i].bytes_out) {
        return sim::coll_alg_name(static_cast<sim::CollAlg>(i));
      }
    }
    return "";
  }
};

/// Collective: true on every rank iff records with equal keys keep their
/// (src_rank, src_index) order, within each rank and across rank boundaries.
bool stable_order_ok(sim::Comm& world, std::span<const Tagged> out) {
  bool ok = true;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i - 1].key == out[i].key &&
        !workloads::tagged_before(out[i - 1], out[i])) {
      ok = false;
    }
  }
  struct Ends {
    Tagged first;
    Tagged last;
    std::uint32_t has;
  };
  Ends mine{};
  if (!out.empty()) mine = Ends{out.front(), out.back(), 1};
  const Ends* prev = nullptr;
  const std::vector<Ends> all = world.allgather<Ends>(mine);
  for (const Ends& e : all) {
    if (e.has == 0) continue;
    if (prev != nullptr && prev->last.key == e.first.key &&
        !workloads::tagged_before(prev->last, e.first)) {
      ok = false;
    }
    prev = &e;
  }
  const int votes =
      world.allreduce<int>(ok ? 1 : 0, [](int a, int b) { return a + b; });
  return votes == world.size();
}

sim::ClusterConfig cluster_config(int ranks, bool quiet) {
  sim::ClusterConfig cc;
  cc.num_ranks = ranks;
  cc.cores_per_node = 1;  // c = 1: no par-pool threads, no node merge
  if (quiet) {
    cc.enable_trace = false;
    cc.enable_metrics = false;
    cc.metrics_sampler_interval_s = 0.0;
  }
  return cc;
}

template <typename T>
class Bench {
 public:
  using KeyFn = KeyFor<T>;

  Bench(const WorkloadSpec& w, std::uint64_t seed, SpanLog* spans)
      : w_(w), seed_(seed), spans_(spans) {
    cfg_.stable = w.zipf_stable;
  }

  std::size_t records() const {
    return static_cast<std::size_t>(w_.ranks) * w_.per_rank;
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::vector<double>& gen_ns_per_record() const { return gen_ns_; }

  /// Cluster build, input generation, input checksum and one untimed
  /// warm-up sort.
  void setup() {
    WallTimer t;
    SpanScope span(spans_, "setup");
    cluster_.reset();
    inputs_.clear();
    {
      SpanScope s(spans_, "cluster_build", span.id());
      cluster_ = std::make_unique<sim::Cluster>(
          cluster_config(w_.ranks, /*quiet=*/false));
      quiet_cluster_ = std::make_unique<sim::Cluster>(
          cluster_config(w_.ranks, /*quiet=*/true));
    }
    {
      SpanScope s(spans_, "input_gen", span.id());
      WallTimer g;
      inputs_ = generate(seed_);
      gen_ns_.push_back(g.seconds() * 1e9 / static_cast<double>(records()));
    }
    {
      SpanScope s(spans_, "input_checksum", span.id());
      input_sum_ = checksum(inputs_);
    }
    {
      SpanScope s(spans_, "warmup", span.id());
      sort_once(*cluster_, spans_, s.id());
    }
    setup_s_.push_back(t.seconds());
  }

  std::vector<std::vector<T>> generate(std::uint64_t seed) const {
    std::vector<std::vector<T>> in;
    in.reserve(static_cast<std::size_t>(w_.ranks));
    for (int r = 0; r < w_.ranks; ++r) {
      in.push_back(make_shard<T>(seed, r, w_.per_rank));
    }
    return in;
  }

  static MultisetChecksum checksum(const std::vector<std::vector<T>>& in) {
    MultisetChecksum sum;
    for (const auto& shard : in) sum += multiset_checksum<T>(shard);
    return sum;
  }

  /// One timed sds_sort of the generated inputs on `cluster`,
  /// followed by a separate validation run. `spans` is null for sorts whose
  /// spans are not recorded; such sorts also skip the trace analysis.
  SortSample sort_once(sim::Cluster& cluster, SpanLog* spans,
                       int parent = -1) {
    const int p = w_.ranks;
    const auto np = static_cast<std::size_t>(p);
    const int sort_id = next_sort_id_++;
    SortSample s;
    std::vector<std::vector<T>> out(np);
    std::vector<SortReport> reports(np);
    std::vector<std::array<double, kNumPhases>> cpu(np);
    std::vector<sim::CommStats> comm(np);
    SpanScope sort_span(spans, "sort", parent, sort_id);

    // The timed window runs from the first rank entering sds_sort to the
    // last one leaving it, after a barrier that lines the ranks up. Timing
    // from rank 0 alone would miss ranks the scheduler resumes before it.
    // The first rank in also increments `left`, which orders its writes
    // before the last rank out reads `span`.
    std::atomic<int> entered{0};
    std::atomic<int> left{0};
    Clock::time_point t0{};
    double c0 = 0.0;
    int span = -1;
    const KernelSnapshot k0 = snapshot_kernel_counters();
    const sim::RunResult res = cluster.run_collect([&](sim::Comm& world) {
      const auto r = static_cast<std::size_t>(world.rank());
      std::vector<T> data = inputs_[r];  // the sort consumes its input
      world.barrier();
      const PhaseLedger l0 = world.ledger();
      const sim::CommStats s0 = world.stats();
      if (entered.fetch_add(1) == 0) {
        t0 = Clock::now();
        c0 = process_cpu_s();
        if (spans != nullptr) {
          span = spans->begin("sds_sort", sort_span.id(), sort_id);
        }
      }
      out[r] = sds_sort<T, KeyFn>(world, std::move(data), cfg_, KeyFn{},
                                  &reports[r]);
      if (left.fetch_add(1) == p - 1) {
        s.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
        s.proc_cpu_s = process_cpu_s() - c0;
        if (spans != nullptr) spans->end(span);
      }
      for (std::size_t ph = 0; ph < kNumPhases; ++ph) {
        const auto phase = static_cast<Phase>(ph);
        cpu[r][ph] =
            world.ledger().cpu_seconds(phase) - l0.cpu_seconds(phase);
      }
      comm[r] = comm_delta(world.stats(), s0);
    });
    s.kernels = snapshot_kernel_counters().delta_since(k0);
    ++attempted_;
    if (!res.ok) {
      fail(s, "run failed: " + res.error);
      return s;
    }
    s.trace_events = res.trace.total_events();
    if (spans != nullptr) {
      s.blocked_frac = trace::analyze_trace(res.trace).blocked_frac;
    }

    std::size_t max_recv = 0;
    std::size_t sum_recv = 0;
    const SortReport* off_path = nullptr;
    for (std::size_t r = 0; r < np; ++r) {
      double rank_total = 0.0;
      for (std::size_t ph = 0; ph < kNumPhases; ++ph) {
        s.cpu_sum[ph] += cpu[r][ph];
        s.cpu_max[ph] = std::max(s.cpu_max[ph], cpu[r][ph]);
        rank_total += cpu[r][ph];
      }
      s.cpu_total += rank_total;
      s.crit_cpu = std::max(s.crit_cpu, rank_total);
      s.comm += comm[r];
      max_recv = std::max(max_recv, reports[r].recv_records);
      sum_recv += reports[r].recv_records;
      if (reports[r].exchange != w_.exchange ||
          reports[r].ordering != w_.ordering) {
        off_path = &reports[r];
      }
    }
    if (off_path != nullptr) {
      fail(s, std::string("a rank took path ") +
                  to_string(off_path->exchange) + "/" +
                  to_string(off_path->ordering));
    }
    s.lambda = ratio(static_cast<double>(max_recv) * static_cast<double>(p),
                     static_cast<double>(sum_recv));
    if (s.lambda > kLambdaBound) fail(s, "lambda_records above 4");

    SpanScope vspan(spans, "validate", sort_span.id(), sort_id);
    bool sorted = false;
    bool stable = true;
    MultisetChecksum sum;
    const sim::RunResult vres = cluster.run_collect([&](sim::Comm& world) {
      const auto r = static_cast<std::size_t>(world.rank());
      const std::span<const T> mine(out[r]);
      const bool srt = is_globally_sorted<T, KeyFn>(world, mine, KeyFn{});
      const MultisetChecksum cs = global_checksum<T>(world, mine);
      bool st = true;
      if constexpr (std::is_same_v<T, Tagged>) {
        st = stable_order_ok(world, mine);
      }
      if (world.rank() == 0) {
        sorted = srt;
        sum = cs;
        stable = st;
      }
    });
    if (!vres.ok) fail(s, "validation run failed: " + vres.error);
    if (!sorted) fail(s, "output not globally sorted");
    if (!(sum == input_sum_)) fail(s, "output multiset differs from input");
    if (!stable) fail(s, "equal keys lost their input order");

    if (s.ok && reference_.has_value()) {
      const std::string differs = s.count_mismatch(
          *reference_, w_.exchange != ExchangeMode::kOverlapped);
      if (!differs.empty()) {
        fail(s, differs + " differs between sorts of the same input");
      }
    }
    if (s.ok && !reference_.has_value()) reference_ = s;
    std::fprintf(stderr,
                 "perfbench: sort %d: %.4f s wall, %.4f s rank CPU, %.4f s "
                 "process CPU\n",
                 sort_id, s.wall_s, s.cpu_total, s.proc_cpu_s);
    return s;
  }

  /// Determinism self-test: the same seed regenerates identical inputs and a
  /// different seed does not.
  bool inputs_deterministic() const {
    SpanScope span(spans_, "determinism");
    if (!(checksum(generate(seed_)) == input_sum_)) {
      std::fprintf(stderr, "perfbench: the seed regenerated other inputs\n");
      return false;
    }
    if (multiset_checksum<T>(make_shard<T>(seed_, 0, w_.per_rank)) ==
        multiset_checksum<T>(make_shard<T>(seed_ + 1, 0, w_.per_rank))) {
      std::fprintf(stderr, "perfbench: seed + 1 gave the same input\n");
      return false;
    }
    return true;
  }

  sim::Cluster& cluster() { return *cluster_; }
  sim::Cluster& quiet_cluster() { return *quiet_cluster_; }
  const std::vector<T>& shard(int r) const {
    return inputs_[static_cast<std::size_t>(r)];
  }
  bool stable() const { return cfg_.stable; }

 private:
  /// Report one failed check; a sort counts as failed once.
  void fail(SortSample& s, const std::string& why) {
    if (s.ok) ++failed_;
    s.ok = false;
    std::fprintf(stderr, "perfbench: %s sort failed: %s\n",
                 std::string(w_.name).c_str(), why.c_str());
  }

  const WorkloadSpec& w_;
  std::uint64_t seed_;
  SpanLog* spans_;
  Config cfg_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<sim::Cluster> quiet_cluster_;
  std::vector<std::vector<T>> inputs_;
  MultisetChecksum input_sum_;
  std::optional<SortSample> reference_;
  std::vector<double> setup_s_;
  std::vector<double> gen_ns_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  int next_sort_id_ = 0;
};

// ------------------------------------------------------------ micro-calls

/// Median over `batches` of the per-call wall time, in microseconds, of the
/// callable `make(world)` returns, called `iters` times between barriers on
/// every rank of `cluster`.
template <typename Make>
double sim_call_us(sim::Cluster& cluster, int iters, int batches, Make make) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    double us = 0.0;
    const sim::RunResult res = cluster.run_collect([&](sim::Comm& world) {
      auto call = make(world);
      call();  // warm the peers' mailboxes
      world.barrier();
      WallTimer t;
      for (int i = 0; i < iters; ++i) call();
      world.barrier();
      if (world.rank() == 0) us = t.seconds() * 1e6 / iters;
    });
    if (!res.ok) throw Error("sim micro-call failed: " + res.error);
    per_call.push_back(us);
  }
  return median(std::move(per_call));
}

/// Per-call wall time of the collectives and p2p exchange a sort leans on,
/// on every rank of `cluster`: median of 5 batches of 10 calls.
std::vector<Metric> sim_call_metrics(sim::Cluster& c) {
  const int iters = 10;
  const int batches = 5;
  auto barrier = [](sim::Comm& world) {
    return [&world] { world.barrier(); };
  };
  auto allreduce = [](sim::Comm& world) {
    return [&world] {
      world.allreduce<std::uint64_t>(
          static_cast<std::uint64_t>(world.rank()),
          [](std::uint64_t x, std::uint64_t y) { return x + y; });
    };
  };
  auto alltoallv = [](sim::Comm& world) {
    // 4 records to every peer.
    const auto np = static_cast<std::size_t>(world.size());
    std::vector<std::size_t> displs(np);
    for (std::size_t i = 0; i < np; ++i) displs[i] = 4 * i;
    return [&world, counts = std::vector<std::size_t>(np, 4), displs,
            send = std::vector<std::uint64_t>(4 * np, 1),
            recv = std::vector<std::uint64_t>(4 * np)]() mutable {
      world.alltoallv<std::uint64_t>(send, counts, displs, recv, counts,
                                     displs);
    };
  };
  auto p2p_exchange = [](sim::Comm& world) {
    // 512 bytes with a neighbour (every workload's P is even).
    return [&world, out = std::vector<std::uint64_t>(64, 1),
            in = std::vector<std::uint64_t>(64)]() mutable {
      world.sendrecv<std::uint64_t>(out, in, world.rank() ^ 1);
    };
  };
  return {
      {"sim.barrier.us", sim_call_us(c, iters, batches, barrier), "us"},
      {"sim.allreduce.us", sim_call_us(c, iters, batches, allreduce), "us"},
      {"sim.alltoallv.us", sim_call_us(c, iters, batches, alltoallv), "us"},
      {"sim.p2p_exchange.us", sim_call_us(c, iters, batches, p2p_exchange),
       "us"},
  };
}

/// Single-threaded ns/record of local_sort on one rank's shard and of
/// kway_merge on p sorted runs of one rank's receive size.
template <typename T>
std::pair<double, double> sortcore_ns_per_record(const Bench<T>& b, int p,
                                                 int reps, SpanLog* spans) {
  using KeyFn = KeyFor<T>;
  const std::vector<T>& shard = b.shard(0);
  const double n = static_cast<double>(shard.size());
  LocalSortConfig lcfg;
  lcfg.stable = b.stable();

  std::vector<double> sort_ns;
  for (int i = 0; i < reps; ++i) {
    std::vector<T> copy = shard;
    SpanScope s(spans, "micro.local_sort");
    WallTimer t;
    local_sort<T, KeyFn>(copy, lcfg, KeyFn{});
    sort_ns.push_back(t.seconds() * 1e9 / n);
  }

  // p runs that together hold one shard, each sorted: the shape of the
  // receive buffer merge-all faces after the exchange.
  std::vector<T> runs_buf = shard;
  std::vector<std::span<const T>> runs;
  const std::size_t len = (shard.size() + static_cast<std::size_t>(p) - 1) /
                          static_cast<std::size_t>(p);
  for (std::size_t lo = 0; lo < runs_buf.size(); lo += len) {
    const std::size_t hi = std::min(runs_buf.size(), lo + len);
    std::stable_sort(runs_buf.begin() + static_cast<std::ptrdiff_t>(lo),
                     runs_buf.begin() + static_cast<std::ptrdiff_t>(hi),
                     by_key(KeyFn{}));
    runs.emplace_back(runs_buf.data() + lo, hi - lo);
  }
  std::vector<T> merged(runs_buf.size());
  std::vector<double> merge_ns;
  for (int i = 0; i < reps; ++i) {
    SpanScope s(spans, "micro.kway_merge");
    WallTimer t;
    kway_merge<T, KeyFn>(runs, merged, KeyFn{});
    merge_ns.push_back(t.seconds() * 1e9 / n);
  }
  return {median(std::move(sort_ns)), median(std::move(merge_ns))};
}

// --------------------------------------------------------------------- run

template <typename T>
int run(const Args& a) {
  const WorkloadSpec& w = *a.workload;
  SpanLog log(a.trace);
  SpanLog* spans = a.trace ? &log : nullptr;
  Bench<T> bench(w, a.seed, spans);
  const double records = static_cast<double>(bench.records());

  for (int i = 0; i < kSetups; ++i) bench.setup();

  // Timed sorts. With --trace 1 three variants alternate: spans recorded
  // (the per-layer numbers), spans off (span overhead), and a cluster with
  // its trace and metrics layers off (obs overhead).
  std::vector<SortSample> traced;
  std::vector<SortSample> untraced;
  std::vector<SortSample> quiet;
  WallTimer clock;
  for (std::size_t i = 0;; ++i) {
    if (!a.trace) {
      untraced.push_back(bench.sort_once(bench.cluster(), nullptr));
      if (untraced.size() >= kMinSorts && clock.seconds() >= a.seconds) break;
      continue;
    }
    switch (i % 3) {
      case 0:
        traced.push_back(bench.sort_once(bench.cluster(), spans));
        break;
      case 1:
        untraced.push_back(bench.sort_once(bench.cluster(), nullptr));
        break;
      default:
        quiet.push_back(bench.sort_once(bench.quiet_cluster(), nullptr));
        break;
    }
    if (quiet.size() >= kMinSorts && clock.seconds() >= a.seconds) break;
  }

  auto rps = [&](const SortSample& s) { return records / s.wall_s; };
  std::vector<Metric> m;
  bool inputs_ok = true;
  if (!a.trace) {
    m = {
        {"records_per_s", median_of(untraced, rps), "1/s"},
        {"total_cpu_s",
         median_of(untraced, [](const SortSample& s) { return s.cpu_total; }),
         "s"},
        {"lambda_records",
         median_of(untraced, [](const SortSample& s) { return s.lambda; }),
         "ratio"},
        {"wire_bytes_per_record",
         median_of(untraced,
                   [&](const SortSample& s) {
                     return static_cast<double>(s.wire_bytes()) / records;
                   }),
         "B/record"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(bench.setup_s()), "s"},
    };
  } else {
    auto med = [&](auto f) { return median_of(traced, f); };
    for (const auto& [phase, name] : kPhases) {
      const auto ph = static_cast<std::size_t>(phase);
      m.push_back({std::string("core.") + name + ".cpu_s",
                   med([&](const SortSample& s) { return s.cpu_sum[ph]; }),
                   "s"});
    }
    m.push_back({"core.crit_cpu_s",
                 med([](const SortSample& s) { return s.crit_cpu; }), "s"});
    for (const auto& [phase, name] : kPhases) {
      const auto ph = static_cast<std::size_t>(phase);
      m.push_back({std::string("core.") + name + ".crit_cpu_s",
                   med([&](const SortSample& s) { return s.cpu_max[ph]; }),
                   "s"});
    }
    m.push_back({"core.blocked_frac",
                 med([](const SortSample& s) { return s.blocked_frac; }),
                 "fraction"});

    m.push_back({"sortcore.bytes_moved_per_record",
                 med([&](const SortSample& s) {
                   return static_cast<double>(s.kernels.bytes_moved) / records;
                 }),
                 "B/record"});
    m.push_back(
        {"sortcore.merge_gallop_frac",
         med([](const SortSample& s) {
           return ratio(static_cast<double>(s.kernels.merge_gallop_bytes),
                        static_cast<double>(s.kernels.bytes_moved));
         }),
         "fraction"});
    m.push_back({"sortcore.heap_allocs",
                 med([](const SortSample& s) { return s.kernels.heap_allocs; }),
                 "count"});
    m.push_back({"sortcore.arena_hwm_mb",
                 static_cast<double>(snapshot_kernel_counters().arena_hwm) /
                     (1024.0 * 1024.0),
                 "MB"});
    const auto [sort_ns, merge_ns] =
        sortcore_ns_per_record(bench, w.ranks, 7, spans);
    m.push_back({"sortcore.local_sort.ns_per_record", sort_ns, "ns"});
    m.push_back({"sortcore.kway_merge.ns_per_record", merge_ns, "ns"});

    m.push_back({"sim.p2p_messages",
                 med([](const SortSample& s) { return s.comm.p2p_messages; }),
                 "count"});
    m.push_back({"sim.p2p_bytes",
                 med([](const SortSample& s) { return s.comm.p2p_bytes; }),
                 "B"});
    m.push_back(
        {"sim.coll_messages",
         med([](const SortSample& s) { return s.comm.collective_messages; }),
         "count"});
    m.push_back(
        {"sim.coll_bytes",
         med([](const SortSample& s) { return s.comm.collective_bytes_out; }),
         "B"});
    for (const sim::CollAlg alg : kSortCollAlgs) {
      const std::string base = "sim.coll." + coll_metric_name(alg);
      const auto i = static_cast<std::size_t>(alg);
      m.push_back(
          {base + ".calls",
           med([&](const SortSample& s) { return s.comm.per_alg[i].calls; }),
           "count"});
      m.push_back({base + ".bytes",
                   med([&](const SortSample& s) {
                     return s.comm.per_alg[i].bytes_out;
                   }),
                   "B"});
    }
    m.push_back(
        {"sim.coll.other.calls",
         med([](const SortSample& s) { return s.other_coll().calls; }),
         "count"});
    m.push_back(
        {"sim.coll.other.bytes",
         med([](const SortSample& s) { return s.other_coll().bytes_out; }),
         "B"});
    m.push_back({"sim.runtime_cpu_s",
                 med([](const SortSample& s) { return s.runtime_cpu(); }),
                 "s"});
    {
      SpanScope span(spans, "micro.sim");
      for (Metric& sm : sim_call_metrics(bench.cluster())) {
        m.push_back(std::move(sm));
      }
    }

    const double cpu = med([](const SortSample& s) { return s.cpu_total; });
    const double quiet_cpu =
        median_of(quiet, [](const SortSample& s) { return s.cpu_total; });
    m.push_back({"obs.overhead_frac", ratio(cpu, quiet_cpu) - 1.0, "fraction"});
    m.push_back({"trace.events_per_sort",
                 med([](const SortSample& s) { return s.trace_events; }),
                 "count"});
    m.push_back({"workloads.gen_ns_per_record",
                 median(bench.gen_ns_per_record()), "ns"});

    inputs_ok = bench.inputs_deterministic();
    m.push_back({"span.overhead_frac",
                 ratio(median_of(untraced, rps), med(rps)) - 1.0, "fraction"});
    for (const char* name : kSpanNames) {
      m.push_back({std::string("span.") + name + ".self_ms",
                   log.median_self_ms(name), "ms"});
    }
    if (!a.spans_out.empty()) log.write(a.spans_out);
  }

  const bool correct = bench.failed() == 0 && inputs_ok;
  print_result(correct, bench.attempted(), bench.failed(), m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.workload->zipf_stable) return run<Tagged>(a);
    return run<std::uint64_t>(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
