// The repository benchmark driver. Runs one named workload through the
// public cem API the way a user's job would, checks every output against a
// reference computed outside the timed region, and prints its metrics as
// one JSON object on the last line of stdout:
//
//   cem_bench --workload mmp-dblp|grid-hepth|stream-serve --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 prints the end-to-end metrics (no spans, no matcher decorator);
// --trace 1 alternates untraced and traced passes and prints the per-layer
// breakdown.
// perfbench/run.py builds this binary and is the command to run; see
// perfbench/README.md for the workloads and what each metric means.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cover_builder.h"
#include "core/grid_executor.h"
#include "core/match_set.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/tsv_io.h"
#include "eval/metrics.h"
#include "mln/mln_matcher.h"
#include "serve/match_service.h"
#include "stream/streaming_matcher.h"
#include "timing_matcher.h"
#include "util/execution_context.h"
#include "util/random.h"

namespace {

using namespace cem;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Mode { kMmp, kGrid, kStream };

struct Workload {
  const char* name;
  Mode mode;
  bool hepth;        // HEPTH-like corpus (else DBLP-like).
  double scale;      // BibConfig preset scale.
  uint32_t threads;  // Worker threads of the workload's ExecutionContext.
};

constexpr Workload kWorkloads[] = {
    {"mmp-dblp", Mode::kMmp, false, 2.0, 1},
    {"grid-hepth", Mode::kGrid, true, 16.0, 4},
    {"stream-serve", Mode::kStream, false, 2.0, 2},
};

/// Simulated machines of the grid workload and of mmp-dblp's reference run.
constexpr uint32_t kGridMachines = 4;
/// stream-serve open-loop lookup rate and cold-preview share.
constexpr double kLookupsPerSecond = 250.0;
constexpr double kColdShare = 0.10;
/// stream-serve ingest schedule: one chunk of kChunk refs every kChunkEvery.
constexpr size_t kChunk = 32;
constexpr auto kChunkEvery = std::chrono::milliseconds(80);
/// A traced run that leaves more than this share of job_s outside the
/// layer spans fails: stages it does not time must show as a gap.
constexpr double kMaxUnattributed = 0.5;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

data::BibConfig CorpusConfig(const Workload& w, double scale, uint64_t seed) {
  data::BibConfig config = w.hepth ? data::BibConfig::HepthLike(scale)
                                   : data::BibConfig::DblpLike(scale);
  config.seed = seed;
  return config;
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sleeps until shortly before `due`, then spins: an open-loop generator
/// that wakes on time, so its own lateness does not swamp sub-millisecond
/// latencies.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) {
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around its calls into each layer, kept in
// memory and written out when the run ends. Disabled = no clock reads. The
// library's obs::TraceRecorder is not used: its events carry no parent, and
// enabling it also records the library's own internal spans.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  int root = -1;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      Span span;
      span.name = std::move(name);
      span.parent = tracer_.open_;
      span.root = span.parent < 0 ? index_ : tracer_.spans_[span.parent].root;
      span.start = Clock::now();
      tracer_.spans_.push_back(std::move(span));
      tracer_.open_ = index_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (index_ < 0) return;
      tracer_.spans_[index_].end = Clock::now();
      tracer_.open_ = tracer_.spans_[index_].parent;
    }
    /// Index of this span (-1 when tracing is off).
    int index() const { return index_; }

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Seconds per span name over the tree rooted at span `root`.
  std::map<std::string, double> Totals(int root) const {
    std::map<std::string, double> totals;
    for (const Span& span : spans_) {
      if (span.root == root) {
        totals[span.name] += SecondsBetween(span.start, span.end);
      }
    }
    return totals;
  }

  /// 1 - (time covered by the direct children of `root`) / root duration.
  double Unattributed(int root) const {
    const Span& r = spans_[root];
    double covered = 0.0;
    for (const Span& span : spans_) {
      if (span.parent == root) covered += SecondsBetween(span.start, span.end);
    }
    return 1.0 - Ratio(covered, SecondsBetween(r.start, r.end));
  }

  /// Chrome trace_event JSON (complete events, microseconds).
  bool WriteJson(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(),
                    SecondsBetween(origin, s.start) * 1e6,
                    SecondsBetween(s.start, s.end) * 1e6, i, s.parent);
      out << line;
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Per-layer values of one traced pass, by metric name.
using Layers = std::map<std::string, double>;

/// Copies the decorator's counters into `layers`.
void AddMatcherLayers(const perfbench::TimingMatcher& timing,
                      const mln::MlnMatcher& mln, Layers& layers) {
  layers["mln.runs"] = static_cast<double>(mln.num_runs());
  layers["mln.free_vars"] = static_cast<double>(mln.total_free_variables());
  layers["mln.match_calls"] = static_cast<double>(timing.runs());
  layers["mln.match_cpu_s"] =
      timing.match().seconds() + timing.conditioned().seconds();
  layers["mln.score_delta_calls"] =
      static_cast<double>(timing.score_delta().calls.load());
  layers["mln.score_delta_cpu_s"] = timing.score_delta().seconds();
}

/// Copies the layer span totals of the tree rooted at `root` into `layers`
/// (span "a.b" becomes metric "a.b_s").
void AddSpanLayers(const Tracer& tracer, int root, Layers& layers) {
  for (const auto& [name, seconds] : tracer.Totals(root)) {
    layers[name + "_s"] = seconds;
  }
}

// ---------------------------------------------------------------------------
// Run-wide bookkeeping.
// ---------------------------------------------------------------------------

struct Run {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Checks outside any single operation (trace identity, attribution).
  bool global_ok = true;

  /// Generator seed of the run's `corpus`-th corpus. Each pass of an
  /// untraced run matches a corpus of its own, so one run's figures average
  /// over several corpora instead of hanging on one seed's structure.
  uint64_t CorpusSeed(size_t corpus) const { return seed * 1000 + corpus; }

  std::string CorpusPath(const char* tag) const {
    return work_dir + "/" + workload->name + "-" + tag + ".tsv";
  }

  void Fail(const std::string& what) const {
    std::fprintf(stderr, "CHECK FAILED [%s seed %llu]: %s\n", workload->name,
                 static_cast<unsigned long long>(seed), what.c_str());
  }

  /// A failed check of one pass, named by its corpus seed so the corpus can
  /// be regenerated.
  void FailPass(size_t corpus, const std::string& what) const {
    Fail("corpus seed " + std::to_string(CorpusSeed(corpus)) + ": " + what);
  }
};

/// One set-up: generate a seeded corpus and save it as TSV. Returns its
/// wall seconds.
double GenerateAndSave(const Workload& w, double scale, uint64_t corpus_seed,
                       const std::string& path, const ExecutionContext& ctx) {
  const Clock::time_point start = Clock::now();
  const std::unique_ptr<data::Dataset> dataset = data::GenerateBibDataset(
      CorpusConfig(w, scale, corpus_seed), {}, ctx);
  const Status saved = data::SaveDatasetTsv(*dataset, path);
  if (!saved.ok()) {
    std::fprintf(stderr, "cannot save %s: %s\n", path.c_str(),
                 saved.ToString().c_str());
    std::exit(2);
  }
  return SecondsBetween(start, Clock::now());
}

std::unique_ptr<data::Dataset> LoadOrDie(const std::string& path) {
  Result<std::unique_ptr<data::Dataset>> loaded = data::LoadDatasetTsv(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*loaded);
}

/// The match set a pass's output must equal: the same cover, matched by a
/// different driver that the consistency theorems say reaches the same
/// fixpoint — grid MMP for the sequential MMP job, sequential SMP for the
/// grid SMP job and for the streamed ingest. Runs after the timed region.
core::MatchSet ReferenceMatches(const Workload& w,
                                const core::ProbabilisticMatcher& matcher,
                                const core::Cover& cover) {
  if (w.mode != Mode::kMmp) return core::RunSmp(matcher, cover).matches;
  const ExecutionContext ctx(4);
  core::GridOptions options;
  options.scheme = core::MpScheme::kMmp;
  options.num_machines = kGridMachines;
  options.context = &ctx;
  return core::RunGrid(matcher, cover, options).matches;
}

/// Runs passes (batch jobs or stream-serve repetitions, each with its own
/// set-up) until --seconds seconds are used, never starting one the last
/// pass's length says would overrun it. An untraced run makes untraced
/// passes only, at least one. A traced run alternates an untraced and a
/// traced pass over the same corpus, at least two of each, so neither
/// drift nor corpus differences can pass for tracing overhead.
template <typename Pass, typename PassFn>
void RunPasses(const Run& run, PassFn&& pass_fn, std::vector<Pass>& plain,
               std::vector<Pass>& traced) {
  const size_t min_passes = run.trace ? 4 : 1;
  const Clock::time_point start = Clock::now();
  double last_s = 0.0;
  for (size_t i = 0; i < min_passes ||
                     SecondsBetween(start, Clock::now()) + last_s <= run.seconds;
       ++i) {
    const bool trace_pass = run.trace && i % 2 == 1;
    const size_t corpus = run.trace ? i / 2 : i;
    const Clock::time_point pass_start = Clock::now();
    Pass pass = pass_fn(corpus, trace_pass);
    last_s = SecondsBetween(pass_start, Clock::now());
    std::fprintf(stderr, "%s pass %zu (corpus %zu%s): %.3f s, job %.3f s\n",
                 run.workload->name, i, corpus,
                 trace_pass ? ", traced" : "", last_s, pass.job_s);
    (trace_pass ? traced : plain).push_back(std::move(pass));
  }
}

/// Median per key over the traced passes' layer maps.
Layers MedianLayers(const std::vector<Layers>& passes) {
  std::map<std::string, std::vector<double>> samples;
  for (const Layers& pass : passes) {
    for (const auto& [name, value] : pass) samples[name].push_back(value);
  }
  Layers medians;
  for (const auto& [name, values] : samples) medians[name] = Median(values);
  return medians;
}

/// log-log slope of `key` between a half-scale and a full-scale pass over
/// the same seed, against the number of neighborhoods (Theorems 3 and 5:
/// linear = 1). 0 when the layer did no such work.
double Slope(const Layers& half, const Layers& full, const std::string& key) {
  const auto h = half.find(key);
  const auto f = full.find(key);
  const double x_half = half.at("blocking.neighborhoods");
  const double x_full = full.at("blocking.neighborhoods");
  if (h == half.end() || f == full.end() || h->second <= 0.0 ||
      f->second <= 0.0 || x_half <= 0.0 || x_full <= x_half) {
    return 0.0;
  }
  return std::log(f->second / h->second) / std::log(x_full / x_half);
}

/// Median traced job time over the median untraced job time of the same
/// corpora (traced pass i shares its corpus with untraced pass i), minus 1.
double TraceOverhead(const std::vector<double>& untraced_s,
                     const std::vector<double>& traced_s) {
  const std::vector<double> partners(
      untraced_s.begin(),
      untraced_s.begin() + static_cast<std::ptrdiff_t>(traced_s.size()));
  return Median(traced_s) / Median(partners) - 1.0;
}

/// The run's visibility latency. Percentiles are taken within each pass,
/// and the run reports their median over passes: one heavy-tailed corpus or
/// a noisy moment moves one pass, not the run.
class VisibleLatency {
 public:
  void AddPass(const std::vector<double>& visible_ms) {
    p50_.push_back(Percentile(visible_ms, 0.50));
    p90_.push_back(Percentile(visible_ms, 0.90));
  }

  void Report(Layers& e) const {
    e["chunk_visible_ms_p50"] = Median(p50_);
    e["chunk_visible_ms_p90"] = Median(p90_);
  }

 private:
  std::vector<double> p50_, p90_;
};

struct Outcome {
  Layers end_to_end;
  Layers per_layer;
  Tracer spans{false};
};

// ---------------------------------------------------------------------------
// Batch workloads (mmp-dblp, grid-hepth).
// ---------------------------------------------------------------------------

/// Everything one batch pass produced that the checks and metrics read.
struct BatchJob {
  double setup_s = 0.0;
  core::MatchSet matches;
  double f1 = 0.0;
  /// MpResult / GridResult counters.
  size_t evaluations = 0;
  size_t matcher_calls = 0;
  size_t messages_created = 0;
  size_t messages_promoted = 0;
  size_t grid_rounds = 0;
  double job_s = 0.0;
  /// Job start to published clusters (the one "chunk" of a batch job).
  double visible_s = 0.0;
  bool reference_ok = true;
  Layers layers;  // Traced jobs only.

  /// The deterministic outputs the bit-identity checks compare.
  bool SameOutputAs(const BatchJob& other) const {
    return matches == other.matches && f1 == other.f1 &&
           evaluations == other.evaluations &&
           matcher_calls == other.matcher_calls &&
           messages_created == other.messages_created &&
           messages_promoted == other.messages_promoted &&
           grid_rounds == other.grid_rounds;
  }
};

/// The user's job over the corpus saved at `path`: load -> candidate pairs
/// -> cover -> matcher -> message passing -> closure -> eval, timed from
/// LoadDatasetTsv to the eval result. With tracing on, every layer call
/// gets a span and the matcher runs behind the timing decorator. After the
/// timed region: the reference check.
BatchJob RunBatchJob(const Workload& w, const std::string& path,
                     const ExecutionContext& ctx, Tracer& tracer) {
  BatchJob job;
  std::unique_ptr<data::Dataset> dataset;
  core::BlockingStats blocking;
  core::Cover cover;
  std::optional<mln::MlnMatcher> mln;
  std::optional<perfbench::TimingMatcher> timing;
  double grid_makespan_s = 0.0;
  const Clock::time_point start = Clock::now();
  Clock::time_point published;
  int root_span = -1;
  {
    Tracer::Scope root(tracer, "job");
    root_span = root.index();
    {
      Tracer::Scope span(tracer, "data.load");
      dataset = LoadOrDie(path);
    }
    {
      Tracer::Scope span(tracer, "data.candidates");
      dataset->BuildCandidatePairs({}, ctx);
    }
    {
      Tracer::Scope span(tracer, "blocking.cover");
      cover = core::CanopyCoverBuilder().Build(*dataset, ctx, &blocking);
    }
    {
      Tracer::Scope span(tracer, "mln.build");
      mln.emplace(*dataset);
    }
    if (tracer.enabled()) timing.emplace(*mln);
    const core::ProbabilisticMatcher& matcher =
        timing ? static_cast<const core::ProbabilisticMatcher&>(*timing)
               : *mln;
    {
      Tracer::Scope span(tracer, "core.match");
      if (w.mode == Mode::kMmp) {
        core::MpResult mp = core::RunMmp(matcher, cover);
        job.matches = std::move(mp.matches);
        job.evaluations = mp.neighborhood_evaluations;
        job.matcher_calls = mp.matcher_calls;
        job.messages_created = mp.messages_created;
        job.messages_promoted = mp.messages_promoted;
      } else {
        core::GridOptions options;
        options.scheme = core::MpScheme::kSmp;
        options.num_machines = kGridMachines;
        options.context = &ctx;
        core::GridResult grid = core::RunGrid(matcher, cover, options);
        job.matches = std::move(grid.matches);
        job.evaluations = grid.neighborhood_evaluations;
        job.grid_rounds = grid.rounds;
        grid_makespan_s = grid.simulated_seconds;
      }
    }
    core::MatchSet clusters;
    {
      Tracer::Scope span(tracer, "core.closure");
      clusters = core::TransitiveClosure(job.matches);
    }
    published = Clock::now();
    {
      Tracer::Scope span(tracer, "eval.pr");
      job.f1 = eval::ComputePr(*dataset, clusters).f1;
    }
  }
  job.job_s = SecondsBetween(start, Clock::now());
  job.visible_s = SecondsBetween(start, published);

  if (tracer.enabled()) {
    Layers& l = job.layers;
    AddSpanLayers(tracer, root_span, l);
    l["unattributed_frac"] = tracer.Unattributed(root_span);
    l["data.candidate_pairs"] =
        static_cast<double>(dataset->num_candidate_pairs());
    l["blocking.pairs_considered"] =
        static_cast<double>(blocking.pairs_considered);
    l["blocking.considered_per_candidate"] =
        Ratio(static_cast<double>(blocking.pairs_considered),
              static_cast<double>(dataset->num_candidate_pairs()));
    l["blocking.neighborhoods"] = static_cast<double>(cover.size());
    l["blocking.max_neighborhood"] =
        static_cast<double>(cover.MaxNeighborhoodSize());
    AddMatcherLayers(*timing, *mln, l);
    // Time inside the matcher is wall time only on the sequential driver.
    if (w.mode == Mode::kMmp) {
      l["core.self_s"] = l["core.match_s"] - timing->total_seconds();
    }
    l["core.evaluations"] = static_cast<double>(job.evaluations);
    l["core.matcher_calls"] = static_cast<double>(job.matcher_calls);
    l["core.messages_created"] = static_cast<double>(job.messages_created);
    l["core.messages_promoted"] = static_cast<double>(job.messages_promoted);
    l["core.promoted_frac"] =
        Ratio(static_cast<double>(job.messages_promoted),
              static_cast<double>(job.messages_created));
    l["core.grid_rounds"] = static_cast<double>(job.grid_rounds);
    l["core.grid_makespan_s"] = grid_makespan_s;
  }

  job.reference_ok = ReferenceMatches(w, *mln, cover) == job.matches;
  return job;
}

Outcome RunBatchWorkload(Run& run) {
  const Workload& w = *run.workload;
  const ExecutionContext ctx(w.threads);
  const std::string path = run.CorpusPath("full");
  Tracer off(false);
  Outcome out;
  out.spans = Tracer(run.trace);
  std::vector<BatchJob> jobs;
  std::vector<BatchJob> traced;
  RunPasses(
      run,
      [&](size_t corpus, bool trace_pass) {
        // A traced pass reuses the corpus its untraced partner set up.
        const double setup_s =
            trace_pass ? 0.0
                       : GenerateAndSave(w, w.scale, run.CorpusSeed(corpus),
                                         path, ctx);
        BatchJob job =
            RunBatchJob(w, path, ctx, trace_pass ? out.spans : off);
        job.setup_s = setup_s;
        return job;
      },
      jobs, traced);
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> setup_s, job_s, f1;
  VisibleLatency latency;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const BatchJob& job = jobs[i];
    ++run.attempted;
    setup_s.push_back(job.setup_s);
    job_s.push_back(job.job_s);
    f1.push_back(job.f1);
    latency.AddPass({job.visible_s * 1e3});
    if (!job.reference_ok) {
      run.FailPass(i, "job matches differ from the reference driver's");
    }
    if (!job.reference_ok) ++run.failed;
  }
  Layers& e = out.end_to_end;
  e["setup_s"] = Median(setup_s);
  e["job_s"] = Median(job_s);
  e["f1"] = Mean(f1);
  e["peak_rss_mb"] = peak_rss_mb;
  latency.Report(e);
  if (!run.trace) return out;

  // Each traced job ran with spans and the matcher decorator on; its
  // outputs must be bit-identical to its untraced partner's.
  std::vector<Layers> passes;
  std::vector<double> traced_s;
  for (size_t i = 0; i < traced.size(); ++i) {
    if (!traced[i].reference_ok) {
      run.FailPass(i, "traced job matches differ from the reference's");
      run.global_ok = false;
    }
    if (!traced[i].SameOutputAs(jobs[i])) {
      run.FailPass(i, "traced job differs from the untraced run");
      run.global_ok = false;
    }
    passes.push_back(traced[i].layers);
    traced_s.push_back(traced[i].job_s);
  }
  Layers& l = out.per_layer;
  l = MedianLayers(passes);
  l["trace_overhead_frac"] = TraceOverhead(job_s, traced_s);

  // Scaling probe: the first corpus's seed at half the scale, traced twice,
  // against the first corpus's traced pass.
  const std::string half_path = run.CorpusPath("half");
  GenerateAndSave(w, w.scale / 2.0, run.CorpusSeed(0), half_path, ctx);
  std::vector<Layers> half_passes;
  for (int i = 0; i < 2; ++i) {
    half_passes.push_back(
        RunBatchJob(w, half_path, ctx, out.spans).layers);
  }
  const Layers half = MedianLayers(half_passes);
  for (const char* key :
       {"core.match_s", "core.evaluations", "mln.score_delta_calls"}) {
    l[std::string(key) + ".slope"] = Slope(half, traced.front().layers, key);
  }
  return out;
}

// ---------------------------------------------------------------------------
// stream-serve.
// ---------------------------------------------------------------------------

struct LookupSample {
  double latency_ms = 0.0;  // From due time to answer.
  double late_ms = 0.0;     // From due time to issue.
  double service_us = 0.0;  // Inside Lookup().
  bool cold = false;
  obs::QueryTrace trace;
};

struct StreamRep {
  double setup_s = 0.0;
  double job_s = 0.0;
  double f1 = 0.0;
  core::MatchSet matches;
  stream::StreamingStats stats;
  std::vector<double> visible_ms;
  std::vector<double> busy_ms;
  std::vector<double> late_ms;
  std::vector<LookupSample> lookups;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool reference_ok = true;
  /// Traced only: matches in exactly one of the streamed set and a batch
  /// RunSmp over a fresh canopy cover.
  size_t fresh_cover_diff = 0;
  Layers layers;  // Traced only.
};

/// One stream-serve repetition over its own corpus. Set-up: generate and
/// save the corpus, load it, build its candidate pairs and matcher, and
/// ingest the first half of a seeded arrival order through a fresh
/// MatchService. Timed: the second half is ingested open-loop, kChunk refs
/// every kChunkEvery, while one client thread issues open-loop lookups at
/// kLookupsPerSecond (kColdShare of them for refs not ingested yet); then
/// closure and eval. Afterwards the streamed matches are checked against a
/// batch SMP rebuild over the streamed cover.
StreamRep RunStreamRep(const Workload& w, uint64_t corpus_seed,
                       const std::string& path, Tracer& tracer) {
  const ExecutionContext ctx(w.threads);
  StreamRep rep;
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<data::Dataset> dataset;
  std::optional<mln::MlnMatcher> mln;
  int setup_span = -1;
  {
    Tracer::Scope root(tracer, "setup");
    setup_span = root.index();
    GenerateAndSave(w, w.scale, corpus_seed, path, ctx);
    {
      Tracer::Scope span(tracer, "data.load");
      dataset = LoadOrDie(path);
    }
    {
      Tracer::Scope span(tracer, "data.candidates");
      dataset->BuildCandidatePairs({}, ctx);
    }
    {
      Tracer::Scope span(tracer, "mln.build");
      mln.emplace(*dataset);
    }
  }
  std::optional<perfbench::TimingMatcher> timing;
  if (tracer.enabled()) timing.emplace(*mln);
  const core::Matcher& matcher =
      timing ? static_cast<const core::Matcher&>(*timing) : *mln;
  stream::StreamingOptions options;
  options.context = &ctx;
  stream::StreamingMatcher streaming(matcher, options);
  serve::MatchService service(streaming);

  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng arrival(corpus_seed);
  arrival.Shuffle(refs);
  const uint64_t lookup_seed = arrival.Next();
  const size_t n = refs.size();
  const size_t half = n / 2;
  if (!service.IngestBatch({refs.begin(), refs.begin() + half}).ok()) {
    std::fprintf(stderr, "prefix ingest failed\n");
    std::exit(2);
  }
  rep.setup_s = SecondsBetween(setup_start, Clock::now());
  const stream::StreamingStats prefix = streaming.stats();
  mln->ResetCounters();
  if (timing) timing->Reset();

  const size_t num_chunks = (n - half + kChunk - 1) / kChunk;
  const auto lookup_every = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / kLookupsPerSecond));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point window_end =
      t0 + kChunkEvery * static_cast<int64_t>(num_chunks);
  int job_span = -1;
  {
    Tracer::Scope root(tracer, "job");
    job_span = root.index();
    std::atomic<uint64_t> lookup_failures{0};
    std::vector<LookupSample> lookups;
    // The client thread reads the live state while ingest runs. It records
    // no spans (the tracer is single-threaded); its samples carry the
    // serving layer's own per-stage QueryTrace instead.
    std::jthread client([&] {
      Rng rng(lookup_seed);
      uint64_t last_epoch = 0;
      for (int64_t j = 0;; ++j) {
        const Clock::time_point due = t0 + lookup_every * j;
        if (due >= window_end) break;
        WaitUntil(due);
        const uint64_t epoch = service.epoch();
        const size_t cold_lo = std::min<size_t>(n, epoch + kChunk);
        data::EntityId ref;
        if (rng.NextBernoulli(kColdShare) && cold_lo < n) {
          ref = refs[cold_lo + rng.NextBounded(n - cold_lo)];
        } else {
          ref = refs[rng.NextBounded(std::max<uint64_t>(epoch, 1))];
        }
        const Clock::time_point issued = Clock::now();
        const Result<serve::QueryResult> answer = service.Lookup({ref});
        const Clock::time_point answered = Clock::now();
        LookupSample sample;
        sample.latency_ms = SecondsBetween(due, answered) * 1e3;
        sample.late_ms = SecondsBetween(due, issued) * 1e3;
        sample.service_us = SecondsBetween(issued, answered) * 1e6;
        if (!answer.ok() || answer->ref != ref || answer->epoch < last_epoch) {
          lookup_failures.fetch_add(1, std::memory_order_relaxed);
        } else {
          last_epoch = answer->epoch;
          sample.cold = !answer->live;
          sample.trace = answer->trace;
        }
        lookups.push_back(std::move(sample));
      }
    });
    {
      Tracer::Scope span(tracer, "stream.ingest");
      for (size_t k = 0; k < num_chunks; ++k) {
        const Clock::time_point due =
            t0 + kChunkEvery * static_cast<int64_t>(k);
        WaitUntil(due);
        const size_t lo = half + k * kChunk;
        const size_t hi = std::min(n, lo + kChunk);
        const Clock::time_point started = Clock::now();
        const Status added =
            service.IngestBatch({refs.begin() + lo, refs.begin() + hi});
        const Clock::time_point done = Clock::now();
        ++rep.attempted;
        if (!added.ok()) ++rep.failed;
        rep.visible_ms.push_back(SecondsBetween(due, done) * 1e3);
        rep.busy_ms.push_back(SecondsBetween(started, done) * 1e3);
        rep.late_ms.push_back(SecondsBetween(due, started) * 1e3);
      }
    }
    client.join();
    rep.attempted += lookups.size();
    rep.failed += lookup_failures.load();
    rep.lookups = std::move(lookups);
    rep.matches = streaming.matches();
    core::MatchSet clusters;
    {
      Tracer::Scope span(tracer, "core.closure");
      clusters = core::TransitiveClosure(rep.matches);
    }
    {
      Tracer::Scope span(tracer, "eval.pr");
      rep.f1 = eval::ComputePr(*dataset, clusters).f1;
    }
  }
  rep.job_s = SecondsBetween(t0, Clock::now());
  rep.stats = streaming.stats();
  Layers& l = rep.layers;
  if (tracer.enabled()) {
    AddSpanLayers(tracer, setup_span, l);
    AddSpanLayers(tracer, job_span, l);
    l["unattributed_frac"] = tracer.Unattributed(job_span);
    AddMatcherLayers(*timing, *mln, l);
  }

  // Check: a batch RunSmp over the cover the stream built reaches the
  // streamed matches. Theorem 2: the SMP fixpoint of a cover depends neither
  // on the order evaluations run in nor on a warm start. This is the
  // same-cover check the batch workloads make.
  rep.reference_ok =
      ReferenceMatches(w, *mln, streaming.cover()) == rep.matches;
  if (!tracer.enabled()) return rep;

  // Traced: a batch SMP rebuild over a fresh canopy cover gives this
  // corpus's batch blocking and core layers, and counts the matches on
  // which the two covers' fixpoints differ (README.md, "Known defect").
  perfbench::TimingMatcher reference_timing(*mln);
  core::BlockingStats blocking;
  core::Cover cover;
  core::MpResult reference;
  int reference_span = -1;
  {
    Tracer::Scope root(tracer, "reference");
    reference_span = root.index();
    {
      Tracer::Scope span(tracer, "blocking.cover");
      cover = core::CanopyCoverBuilder().Build(*dataset, ctx, &blocking);
    }
    {
      Tracer::Scope span(tracer, "core.match");
      reference = core::RunSmp(reference_timing, cover);
    }
  }
  rep.fresh_cover_diff = rep.matches.Difference(reference.matches).size() +
                         reference.matches.Difference(rep.matches).size();

  AddSpanLayers(tracer, reference_span, l);
  l["core.self_s"] = l["core.match_s"] - reference_timing.total_seconds();
  l["core.evaluations"] =
      static_cast<double>(reference.neighborhood_evaluations);
  l["core.matcher_calls"] = static_cast<double>(reference.matcher_calls);
  l["data.candidate_pairs"] =
      static_cast<double>(dataset->num_candidate_pairs());
  l["blocking.pairs_considered"] =
      static_cast<double>(blocking.pairs_considered);
  l["blocking.considered_per_candidate"] =
      Ratio(static_cast<double>(blocking.pairs_considered),
            static_cast<double>(dataset->num_candidate_pairs()));
  l["blocking.neighborhoods"] = static_cast<double>(cover.size());
  l["blocking.max_neighborhood"] =
      static_cast<double>(cover.MaxNeighborhoodSize());

  l["stream.chunk_busy_ms_p50"] = Percentile(rep.busy_ms, 0.50);
  l["stream.chunk_busy_ms_p90"] = Percentile(rep.busy_ms, 0.90);
  l["stream.late_ms_p90"] = Percentile(rep.late_ms, 0.90);
  double busy_ms = 0.0;
  for (double b : rep.busy_ms) busy_ms += b;
  l["stream.busy_frac"] = Ratio(busy_ms * 1e-3, l["stream.ingest_s"]);
  const double inserts =
      static_cast<double>(rep.stats.ingest.inserts - prefix.ingest.inserts);
  l["stream.canopies_touched_per_insert"] =
      Ratio(static_cast<double>(rep.stats.ingest.canopies_touched -
                                prefix.ingest.canopies_touched),
            inserts);
  l["stream.evaluations_per_insert"] =
      Ratio(static_cast<double>(rep.stats.matching.neighborhood_evaluations -
                                prefix.matching.neighborhood_evaluations),
            inserts);
  l["stream.pairs_rescored_per_insert"] =
      Ratio(static_cast<double>(rep.stats.matching.pairs_rescored -
                                prefix.matching.pairs_rescored),
            inserts);
  l["stream.lsh_candidates_scanned"] =
      static_cast<double>(rep.stats.ingest.lsh_candidates_scanned -
                          prefix.ingest.lsh_candidates_scanned);
  std::vector<double> service_us, cold_us, late_ms, signature_us, probe_us,
      rank_us, cover_us, probed;
  double cold = 0.0;
  for (const LookupSample& s : rep.lookups) {
    service_us.push_back(s.service_us);
    late_ms.push_back(s.late_ms);
    if (s.cold) {
      cold += 1.0;
      cold_us.push_back(s.service_us);
    }
    const obs::QueryTrace& t = s.trace;
    signature_us.push_back(t.signature_us);
    probe_us.push_back(t.probe_us - t.signature_us);
    rank_us.push_back(t.rank_us - t.probe_us);
    cover_us.push_back(t.cover_us - t.rank_us);
    probed.push_back(static_cast<double>(t.candidates_probed));
  }
  std::vector<double> lookup_ms;
  for (const LookupSample& s : rep.lookups) lookup_ms.push_back(s.latency_ms);
  // Lookups timed from their due time. They are reported here rather than
  // gated end to end: on a shared host they mostly track how promptly the
  // client gets scheduled (see README.md).
  l["serve.lookup_ms_p50"] = Percentile(lookup_ms, 0.50);
  l["serve.lookup_ms_p99"] = Percentile(lookup_ms, 0.99);
  l["serve.service_us_p50"] = Percentile(service_us, 0.50);
  l["serve.service_us_p99"] = Percentile(service_us, 0.99);
  l["serve.client_late_ms_p99"] = Percentile(late_ms, 0.99);
  l["serve.stage_signature_us_p99"] = Percentile(signature_us, 0.99);
  l["serve.stage_probe_us_p50"] = Percentile(probe_us, 0.50);
  l["serve.stage_rank_us_p50"] = Percentile(rank_us, 0.50);
  l["serve.stage_cover_us_p50"] = Percentile(cover_us, 0.50);
  l["serve.cold_frac"] = Ratio(cold, static_cast<double>(rep.lookups.size()));
  l["serve.cold_service_us_p99"] = Percentile(cold_us, 0.99);
  l["serve.candidates_probed_mean"] = Mean(probed);
  return rep;
}

Outcome RunStreamWorkload(Run& run) {
  const Workload& w = *run.workload;
  const std::string path = run.CorpusPath("full");
  Tracer off(false);
  Outcome out;
  out.spans = Tracer(run.trace);
  std::vector<StreamRep> reps;
  std::vector<StreamRep> traced;
  RunPasses(
      run,
      [&](size_t corpus, bool trace_pass) {
        return RunStreamRep(w, run.CorpusSeed(corpus), path,
                            trace_pass ? out.spans : off);
      },
      reps, traced);
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> setup_s, job_s, f1;
  VisibleLatency latency;
  for (size_t i = 0; i < reps.size(); ++i) {
    const StreamRep& rep = reps[i];
    run.attempted += rep.attempted;
    run.failed += rep.failed;
    if (rep.failed > 0) {
      run.FailPass(
          i, "an ingest or lookup failed, or an epoch went backwards");
    }
    if (!rep.reference_ok) {
      run.FailPass(i, "streamed matches differ from a batch SMP rebuild "
                      "over the streamed cover");
      ++run.failed;
    }
    setup_s.push_back(rep.setup_s);
    job_s.push_back(rep.job_s);
    f1.push_back(rep.f1);
    latency.AddPass(rep.visible_ms);
  }
  Layers& e = out.end_to_end;
  e["setup_s"] = Median(setup_s);
  e["job_s"] = Median(job_s);
  e["f1"] = Mean(f1);
  e["peak_rss_mb"] = peak_rss_mb;
  latency.Report(e);
  if (!run.trace) return out;

  // A traced repetition must stream the same corpus to the same matches,
  // F1 and counters as its untraced partner, with every operation OK.
  std::vector<Layers> passes;
  std::vector<double> traced_s;
  double fresh_cover_diff = 0.0;
  for (size_t i = 0; i < traced.size(); ++i) {
    const StreamRep& rep = traced[i];
    fresh_cover_diff += static_cast<double>(rep.fresh_cover_diff);
    if (rep.failed > 0 || !rep.reference_ok) {
      run.FailPass(i, "traced repetition: an operation failed, or streamed "
                      "matches differ from the SMP rebuild");
      run.global_ok = false;
    }
    if (!(rep.matches == reps[i].matches) || rep.f1 != reps[i].f1 ||
        !(rep.stats == reps[i].stats)) {
      run.FailPass(i, "traced repetition differs from the untraced run");
      run.global_ok = false;
    }
    passes.push_back(rep.layers);
    traced_s.push_back(rep.job_s);
  }
  out.per_layer = MedianLayers(passes);
  out.per_layer["trace_overhead_frac"] = TraceOverhead(job_s, traced_s);
  // Summed, not a median: a divergence on any one corpus shows.
  out.per_layer["stream.fresh_cover_diff_matches"] = fresh_cover_diff;
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"job_s", "s"},
    {"setup_s", "s"},
    {"f1", "ratio"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "ratio"},
    {"chunk_visible_ms_p50", "ms"},
    {"chunk_visible_ms_p90", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.load_s", "s"},
    {"data.candidates_s", "s"},
    {"data.candidate_pairs", "count"},
    {"blocking.cover_s", "s"},
    {"blocking.pairs_considered", "count"},
    {"blocking.considered_per_candidate", "ratio"},
    {"blocking.neighborhoods", "count"},
    {"blocking.max_neighborhood", "count"},
    {"mln.build_s", "s"},
    {"mln.runs", "count"},
    {"mln.free_vars", "count"},
    {"mln.match_cpu_s", "s"},
    {"mln.match_calls", "count"},
    {"mln.score_delta_cpu_s", "s"},
    {"mln.score_delta_calls", "count"},
    {"core.match_s", "s"},
    {"core.self_s", "s"},
    {"core.evaluations", "count"},
    {"core.matcher_calls", "count"},
    {"core.messages_created", "count"},
    {"core.messages_promoted", "count"},
    {"core.promoted_frac", "ratio"},
    {"core.grid_rounds", "count"},
    {"core.grid_makespan_s", "s"},
    {"core.closure_s", "s"},
    {"core.match_s.slope", "ratio"},
    {"core.evaluations.slope", "ratio"},
    {"mln.score_delta_calls.slope", "ratio"},
    {"eval.pr_s", "s"},
    {"stream.chunk_busy_ms_p50", "ms"},
    {"stream.chunk_busy_ms_p90", "ms"},
    {"stream.late_ms_p90", "ms"},
    {"stream.busy_frac", "ratio"},
    {"stream.canopies_touched_per_insert", "ratio"},
    {"stream.evaluations_per_insert", "ratio"},
    {"stream.pairs_rescored_per_insert", "ratio"},
    {"stream.lsh_candidates_scanned", "count"},
    {"stream.fresh_cover_diff_matches", "count"},
    {"serve.lookup_ms_p50", "ms"},
    {"serve.lookup_ms_p99", "ms"},
    {"serve.service_us_p50", "us"},
    {"serve.service_us_p99", "us"},
    {"serve.client_late_ms_p99", "ms"},
    {"serve.stage_signature_us_p99", "us"},
    {"serve.stage_probe_us_p50", "us"},
    {"serve.stage_rank_us_p50", "us"},
    {"serve.stage_cover_us_p50", "us"},
    {"serve.cold_frac", "ratio"},
    {"serve.cold_service_us_p99", "us"},
    {"serve.candidates_probed_mean", "count"},
    {"trace_overhead_frac", "ratio"},
    {"unattributed_frac", "ratio"},
};

/// Prints the readable table, then the one-line JSON result (last line).
template <size_t N>
void PrintResult(const Run& run, const MetricDef (&defs)[N],
                 const Layers& values, bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    // A layer the workload does not exercise reads 0 (README.md lists
    // which metrics apply where).
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("  %-36s %.6g %s\n", defs[i].name, value, defs[i].unit);
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: cem_bench --workload mmp-dblp|grid-hepth|stream-serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = FindWorkload(value);
      if (run.workload == nullptr) return Usage();
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--work-dir") {
      run.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (run.workload == nullptr || run.work_dir.empty() || run.seconds <= 0.0 ||
      (trace != "0" && trace != "1") || argc % 2 == 0) {
    return Usage();
  }
  run.trace = trace == "1";
  std::error_code ec;
  std::filesystem::create_directories(run.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  Outcome out = run.workload->mode == Mode::kStream ? RunStreamWorkload(run)
                                                    : RunBatchWorkload(run);
  out.end_to_end["ok_frac"] =
      1.0 - Ratio(static_cast<double>(run.failed),
                  static_cast<double>(run.attempted));
  if (run.trace) {
    const double unattributed = out.per_layer["unattributed_frac"];
    if (unattributed > kMaxUnattributed) {
      run.Fail("layer spans leave " + std::to_string(unattributed * 100.0) +
               "% of job_s unattributed");
      run.global_ok = false;
    }
    const std::string trace_path =
        run.work_dir + "/" + run.workload->name + "-trace.json";
    if (!out.spans.WriteJson(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }
  const bool correct = run.failed == 0 && run.global_ok;
  std::printf("%s seed %llu, %s run: %llu operations, %llu failed\n",
              run.workload->name, static_cast<unsigned long long>(run.seed),
              run.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  if (run.trace) {
    PrintResult(run, kPerLayer, out.per_layer, correct);
  } else {
    PrintResult(run, kEndToEnd, out.end_to_end, correct);
  }
  return correct ? 0 : 1;
}
