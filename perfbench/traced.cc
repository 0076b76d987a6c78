// The traced run: one client replays a fixed number of requests; each
// request calls SecureQueryEngine::Execute (the real path) and then the
// layers' public functions one by one, the way Execute calls them, each
// inside an obs::ScopedSpan opened here. Layer times come from those
// outside calls; work counters come from ExecuteStats and the engine's
// metrics. Spans of one request share its trace (request id); they stay
// in memory and are written at exit as Chrome trace-event JSON.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <tuple>

#include "bench.h"
#include "obs/json.h"
#include "obs/trace_export.h"
#include "optimize/optimizer.h"
#include "rewrite/rewriter.h"
#include "rewrite/unfold.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/plan.h"

namespace secview::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// A span around one layer call that also adds the call's wall time, in
/// microseconds, to *out_us.
class LayerSpan {
 public:
  LayerSpan(obs::Trace* trace, const char* name, double* out_us)
      : span_(trace, name), out_us_(out_us), start_(Clock::now()) {}
  ~LayerSpan() {
    *out_us_ +=
        std::chrono::duration<double, std::micro>(Clock::now() - start_)
            .count();
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  obs::ScopedSpan span_;
  double* out_us_;
  Clock::time_point start_;
};

/// What the replay needs per policy: its view and, for non-recursive
/// views, the prepared rewriter (recursive views are unfolded per depth,
/// as Execute does).
struct PolicyReplay {
  const SecurityView* view = nullptr;
  std::optional<QueryRewriter> rewriter;
};

/// Layer times of one preparation, i.e. of one distinct query text.
struct PrepTimes {
  double parse_us = 0;
  double rewrite_us = 0;
  double optimize_us = 0;
  double compile_us = 0;
  uint64_t dp_entries = 0;
};

/// Replays what Execute does on a rewrite-cache miss with optimization
/// requested: a plain preparation (parse, [unfold,] rewrite), then the
/// optimized one (parse, [unfold,] rewrite, optimize) whose result is
/// compiled and evaluated. On recursive views the optimize step is empty
/// — the engine has no optimizer for recursive DTDs — and its span
/// measures only itself.
Result<std::shared_ptr<const CompiledPlan>> ReplayPrepare(
    const PolicyReplay& policy, const std::optional<QueryOptimizer>& optimizer,
    const std::string& text, int depth, obs::Trace* trace, PrepTimes& t) {
  PathPtr evaluated;
  for (int pass = 0; pass < 2; ++pass) {
    PathPtr query;
    {
      LayerSpan span(trace, "xpath.parse", &t.parse_us);
      SECVIEW_ASSIGN_OR_RETURN(query, ParseXPath(text));
    }
    PathPtr rewritten;
    {
      LayerSpan span(trace, "rewrite.rewrite", &t.rewrite_us);
      RewriteStats stats;
      if (policy.rewriter.has_value()) {
        SECVIEW_ASSIGN_OR_RETURN(rewritten,
                                 policy.rewriter->Rewrite(query, &stats));
      } else {
        SECVIEW_ASSIGN_OR_RETURN(SecurityView unfolded,
                                 UnfoldView(*policy.view, depth));
        SECVIEW_ASSIGN_OR_RETURN(QueryRewriter rewriter,
                                 QueryRewriter::Create(unfolded));
        SECVIEW_ASSIGN_OR_RETURN(rewritten, rewriter.Rewrite(query, &stats));
      }
      t.dp_entries += stats.dp_entries;
    }
    if (pass == 1) {
      LayerSpan span(trace, "optimize.optimize", &t.optimize_us);
      if (optimizer.has_value()) {
        SECVIEW_ASSIGN_OR_RETURN(rewritten, optimizer->Optimize(rewritten));
      }
    }
    evaluated = std::move(rewritten);
  }
  LayerSpan span(trace, "xpath.compile", &t.compile_us);
  return CompilePlan(evaluated);
}

/// Per-request measurements of the traced pass.
struct Sample {
  double execute_us = 0;
  double eval_us = 0;
  double fanout_us = 0;
  double height_us = 0;
  double prep_us = 0;
  ExecuteStats stats;
};

obs::Json TraceObject(const std::string& id, const std::string& policy,
                      const std::string& query, int64_t unix_micros,
                      obs::Trace& trace) {
  trace.Finish();
  obs::Json t = obs::Json::Object();
  t.Set("schema", "secview.trace.v1");
  t.Set("trace_id", id);
  t.Set("policy", policy);
  t.Set("query", query);
  t.Set("outcome", "ok");
  t.Set("reason", "perfbench");
  t.Set("unix_micros", unix_micros);
  t.Set("latency_micros", trace.root().duration_micros);
  t.Set("spans", trace.ToJson());
  return t;
}

int64_t UnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Mean of field(item) over `items` (0 when empty).
template <typename T, typename F>
double Mean(const std::vector<T>& items, F field) {
  double sum = 0;
  for (const T& item : items) sum += static_cast<double>(field(item));
  return items.empty() ? 0 : sum / static_cast<double>(items.size());
}

/// The traced run's state: the served engine, the replay's per-policy
/// rewriters and optimizer, and its mirror of the rewrite cache.
class Tracer {
 public:
  Tracer(const Inputs& in, Server& server, const Accessibility& access)
      : in_(in), server_(server), access_(access),
        options_(MakeOptions(in)) {}

  Status Init() {
    SecureQueryEngine& engine = *server_.engine;
    for (const auto& [name, text] : in_.policies) {
      PolicyReplay replay;
      SECVIEW_ASSIGN_OR_RETURN(replay.view, engine.View(name));
      if (!replay.view->IsRecursive()) {
        SECVIEW_ASSIGN_OR_RETURN(QueryRewriter rewriter,
                                 QueryRewriter::Create(*replay.view));
        replay.rewriter.emplace(std::move(rewriter));
      }
      policies_.push_back(std::move(replay));
    }
    if (engine.CanOptimize()) {
      SECVIEW_ASSIGN_OR_RETURN(QueryOptimizer optimizer,
                               QueryOptimizer::Create(engine.dtd()));
      optimizer_.emplace(std::move(optimizer));
    }
    return Status::OK();
  }

  /// Serves the warm-up list through Execute and prepares the replay's
  /// mirror entries (their layer times are per-distinct-text samples).
  Status WarmUp() {
    for (const Request& r : in_.warmup) {
      Sample sample;
      SECVIEW_RETURN_IF_ERROR(Run(r, nullptr, sample));
    }
    return Status::OK();
  }

  /// One request: Execute, the observer fan-out alone, then the replay.
  Status Run(const Request& r, obs::Trace* trace, Sample& sample) {
    SecureQueryEngine& engine = *server_.engine;
    const std::string& policy = in_.policies[r.policy].first;
    const std::string& text = in_.queries[r.query];
    Result<ExecuteResult> result = Status::Internal("not run");
    {
      LayerSpan span(trace, "engine.execute", &sample.execute_us);
      result = engine.Execute(policy, server_.doc, text, options_[r.binding]);
    }
    if (!result.ok()) return result.status();
    std::string error = CheckAnswer(in_, access_, r, result->nodes);
    if (!error.empty()) return Status::Internal(error);
    sample.stats = result->stats;
    {
      LayerSpan span(trace, "obs.fanout", &sample.fanout_us);
      engine.RecordServingOutcome(policy, text, Status::OK(),
                                  static_cast<uint64_t>(sample.execute_us));
    }

    obs::ScopedSpan replay(trace, "replay");
    const PolicyReplay& pr = policies_[r.policy];
    int depth = 0;
    if (!pr.rewriter.has_value()) {
      LayerSpan span(trace, "engine.height", &sample.height_us);
      depth = server_.doc.Height();
    }
    const auto key = std::make_tuple(r.policy, r.query, depth);
    auto it = mirror_.find(key);
    if (!result->stats.cache_hit || it == mirror_.end()) {
      if (result->stats.cache_hit) ++mirror_gaps_;
      PrepTimes t;
      SECVIEW_ASSIGN_OR_RETURN(
          std::shared_ptr<const CompiledPlan> plan,
          ReplayPrepare(pr, optimizer_, text, depth, trace, t));
      if (plan == nullptr) return Status::Internal("no plan for " + text);
      prep_.push_back(t);
      sample.prep_us = t.parse_us + t.rewrite_us + t.optimize_us + t.compile_us;
      if (mirror_.size() >= 4096) mirror_.clear();  // bound the mirror
      it = mirror_.insert_or_assign(key, std::move(plan)).first;
    }
    XPathEvaluator evaluator(server_.doc);
    Result<NodeSet> nodes = Status::Internal("not run");
    {
      LayerSpan span(trace, "xpath.eval", &sample.eval_us);
      nodes = evaluator.EvaluateCompiled(*it->second, server_.doc.root(),
                                         options_[r.binding].bindings);
    }
    if (!nodes.ok()) return nodes.status();
    if (*nodes != result->nodes) {
      return Status::Internal("replayed evaluation of '" + text +
                              "' differs from Execute");
    }
    return Status::OK();
  }

  const std::vector<PrepTimes>& prep() const { return prep_; }
  uint64_t mirror_gaps() const { return mirror_gaps_; }
  const std::vector<ExecuteOptions>& options() const { return options_; }

 private:
  const Inputs& in_;
  Server& server_;
  const Accessibility& access_;
  const std::vector<ExecuteOptions> options_;
  std::vector<PolicyReplay> policies_;
  std::optional<QueryOptimizer> optimizer_;
  std::map<std::tuple<int, int, int>, std::shared_ptr<const CompiledPlan>>
      mirror_;
  std::vector<PrepTimes> prep_;
  uint64_t mirror_gaps_ = 0;
};

}  // namespace

Result<Report> RunTraced(const Inputs& in, double seconds,
                         const std::string& trace_path) {
  Report report;
  std::vector<obs::Json> traces;

  obs::Trace setup_trace("setup");
  const int64_t setup_unix = UnixMicros();
  SetupTimes setup;
  SECVIEW_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                           SetUp(in, &setup, &setup_trace));
  traces.push_back(TraceObject("setup", "-", "-", setup_unix, setup_trace));
  SecureQueryEngine& engine = *server->engine;
  obs::MetricsRegistry& metrics = engine.metrics();

  SECVIEW_ASSIGN_OR_RETURN(Accessibility access,
                           ComputeAccessibilities(in, *server));
  Tracer tracer(in, *server, access);
  SECVIEW_RETURN_IF_ERROR(tracer.Init());
  SECVIEW_RETURN_IF_ERROR(tracer.WarmUp());

  // The exact pass: a fixed request count from a fixed engine state, so
  // its counters repeat exactly run to run.
  const size_t n = static_cast<size_t>(in.traced_requests);
  const uint64_t misses0 = metrics.GetCounter("engine.cache.misses").value();
  const uint64_t evictions0 =
      metrics.GetCounter("engine.cache.evictions").value();
  std::vector<Sample> exact(n);
  const auto traced_start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const Request& r = in.stream[i % in.stream.size()];
    obs::Trace trace("request");
    trace.root().SetAttr("request_id", static_cast<uint64_t>(i));
    trace.root().SetAttr("query", in.queries[r.query]);
    const int64_t unix_micros = UnixMicros();
    Status status = tracer.Run(r, &trace, exact[i]);
    if (!status.ok()) {
      ++report.failed;
      report.notes.push_back("# failure: " + status.ToString());
      break;
    }
    traces.push_back(TraceObject("req-" + std::to_string(i),
                                 in.policies[r.policy].first,
                                 in.queries[r.query], unix_micros, trace));
  }
  report.attempted = n;
  const uint64_t misses =
      metrics.GetCounter("engine.cache.misses").value() - misses0;
  const uint64_t evictions =
      metrics.GetCounter("engine.cache.evictions").value() - evictions0;
  // The miss ratio counts from the cold cache the engine starts with
  // (warm-up list included), so it is above 0 on the all-hit workload and
  // 1 on the all-miss one; over the warm exact pass alone one of the two
  // would be 0 by construction.
  const double total_hits =
      static_cast<double>(metrics.GetCounter("engine.cache.hits").value());
  const double total_misses =
      static_cast<double>(metrics.GetCounter("engine.cache.misses").value());
  const double cache_entries =
      static_cast<double>(metrics.GetGauge("engine.cache.size").value());
  const double cache_mb =
      static_cast<double>(metrics.GetGauge("engine.cache.bytes").value()) /
      (1024.0 * 1024.0);

  // The same number of requests untraced from the workload's clients —
  // through a QueryWorkerPool when the workload names one — comparing
  // client-seen latency with the engine's own engine.execute.micros for
  // the same requests.
  if (in.pool_workers > 0) {
    QueryWorkerPool::Options pool_options;
    pool_options.threads = static_cast<size_t>(in.pool_workers);
    server->pool = std::make_unique<QueryWorkerPool>(engine, pool_options);
  }
  obs::Histogram& execute_hist = metrics.GetHistogram("engine.execute.micros");
  const uint64_t exec_sum0 = execute_hist.sum();
  const uint64_t exec_count0 = execute_hist.count();
  LoopResult untraced =
      ClosedLoop(*server, in, tracer.options(), access, n, 0, n);
  const double exec_sum = static_cast<double>(execute_hist.sum() - exec_sum0);
  const uint64_t exec_count = execute_hist.count() - exec_count0;
  if (untraced.failed > 0) {
    ++report.failed;
    report.notes.push_back("# failure: " + untraced.first_error);
  }
  const double client_sum = untraced.latency.sum_us();
  const double queue_wait_us =
      exec_count == 0
          ? 0
          : (client_sum - exec_sum) / static_cast<double>(exec_count);
  const int busy_threads = in.pool_workers > 0 ? in.pool_workers : in.clients;
  const double busy_ratio =
      exec_sum / (1e6 * untraced.wall_s * static_cast<double>(busy_threads));
  const double untraced_p50 = untraced.latency.Percentile(0.5);
  std::vector<double> traced_execute;
  for (const Sample& s : exact) traced_execute.push_back(s.execute_us);
  const double traced_p50 = Percentile(traced_execute, 0.5);

  // More traced requests, for timing samples only, until the run's time
  // is used up.
  std::vector<Sample> timing = exact;
  for (size_t i = 2 * n; report.failed == 0 &&
                         std::chrono::duration<double>(Clock::now() -
                                                       traced_start)
                                 .count() < seconds;
       ++i) {
    Sample sample;
    Status status =
        tracer.Run(in.stream[i % in.stream.size()], nullptr, sample);
    if (!status.ok()) {
      ++report.failed;
      report.notes.push_back("# failure: " + status.ToString());
    }
    timing.push_back(sample);
  }

  // Execute scans the document height only for recursive policies; on the
  // other workloads time the scan on its own.
  std::vector<double> height;
  for (const Sample& s : timing) {
    if (s.height_us > 0) height.push_back(s.height_us);
  }
  if (height.empty()) {
    for (int i = 0; i < 16; ++i) {
      double us = 0;
      {
        LayerSpan span(nullptr, "engine.height", &us);
        volatile int h = server->doc.Height();
        (void)h;
      }
      height.push_back(us);
    }
  }

  // Times are means, so the layers' shares add up to Execute; counters
  // come from the exact pass only.
  using S = Sample;
  using P = PrepTimes;
  const std::vector<P>& prep = tracer.prep();
  const double execute_us =
      Mean(timing, [](const S& s) { return s.execute_us; });
  const double eval_us = Mean(timing, [](const S& s) { return s.eval_us; });
  const double self_us =
      Mean(timing, [](const S& s) { return s.execute_us - s.eval_us; });
  const double fanout_us = Mean(timing, [](const S& s) { return s.fanout_us; });
  const double height_us = Mean(height, [](double us) { return us; });
  auto stat = [&](auto field) {
    return Mean(exact, [&](const S& s) { return field(s.stats); });
  };
  using E = ExecuteStats;
  const double nodes = stat([](const E& e) { return e.nodes_touched; });
  const double preds = stat([](const E& e) { return e.predicate_evals; });
  const double results = stat([](const E& e) { return e.result_count; });
  const double alloc_bytes = stat([](const E& e) { return e.alloc_bytes; });
  const double alloc_count = stat([](const E& e) { return e.alloc_count; });
  const double ast_shrink = stat([](const E& e) {
    return e.ast_size_rewritten == 0
               ? 1.0
               : static_cast<double>(e.ast_size_evaluated) /
                     e.ast_size_rewritten;
  });
  const double nreq = static_cast<double>(n);

  // Shares of Execute's wall time over the exact pass.
  const double exact_execute =
      Mean(exact, [](const S& s) { return s.execute_us; });
  const double exact_eval = Mean(exact, [](const S& s) { return s.eval_us; });
  const double exact_prep = Mean(exact, [](const S& s) { return s.prep_us; });
  const double exact_height =
      Mean(exact, [](const S& s) { return s.height_us; });
  auto share = [&](double part) {
    return Fmt("%.1f%%", exact_execute > 0 ? 100.0 * part / exact_execute : 0);
  };

  report.correct = report.failed == 0 && results > 0;
  report.notes.push_back(
      "# traced workload " + in.workload + " seed " + std::to_string(in.seed) +
      ": " + std::to_string(n) + " exact requests, " +
      std::to_string(timing.size()) + " timed, 1 client; " +
      std::to_string(tracer.prep().size()) + " distinct-text preparations");
  report.notes.push_back(
      "# exact: nodes_touched_per_req=" + Fmt("%.4f", nodes) +
      " predicate_evals_per_req=" + Fmt("%.4f", preds) +
      " results_per_req=" + Fmt("%.4f", results) +
      " cache_misses_per_req=" +
      Fmt("%.4f", static_cast<double>(misses) / nreq) +
      " cache_evictions_per_req=" +
      Fmt("%.4f", static_cast<double>(evictions) / nreq) +
      " alloc_count_per_req=" + Fmt("%.4f", alloc_count) +
      " alloc_bytes_per_req=" + Fmt("%.4f", alloc_bytes));
  report.notes.push_back(
      "# execute accounting (means over the exact pass): execute " +
      Fmt("%.2f", exact_execute) + " us = eval " + share(exact_eval) +
      " + parse/rewrite/optimize/compile " + share(exact_prep) +
      " + height " + share(exact_height) + " + engine remainder " +
      share(exact_execute - exact_eval - exact_prep - exact_height));
  report.notes.push_back(
      "# traced engine.execute_us p50 " + Fmt("%.3f", traced_p50) +
      " us vs untraced request_p50_us " + Fmt("%.3f", untraced_p50) +
      " us (same process, " + std::to_string(untraced.attempted) +
      " requests, " + std::to_string(in.clients) + " client(s)" +
      (in.pool_workers > 0
           ? " through a " + std::to_string(in.pool_workers) + "-worker pool"
           : "") +
      ")");
  if (tracer.mirror_gaps() > 0) {
    report.notes.push_back("# replay prepared " +
                           std::to_string(tracer.mirror_gaps()) +
                           " text(s) the engine served from its cache");
  }

  report.metrics = {
      {"xml.parse_ms", setup.xml_parse_s * 1e3, "ms"},
      {"xml.doc_nodes", static_cast<double>(server->doc.node_count()), "count"},
      {"security.register_ms", setup.register_s * 1e3, "ms"},
      {"xpath.parse_us", Mean(prep, [](const P& t) { return t.parse_us; }),
       "us"},
      {"xpath.compile_us", Mean(prep, [](const P& t) { return t.compile_us; }),
       "us"},
      {"xpath.eval_us", eval_us, "us"},
      {"xpath.nodes_touched_per_req", nodes, "count"},
      {"xpath.predicate_evals_per_req", preds, "count"},
      {"xpath.results_per_req", results, "count"},
      {"xpath.useful_ratio", nodes > 0 ? results / nodes : 0, "ratio"},
      {"rewrite.rewrite_us",
       Mean(prep, [](const P& t) { return t.rewrite_us; }), "us"},
      {"rewrite.dp_entries_per_query",
       Mean(prep, [](const P& t) { return t.dp_entries; }), "count"},
      {"optimize.optimize_us",
       Mean(prep, [](const P& t) { return t.optimize_us; }), "us"},
      {"optimize.ast_shrink", ast_shrink, "ratio"},
      {"engine.execute_us", execute_us, "us"},
      {"engine.self_us", self_us, "us"},
      {"engine.height_us", height_us, "us"},
      {"engine.cache_miss_ratio",
       total_misses / std::max(1.0, total_hits + total_misses), "ratio"},
      {"engine.cache_entries", cache_entries, "count"},
      {"engine.cache_mb", cache_mb, "MiB"},
      {"pool.queue_wait_us", queue_wait_us, "us"},
      {"pool.worker_busy_ratio", busy_ratio, "ratio"},
      {"obs.fanout_us", fanout_us, "us"},
      {"alloc.bytes_per_req", alloc_bytes, "bytes"},
      {"alloc.count_per_req", alloc_count, "count"},
  };

  SECVIEW_ASSIGN_OR_RETURN(obs::Json chrome, obs::ChromeTraceJson(traces));
  std::ofstream out(trace_path, std::ios::binary);
  out << chrome.Dump() << "\n";
  out.close();
  if (!out) return Status::Internal("cannot write " + trace_path);
  report.notes.push_back("# chrome trace: " + trace_path + " (" +
                         std::to_string(traces.size()) + " traces)");
  return report;
}

}  // namespace secview::perfbench
