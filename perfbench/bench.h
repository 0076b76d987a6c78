// Shared declarations of the serving benchmark (perfbench/README.md).
//
// The benchmark runs in two processes. `perfbench prepare` generates one
// workload's inputs from a seed with src/workload — DTD text, policy
// specification texts, XML document text, the request stream — and
// computes the expected answer of every distinct (policy, query, binding)
// the stream issues from the materialized security view. `perfbench run`
// reads those files, builds the serving engine from the texts (the timed
// set-up), serves the stream, and checks every answer against the
// expectations. Keeping generation and the oracle in their own process
// keeps their memory out of the served process's peak RSS.
#ifndef SECVIEW_PERFBENCH_BENCH_H_
#define SECVIEW_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/engine.h"
#include "engine/worker_pool.h"
#include "obs/health.h"
#include "obs/policy_stats.h"
#include "obs/serving_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "xml/tree.h"

namespace secview::perfbench {

using Bindings = std::vector<std::pair<std::string, std::string>>;

/// One request of the stream: indexes into Inputs' tables.
struct Request {
  int policy = 0;
  int query = 0;
  int binding = 0;
};

/// Order-sensitive digest of an answer's node ids (FNV-1a over the ids,
/// in the document order Execute returns them).
struct AnswerDigest {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const AnswerDigest&) const = default;
};
AnswerDigest Digest(const std::vector<NodeId>& nodes);

/// Everything `prepare` writes and `run` reads, for one workload and seed.
struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  /// Closed-loop client threads; each calls SecureQueryEngine::Execute.
  int clients = 1;
  /// Threads of the QueryWorkerPool that the traced run's queue-wait
  /// pass sends the same clients' requests through (0 = no pool).
  int pool_workers = 0;
  /// Requests replayed by the traced run's exact-counter pass.
  int traced_requests = 0;
  std::string dtd_text;
  std::string xml_text;
  /// (policy name, specification text).
  std::vector<std::pair<std::string, std::string>> policies;
  std::vector<std::string> queries;
  std::vector<Bindings> bindings;
  /// Untimed warm-up requests, then the timed stream (cycled).
  std::vector<Request> warmup;
  std::vector<Request> stream;
  /// Expected answer per distinct (policy, query, binding).
  std::map<std::tuple<int, int, int>, AnswerDigest> expected;
};

/// The three workloads, by name.
const std::vector<std::string>& WorkloadNames();

/// Generates a workload's inputs and their expected answers.
Result<Inputs> GenerateInputs(const std::string& workload, uint64_t seed);

Status WriteInputs(const Inputs& inputs, const std::string& dir);
Result<Inputs> ReadInputs(const std::string& dir);

/// The engine as a server runs it: the `serve` observer set attached
/// (sliding window, slow-query log, per-policy stats, request-trace
/// store, health), policies registered from their texts, and sealed.
/// `pool` is started only by the traced run's queue-wait pass. Members
/// are declared so that the pool stops before the engine and the engine
/// before the observers it points at.
struct Server {
  obs::SlidingWindowStats window;
  obs::SlowQueryLog slow_log;
  obs::PolicyStatsTable policy_stats;
  obs::RequestTraceStore traces;
  obs::HealthTracker health;
  std::unique_ptr<SecureQueryEngine> engine;
  XmlTree doc;
  std::unique_ptr<QueryWorkerPool> pool;
};

/// Wall time of each set-up step, for the traced run.
struct SetupTimes {
  double dtd_parse_s = 0;
  double xml_parse_s = 0;
  double register_s = 0;
  double total_s = 0;
};

/// Builds a Server from the input texts: DTD parse, ParseXml, one
/// RegisterPolicy per policy (specification parse + derivation), attach
/// and seal. `times` and `trace` (one span per step) may be null.
Result<std::unique_ptr<Server>> SetUp(const Inputs& inputs, SetupTimes* times,
                                      obs::Trace* trace);

/// Per-(policy, binding) accessibility labelings of the served document
/// (ComputeAccessibility over the bound specification), for the leak
/// check: no answer node may be inaccessible (Prop. 3.1).
using Accessibility = std::map<std::pair<int, int>, std::vector<bool>>;
Result<Accessibility> ComputeAccessibilities(const Inputs& inputs,
                                             const Server& server);

/// Checks one answer against the expectation and the labeling; returns
/// an empty string when it is correct, else what is wrong.
std::string CheckAnswer(const Inputs& inputs, const Accessibility& access,
                        const Request& request, const NodeSet& nodes);

/// Execute options per binding: optimize and compiled plans on (the
/// defaults), the binding's $parameters set.
std::vector<ExecuteOptions> MakeOptions(const Inputs& inputs);

/// Serves one request: through the server's worker pool when one is
/// started, else a direct Execute.
Result<NodeSet> Serve(Server& server, const Inputs& inputs,
                      const std::vector<ExecuteOptions>& options,
                      const Request& request);

/// Serves the warm-up list once, checking every answer.
Status WarmUp(Server& server, const Inputs& inputs,
              const std::vector<ExecuteOptions>& options,
              const Accessibility& access);

/// Latency histogram of fixed size: 128 linear buckets per power of two
/// of nanoseconds (bucket width at most 1/128 of its value) up to 2^41
/// ns. Each bucket keeps its samples' sum, so a percentile reads as the
/// mean of the samples in the bucket that holds its rank.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  double sum_us() const { return sum_us_; }
  /// Nearest-rank percentile, p in [0, 1]; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<uint64_t> counts_;
  std::vector<double> sums_us_;
  uint64_t count_ = 0;
  double sum_us_ = 0;
};

/// What a closed loop observed. Its size does not depend on the request
/// count, so the benchmark's own bookkeeping does not grow the process's
/// peak RSS with throughput.
struct LoopResult {
  /// Client-seen latency of every attempted request.
  LatencyHistogram latency;
  /// Correct answers completed in each whole second since the loop
  /// started; the last entry also takes any later completions.
  std::vector<uint64_t> per_second;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Answer nodes summed over the correct requests.
  uint64_t results = 0;
  double wall_s = 0;
  std::string first_error;
  /// Stream index after the last request issued.
  size_t next_index = 0;
};

/// Runs `inputs.clients` closed-loop clients over the stream from index
/// `first` (cycling), each sending its next request when the previous
/// answer arrived and checking every answer. Stops after `seconds`, or
/// after `max_requests` requests when that is non-zero.
LoopResult ClosedLoop(Server& server, const Inputs& inputs,
                      const std::vector<ExecuteOptions>& options,
                      const Accessibility& access, size_t first,
                      double seconds, size_t max_requests);

/// Host and build facts printed with every result.
std::string HostBlock();
/// Non-empty reason when this binary must not report numbers (non-Release
/// or sanitized build).
std::string RefuseReason();

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMiB();

/// The host's CPU time counters (the `cpu` line of /proc/stat), for
/// reporting how much time the hypervisor stole during a window.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t idle = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// printf-formats one number.
std::string Fmt(const char* format, double value);

/// Nearest-rank percentile of `values` (sorted in place), p in [0, 1].
double Percentile(std::vector<double>& values, double p);

/// A named metric value with its unit, printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one benchmark invocation.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

/// The untimed-then-timed closed-loop serving run (--trace 0).
Result<Report> RunServing(const Inputs& inputs, double seconds);

/// The single-client traced run (--trace 1); writes the Chrome trace to
/// `trace_path`.
Result<Report> RunTraced(const Inputs& inputs, double seconds,
                         const std::string& trace_path);

}  // namespace secview::perfbench

#endif  // SECVIEW_PERFBENCH_BENCH_H_
