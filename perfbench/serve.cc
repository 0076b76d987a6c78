// The timed serving run: repeated set-up, warm-up, then a closed loop of
// `clients` threads over the request stream for a fixed time, every
// answer checked against the oracle.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "bench.h"

namespace secview::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per phase: at least kMinSetups, and more until kSetupSeconds
/// are spent. One phase runs before the timed window and one after it,
/// so the host's speed is sampled at both ends of the run; setup_s is
/// the median over both phases. Each set-up builds the engine from the
/// texts again, so a change that moves work into set-up shows.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 250;
constexpr double kSetupSeconds = 0.5;

/// Appends one phase of set-ups to `setups`, leaving the last server in
/// `server`. One engine and document are resident at a time.
Status SetUpPhase(const Inputs& in, std::unique_ptr<Server>& server,
                  std::vector<double>& setups) {
  double total = 0;
  for (int n = 0; n < kMinSetups || (total < kSetupSeconds && n < kMaxSetups);
       ++n) {
    server.reset();
    SetupTimes times;
    SECVIEW_ASSIGN_OR_RETURN(server, SetUp(in, &times, nullptr));
    setups.push_back(times.total_s);
    total += times.total_s;
  }
  return Status::OK();
}

/// Closed-loop warm-up before the timed window, after the warm-up list.
constexpr double kWarmupSeconds = 1.0;

/// LatencyHistogram layout: kSubBuckets linear buckets per power of two
/// of nanoseconds from 2^kSubBits on (one bucket per nanosecond below),
/// up to 2^kMaxExponent ns (about 37 minutes).
constexpr int kSubBits = 7;
constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBits;
constexpr int kMaxExponent = 41;
constexpr size_t kBuckets = kSubBuckets * (kMaxExponent - kSubBits + 1);

size_t BucketOf(double us) {
  const double ns = std::max(0.0, us * 1e3);
  if (ns >= std::ldexp(1.0, kMaxExponent)) return kBuckets - 1;
  const auto v = static_cast<uint64_t>(ns);
  if (v < kSubBuckets) return static_cast<size_t>(v);
  const int exponent = 63 - __builtin_clzll(v);
  const int shift = exponent - kSubBits;
  return static_cast<size_t>(kSubBuckets * (shift + 1) +
                             ((v >> shift) - kSubBuckets));
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : counts_(kBuckets, 0), sums_us_(kBuckets, 0.0) {}

void LatencyHistogram::Add(double us) {
  const size_t b = BucketOf(us);
  ++counts_[b];
  sums_us_[b] += us;
  ++count_;
  sum_us_ += us;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) {
    counts_[b] += other.counts_[b];
    sums_us_[b] += other.sums_us_[b];
  }
  count_ += other.count_;
  sum_us_ += other.sum_us_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const auto rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_))), 1,
      count_);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) return sums_us_[b] / static_cast<double>(counts_[b]);
  }
  return 0;
}

std::vector<ExecuteOptions> MakeOptions(const Inputs& in) {
  std::vector<ExecuteOptions> options(in.bindings.size());
  for (size_t b = 0; b < in.bindings.size(); ++b) {
    options[b].bindings = in.bindings[b];
  }
  return options;
}

Result<NodeSet> Serve(Server& server, const Inputs& in,
                      const std::vector<ExecuteOptions>& options,
                      const Request& r) {
  const std::string& policy = in.policies[r.policy].first;
  const std::string& text = in.queries[r.query];
  if (server.pool != nullptr) {
    std::vector<Result<ExecuteResult>> results = server.pool->ExecuteBatch(
        policy, server.doc, {text}, options[r.binding]);
    if (!results[0].ok()) return results[0].status();
    return std::move(results[0]->nodes);
  }
  SECVIEW_ASSIGN_OR_RETURN(
      ExecuteResult result,
      server.engine->Execute(policy, server.doc, text, options[r.binding]));
  return std::move(result.nodes);
}

Status WarmUp(Server& server, const Inputs& in,
              const std::vector<ExecuteOptions>& options,
              const Accessibility& access) {
  for (const Request& r : in.warmup) {
    SECVIEW_ASSIGN_OR_RETURN(NodeSet nodes, Serve(server, in, options, r));
    std::string error = CheckAnswer(in, access, r, nodes);
    if (!error.empty()) return Status::Internal("warm-up: " + error);
  }
  return Status::OK();
}

LoopResult ClosedLoop(Server& server, const Inputs& in,
                      const std::vector<ExecuteOptions>& options,
                      const Accessibility& access, size_t first,
                      double seconds, size_t max_requests) {
  LoopResult out;
  out.per_second.assign(static_cast<size_t>(std::ceil(seconds)) + 1, 0);
  std::atomic<size_t> next{0};
  std::mutex mu;  // guards out's merged fields
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&] {
    LatencyHistogram latency;
    std::vector<uint64_t> per_second(out.per_second.size(), 0);
    uint64_t attempted = 0, failed = 0, results = 0;
    std::string first_error;
    while (true) {
      const size_t i = next.fetch_add(1);
      if (max_requests > 0 ? i >= max_requests : Clock::now() >= deadline) {
        break;
      }
      const Request& r = in.stream[(first + i) % in.stream.size()];
      const auto t0 = Clock::now();
      Result<NodeSet> nodes = Serve(server, in, options, r);
      const auto t1 = Clock::now();
      ++attempted;
      latency.Add(std::chrono::duration<double, std::micro>(t1 - t0).count());
      std::string error = nodes.ok() ? CheckAnswer(in, access, r, *nodes)
                                     : nodes.status().ToString();
      if (!error.empty()) {
        ++failed;
        if (first_error.empty()) first_error = error;
        continue;
      }
      results += nodes->size();
      const auto second = static_cast<size_t>(
          std::chrono::duration<double>(t1 - start).count());
      ++per_second[std::min(second, per_second.size() - 1)];
    }
    std::lock_guard<std::mutex> lock(mu);
    out.latency.Merge(latency);
    for (size_t s = 0; s < per_second.size(); ++s) {
      out.per_second[s] += per_second[s];
    }
    out.attempted += attempted;
    out.failed += failed;
    out.results += results;
    if (out.first_error.empty()) out.first_error = first_error;
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < in.clients; ++c) threads.emplace_back(client);
  client();
  for (std::thread& t : threads) t.join();
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  out.next_index = first + next.load();
  return out;
}

Result<Report> RunServing(const Inputs& in, double seconds) {
  Report report;
  std::vector<double> setups;
  std::unique_ptr<Server> server;
  SECVIEW_RETURN_IF_ERROR(SetUpPhase(in, server, setups));

  SECVIEW_ASSIGN_OR_RETURN(Accessibility access,
                           ComputeAccessibilities(in, *server));
  const std::vector<ExecuteOptions> options = MakeOptions(in);
  SECVIEW_RETURN_IF_ERROR(WarmUp(*server, in, options, access));
  LoopResult warm = ClosedLoop(*server, in, options, access, 0,
                               kWarmupSeconds, 0);
  if (warm.failed > 0) {
    return Status::Internal("warm-up: " + warm.first_error);
  }

  const CpuTimes cpu0 = ReadCpuTimes();
  LoopResult timed = ClosedLoop(*server, in, options, access, warm.next_index,
                                seconds, 0);
  const CpuTimes cpu1 = ReadCpuTimes();
  const double cpu_ticks =
      std::max<double>(1, static_cast<double>(cpu1.total - cpu0.total));
  report.attempted = timed.attempted;
  report.failed = timed.failed;
  const uint64_t correct = timed.attempted - timed.failed;
  // The window's figures: correct answers over its wall time, and the
  // percentiles of all its latencies, so a stall anywhere in the window
  // shows. The per-second counts are printed for diagnosis.
  const double qps = static_cast<double>(correct) / timed.wall_s;
  std::vector<double> per_second;
  std::string seconds_line = "# correct answers per second:";
  for (size_t s = 0; s < timed.per_second.size(); ++s) {
    if (static_cast<double>(s + 1) > timed.wall_s) break;  // partial second
    per_second.push_back(static_cast<double>(timed.per_second[s]));
    seconds_line += " " + std::to_string(timed.per_second[s]);
  }
  const double median_second = Percentile(per_second, 0.5);
  const uint64_t samples = timed.latency.count();
  const double p50 = timed.latency.Percentile(0.50);
  const double p99 = timed.latency.Percentile(0.99);
  const uint64_t above_p99 =
      samples - static_cast<uint64_t>(std::ceil(0.99 * samples));
  const double error_rate = timed.attempted == 0
                                ? 1.0
                                : static_cast<double>(timed.failed) /
                                      static_cast<double>(timed.attempted);
  const double results_per_req =
      correct == 0 ? 0.0
                   : static_cast<double>(timed.results) /
                         static_cast<double>(correct);
  const double peak_rss = PeakRssMiB();  // before the second set-up phase
  SECVIEW_RETURN_IF_ERROR(SetUpPhase(in, server, setups));
  const size_t setup_count = setups.size();
  const double setup_s = Percentile(setups, 0.5);

  report.correct = timed.failed == 0 && timed.attempted > 0 &&
                   results_per_req > 0;
  report.notes.push_back(
      "# workload " + in.workload + " seed " + std::to_string(in.seed) +
      ": closed loop, " + std::to_string(in.clients) +
      " client(s) calling Execute, " + Fmt("%.3f", timed.wall_s) +
      " s timed");
  report.notes.push_back("setup_s " + Fmt("%.6f", setup_s) + " s (median of " +
                         std::to_string(setup_count) +
                         " set-ups before and after the timed window)");
  report.notes.push_back("qps " + Fmt("%.3f", qps) + " 1/s (" +
                         std::to_string(correct) + " correct answers in " +
                         Fmt("%.3f", timed.wall_s) +
                         " s; median whole second " +
                         Fmt("%.0f", median_second) + ")");
  report.notes.push_back(seconds_line);
  report.notes.push_back("request_p50_us " + Fmt("%.3f", p50) + " us");
  report.notes.push_back(
      "# latency p90 " + Fmt("%.1f", timed.latency.Percentile(0.90)) +
      " us, p99.9 " + Fmt("%.1f", timed.latency.Percentile(0.999)) +
      " us; host CPU during the window: " +
      Fmt("%.1f%% idle", 100.0 * static_cast<double>(cpu1.idle - cpu0.idle) /
                             cpu_ticks) +
      Fmt(", %.2f%% stolen", 100.0 *
                                 static_cast<double>(cpu1.steal - cpu0.steal) /
                                 cpu_ticks));
  report.notes.push_back("request_p99_us " + Fmt("%.3f", p99) + " us (" +
                         std::to_string(samples) + " samples, " +
                         std::to_string(above_p99) + " above p99)");
  report.notes.push_back("error_rate " + Fmt("%.6f", error_rate) + " ratio (" +
                         std::to_string(timed.failed) + " of " +
                         std::to_string(timed.attempted) + ")");
  report.notes.push_back("peak_rss_mb " + Fmt("%.3f", peak_rss) + " MiB");
  report.notes.push_back("# results per request " +
                         Fmt("%.3f", results_per_req));
  if (above_p99 < 10) {
    report.notes.push_back("# warning: fewer than 10 samples above p99");
  }
  if (!timed.first_error.empty()) {
    report.notes.push_back("# first failure: " + timed.first_error);
  }
  if (results_per_req == 0) {
    report.notes.push_back("# failure: every answer was empty");
  }
  report.metrics = {
      {"setup_s", setup_s, "s"},
      {"qps", qps, "1/s"},
      {"request_p50_us", p50, "us"},
      {"request_p99_us", p99, "us"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
  return report;
}

}  // namespace secview::perfbench
