// netout benchmark program. Runs one workload for a fixed time, checks
// every answer against a reference engine, and prints one JSON result
// line last on stdout.
//
//   netout_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --scratch DIR [--spans-out FILE] [--commit SHA]
//                    [--source-digest HEX] [--inject-mismatch]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics of a separate traced run (see replay.h). The
// workloads and metrics are described in perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "inputs.h"
#include "loadgen.h"
#include "metapath/kernels.h"
#include "query/engine.h"
#include "replay.h"
#include "system.h"
#include "util.h"
#include "verify.h"

namespace perfbench {
namespace {

using netout::Engine;
using netout::QueryResult;
using netout::Result;

/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Measurement windows per run; each end-to-end latency and throughput
/// figure is the median over them. A multiple of the usual 4 CPUs, so
/// each CPU hosts as many windows as any other.
constexpr std::size_t kWindows = 12;
/// Served workloads: share of the run spent warming up, and the shares
/// of the rest spent on the throughput and the latency rounds.
constexpr double kWarmUpShare = 0.05;
constexpr double kThroughputShare = 0.45;
/// Share of a traced run's daemon pass given to the rate ladder.
constexpr double kLadderShare = 0.4;
/// Requests kept outstanding by the closed-loop throughput phase.
constexpr std::size_t kClosedInFlight = 8;
/// Fixed open-loop rate ladder (requests/s), equal time per rung. The
/// nominal rung is where the generator's and server's timings are taken.
constexpr double kLadder[] = {250,  500,  1000, 2000, 3000,
                              4000, 5000, 6000, 8000};
constexpr std::size_t kNominalRung = 2;
/// A rung counts toward max_rate_qps when its p99 stays within this.
constexpr double kLatencyLimitMs = 5.0;
constexpr std::size_t kConnections = 4;
/// Request rate no run reaches here; bookkeeping is reserved for it up
/// front, so its growth never doubles a buffer and lifts peak_rss_mb.
constexpr double kMaxRequestsPerSecond = 20000;
/// Threads used for reference answers (outside the timed region).
constexpr std::size_t kCheckThreads = 4;
/// The seed held out from tuning, for confirming a claimed gain.
constexpr std::uint64_t kHeldOutSeed = 20150323;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scratch = ".bench_build/scratch";
  std::string spans_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool inject_mismatch = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value().c_str());
    } else if (flag == "--scratch") {
      args.scratch = value();
    } else if (flag == "--spans-out") {
      args.spans_out = value();
    } else if (flag == "--commit") {
      args.commit = value();
    } else if (flag == "--source-digest") {
      args.source_digest = value();
    } else if (flag == "--inject-mismatch") {
      args.inject_mismatch = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    Die("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0) || (args.trace != 0 && args.trace != 1)) {
    Die("--seconds must be positive and --trace 0 or 1");
  }
  return args;
}

std::int64_t SecondsToNs(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

/// What one run observed: answers to check plus measurements.
struct Observed {
  std::vector<QueryAnswer> answers;
  std::vector<MutationAck> acks;
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  double throughput_qps = 0.0;
  double max_rate_qps = 0.0;
  double mutation_p50_ms = 0.0;
  double mutation_p99_ms = 0.0;
  double nominal_p50_ms = 0.0;
  double nominal_p99_ms = 0.0;
  double late_ms_p99 = 0.0;
  double achieved_rate_qps = 0.0;
  double queue_ms_p99 = 0.0;
  double wire_ms_p99 = 0.0;
  std::size_t samples = 0;
};

/// Latency percentiles and throughput of one measurement window.
struct Window {
  std::vector<double> latency_ms;
  double seconds = 0.0;
  std::size_t completed = 0;
};

/// Median over windows of each window's p50, p99 and completion rate.
/// A stall of the host that lasts a few hundred milliseconds spoils one
/// window, not the run.
void Summarize(const std::vector<Window>& windows, Observed* out) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
  for (const Window& w : windows) {
    out->samples += w.latency_ms.size();
    p50.push_back(Quantile(w.latency_ms, 0.5));
    p99.push_back(Quantile(w.latency_ms, 0.99));
    rate.push_back(static_cast<double>(w.completed) / w.seconds);
  }
  out->query_p50_ms = Median(p50);
  out->query_p99_ms = Median(p99);
  out->throughput_qps = Median(rate);
}

/// In-process closed loop: one client calling Engine::Execute back to
/// back. The first 5% of the time warms up; the rest is split into
/// kWindows measurement windows, each run on another CPU so that one
/// slow CPU of a shared host sways one window, not the median.
Observed RunInProcess(const System& system, const Inputs& inputs,
                      double seconds) {
  Observed out;
  Engine engine(system.hin());
  const auto expected =
      static_cast<std::size_t>(kMaxRequestsPerSecond * seconds);
  out.answers.reserve(expected);
  std::vector<Window> windows(kWindows);
  for (Window& w : windows) w.latency_ms.reserve(expected / kWindows);
  const std::int64_t start = NowNs();
  const std::int64_t measure_from = start + SecondsToNs(0.05 * seconds);
  const std::int64_t end = start + SecondsToNs(seconds);
  const std::int64_t window_ns = (end - measure_from) / kWindows;
  for (Window& w : windows) w.seconds = NsToS(window_ns);
  std::optional<OneCpu> pinned;
  std::size_t pinned_window = kWindows;
  std::int64_t now = start;
  for (std::size_t i = 0; now < end; ++i) {
    const std::size_t position = i % inputs.size();
    const std::int64_t before = NowNs();
    Result<QueryResult> result = engine.Execute(inputs.queries[position]);
    now = NowNs();
    if (before >= measure_from) {
      const std::size_t window = std::min<std::size_t>(
          kWindows - 1,
          static_cast<std::size_t>((before - measure_from) / window_ns));
      windows[window].latency_ms.push_back(NsToMs(now - before));
      ++windows[window].completed;
      // The next query belongs to this window or a later one.
      if (window != pinned_window) {
        pinned.reset();
        pinned.emplace(window);
        pinned_window = window;
      }
    }
    QueryAnswer answer;
    answer.position = position;
    answer.ok = result.ok() && !result.value().degraded;
    if (result.ok()) {
      answer.epoch = result.value().stats.graph_epoch;
      answer.digest = AnswerDigest(result.value().outliers);
    }
    out.answers.push_back(answer);
  }
  Summarize(windows, &out);
  return out;
}

/// Served workloads. After a closed-loop warm-up that fills the cache,
/// kWindows rounds alternate two measurements, then (with `ladder`) the
/// rate ladder runs:
///  - throughput: a closed loop keeping kClosedInFlight requests
///    outstanding;
///  - latency: one request outstanding at a time, the latency a client
///    that waits for each answer (netout_client) sees. Each wake-up
///    stall of the host then delays one request, not every request due
///    during it, which keeps the reported percentiles repeatable;
///  - the open-loop rate ladder: Poisson arrivals, each rung timed from
///    scheduled send times, for max_rate_qps and the generator's and
///    server's own timings at the nominal rate. Only the traced run
///    reports these, so the end-to-end run leaves the ladder out.
Observed RunServed(const System& system, const Inputs& inputs,
                   double seconds, std::uint64_t seed, bool ladder) {
  // Record phases: rung k is kFirstRung + k; round r of the throughput
  // and latency measurements is kThroughput + r and kLatency + r.
  enum Phase {
    kWarmUp = 0,
    kFirstRung = 1,
    kThroughput = 100,
    kLatency = 200,
  };
  Observed out;
  const auto expected =
      static_cast<std::size_t>(kMaxRequestsPerSecond * seconds);
  LoadClient client(system.server()->port(), kConnections, inputs, expected);

  client.RunClosed(NowNs() + SecondsToNs(kWarmUpShare * seconds),
                   kClosedInFlight, kWarmUp);
  client.Drain(NowNs() + SecondsToNs(30));
  const double round_seconds =
      (1.0 - kWarmUpShare - (ladder ? kLadderShare : 0.0)) * seconds /
      kWindows;
  std::vector<Window> windows(kWindows);
  std::vector<std::pair<std::int64_t, std::int64_t>> throughput_spans;
  for (std::size_t round = 0; round < kWindows; ++round) {
    // Each round keeps every thread, client and server, on one CPU: a
    // hand-off between the generator and the server's threads is then a
    // local context switch, not the wake-up of another virtual CPU, which
    // a shared host may leave descheduled for milliseconds. Throughput is
    // thus the daemon's rate on one CPU. Rounds rotate over the CPUs, so
    // one slow CPU sways a few rounds, not the median.
    const OneCpu one_cpu(round);
    const std::int64_t from = NowNs();
    const std::int64_t to =
        from + SecondsToNs(kThroughputShare * round_seconds);
    client.RunClosed(to, kClosedInFlight,
                     kThroughput + static_cast<int>(round));
    client.Drain(NowNs() + SecondsToNs(30));
    windows[round].seconds = NsToS(to - from);
    throughput_spans.emplace_back(from, to);
    client.RunClosed(
        NowNs() + SecondsToNs((1.0 - kThroughputShare) * round_seconds), 1,
        kLatency + static_cast<int>(round));
    client.Drain(NowNs() + SecondsToNs(30));
  }

  constexpr std::size_t kRungs = std::size(kLadder);
  const double rung_seconds = kLadderShare * seconds / kRungs;
  netout::Rng rng(seed ^ 0x6c6164646572ULL);
  std::int64_t rung_start = NowNs();
  std::size_t rungs_run = 0;
  for (std::size_t k = 0; ladder && k < kRungs; ++k) {
    const std::int64_t rung_end = rung_start + SecondsToNs(rung_seconds);
    // A backlog of 50 ms of arrivals means the rung cannot keep up.
    const auto max_in_flight =
        static_cast<std::size_t>(std::max(64.0, kLadder[k] * 0.05));
    const bool kept_up =
        client.RunOpen(kLadder[k], rung_start, rung_end, max_in_flight,
                       kFirstRung + static_cast<int>(k), &rng);
    ++rungs_run;
    rung_start = rung_end;
    if (!kept_up) break;
  }
  client.Drain(NowNs() + SecondsToNs(30));

  out.answers.reserve(client.records().size());
  std::vector<double> mutation_latency;
  std::vector<std::vector<double>> rung_latency(kRungs);
  std::vector<bool> rung_complete(kRungs, true);
  std::vector<double> late;
  std::vector<double> queue;
  std::vector<double> wire;
  std::size_t nominal_sent = 0;
  for (const ClientRecord& r : client.records()) {
    const bool answered = r.done_ns >= 0;
    const bool query = r.mutation < 0;
    const double ms =
        answered ? NsToMs(r.done_ns - r.scheduled_ns) : INFINITY;
    if (r.phase >= kLatency) {
      if (query) {
        windows[static_cast<std::size_t>(r.phase - kLatency)]
            .latency_ms.push_back(ms);
      } else {
        mutation_latency.push_back(ms);
      }
    } else if (r.phase >= kThroughput) {
      const auto round = static_cast<std::size_t>(r.phase - kThroughput);
      if (query && answered && r.done_ns <= throughput_spans[round].second) {
        ++windows[round].completed;
      }
    } else if (r.phase >= kFirstRung) {
      const auto k = static_cast<std::size_t>(r.phase - kFirstRung);
      if (!answered || !r.ok) rung_complete[k] = false;
      if (query) rung_latency[k].push_back(ms);
      if (k == kNominalRung) {
        ++nominal_sent;
        late.push_back(NsToMs(r.sent_ns - r.scheduled_ns));
        if (answered && query) {
          queue.push_back(r.server_latency_ms - r.server_total_ms);
          wire.push_back(NsToMs(r.done_ns - r.sent_ns) - r.server_latency_ms);
        }
      }
    }
    if (query) {
      QueryAnswer answer;
      answer.position = r.position;
      answer.epoch = r.epoch;
      answer.ok = answered && r.ok;
      answer.wire = true;
      answer.digest = r.digest;
      out.answers.push_back(std::move(answer));
    } else {
      out.acks.push_back(MutationAck{static_cast<std::size_t>(r.mutation),
                                     answered && r.ok, r.epoch});
    }
  }
  for (std::size_t k = 0; k < rungs_run; ++k) {
    std::fprintf(stderr,
                 "perfbench: rung %.0f/s: %zu queries, p50 %.3f ms, p99 "
                 "%.3f ms%s\n",
                 kLadder[k], rung_latency[k].size(),
                 Quantile(rung_latency[k], 0.5),
                 Quantile(rung_latency[k], 0.99),
                 rung_complete[k] ? "" : ", not all answered");
  }
  for (std::size_t k = 0; k < rungs_run; ++k) {
    if (!rung_complete[k] ||
        Quantile(rung_latency[k], 0.99) > kLatencyLimitMs) {
      break;
    }
    out.max_rate_qps = kLadder[k];
  }
  Summarize(windows, &out);
  out.mutation_p50_ms = Quantile(mutation_latency, 0.5);
  out.mutation_p99_ms = Quantile(mutation_latency, 0.99);
  out.nominal_p50_ms = Quantile(rung_latency[kNominalRung], 0.5);
  out.nominal_p99_ms = Quantile(rung_latency[kNominalRung], 0.99);
  out.late_ms_p99 = Quantile(late, 0.99);
  out.achieved_rate_qps = static_cast<double>(nominal_sent) / rung_seconds;
  out.queue_ms_p99 = Quantile(queue, 0.99);
  out.wire_ms_p99 = Quantile(wire, 0.99);
  return out;
}

/// Corrupts one stored answer, so the check must report it.
void InjectMismatch(std::vector<QueryAnswer>* answers) {
  for (QueryAnswer& answer : *answers) {
    if (answer.ok) {
      answer.digest ^= 1;
      return;
    }
  }
}

void PrintRunRecord(const Args& args) {
  // Not a JSON line of its own, so it can never be taken for the result.
  std::printf(
      "run record: {\"workload\": %s, \"seed\": %llu, "
      "\"held_out_seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"commit\": %s, \"source_digest\": %s, \"build_type\": %s, "
      "\"kernel_variant\": %s, \"nproc\": %u}\n",
      JsonQuote(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kHeldOutSeed),
      FormatDouble(args.seconds).c_str(), args.trace,
      JsonQuote(args.commit).c_str(), JsonQuote(args.source_digest).c_str(),
      JsonQuote(NETOUT_PERFBENCH_BUILD_TYPE).c_str(),
      JsonQuote(netout::KernelVariantName(netout::ActiveKernelVariant()))
          .c_str(),
      std::thread::hardware_concurrency());
}

void AddChecked(const VerifyStats& more, VerifyStats* total) {
  std::fprintf(stderr,
               "perfbench: checked %zu answers and %zu mutations, %zu "
               "failed, %zu mismatched\n",
               more.queries, more.mutations, more.failed, more.mismatched);
  total->queries += more.queries;
  total->mutations += more.mutations;
  total->failed += more.failed;
  total->mismatched += more.mismatched;
}

/// --trace 0: the end-to-end metrics.
void MeasureEndToEnd(const WorkloadSpec& spec, const Args& args,
                     MetricList* metrics, VerifyStats* checked) {
  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<System> system;
  for (int i = 0; i < kSetupRepeats; ++i) {
    system.reset();
    system = std::make_unique<System>(spec, args.scratch, true);
    setups.push_back(system->setup_s());
  }
  const Inputs inputs = MakeInputs(system->dataset(), spec, args.seed);
  Observed observed =
      spec.served ? RunServed(*system, inputs, args.seconds, args.seed, false)
                  : RunInProcess(*system, inputs, args.seconds);
  const double peak_rss_mb = PeakRssMb();
  if (args.inject_mismatch) InjectMismatch(&observed.answers);
  AddChecked(Verify(system->dataset().hin, inputs, observed.answers,
                    observed.acks, kCheckThreads),
             checked);
  std::fprintf(stderr, "perfbench: %zu latency samples\n", observed.samples);
  metrics->Add("setup_s", Median(setups), "s");
  metrics->Add("query_p50_ms", observed.query_p50_ms, "ms");
  metrics->Add("query_p99_ms", observed.query_p99_ms, "ms");
  metrics->Add("throughput_qps", observed.throughput_qps, "1/s");
  metrics->Add("peak_rss_mb", peak_rss_mb, "MiB");
}

/// --trace 1: the per-layer metrics. Served workloads first run a
/// half-length untraced daemon pass for the counters only the daemon path
/// has (server, load generator, cache, rate ladder); then a fresh system
/// is set up and the traced replay runs.
void MeasureLayers(const WorkloadSpec& spec, const Args& args,
                   MetricList* metrics, VerifyStats* checked) {
  Observed observed;
  netout::CachedIndex::Stats cache_stats;
  netout::ServerStatsSnapshot server_stats;
  std::unique_ptr<Inputs> inputs;
  if (spec.served) {
    System system(spec, args.scratch, true);
    inputs = std::make_unique<Inputs>(
        MakeInputs(system.dataset(), spec, args.seed));
    observed =
        RunServed(system, *inputs, 0.5 * args.seconds, args.seed, true);
    cache_stats = system.cache()->stats();
    server_stats = system.server()->stats();
    if (args.inject_mismatch) InjectMismatch(&observed.answers);
    AddChecked(Verify(system.dataset().hin, *inputs, observed.answers,
                      observed.acks, kCheckThreads),
               checked);
  }
  System system(spec, args.scratch, false);
  if (inputs == nullptr) {
    inputs = std::make_unique<Inputs>(
        MakeInputs(system.dataset(), spec, args.seed));
  }
  Replayer replayer(spec, &system, *inputs);
  replayer.Run(SecondsToNs(0.5 * args.seconds));
  std::vector<QueryAnswer> replayed = replayer.answers();
  if (args.inject_mismatch && !spec.served) InjectMismatch(&replayed);
  AddChecked(Verify(system.dataset().hin, *inputs, replayed, replayer.acks(),
                    kCheckThreads),
             checked);
  if (!args.spans_out.empty() && !replayer.tracer().Write(args.spans_out)) {
    Die("cannot write " + args.spans_out);
  }

  replayer.AddMetrics(metrics);
  metrics->Add("graph.build_s", system.graph_build_s(), "s");
  metrics->Add("index.build_s", system.index_build_s(), "s");
  metrics->Add("index.bytes",
               system.spm() != nullptr
                   ? static_cast<double>(system.spm()->MemoryBytes())
                   : 0.0,
               "B");
  metrics->Add("index.cache_hit_ratio",
               Ratio(static_cast<double>(cache_stats.hits),
                     static_cast<double>(cache_stats.hits +
                                         cache_stats.misses)),
               "ratio");
  metrics->Add("index.cache_evictions",
               static_cast<double>(cache_stats.evictions), "count");
  metrics->Add("index.cache_invalidated",
               static_cast<double>(cache_stats.invalidated), "count");
  metrics->Add("index.cache_stale_lookups",
               static_cast<double>(cache_stats.stale_lookups), "count");
  metrics->Add("server.queue_ms_p99", observed.queue_ms_p99, "ms");
  metrics->Add("server.wire_ms_p99", observed.wire_ms_p99, "ms");
  metrics->Add("server.batch_size_mean",
               Ratio(static_cast<double>(
                         server_stats.queries_ok + server_stats.queries_error +
                         server_stats.mutations_ok +
                         server_stats.mutations_error),
                     static_cast<double>(server_stats.batches)),
               "count");
  metrics->Add("server.shed_count",
               static_cast<double>(server_stats.queries_shed), "count");
  metrics->Add("server.refused_count",
               static_cast<double>(server_stats.queries_refused), "count");
  metrics->Add("server.degraded_count",
               static_cast<double>(server_stats.queries_degraded), "count");
  metrics->Add("loadgen.nominal_p50_ms", observed.nominal_p50_ms, "ms");
  metrics->Add("loadgen.nominal_p99_ms", observed.nominal_p99_ms, "ms");
  metrics->Add("loadgen.late_ms_p99", observed.late_ms_p99, "ms");
  metrics->Add("loadgen.achieved_rate_qps", observed.achieved_rate_qps,
               "1/s");
  metrics->Add("max_rate_qps", observed.max_rate_qps, "1/s");
  metrics->Add("mutation_p50_ms", observed.mutation_p50_ms, "ms");
  metrics->Add("mutation_p99_ms", observed.mutation_p99_ms, "ms");
  metrics->Add("failed_frac",
               Ratio(static_cast<double>(checked->failed + checked->mismatched),
                     static_cast<double>(checked->queries +
                                         checked->mutations)),
               "ratio");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  PrintRunRecord(args);
  std::fflush(stdout);

  MetricList metrics;
  VerifyStats checked;
  if (args.trace == 0) {
    MeasureEndToEnd(spec, args, &metrics, &checked);
  } else {
    MeasureLayers(spec, args, &metrics, &checked);
  }

  const std::size_t attempted = checked.queries + checked.mutations;
  const std::size_t failed = checked.failed + checked.mismatched;
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
