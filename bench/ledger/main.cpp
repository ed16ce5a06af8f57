// osel_ledger — runs one workload of the osel performance ledger and prints
// its metrics, each by name with its unit, followed by one JSON result line.
//
//   osel_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics (and, with
// --trace-out, writes its spans as Chrome trace JSON). Exit status 0 means
// every request succeeded and every output check passed; on a failed check
// the result line is still printed, with "correct": false, and the status
// is 1. Run it from the checkout root (see README.md).
#include <cmath>
#include <cstdio>

#include "harness.h"
#include "support/cli.h"

namespace {

using namespace ledger;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"decisions_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"compiler.analyze_us", "us"},
    {"ipda.analyze_us", "us"},
    {"mca.cycles_us", "us"},
    {"runtime.register_us", "us"},
    {"obs.clock_ns", "ns"},
    {"runtime.lookup_ns", "ns"},
    {"plan.bind_ns", "ns"},
    {"plan.complete_ns", "ns"},
    {"cpumodel.predict_ns", "ns"},
    {"gpumodel.predict_ns", "ns"},
    {"policy.choose_ns", "ns"},
    {"selector.from_workloads_ns", "ns"},
    {"cache.find_ns", "ns"},
    {"cache.insert_ns", "ns"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_decision", "ratio"},
    {"runtime.decide_ns", "ns"},
    {"runtime.decide_batch_ns", "ns"},
    {"codec.encode_request_ns", "ns"},
    {"codec.parse_request_ns", "ns"},
    {"codec.encode_reply_ns", "ns"},
    {"codec.parse_reply_ns", "ns"},
    {"codec.request_bytes", "bytes"},
    {"codec.reply_bytes", "bytes"},
    {"client.ping_us", "us"},
    {"client.roundtrip_us", "us"},
    {"server.decode_us", "us"},
    {"server.decide_us", "us"},
    {"server.encode_us", "us"},
    {"server.send_us", "us"},
    {"server.request_us", "us"},
    {"server.share_of_roundtrip", "ratio"},
    {"attribution.decide", "ratio"},
    {"ledger.trace_overhead", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: osel_ledger --workload serve_hot|serve_cold_batch "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

/// Puts the workload's metrics in the declared order; false (with a
/// message) when one is missing, repeated, undeclared or not finite.
template <std::size_t N>
bool ordered(const MetricSpec (&specs)[N], std::vector<Metric>& metrics) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    int found = 0;
    for (const Metric& metric : metrics) {
      if (metric.name != spec.name) continue;
      ++found;
      if (metric.unit != spec.unit || !std::isfinite(metric.value)) {
        std::fprintf(stderr, "osel_ledger: metric %s = %g %s is invalid\n",
                     spec.name, metric.value, metric.unit.c_str());
        return false;
      }
      out.push_back(metric);
    }
    if (found != 1) {
      std::fprintf(stderr, "osel_ledger: metric %s reported %d times\n",
                   spec.name, found);
      return false;
    }
  }
  if (out.size() != metrics.size()) {
    std::fprintf(stderr, "osel_ledger: undeclared metrics reported\n");
    return false;
  }
  metrics = std::move(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const osel::support::CommandLine cl =
      osel::support::CommandLine::parse(argc, argv);
  RunOptions options;
  options.workload = cl.stringOption("workload").value_or("");
  options.seed = static_cast<std::uint64_t>(cl.intOption("seed", 2019));
  options.seconds = cl.doubleOption("seconds", 20.0);
  options.traced = cl.intOption("trace", 0) != 0;
  options.traceOut = cl.stringOption("trace-out").value_or("");
  if (!(options.seconds > 0.0)) return usage();

  Result (*run)(const RunOptions&, TraceLog*) = nullptr;
  if (options.workload == "serve_hot") run = runServeHot;
  if (options.workload == "serve_cold_batch") run = runServeColdBatch;
  if (run == nullptr) return usage();

  std::unique_ptr<TraceLog> trace;
  if (options.traced) trace = std::make_unique<TraceLog>();
  Result result;
  try {
    result = run(options, trace.get());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "osel_ledger: %s: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }
  const bool valid = options.traced ? ordered(kPerLayer, result.metrics)
                                    : ordered(kEndToEnd, result.metrics);
  if (!valid) return 1;
  if (trace != nullptr && !options.traceOut.empty()) {
    if (!trace->writeChromeJson(options.traceOut)) {
      std::fprintf(stderr, "osel_ledger: cannot write %s\n",
                   options.traceOut.c_str());
      return 1;
    }
    std::uint64_t dropped = 0;
    for (const auto& buffer : trace->buffers) dropped += buffer->dropped();
    result.note(format("spans written to %s (%llu older spans overwritten)",
                       options.traceOut.c_str(),
                       static_cast<unsigned long long>(dropped)));
  }

  std::printf("osel_ledger %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.traced ? 1 : 0);
  for (const std::string& line : result.notes) {
    std::printf("  %s\n", line.c_str());
  }
  for (const Metric& metric : result.metrics) {
    std::printf("  %-30s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  return result.failed == 0 ? 0 : 1;
}
