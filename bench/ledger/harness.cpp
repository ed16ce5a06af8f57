#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_map>

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include "compiler/compiler.h"
#include "polybench/polybench.h"
#include "workload/workload.h"

namespace ledger {

// --- LatencyHistogram ----------------------------------------------------------

std::size_t LatencyHistogram::bucketOf(std::uint64_t ns) noexcept {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int exponent = 63 - __builtin_clzll(ns);
  if (exponent > kMaxExponent) return kBuckets - 1;
  const std::uint64_t sub = (ns >> (exponent - kSubBits)) & (kSub - 1);
  return static_cast<std::size_t>(
      kSub + static_cast<std::uint64_t>(exponent - kSubBits) * kSub + sub);
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LatencyHistogram::quantile(double q) const {
  if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) continue;
    double lower = static_cast<double>(i);
    double width = 1.0;
    if (i >= kSub) {
      const std::size_t k = i - kSub;
      const int shift = static_cast<int>(k / kSub);
      lower = std::ldexp(static_cast<double>(kSub + k % kSub), shift);
      width = std::ldexp(1.0, shift);
    }
    const double fraction = (target - static_cast<double>(before)) /
                            static_cast<double>(counts_[i]);
    return lower + width * std::clamp(fraction, 0.0, 1.0);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// --- Steal-aware windows ---------------------------------------------------------

std::int64_t stealTicks() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long fields[8] = {};
  const int read = std::fscanf(
      stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &fields[0],
      &fields[1], &fields[2], &fields[3], &fields[4], &fields[5], &fields[6],
      &fields[7]);
  std::fclose(stat);
  return read == 8 ? static_cast<std::int64_t>(fields[7]) : 0;
}

double cpuTicksPerSlice() {
  return static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)) *
         static_cast<double>(::sysconf(_SC_CLK_TCK)) *
         static_cast<double>(kSliceNs) * 1e-9;
}

WindowSummary summarize(const std::vector<SlicedRecorder>& callers,
                        const std::vector<bool>& counted) {
  WindowSummary summary;
  LatencyHistogram all;
  std::size_t slices = 0;
  for (std::size_t k = 0; k < counted.size(); ++k) {
    if (!counted[k]) continue;
    ++slices;
    for (const SlicedRecorder& caller : callers) {
      all.merge(caller.latency(k));
      summary.decisions += caller.decisions(k);
    }
  }
  summary.requests = all.count();
  summary.decisionsPerSecond =
      static_cast<double>(summary.decisions) /
      (static_cast<double>(slices) * static_cast<double>(kSliceNs) * 1e-9);
  summary.p50Us = all.quantile(0.50) * 1e-3;
  summary.p99Us = all.quantile(0.99) * 1e-3;
  return summary;
}

// --- Spans -----------------------------------------------------------------------

std::uint64_t SpanBuffer::reserveId() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

bool TraceLog::writeChromeJson(const std::string& path) const {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& buffer : buffers) {
    buffer->forEach(
        [&](const Span& span) { origin = std::min(origin, span.startNs); });
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
  const char* separator = "";
  for (std::size_t tid = 0; tid < buffers.size(); ++tid) {
    buffers[tid]->forEach([&](const Span& span) {
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"request\":%llu}}",
                   separator, span.name, tid,
                   static_cast<double>(span.startNs - origin) * 1e-3,
                   static_cast<double>(span.endNs - span.startNs) * 1e-3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request));
      separator = ",";
    });
  }
  std::fputs("\n]}\n", out);
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

// --- Stacks ------------------------------------------------------------------------

runtime::RuntimeOptions serviceRuntimeOptions() {
  runtime::RuntimeOptions options;
  options.selector.cpuThreads = 160;
  options.cpuSimThreads = 160;
  return options;
}

std::vector<ir::TargetRegion> suiteRegions() {
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      regions.push_back(kernel);
    }
  }
  return regions;
}

Stack& Stack::operator=(Stack&& other) noexcept {
  if (this != &other) {
    clients.clear();
    server.reset();
    runtime.reset();
    runtime = std::move(other.runtime);
    server = std::move(other.server);
    clients = std::move(other.clients);
  }
  return *this;
}

Stack::~Stack() {
  clients.clear();
  server.reset();
}

std::string socketPath() {
  // Relative to the working directory (the checkout root): the path stays
  // short of sun_path's limit however deep the checkout sits.
  ::mkdir(".bench_build", 0755);
  return ".bench_build/osel_ledger-" + std::to_string(::getpid()) + ".sock";
}

Stack buildRuntimeStack(const runtime::RuntimeOptions& options,
                        const mca::MachineModel& model) {
  Stack stack;
  std::vector<ir::TargetRegion> regions = suiteRegions();
  const std::array<mca::MachineModel, 1> models{model};
  stack.runtime = std::make_unique<runtime::TargetRuntime>(
      compiler::compileAll(regions, models), options);
  for (ir::TargetRegion& region : regions) {
    stack.runtime->registerRegion(std::move(region));
  }
  return stack;
}

Stack buildServedStack(const runtime::RuntimeOptions& options,
                       std::size_t workers, std::size_t connections,
                       const std::string& socket) {
  Stack stack;
  std::vector<ir::TargetRegion> regions = suiteRegions();
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  service::ServiceOptions serviceOptions;
  serviceOptions.socketPath = socket;
  serviceOptions.workerThreads = workers;
  stack.server = std::make_unique<service::Server>(
      compiler::compileAll(regions, models), options, serviceOptions);
  for (ir::TargetRegion& region : regions) {
    stack.server->registerRegion(std::move(region));
  }
  stack.server->start();
  for (std::size_t c = 0; c < connections; ++c) {
    stack.clients.push_back(service::Client::connect(socket));
  }
  return stack;
}

// --- Streams -------------------------------------------------------------------------

Catalog makeCatalog(std::vector<std::int64_t> sizes) {
  Catalog catalog;
  catalog.sizes = std::move(sizes);
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    std::vector<symbolic::Bindings> choices;
    choices.reserve(catalog.sizes.size());
    for (const std::int64_t n : catalog.sizes) {
      choices.push_back(benchmark.bindings(n));
    }
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      catalog.regions.push_back(kernel.name);
      catalog.bindings.push_back(choices);
    }
  }
  return catalog;
}

std::vector<Request> zipfianStream(const Catalog& catalog, std::uint64_t seed,
                                   std::size_t count) {
  std::vector<workload::Candidate> candidates;
  std::unordered_map<std::string, std::uint32_t> regionIndex;
  for (std::uint32_t r = 0; r < catalog.regions.size(); ++r) {
    candidates.push_back({catalog.regions[r], catalog.bindings[r]});
    regionIndex.emplace(catalog.regions[r], r);
  }
  std::unordered_map<std::int64_t, std::uint32_t> sizeIndex;
  for (std::uint32_t s = 0; s < catalog.sizes.size(); ++s) {
    sizeIndex.emplace(catalog.sizes[s], s);
  }
  workload::GeneratorOptions options;
  options.seed = seed;
  options.zipfExponent = 1.2;
  workload::Generator generator(workload::Shape::Zipfian,
                                std::move(candidates), options);
  std::vector<Request> stream(count);
  workload::Item item;
  for (Request& request : stream) {
    generator.next(item);
    request.region = regionIndex.at(item.region);
    request.size = sizeIndex.at(item.bindings.at("n"));
  }
  return stream;
}

std::vector<Block> frameStream(const Catalog& catalog,
                               const std::vector<Request>& stream,
                               std::size_t rows, bool flushPartial) {
  std::vector<Block> blocks;
  std::vector<std::vector<std::uint32_t>> pending(catalog.regions.size());
  const auto flush = [&](std::uint32_t region) {
    Block block;
    block.region = region;
    block.sizes = std::move(pending[region]);
    pending[region].clear();
    for (const std::uint32_t size : block.sizes) {
      block.values.push_back(catalog.sizes[size]);
    }
    blocks.push_back(std::move(block));
  };
  for (const Request& request : stream) {
    pending[request.region].push_back(request.size);
    if (pending[request.region].size() >= rows) flush(request.region);
  }
  if (flushPartial) {
    for (std::uint32_t r = 0; r < pending.size(); ++r) {
      if (!pending[r].empty()) flush(r);
    }
  }
  return blocks;
}

// --- Checks and measurements ---------------------------------------------------------

bool sameDecision(const runtime::Decision& a, const runtime::Decision& b) {
  return a.device == b.device && a.valid == b.valid &&
         a.diagnostic == b.diagnostic &&
         std::memcmp(&a.cpu.seconds, &b.cpu.seconds, sizeof(double)) == 0 &&
         std::memcmp(&a.gpu.totalSeconds, &b.gpu.totalSeconds,
                     sizeof(double)) == 0;
}

std::uint64_t countMismatches(runtime::TargetRuntime& reference,
                              const Catalog& catalog,
                              const std::vector<Request>& requests,
                              const std::vector<runtime::Decision>& got,
                              std::string& note) {
  std::vector<runtime::DecideRequest> batch(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    batch[i] = {catalog.regions[requests[i].region],
                &catalog.at(requests[i].region, requests[i].size)};
  }
  std::vector<runtime::Decision> expected(requests.size());
  reference.decideBatch(batch, expected);
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i < got.size() && sameDecision(got[i], expected[i])) continue;
    if (mismatches == 0) {
      note = format("first mismatch at item %zu (%s n=%lld)", i,
                    catalog.regions[requests[i].region].c_str(),
                    static_cast<long long>(catalog.sizes[requests[i].size]));
    }
    ++mismatches;
  }
  return mismatches;
}

double hitRatio(const runtime::DecisionCache::Stats& before,
                const runtime::DecisionCache::Stats& after) {
  const std::uint64_t lookups = after.lookups - before.lookups;
  return lookups == 0 ? 0.0
                      : static_cast<double>(after.hits - before.hits) /
                            static_cast<double>(lookups);
}

runtime::DecisionCache::Stats cacheStats(const runtime::TargetRuntime& runtime,
                                         const Catalog& catalog) {
  runtime::DecisionCache::Stats total;
  for (const std::string& region : catalog.regions) {
    const runtime::DecisionCache::Stats stats =
        runtime.decisionCacheStats(region);
    total.lookups += stats.lookups;
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.evictions += stats.evictions;
    total.insertions += stats.insertions;
  }
  return total;
}

double peakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double quantileOf(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(rank);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] +
         (values[high] - values[low]) * (rank - static_cast<double>(low));
}

std::string format(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

}  // namespace ledger
