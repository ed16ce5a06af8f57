// Per-layer timing for the traced run. Each layer's public functions are
// called from outside, in loops over the workload's own requests grouped
// the way its decide path groups them (one request at a time for scalar
// decide, 64-row frames for decideBatch), and reported as the median time
// per call over repeated passes. Only the column/bulk forms of the plan and
// cache APIs are timed: they are the forms every decide path is converging
// on, a scalar decide being a batch of one.
#include <cmath>
#include <functional>
#include <span>

#include "compiler/compiler.h"
#include "harness.h"
#include "ipda/ipda.h"
#include "service/codec.h"

namespace ledger {

namespace {

/// Keeps results of timed calls observable so the optimizer cannot drop
/// the calls.
volatile double gSink = 0.0;

class LayerTimer {
 public:
  LayerTimer(SpanBuffer& spans, std::uint64_t parent, double budgetSeconds)
      : spans_(spans), parent_(parent), budgetNs_(budgetSeconds * 1e9) {}

  /// Runs `pass` once untimed (caches and lazy state settle), then timed
  /// until the budget is spent (at least 3 passes); returns the median
  /// nanoseconds per call, `calls` being the calls one pass makes. One span
  /// covers the whole measurement.
  template <typename Pass>
  double perCallNs(const char* name, double calls, Pass pass) {
    const std::int64_t first = nowNs();
    pass();
    std::vector<double> perCall;
    const std::int64_t deadline = nowNs() + static_cast<std::int64_t>(budgetNs_);
    do {
      const std::int64_t start = nowNs();
      pass();
      perCall.push_back(static_cast<double>(nowNs() - start) / calls);
    } while (perCall.size() < 3 || nowNs() < deadline);
    spans_.record(name, first, nowNs(), parent_);
    return median(std::move(perCall));
  }

  SpanBuffer& spans() { return spans_; }
  [[nodiscard]] std::uint64_t parent() const { return parent_; }
  [[nodiscard]] std::int64_t deadline() const {
    return nowNs() + static_cast<std::int64_t>(budgetNs_);
  }

 private:
  SpanBuffer& spans_;
  std::uint64_t parent_;
  double budgetNs_;
};

/// The workload's blocks with the decide-path state decideBatch would hold
/// for them — bound slot columns, completed workloads, decisions — laid
/// out flat: row state is indexed by the block's first row, slot columns
/// by its column offset.
struct Prepared {
  struct Ref {
    const runtime::CompiledRegionPlan* plan = nullptr;
    std::string_view region;
    std::uint32_t regionIndex = 0;
    std::size_t first = 0;
    std::size_t rows = 0;
    std::size_t columnOffset = 0;
  };
  std::vector<Ref> blocks;
  std::vector<const symbolic::Bindings*> bindings;
  std::vector<std::int64_t> columns;
  std::vector<std::uint64_t> masks;
  std::vector<cpumodel::CpuWorkload> cpu;
  std::vector<gpumodel::GpuWorkload> gpu;
  std::vector<runtime::Decision> decisions;
  std::vector<const runtime::Decision*> decisionPtrs;
  std::vector<runtime::Decision> found;  ///< findMany targets
  std::vector<runtime::Decision*> foundPtrs;
  std::vector<std::uint8_t> hits;
  std::vector<std::int64_t> exprOut;      ///< scratch, largest block
  std::vector<std::int64_t> exprScratch;  ///< scratch, largest block
  std::vector<std::uint32_t> missRows;    ///< scratch, block-relative

  [[nodiscard]] double rows() const {
    return static_cast<double>(bindings.size());
  }
  [[nodiscard]] runtime::DecisionCache::KeyBlock keys(const Ref& block) const {
    return {columns.data() + block.columnOffset, masks.data() + block.first,
            block.plan->slotCount(), block.rows};
  }
  void bind(const Ref& block) {
    for (std::size_t r = 0; r < block.rows; ++r) {
      block.plan->bindSlotsColumn(*bindings[block.first + r],
                                  columns.data() + block.columnOffset,
                                  block.rows, r, masks[block.first + r]);
    }
  }
  void complete(const Ref& block) {
    block.plan->completeWorkloadsColumns(
        columns.data() + block.columnOffset, masks.data() + block.first,
        block.rows, exprOut.data(), exprScratch.data(), cpu.data() + block.first,
        gpu.data() + block.first);
  }
};

Prepared prepare(const LayerInputs& inputs, runtime::TargetRuntime& reference) {
  const Catalog& catalog = *inputs.catalog;
  Prepared prepared;
  std::size_t largest = 0;
  for (const Block& block : inputs.blocks) {
    Prepared::Ref ref;
    ref.region = catalog.regions[block.region];
    ref.regionIndex = block.region;
    ref.plan = reference.plan(catalog.regions[block.region]);
    support::require(ref.plan != nullptr && ref.plan->fastPathUsable(),
                     "osel_ledger: region without a usable compiled plan");
    ref.first = prepared.bindings.size();
    ref.rows = block.sizes.size();
    ref.columnOffset = prepared.columns.size();
    for (const std::uint32_t size : block.sizes) {
      prepared.bindings.push_back(&catalog.at(block.region, size));
    }
    prepared.columns.resize(prepared.columns.size() +
                            ref.plan->slotCount() * ref.rows);
    largest = std::max(largest, ref.rows);
    prepared.blocks.push_back(ref);
  }
  const std::size_t rows = prepared.bindings.size();
  prepared.masks.resize(rows);
  prepared.cpu.resize(rows);
  prepared.gpu.resize(rows);
  prepared.found.resize(rows);
  prepared.hits.resize(rows);
  prepared.exprOut.resize(largest);
  prepared.exprScratch.resize(largest);
  prepared.missRows.reserve(largest);
  for (const Prepared::Ref& block : prepared.blocks) {
    prepared.bind(block);
    prepared.complete(block);
    for (std::size_t r = block.first; r < block.first + block.rows; ++r) {
      prepared.decisions.push_back(reference.selector().decideFromWorkloads(
          *block.plan, prepared.cpu[r], prepared.gpu[r]));
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    prepared.decisionPtrs.push_back(&prepared.decisions[r]);
    prepared.foundPtrs.push_back(&prepared.found[r]);
  }
  return prepared;
}

void measureSetupLayers(const LayerInputs& inputs, LayerTimer& timer,
                        Result& result) {
  const std::vector<ir::TargetRegion> regions = suiteRegions();
  const auto count = static_cast<double>(regions.size());
  const std::array<mca::MachineModel, 1> models{inputs.model};
  result.add("compiler.analyze_us",
             timer.perCallNs("compiler.analyze", count, [&] {
               for (const ir::TargetRegion& region : regions) {
                 gSink = gSink +
                         compiler::analyzeRegion(region, models).compInstsPerIter;
               }
             }) * 1e-3,
             "us");
  result.add("ipda.analyze_us",
             timer.perCallNs("ipda.analyze", count, [&] {
               for (const ir::TargetRegion& region : regions) {
                 gSink = gSink + static_cast<double>(
                     ipda::Analysis::analyze(region).records().size());
               }
             }) * 1e-3,
             "us");
  result.add("mca.cycles_us",
             timer.perCallNs("mca.cycles", count, [&] {
               for (const ir::TargetRegion& region : regions) {
                 gSink = gSink +
                         compiler::machineCyclesPerIteration(region, inputs.model);
               }
             }) * 1e-3,
             "us");

  // Registration lowers each PAD entry into a compiled plan. Every pass
  // needs a fresh runtime and fresh region copies, built outside the timing.
  const pad::AttributeDatabase database = compiler::compileAll(regions, models);
  std::vector<double> perRegion;
  const std::int64_t registerStart = nowNs();
  const std::int64_t deadline = timer.deadline();
  for (int pass = 0; pass < 4 || nowNs() < deadline; ++pass) {
    runtime::TargetRuntime fresh(database, inputs.options);
    std::vector<ir::TargetRegion> copies = regions;
    const std::int64_t start = nowNs();
    for (ir::TargetRegion& region : copies) {
      fresh.registerRegion(std::move(region));
    }
    const std::int64_t end = nowNs();
    if (pass == 0) continue;  // untimed settling pass, as perCallNs does
    perRegion.push_back(static_cast<double>(end - start) / count);
  }
  timer.spans().record("runtime.register", registerStart, nowNs(),
                       timer.parent());
  result.add("runtime.register_us", median(std::move(perRegion)) * 1e-3, "us");
}

/// Codec layers on the workload's wire form: DecideBatch frames for a
/// batching workload, DecideRequest frames otherwise.
void measureCodec(const LayerInputs& inputs, const Prepared& prepared,
                  LayerTimer& timer, Result& result) {
  const Catalog& catalog = *inputs.catalog;
  // Default clients negotiate trace context, so every frame carries a block.
  const service::TraceContextBlock trace;
  const std::array<std::string_view, 1> slots{"n"};
  std::string out;
  const auto encodeRequest = [&](std::size_t b) {
    const Block& block = inputs.blocks[b];
    out.clear();
    if (inputs.batched) {
      service::encodeDecideBatch(out, b, catalog.regions[block.region], slots,
                                 static_cast<std::uint32_t>(block.sizes.size()),
                                 block.values, &trace);
    } else {
      service::encodeDecideRequest(out, b, catalog.regions[block.region],
                                   catalog.at(block.region, block.sizes.front()),
                                   &trace);
    }
  };
  const auto encodeReply = [&](std::size_t b) {
    const Prepared::Ref& block = prepared.blocks[b];
    out.clear();
    if (inputs.batched) {
      service::encodeDecisionBatch(
          out, b,
          std::span(prepared.decisions.data() + block.first, block.rows),
          &trace);
    } else {
      service::encodeDecision(out, b, prepared.decisions[block.first], &trace);
    }
  };
  std::vector<std::string> requestFrames;
  std::vector<std::string> replyFrames;
  double requestBytes = 0.0;
  double replyBytes = 0.0;
  for (std::size_t b = 0; b < prepared.blocks.size(); ++b) {
    encodeRequest(b);
    requestBytes += static_cast<double>(out.size());
    requestFrames.push_back(out.substr(sizeof(service::FrameHeader)));
    encodeReply(b);
    replyBytes += static_cast<double>(out.size());
    replyFrames.push_back(out.substr(sizeof(service::FrameHeader)));
  }
  const double rows = prepared.rows();
  const auto blocks = prepared.blocks.size();
  result.add("codec.encode_request_ns",
             timer.perCallNs("codec.encode_request", rows,
                             [&] {
                               for (std::size_t b = 0; b < blocks; ++b) {
                                 encodeRequest(b);
                               }
                             }),
             "ns");
  service::DecideBatchView batchView;
  service::DecideRequestView requestView;
  result.add("codec.parse_request_ns",
             timer.perCallNs("codec.parse_request", rows,
                             [&] {
                               for (const std::string& payload : requestFrames) {
                                 if (inputs.batched) {
                                   service::parseDecideBatch(payload, batchView,
                                                             true);
                                 } else {
                                   service::parseDecideRequest(
                                       payload, requestView, true);
                                 }
                               }
                             }),
             "ns");
  result.add("codec.encode_reply_ns",
             timer.perCallNs("codec.encode_reply", rows,
                             [&] {
                               for (std::size_t b = 0; b < blocks; ++b) {
                                 encodeReply(b);
                               }
                             }),
             "ns");
  std::vector<service::DecisionView> views;
  service::DecisionView view;
  result.add("codec.parse_reply_ns",
             timer.perCallNs("codec.parse_reply", rows,
                             [&] {
                               for (const std::string& payload : replyFrames) {
                                 if (inputs.batched) {
                                   service::parseDecisionBatch(payload, views,
                                                               true);
                                 } else {
                                   service::parseDecision(payload, view, true);
                                 }
                               }
                             }),
             "ns");
  result.add("codec.request_bytes", requestBytes / rows, "bytes");
  result.add("codec.reply_bytes", replyBytes / rows, "bytes");
}

}  // namespace

double layerBudget(double seconds) {
  return std::clamp(seconds * 0.01, 0.05, 0.25);
}

void measureLayers(const LayerInputs& inputs, SpanBuffer& spans,
                   std::uint64_t parent, Result& result) {
  LayerTimer timer(spans, parent, inputs.budgetSeconds);
  const Catalog& catalog = *inputs.catalog;
  measureSetupLayers(inputs, timer, result);

  Stack reference = buildRuntimeStack(inputs.options, inputs.model);
  runtime::TargetRuntime& runtime = *reference.runtime;
  Prepared prepared = prepare(inputs, runtime);
  const double rows = prepared.rows();
  const auto blockCount = static_cast<double>(prepared.blocks.size());
  const cpumodel::CpuCostModel cpuModel(inputs.options.selector.cpuParams,
                                        inputs.options.selector.cpuThreads);
  const gpumodel::GpuCostModel gpuModel(inputs.options.selector.gpuParams);
  const runtime::policy::SelectionPolicy& policy = runtime.selector().policy();

  // Decision cache: the blocks replayed through one cache per region of the
  // runtime's capacity, probing with findMany and back-filling the misses
  // with insertMany, as decideBatch does. Each call is timed on its own,
  // less the cost of the clock read.
  std::vector<std::unique_ptr<runtime::DecisionCache>> caches;
  for (std::size_t r = 0; r < catalog.regions.size(); ++r) {
    caches.push_back(std::make_unique<runtime::DecisionCache>(
        inputs.options.decisionCacheCapacity));
  }
  double clockNs = 0.0;
  double findNs = 0.0;    ///< last replay, per probed row
  double insertNs = 0.0;  ///< last replay, per inserted row
  double groupsWithMiss = 0.0;
  const auto replay = [&] {
    double find = 0.0;
    double insert = 0.0;
    double inserted = 0.0;
    double missGroups = 0.0;
    for (const Prepared::Ref& block : prepared.blocks) {
      runtime::DecisionCache& cache = *caches[block.regionIndex];
      const runtime::DecisionCache::KeyBlock keys = prepared.keys(block);
      const std::int64_t t0 = nowNs();
      cache.findMany(keys, prepared.foundPtrs.data() + block.first,
                     prepared.hits.data() + block.first);
      find += static_cast<double>(nowNs() - t0) - clockNs;
      prepared.missRows.clear();
      for (std::size_t r = 0; r < block.rows; ++r) {
        if (prepared.hits[block.first + r] == 0) {
          prepared.missRows.push_back(static_cast<std::uint32_t>(r));
        }
      }
      if (prepared.missRows.empty()) continue;
      missGroups += 1.0;
      const std::int64_t t1 = nowNs();
      cache.insertMany(keys, prepared.missRows,
                       prepared.decisionPtrs.data() + block.first);
      insert += static_cast<double>(nowNs() - t1) - clockNs;
      inserted += static_cast<double>(prepared.missRows.size());
    }
    findNs = find / rows;
    insertNs = inserted > 0.0 ? insert / inserted : 0.0;
    groupsWithMiss = missGroups / blockCount;
  };

  // The stacked paths, each on a fresh runtime of the workload's
  // configuration.
  Stack scalarStack = buildRuntimeStack(inputs.options, inputs.model);
  runtime::TargetRuntime& scalar = *scalarStack.runtime;
  Stack batchStack = buildRuntimeStack(inputs.options, inputs.model);
  runtime::TargetRuntime& batched = *batchStack.runtime;
  std::vector<runtime::DecideRequest> requests;
  for (const Prepared::Ref& block : prepared.blocks) {
    for (std::size_t r = block.first; r < block.first + block.rows; ++r) {
      requests.push_back({block.region, prepared.bindings[r]});
    }
  }
  std::vector<runtime::Decision> batchOut(prepared.exprOut.size());

  // Every decide-path probe makes one pass over the workload's requests.
  // They run in interleaved rounds, so a disturbance from outside the
  // process lands on all of them alike, and the attribution compares
  // numbers taken side by side.
  struct Probe {
    const char* name;
    double calls;
    std::function<void()> pass;
  };
  std::vector<Probe> probes = {
      {"obs.clock", 1000.0,
       [] {
         for (int i = 0; i < 1000; ++i) {
           gSink = gSink + static_cast<double>(nowNs());
         }
       }},
      {"runtime.lookup", blockCount,
       [&] {
         for (const Prepared::Ref& block : prepared.blocks) {
           gSink = gSink + static_cast<double>(
               runtime.plan(catalog.regions[block.regionIndex])->slotCount());
         }
       }},
      {"plan.bind", rows,
       [&] {
         for (const Prepared::Ref& block : prepared.blocks) prepared.bind(block);
       }},
      {"plan.complete", rows,
       [&] {
         for (const Prepared::Ref& block : prepared.blocks) {
           prepared.complete(block);
         }
       }},
      {"cpumodel.predict", rows,
       [&] {
         for (const cpumodel::CpuWorkload& workload : prepared.cpu) {
           gSink = gSink + cpuModel.predict(workload).seconds;
         }
       }},
      {"gpumodel.predict", rows,
       [&] {
         for (const gpumodel::GpuWorkload& workload : prepared.gpu) {
           gSink = gSink + gpuModel.predict(workload).totalSeconds;
         }
       }},
      {"policy.choose", rows,
       [&] {
         for (const Prepared::Ref& block : prepared.blocks) {
           for (std::size_t r = block.first; r < block.first + block.rows;
                ++r) {
             const runtime::Decision& decision = prepared.decisions[r];
             gSink = gSink + static_cast<double>(
                 policy.choose({block.region, decision.cpu.seconds,
                                decision.gpu.totalSeconds})
                     .device);
           }
         }
       }},
      {"selector.from_workloads", rows,
       [&] {
         for (const Prepared::Ref& block : prepared.blocks) {
           for (std::size_t r = block.first; r < block.first + block.rows;
                ++r) {
             gSink = gSink + runtime.selector()
                                 .decideFromWorkloads(*block.plan,
                                                      prepared.cpu[r],
                                                      prepared.gpu[r])
                                 .gpu.totalSeconds;
           }
         }
       }},
      {"cache.replay", 1.0, replay},
      {"runtime.decide", static_cast<double>(inputs.stream.size()),
       [&] {
         for (const Request& request : inputs.stream) {
           gSink = gSink + scalar
                               .decide(catalog.regions[request.region],
                                       catalog.at(request.region, request.size))
                               .cpu.seconds;
         }
       }},
      {"runtime.decide_batch", rows,
       [&] {
         for (const Prepared::Ref& block : prepared.blocks) {
           batched.decideBatch(
               std::span(requests.data() + block.first, block.rows), batchOut);
         }
       }},
  };
  enum : std::size_t {
    kClock, kLookup, kBind, kComplete, kCpu, kGpu, kChoose, kFromWorkloads,
    kReplay, kDecide, kDecideBatch
  };
  for (Probe& probe : probes) probe.pass();  // caches and lazy state settle

  std::vector<std::vector<double>> perCallNs(probes.size());
  std::vector<double> finds;
  std::vector<double> inserts;
  std::vector<double> attributions;
  std::vector<double> stackedHits;
  const runtime::DecisionCache::Stats scalarStart = cacheStats(scalar, catalog);
  const runtime::DecisionCache::Stats batchStart = cacheStats(batched, catalog);
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(inputs.budgetSeconds * 1e9 *
                                          static_cast<double>(probes.size()));
  while (attributions.size() < 5 || nowNs() < deadline) {
    const runtime::DecisionCache::Stats before =
        inputs.batched ? cacheStats(batched, catalog)
                           : cacheStats(scalar, catalog);
    std::array<double, kDecideBatch + 1> ns{};
    for (std::size_t p = 0; p < probes.size(); ++p) {
      const std::int64_t start = nowNs();
      probes[p].pass();
      const std::int64_t end = nowNs();
      spans.record(probes[p].name, start, end, parent);
      ns[p] = static_cast<double>(end - start) / probes[p].calls;
      perCallNs[p].push_back(ns[p]);
      if (p == kClock) clockNs = ns[p];
    }
    finds.push_back(findNs);
    inserts.push_back(insertNs);
    const double hits = hitRatio(before, inputs.batched
                                             ? cacheStats(batched, catalog)
                                             : cacheStats(scalar, catalog));
    stackedHits.push_back(hits);
    // Attribution: the layer times the workload's stacked decide performs,
    // weighted by how often it performs them, against the stacked time.
    const double miss = 1.0 - hits;
    double attributed = 0.0;
    if (inputs.batched) {
      // Completion runs over a whole group once any of its rows missed; the
      // batch reads the clock twice to amortize its overhead over the rows.
      attributed = (ns[kLookup] + 2.0 * clockNs) * blockCount / rows +
                   ns[kBind] + findNs + miss * insertNs +
                   groupsWithMiss * ns[kComplete] + miss * ns[kFromWorkloads];
      attributions.push_back(attributed / ns[kDecideBatch]);
    } else {
      // A scalar miss binds again inside the compiled decide; the decide
      // reads the clock for its overhead stamp once, and again on a hit.
      attributed = ns[kLookup] + (2.0 - miss) * clockNs + ns[kBind] + findNs +
                   miss * (ns[kBind] + insertNs + ns[kComplete] +
                           ns[kFromWorkloads]);
      attributions.push_back(attributed / ns[kDecide]);
    }
  }

  const auto layer = [&](std::size_t p) {
    return median(perCallNs[p]);
  };
  result.add("obs.clock_ns", layer(kClock), "ns");
  result.add("runtime.lookup_ns", layer(kLookup), "ns");
  result.add("plan.bind_ns", layer(kBind), "ns");
  result.add("plan.complete_ns", layer(kComplete), "ns");
  result.add("cpumodel.predict_ns", layer(kCpu), "ns");
  result.add("gpumodel.predict_ns", layer(kGpu), "ns");
  result.add("policy.choose_ns", layer(kChoose), "ns");
  result.add("selector.from_workloads_ns", layer(kFromWorkloads), "ns");
  result.add("cache.find_ns", median(finds), "ns");
  result.add("cache.insert_ns", median(inserts), "ns");
  result.add("runtime.decide_ns", layer(kDecide), "ns");
  result.add("runtime.decide_batch_ns", layer(kDecideBatch), "ns");
  const double attribution = median(attributions);
  result.add("attribution.decide", attribution, "ratio");
  result.note(format(
      "attribution: layers / stacked %s = %.3f (median of %zu interleaved "
      "rounds; stacked hit ratio %.3f, scalar %.3f, batch %.3f)",
      inputs.batched ? "decideBatch row" : "decide()", attribution,
      attributions.size(), median(stackedHits),
      hitRatio(scalarStart, cacheStats(scalar, catalog)),
      hitRatio(batchStart, cacheStats(batched, catalog))));
  if (inputs.checkAttribution && !(attribution >= 0.8 && attribution <= 1.2)) {
    result.failed += 1;
    result.note("FAILED: attribution.decide outside [0.8, 1.2]");
  }

  measureCodec(inputs, prepared, timer, result);
}

StageSnapshot snapshotStages(service::Server& server) {
  return server.session().metrics().snapshot();
}

void addServerStages(const StageSnapshot& before, const StageSnapshot& after,
                     double clientRoundtripUs, Result& result) {
  const auto find = [](const StageSnapshot& snapshot, std::string_view name)
      -> const StageSnapshot::HistogramEntry* {
    for (const auto& entry : snapshot.histograms) {
      if (entry.name == name) return &entry;
    }
    return nullptr;
  };
  // The stage histograms' buckets are 3x wide from 1 us up, too coarse for
  // a median of sub-microsecond stages; their exact sums give the mean.
  const auto meanUs = [&](std::string_view name) {
    const StageSnapshot::HistogramEntry* start = find(before, name);
    const StageSnapshot::HistogramEntry* end = find(after, name);
    if (start == nullptr || end == nullptr) return std::nan("");
    const double count =
        static_cast<double>(end->stats.count - start->stats.count);
    return (end->stats.sum - start->stats.sum) / count * 1e6;
  };
  const double request = meanUs("service.request_s");
  result.add("server.decode_us", meanUs("service.decode_s"), "us");
  result.add("server.decide_us", meanUs("service.decide_s"), "us");
  result.add("server.encode_us", meanUs("service.encode_s"), "us");
  result.add("server.send_us", meanUs("service.send_s"), "us");
  result.add("server.request_us", request, "us");
  result.add("client.roundtrip_us", clientRoundtripUs, "us");
  result.add("server.share_of_roundtrip", request / clientRoundtripUs, "ratio");
}

double pingP50Us(service::Client& client, int pings) {
  LatencyHistogram histogram;
  for (int i = 0; i < pings; ++i) {
    const std::int64_t start = nowNs();
    client.ping();
    histogram.record(static_cast<std::uint64_t>(nowNs() - start));
  }
  return histogram.quantile(0.5) * 1e-3;
}

}  // namespace ledger
