#include "obs/export.h"

#include <cmath>
#include <cstdio>

#include "support/format.h"
#include "support/table.h"

namespace osel::obs {

namespace {

void appendJsonString(std::string& out, std::string_view text) {
  out += '"';
  for (char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void appendDouble(std::string& out, double value) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.9g", value);
  out.append(buf, static_cast<std::size_t>(n));
}

// --- Prometheus text format 0.0.4 helpers ----------------------------------

/// Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; registry names use
/// dots ("decision.cache.hits"), which map to underscores.
void appendPromName(std::string& out, std::string_view name) {
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out += ok ? ch : '_';
  }
}

/// Label values escape backslash, double-quote, and newline (the spec's
/// three escapes); everything else passes through as UTF-8 bytes.
void appendPromLabelValue(std::string& out, std::string_view value) {
  out += '"';
  for (char ch : value) {
    switch (ch) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += ch;
    }
  }
  out += '"';
}

void appendPromNumber(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
  } else if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
  } else {
    appendDouble(out, value);
  }
}

void promType(std::string& out, std::string_view name, const char* type) {
  out += "# TYPE osel_";
  appendPromName(out, name);
  out += ' ';
  out += type;
  out += '\n';
}

void promSample(std::string& out, std::string_view name,
                std::string_view suffix, std::string_view region,
                double value, std::string_view le = {}) {
  out += "osel_";
  appendPromName(out, name);
  out += suffix;
  if (!region.empty() || !le.empty()) {
    out += '{';
    bool first = true;
    if (!region.empty()) {
      out += "region=";
      appendPromLabelValue(out, region);
      first = false;
    }
    if (!le.empty()) {
      if (!first) out += ',';
      out += "le=\"";
      out += le;
      out += '"';
    }
    out += '}';
  }
  out += ' ';
  appendPromNumber(out, value);
  out += '\n';
}

}  // namespace

std::string renderChromeTrace(std::span<const TraceEvent> events) {
  std::string out;
  out.reserve(64 + events.size() * 160);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":";
    appendJsonString(out, event.name);
    out += ",\"cat\":";
    appendJsonString(out, event.category);
    if (event.kind == EventKind::Span) {
      out += ",\"ph\":\"X\",\"ts\":";
      appendDouble(out, static_cast<double>(event.startNs) / 1000.0);
      out += ",\"dur\":";
      appendDouble(out, static_cast<double>(event.durNs) / 1000.0);
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      appendDouble(out, static_cast<double>(event.startNs) / 1000.0);
    }
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(event.tid);
    out += ",\"args\":{";
    bool firstArg = true;
    if (!event.labelView().empty()) {
      out += "\"label\":";
      appendJsonString(out, event.labelView());
      firstArg = false;
    }
    for (const TraceArg& arg : event.args) {
      if (arg.key == nullptr) continue;
      if (!firstArg) out += ',';
      firstArg = false;
      appendJsonString(out, arg.key);
      out += ':';
      appendDouble(out, arg.value);
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string renderChromeTrace(const TraceSession& session) {
  return renderChromeTrace(session.snapshot());
}

std::string renderStatsSummary(const TraceSession& session) {
  std::string out = "trace: " + std::to_string(session.recorded()) +
                    " events recorded, " + std::to_string(session.dropped()) +
                    " dropped (capacity " + std::to_string(session.capacity()) +
                    ")\n";
  const PolicyStatus policy = session.policyStatus();
  if (!policy.name.empty()) {
    out += "policy: " + policy.name;
    if (policy.refits > 0) {
      out += " (" + std::to_string(policy.refits) + " refits)";
    }
    out += '\n';
  }
  const std::string metrics = session.metrics().renderSummary();
  if (!metrics.empty()) {
    out += '\n';
    out += metrics;
  }
  const std::vector<PredictionStats> predictions = session.predictionStats();
  if (!predictions.empty()) {
    support::TextTable table({"region", "launches", "mean |pred-act|/act",
                              "mean predicted", "mean actual"});
    for (const PredictionStats& stats : predictions) {
      table.addRow({stats.region, std::to_string(stats.count),
                    support::formatPercent(stats.meanAbsRelError),
                    support::formatSeconds(stats.meanPredictedSeconds),
                    support::formatSeconds(stats.meanActualSeconds)});
    }
    out += '\n';
    out += table.render();
  }
  // Live calibration factors: only meaningful (and only populated) under
  // the Calibrated selection policy.
  const PolicyStatus policyForFactors = session.policyStatus();
  if (policyForFactors.calibrated && !policyForFactors.factors.empty()) {
    support::TextTable factors({"region", "cpu factor", "gpu factor",
                                "pending samples", "refits"});
    for (const PolicyCalibrationFactor& f : policyForFactors.factors) {
      std::string cpu;
      appendDouble(cpu, f.cpuFactor);
      std::string gpu;
      appendDouble(gpu, f.gpuFactor);
      factors.addRow({f.region, cpu, gpu, std::to_string(f.pendingSamples),
                      std::to_string(f.refits)});
    }
    out += "\ncalibration factors:\n";
    out += factors.render();
  }
  return out;
}

std::string renderPrometheus(const TraceSession& session) {
  std::string out;
  out.reserve(4096);
  const MetricsRegistry::Snapshot snap = session.metrics().snapshot();

  for (const auto& [name, value] : snap.counters) {
    promType(out, name, "counter");
    promSample(out, name, "_total", {}, static_cast<double>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    promType(out, name, "gauge");
    promSample(out, name, "", {}, value);
  }
  for (const auto& entry : snap.histograms) {
    promType(out, entry.name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < entry.upperBounds.size(); ++i) {
      cumulative += entry.stats.counts[i];
      std::string le;
      appendDouble(le, entry.upperBounds[i]);
      promSample(out, entry.name, "_bucket", {},
                 static_cast<double>(cumulative), le);
    }
    cumulative += entry.stats.counts.back();
    promSample(out, entry.name, "_bucket", {}, static_cast<double>(cumulative),
               "+Inf");
    promSample(out, entry.name, "_sum", {}, entry.stats.sum);
    promSample(out, entry.name, "_count", {},
               static_cast<double>(entry.stats.count));
  }

  // Per-region prediction accuracy (the online Fig. 6–7 counterpart).
  const std::vector<PredictionStats> predictions = session.predictionStats();
  if (!predictions.empty()) {
    promType(out, "prediction.launches", "counter");
    for (const PredictionStats& p : predictions) {
      promSample(out, "prediction.launches", "_total", p.region,
                 static_cast<double>(p.count));
    }
    promType(out, "prediction.mean_abs_rel_error", "gauge");
    for (const PredictionStats& p : predictions) {
      promSample(out, "prediction.mean_abs_rel_error", "", p.region,
                 p.meanAbsRelError);
    }
    promType(out, "prediction.mean_predicted_seconds", "gauge");
    for (const PredictionStats& p : predictions) {
      promSample(out, "prediction.mean_predicted_seconds", "", p.region,
                 p.meanPredictedSeconds);
    }
    promType(out, "prediction.mean_actual_seconds", "gauge");
    for (const PredictionStats& p : predictions) {
      promSample(out, "prediction.mean_actual_seconds", "", p.region,
                 p.meanActualSeconds);
    }
  }

  // Per-region drift state.
  const std::vector<RegionDriftStats> drift = session.driftStats();
  if (!drift.empty()) {
    promType(out, "region_drift.samples", "counter");
    for (const RegionDriftStats& d : drift) {
      promSample(out, "region_drift.samples", "_total", d.region,
                 static_cast<double>(d.samples));
    }
    promType(out, "region_drift.ewma", "gauge");
    for (const RegionDriftStats& d : drift) {
      promSample(out, "region_drift.ewma", "", d.region, d.ewma);
    }
    promType(out, "region_drift.baseline", "gauge");
    for (const RegionDriftStats& d : drift) {
      promSample(out, "region_drift.baseline", "", d.region, d.baseline);
    }
    promType(out, "region_drift.cusum", "gauge");
    for (const RegionDriftStats& d : drift) {
      promSample(out, "region_drift.cusum", "", d.region, d.cusum);
    }
    promType(out, "region_drift.alarms", "counter");
    for (const RegionDriftStats& d : drift) {
      promSample(out, "region_drift.alarms", "_total", d.region,
                 static_cast<double>(d.alarms));
    }
    promType(out, "region_drift.alarming", "gauge");
    for (const RegionDriftStats& d : drift) {
      promSample(out, "region_drift.alarming", "", d.region,
                 d.alarming ? 1.0 : 0.0);
    }
    promType(out, "region_drift.comparisons", "counter");
    for (const RegionDriftStats& d : drift) {
      promSample(out, "region_drift.comparisons", "_total", d.region,
                 static_cast<double>(d.comparisons));
    }
    promType(out, "region_drift.mispredictions", "counter");
    for (const RegionDriftStats& d : drift) {
      promSample(out, "region_drift.mispredictions", "_total", d.region,
                 static_cast<double>(d.mispredictions));
    }
  }

  // Selection-policy identity + calibration state (pushed by the runtime).
  const PolicyStatus policy = session.policyStatus();
  if (!policy.name.empty()) {
    promType(out, "policy_info", "gauge");
    out += "osel_policy_info{policy=";
    appendPromLabelValue(out, policy.name);
    out += "} 1\n";
    if (policy.calibrated && !policy.factors.empty()) {
      promType(out, "policy_calibration.cpu_factor", "gauge");
      for (const PolicyCalibrationFactor& f : policy.factors) {
        promSample(out, "policy_calibration.cpu_factor", "", f.region,
                   f.cpuFactor);
      }
      promType(out, "policy_calibration.gpu_factor", "gauge");
      for (const PolicyCalibrationFactor& f : policy.factors) {
        promSample(out, "policy_calibration.gpu_factor", "", f.region,
                   f.gpuFactor);
      }
      promType(out, "policy_calibration.refits", "counter");
      for (const PolicyCalibrationFactor& f : policy.factors) {
        promSample(out, "policy_calibration.refits", "_total", f.region,
                   static_cast<double>(f.refits));
      }
    }
  }

  promType(out, "explain.recorded", "counter");
  promSample(out, "explain.recorded", "_total", {},
             static_cast<double>(session.explainRing().recorded()));
  promType(out, "explain.dropped", "counter");
  promSample(out, "explain.dropped", "_total", {},
             static_cast<double>(session.explainRing().dropped()));
  promType(out, "slow.recorded", "counter");
  promSample(out, "slow.recorded", "_total", {},
             static_cast<double>(session.slowRing().recorded()));
  promType(out, "slow.dropped", "counter");
  promSample(out, "slow.dropped", "_total", {},
             static_cast<double>(session.slowRing().dropped()));

  // Ring overflow in one scrapeable family: how much telemetry each bounded
  // buffer has overwritten. promSample only speaks region/le labels, so the
  // ring-labeled lines are emitted directly (the osel_policy_info pattern).
  promType(out, "trace_dropped", "counter");
  const auto ringDropped = [&out](const char* ring, std::uint64_t dropped) {
    out += "osel_trace_dropped_total{ring=";
    appendPromLabelValue(out, ring);
    out += "} ";
    appendPromNumber(out, static_cast<double>(dropped));
    out += '\n';
  };
  ringDropped("events", session.dropped());
  ringDropped("explain", session.explainRing().dropped());
  ringDropped("slow", session.slowRing().dropped());
  return out;
}

namespace {

void appendJsonField(std::string& out, const char* key, double value,
                     bool& first) {
  if (!first) out += ',';
  first = false;
  appendJsonString(out, key);
  out += ':';
  appendDouble(out, value);
}

void appendCpuTermsJson(std::string& out, const CpuTerms& cpu) {
  out += '{';
  bool first = true;
  appendJsonField(out, "machine_cycles_per_iter", cpu.machineCyclesPerIter,
                  first);
  appendJsonField(out, "trip_count", cpu.tripCount, first);
  appendJsonField(out, "fork_join_cycles", cpu.forkJoinCycles, first);
  appendJsonField(out, "schedule_cycles", cpu.scheduleCycles, first);
  appendJsonField(out, "work_cycles", cpu.workCycles, first);
  appendJsonField(out, "loop_overhead_cycles", cpu.loopOverheadCycles, first);
  appendJsonField(out, "tlb_cycles", cpu.tlbCycles, first);
  appendJsonField(out, "false_sharing_cycles", cpu.falseSharingCycles, first);
  appendJsonField(out, "total_cycles", cpu.totalCycles, first);
  appendJsonField(out, "seconds", cpu.seconds, first);
  out += '}';
}

void appendGpuTermsJson(std::string& out, const GpuTerms& gpu) {
  out += '{';
  bool first = true;
  appendJsonField(out, "omp_rep", gpu.ompRep, first);
  appendJsonField(out, "mwp", gpu.mwp, first);
  appendJsonField(out, "cwp", gpu.cwp, first);
  appendJsonField(out, "mem_cycles", gpu.memCycles, first);
  appendJsonField(out, "comp_cycles", gpu.compCycles, first);
  appendJsonField(out, "active_warps_per_sm", gpu.activeWarpsPerSm, first);
  appendJsonField(out, "coal_mem_insts", gpu.coalMemInsts, first);
  appendJsonField(out, "uncoal_mem_insts", gpu.uncoalMemInsts, first);
  appendJsonField(out, "coalesced_fraction", gpu.coalescedFraction, first);
  appendJsonField(out, "bytes_to_device", gpu.bytesToDevice, first);
  appendJsonField(out, "bytes_from_device", gpu.bytesFromDevice, first);
  appendJsonField(out, "kernel_seconds", gpu.kernelSeconds, first);
  appendJsonField(out, "transfer_seconds", gpu.transferSeconds, first);
  appendJsonField(out, "launch_seconds", gpu.launchSeconds, first);
  appendJsonField(out, "total_seconds", gpu.totalSeconds, first);
  appendJsonField(out, "exec_case", static_cast<double>(gpu.execCase), first);
  out += '}';
}

}  // namespace

std::string renderExplainJson(std::span<const DecisionExplain> records) {
  std::string out;
  out.reserve(64 + records.size() * 768);
  out += '[';
  bool firstRecord = true;
  for (const DecisionExplain& record : records) {
    if (!firstRecord) out += ',';
    firstRecord = false;
    out += "\n{\"region\":";
    appendJsonString(out, record.regionView());
    out += ",\"seq\":" + std::to_string(record.seq);
    out += ",\"at_ns\":" + std::to_string(record.atNs);
    out += ",\"path\":";
    appendJsonString(out, toString(record.path));
    out += ",\"valid\":";
    out += record.valid ? "true" : "false";
    out += ",\"chosen\":";
    appendJsonString(out, record.chosenGpu ? "gpu" : "cpu");
    out += ",\"predicted_speedup\":";
    if (std::isfinite(record.predictedSpeedup)) {
      appendDouble(out, record.predictedSpeedup);
    } else {
      out += "null";
    }
    out += ",\"overhead_seconds\":";
    appendDouble(out, record.overheadSeconds);
    out += ",\"cpu\":";
    appendCpuTermsJson(out, record.cpu);
    out += ",\"gpu\":";
    appendGpuTermsJson(out, record.gpu);
    out += '}';
  }
  out += "\n]\n";
  return out;
}

std::string renderExplainJson(const TraceSession& session) {
  return renderExplainJson(session.explainRing().snapshot());
}

std::string renderExplainText(const DecisionExplain& record) {
  std::string out;
  out += "region: ";
  out += record.regionView();
  out += "\npath: ";
  out += toString(record.path);
  out += "\nchoice: ";
  out += record.chosenGpu ? "gpu" : "cpu";
  out += record.valid ? "" : " (degenerate: model prediction unavailable)";
  out += "\npredicted speedup (cpu/gpu): ";
  if (std::isfinite(record.predictedSpeedup)) {
    appendDouble(out, record.predictedSpeedup);
  } else {
    out += "-";
  }
  out += "\ndecision overhead: ";
  out += support::formatSeconds(record.overheadSeconds);
  out += '\n';

  support::TextTable cpuTable({"cpu term (Liao-Chapman)", "value"});
  const auto row = [](double value) {
    std::string cell;
    appendDouble(cell, value);
    return cell;
  };
  cpuTable.addRow({"machine_cycles_per_iter (MCA)",
                   row(record.cpu.machineCyclesPerIter)});
  cpuTable.addRow({"trip_count", row(record.cpu.tripCount)});
  cpuTable.addRow({"fork_join_cycles", row(record.cpu.forkJoinCycles)});
  cpuTable.addRow({"schedule_cycles", row(record.cpu.scheduleCycles)});
  cpuTable.addRow({"work_cycles", row(record.cpu.workCycles)});
  cpuTable.addRow({"loop_overhead_cycles", row(record.cpu.loopOverheadCycles)});
  cpuTable.addRow({"tlb_cycles", row(record.cpu.tlbCycles)});
  cpuTable.addRow({"false_sharing_cycles",
                   row(record.cpu.falseSharingCycles)});
  cpuTable.addRow({"total_cycles", row(record.cpu.totalCycles)});
  cpuTable.addRow({"predicted_seconds", row(record.cpu.seconds)});
  out += '\n';
  out += cpuTable.render();

  support::TextTable gpuTable({"gpu term (Hong-Kim + OMP ext)", "value"});
  gpuTable.addRow({"omp_rep", row(record.gpu.ompRep)});
  gpuTable.addRow({"mwp", row(record.gpu.mwp)});
  gpuTable.addRow({"cwp", row(record.gpu.cwp)});
  gpuTable.addRow({"mem_cycles", row(record.gpu.memCycles)});
  gpuTable.addRow({"comp_cycles", row(record.gpu.compCycles)});
  gpuTable.addRow({"active_warps_per_sm", row(record.gpu.activeWarpsPerSm)});
  gpuTable.addRow({"coal_mem_insts (IPDA)", row(record.gpu.coalMemInsts)});
  gpuTable.addRow({"uncoal_mem_insts (IPDA)", row(record.gpu.uncoalMemInsts)});
  gpuTable.addRow({"coalesced_fraction", row(record.gpu.coalescedFraction)});
  gpuTable.addRow({"bytes_to_device", row(record.gpu.bytesToDevice)});
  gpuTable.addRow({"bytes_from_device", row(record.gpu.bytesFromDevice)});
  gpuTable.addRow({"kernel_seconds", row(record.gpu.kernelSeconds)});
  gpuTable.addRow({"transfer_seconds", row(record.gpu.transferSeconds)});
  gpuTable.addRow({"launch_seconds", row(record.gpu.launchSeconds)});
  gpuTable.addRow({"predicted_seconds", row(record.gpu.totalSeconds)});
  gpuTable.addRow({"exec_case",
                   std::to_string(static_cast<unsigned>(record.gpu.execCase))});
  out += '\n';
  out += gpuTable.render();
  return out;
}

std::string renderDriftReport(const TraceSession& session) {
  const std::vector<RegionDriftStats> drift = session.driftStats();
  std::string out;
  if (drift.empty()) {
    return "drift: no prediction samples recorded\n";
  }
  const DriftOptions& opts = session.drift().options();
  out += "drift: ewma alpha ";
  appendDouble(out, opts.ewmaAlpha);
  out += ", baseline window " + std::to_string(opts.baselineSamples) +
         ", cusum slack ";
  appendDouble(out, opts.cusumSlack);
  out += ", threshold ";
  appendDouble(out, opts.cusumThreshold);
  out += '\n';
  support::TextTable table({"region", "samples", "ewma err", "baseline",
                            "cusum", "alarms", "state", "compared",
                            "mispredicted"});
  for (const RegionDriftStats& d : drift) {
    std::string ewma;
    appendDouble(ewma, d.ewma);
    std::string baseline;
    appendDouble(baseline, d.baseline);
    std::string cusum;
    appendDouble(cusum, d.cusum);
    table.addRow({d.region, std::to_string(d.samples), ewma, baseline, cusum,
                  std::to_string(d.alarms), d.alarming ? "ALARM" : "ok",
                  std::to_string(d.comparisons),
                  std::to_string(d.mispredictions)});
  }
  out += table.render();
  return out;
}

std::string renderSlowJson(std::span<const SlowRequestRecord> records) {
  std::string out;
  out.reserve(records.size() * 320);
  for (const SlowRequestRecord& record : records) {
    out += "{\"seq\":" + std::to_string(record.seq);
    out += ",\"at_ns\":" + std::to_string(record.atNs);
    out += ",\"trace_id\":" + std::to_string(record.traceId);
    out += ",\"client_id\":" + std::to_string(record.clientId);
    out += ",\"request_id\":" + std::to_string(record.requestId);
    out += ",\"region\":";
    appendJsonString(out, record.regionView());
    out += ",\"rows\":" + std::to_string(record.rows);
    out += ",\"region_groups\":" + std::to_string(record.regionGroups);
    out += ",\"gpu_decisions\":" + std::to_string(record.gpuDecisions);
    out += ",\"invalid_decisions\":" + std::to_string(record.invalidDecisions);
    out += ",\"state_epoch\":" + std::to_string(record.stateEpoch);
    out += ",\"cause\":";
    appendJsonString(out, toString(record.cause));
    out += ",\"decode_ns\":" + std::to_string(record.decodeNs);
    out += ",\"decide_ns\":" + std::to_string(record.decideNs);
    out += ",\"encode_ns\":" + std::to_string(record.encodeNs);
    out += ",\"send_ns\":" + std::to_string(record.sendNs);
    out += ",\"wall_ns\":" + std::to_string(record.wallNs);
    out += "}\n";
  }
  return out;
}

std::string renderSlowJson(const TraceSession& session) {
  return renderSlowJson(session.slowRing().snapshot());
}

}  // namespace osel::obs
