// osel/obs/export.h — trace and metrics exporters.
//
// Render targets for one TraceSession, among them:
//   * Chrome trace_event JSON ("catapult" format) — load the file in
//     chrome://tracing or https://ui.perfetto.dev to see the launch
//     pipeline's spans on a timeline,
//   * a human-readable stats summary (support/table) — metrics registry
//     plus the per-region predicted-vs-actual accuracy table,
//   * Prometheus text exposition, explain JSON/text, the drift report and
//     the slow-request JSONL.
// Renderers that take an explicit event or record snapshot let tests feed
// hand-built input with fixed timestamps and diff golden output
// byte-for-byte.
#pragma once

#include <span>
#include <string>

#include "obs/trace.h"

namespace osel::obs {

/// Chrome trace_event JSON for an event snapshot: one "X" (complete) entry
/// per span, one "i" (instant) entry per instant, timestamps in
/// microseconds. Deterministic: events appear in snapshot (seq) order and
/// doubles are printed with %.9g.
[[nodiscard]] std::string renderChromeTrace(std::span<const TraceEvent> events);

/// renderChromeTrace over the session's current snapshot.
[[nodiscard]] std::string renderChromeTrace(const TraceSession& session);

/// Human-readable session summary: event/drop counts, the metrics registry
/// summary, and the per-region prediction-accuracy table.
[[nodiscard]] std::string renderStatsSummary(const TraceSession& session);

/// Prometheus text exposition (format 0.0.4) of the session: every
/// registry counter/gauge/histogram (histograms with cumulative
/// `_bucket{le=...}` series plus `_sum`/`_count`), the per-region
/// prediction-accuracy series, and the per-region drift series — all under
/// the `osel_` prefix with metric names sanitised to the Prometheus
/// charset and label values escaped per the spec.
[[nodiscard]] std::string renderPrometheus(const TraceSession& session);

/// JSON array of DecisionExplain records (all model terms spelled out) —
/// the machine-readable offload report. Deterministic: records keep their
/// input order and doubles print with %.9g.
[[nodiscard]] std::string renderExplainJson(
    std::span<const DecisionExplain> records);
[[nodiscard]] std::string renderExplainJson(const TraceSession& session);

/// Human-readable single-record term breakdown for `oselctl explain`.
[[nodiscard]] std::string renderExplainText(const DecisionExplain& record);

/// Human-readable per-region drift table (EWMA, baseline, CUSUM, alarms,
/// mispredictions) for `oselctl drift` / `suite_launch_log --drift-report`.
[[nodiscard]] std::string renderDriftReport(const TraceSession& session);

/// JSONL of slow-request wide events — one JSON object per line, oldest
/// first, newline-terminated — the `oselctl slow` payload. Deterministic:
/// records keep their input order, integers print exactly, and stage times
/// are nanosecond integers.
[[nodiscard]] std::string renderSlowJson(
    std::span<const SlowRequestRecord> records);
[[nodiscard]] std::string renderSlowJson(const TraceSession& session);

}  // namespace osel::obs
