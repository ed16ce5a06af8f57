// Exporter goldens. Chrome's trace_event viewer is an external consumer, so
// the JSON shape is pinned byte for byte on hand-built events (explicit
// timestamps and tids make the output fully deterministic).
#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace osel::obs {
namespace {

TraceEvent makeEvent(EventKind kind, const char* name, const char* category,
                     std::string_view label, std::int64_t startNs,
                     std::int64_t durNs, std::uint32_t tid, std::uint64_t seq,
                     TraceArg arg0 = {}, TraceArg arg1 = {}) {
  TraceEvent event;
  event.kind = kind;
  event.name = name;
  event.category = category;
  const std::size_t n =
      std::min(label.size(), TraceEvent::kLabelCapacity - 1);
  std::memcpy(event.label.data(), label.data(), n);
  event.label[n] = '\0';
  event.startNs = startNs;
  event.durNs = durNs;
  event.tid = tid;
  event.seq = seq;
  event.args = {arg0, arg1};
  return event;
}

TEST(ChromeTrace, GoldenOutputForHandBuiltEvents) {
  const std::vector<TraceEvent> events{
      makeEvent(EventKind::Span, "decide", "compiled", "gemm_k1", 1500, 2500,
                7, 0, {"overhead_s", 2.5e-6}, {"valid", 1.0}),
      makeEvent(EventKind::Instant, "retry", "guard", "", 3000, 0, 7, 1,
                {"attempt", 2.0}),
      makeEvent(EventKind::Span, "x", "y", "a\"b\\c\nd", 0, 0, 0, 2),
  };
  const std::string expected = R"({"traceEvents":[
{"name":"decide","cat":"compiled","ph":"X","ts":1.5,"dur":2.5,"pid":1,"tid":7,"args":{"label":"gemm_k1","overhead_s":2.5e-06,"valid":1}},
{"name":"retry","cat":"guard","ph":"i","s":"t","ts":3,"pid":1,"tid":7,"args":{"attempt":2}},
{"name":"x","cat":"y","ph":"X","ts":0,"dur":0,"pid":1,"tid":0,"args":{"label":"a\"b\\c\nd"}}
],"displayTimeUnit":"ms"}
)";
  EXPECT_EQ(renderChromeTrace(events), expected);
}

TEST(ChromeTrace, EscapesControlCharactersAsUnicode) {
  const std::vector<TraceEvent> events{
      makeEvent(EventKind::Instant, "e", "c", std::string_view("a\t\x01z", 4),
                0, 0, 0, 0),
  };
  const std::string json = renderChromeTrace(events);
  EXPECT_NE(json.find(R"("label":"a\t\u0001z")"), std::string::npos) << json;
}

TEST(ChromeTrace, EmptyTraceIsStillAValidDocument) {
  EXPECT_EQ(renderChromeTrace(std::vector<TraceEvent>{}),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTrace, SessionOverloadExportsTheSnapshot) {
  TraceSession session({.capacity = 4});
  session.recordSpan("decide", "compiled", "gemm_k1", 10, 20);
  const std::string json = renderChromeTrace(session);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"decide\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"gemm_k1\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(StatsSummary, ReportsRingMetricsAndPredictions) {
  TraceSession session({.capacity = 2});
  for (int i = 0; i < 3; ++i) session.recordInstant("e", "c", "", i);
  session.metrics().counter("decision.compiled").add(5);
  session.recordPrediction("gemm_k1", 1.5, 1.0);

  const std::string summary = renderStatsSummary(session);
  EXPECT_NE(summary.find("trace: 3 events recorded, 1 dropped (capacity 2)"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("decision.compiled"), std::string::npos);
  EXPECT_NE(summary.find("gemm_k1"), std::string::npos);
  EXPECT_NE(summary.find("50"), std::string::npos);  // 50% mean error
}

TEST(Prometheus, ExposesCountersGaugesAndCumulativeHistograms) {
  TraceSession session;
  session.metrics().counter("decision.compiled").add(3);
  session.metrics().gauge("decision_cache.hit_ratio").set(0.875);
  session.metrics().histogram("overhead_s", {1e-6, 1e-3}).record(5e-7);
  const std::string text = renderPrometheus(session);
  // Names sanitise '.' to '_' under the osel_ prefix; counters get _total.
  EXPECT_NE(text.find("# TYPE osel_decision_compiled counter\n"
                      "osel_decision_compiled_total 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("osel_decision_cache_hit_ratio 0.875\n"),
            std::string::npos);
  // Histogram buckets are cumulative and end with +Inf, then _sum/_count.
  EXPECT_NE(text.find("# TYPE osel_overhead_s histogram\n"
                      "osel_overhead_s_bucket{le=\"1e-06\"} 1\n"
                      "osel_overhead_s_bucket{le=\"0.001\"} 1\n"
                      "osel_overhead_s_bucket{le=\"+Inf\"} 1\n"
                      "osel_overhead_s_sum 5e-07\n"
                      "osel_overhead_s_count 1\n"),
            std::string::npos)
      << text;
  // The explain-ring counters close the exposition even when empty.
  EXPECT_NE(text.find("osel_explain_recorded_total 0\n"), std::string::npos);
  EXPECT_NE(text.find("osel_explain_dropped_total 0\n"), std::string::npos);
}

TEST(Prometheus, ExposesPerRegionPredictionAndDriftSeries) {
  TraceSession session;
  session.recordPrediction("gemm_k1", 1.5, 1.0);  // 50% abs rel error
  session.recordComparison("gemm_k1", true);
  const std::string text = renderPrometheus(session);
  EXPECT_NE(
      text.find("osel_prediction_launches_total{region=\"gemm_k1\"} 1\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find(
                "osel_prediction_mean_abs_rel_error{region=\"gemm_k1\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("osel_region_drift_ewma{region=\"gemm_k1\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("osel_region_drift_mispredictions_total{region=\"gemm_k1\"} 1\n"),
      std::string::npos);
}

TEST(Prometheus, EscapesLabelValuesPerSpec) {
  TraceSession session;
  session.recordPrediction("a\"b\\c\nd", 2.0, 1.0);
  const std::string text = renderPrometheus(session);
  EXPECT_NE(text.find("{region=\"a\\\"b\\\\c\\nd\"}"), std::string::npos)
      << text;
}

TEST(ExplainJson, SpellsOutEveryModelTermAndNullsNonFiniteSpeedup) {
  DecisionExplain record;
  record.setRegion("gemm_k1");
  record.path = DecisionPath::Compiled;
  record.chosenGpu = true;
  record.predictedSpeedup = std::numeric_limits<double>::quiet_NaN();
  record.cpu.machineCyclesPerIter = 898.5;
  record.gpu.mwp = 12.25;
  const std::string json =
      renderExplainJson(std::vector<DecisionExplain>{record});
  EXPECT_NE(json.find("\"region\":\"gemm_k1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"path\":\"compiled\""), std::string::npos);
  EXPECT_NE(json.find("\"chosen\":\"gpu\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_speedup\":null"), std::string::npos);
  EXPECT_NE(json.find("\"machine_cycles_per_iter\":898.5"), std::string::npos);
  EXPECT_NE(json.find("\"mwp\":12.25"), std::string::npos);
}

TEST(ExplainText, RendersBothModelTermTables) {
  DecisionExplain record;
  record.setRegion("atax_k1");
  record.valid = false;
  const std::string text = renderExplainText(record);
  EXPECT_NE(text.find("region: atax_k1"), std::string::npos);
  EXPECT_NE(text.find("cpu term (Liao-Chapman)"), std::string::npos);
  EXPECT_NE(text.find("gpu term (Hong-Kim + OMP ext)"), std::string::npos);
  EXPECT_NE(text.find("machine_cycles_per_iter (MCA)"), std::string::npos);
  EXPECT_NE(text.find("degenerate"), std::string::npos);
}

TEST(DriftReport, EmptySessionSaysSoAndSamplesProduceTheTable) {
  TraceSession session;
  EXPECT_EQ(renderDriftReport(session),
            "drift: no prediction samples recorded\n");
  session.recordPrediction("gemm_k1", 1.5, 1.0);
  session.recordComparison("gemm_k1", false);
  const std::string report = renderDriftReport(session);
  EXPECT_NE(report.find("gemm_k1"), std::string::npos) << report;
  EXPECT_NE(report.find("ok"), std::string::npos);
  EXPECT_NE(report.find("baseline window 8"), std::string::npos);
}

}  // namespace
}  // namespace osel::obs
