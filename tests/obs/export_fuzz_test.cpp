// Hostile-label property test for the exporters (satellite of the decision
// forensics PR): region labels carrying quotes, backslashes, commas, control
// characters, and multi-byte UTF-8 sequences truncated at the 48-byte inline
// label boundary must still yield a syntactically valid Chrome trace JSON
// document, a valid explain-JSON document, and well-formed Prometheus
// exposition lines. The validators below are deliberately independent
// re-implementations (byte-level), not the exporters' own escaping logic.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"
#include "support/rng.h"

namespace osel::obs {
namespace {

// --- Minimal JSON syntax checker --------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') return ++pos_, true;
      if (c < 0x20) return false;  // raw control byte: invalid in JSON
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --- Prometheus exposition line checker -------------------------------------

bool validPromName(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != ':') {
      return false;
    }
  }
  return std::isdigit(static_cast<unsigned char>(name.front())) == 0;
}

/// One sample line: name[{label="escaped",...}] value. Returns false on any
/// malformed name, label block, or value.
bool validPromSampleLine(std::string_view line) {
  std::size_t nameEnd = 0;
  while (nameEnd < line.size() && line[nameEnd] != '{' && line[nameEnd] != ' ')
    ++nameEnd;
  if (!validPromName(line.substr(0, nameEnd))) return false;
  std::size_t pos = nameEnd;
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      std::size_t keyEnd = pos;
      while (keyEnd < line.size() && line[keyEnd] != '=') ++keyEnd;
      if (!validPromName(line.substr(pos, keyEnd - pos))) return false;
      pos = keyEnd + 1;
      if (pos >= line.size() || line[pos] != '"') return false;
      ++pos;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\') {
          ++pos;
          if (pos >= line.size() ||
              (line[pos] != '\\' && line[pos] != '"' && line[pos] != 'n')) {
            return false;  // only \\, \" and \n escapes are defined
          }
        } else if (line[pos] == '\n') {
          return false;  // raw newline inside a label value
        }
        ++pos;
      }
      if (pos >= line.size()) return false;  // unterminated value
      ++pos;                                 // closing '"'
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size()) return false;  // unterminated label block
    ++pos;                                 // '}'
  }
  if (pos >= line.size() || line[pos] != ' ') return false;
  const std::string_view value = line.substr(pos + 1);
  if (value.empty()) return false;
  if (value == "NaN" || value == "+Inf" || value == "-Inf") return true;
  char* end = nullptr;
  const std::string owned(value);
  (void)std::strtod(owned.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool validPromExposition(const std::string& text) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) return false;  // must end with newline
    const std::string_view line(text.data() + start, end - start);
    if (!line.empty() && line[0] != '#' && !validPromSampleLine(line)) {
      ADD_FAILURE() << "bad exposition line: " << line;
      return false;
    }
    start = end + 1;
  }
  return true;
}

// --- Hostile label corpus ----------------------------------------------------

std::vector<std::string> hostileLabels() {
  std::vector<std::string> labels{
      "plain_k1",
      "quote\"inside",
      "back\\slash",
      "comma,semicolon;",
      "newline\nand\ttab",
      "ctrl\x01\x02\x1f bytes",
      "brace}{bracket][",
      "utf8 \xc3\xa9\xe2\x82\xac ok",
      std::string("embedded\0nul", 12),
  };
  // A 3-byte UTF-8 character (€, E2 82 AC) straddling the 48-byte inline
  // label capacity: byte 47 starts the sequence, so truncation at
  // kLabelCapacity-1 cuts it mid-character.
  std::string straddle(46, 'a');
  straddle += "\xe2\x82\xac tail";
  labels.push_back(straddle);
  // Randomized mix over a hostile alphabet.
  support::SplitMix64 rng(0x0B5C05EDULL);
  const std::string_view alphabet = "ab\"\\\n\r\t,{}\x01\x7f\xc3\xa9\xe2";
  for (int i = 0; i < 64; ++i) {
    std::string label;
    const std::size_t length = rng.nextBelow(80);
    for (std::size_t j = 0; j < length; ++j) {
      label += alphabet[rng.nextBelow(alphabet.size())];
    }
    labels.push_back(std::move(label));
  }
  return labels;
}

TEST(ExportFuzz, ChromeTraceStaysValidJsonUnderHostileLabels) {
  TraceSession session({.capacity = 256});
  std::int64_t ts = 0;
  for (const std::string& label : hostileLabels()) {
    session.recordSpan("decide", "compiled", label, ts, 10);
    session.recordInstant("retry", "guard", label, ts + 5, {"attempt", 1.0});
    ts += 20;
  }
  const std::string json = renderChromeTrace(session);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST(ExportFuzz, ExplainJsonStaysValidUnderHostileRegionNames) {
  TraceSession session({.explainCapacity = 256});
  for (const std::string& label : hostileLabels()) {
    DecisionExplain explain;
    explain.setRegion(label);
    explain.predictedSpeedup = 1.5;
    session.recordExplain(explain);
  }
  const std::string json = renderExplainJson(session);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST(ExportFuzz, PrometheusExpositionStaysWellFormedUnderHostileLabels) {
  TraceSession session({.capacity = 256});
  session.metrics().counter("decision.compiled").add(3);
  session.metrics().gauge("decision_cache.hit_ratio").set(0.5);
  session.metrics().histogram("decision.overhead_s", {1e-6, 1e-3}).record(1e-4);
  for (const std::string& label : hostileLabels()) {
    session.recordPrediction(label, 1.5, 1.0);
    session.recordComparison(label, true);
    DecisionExplain explain;
    explain.setRegion(label);
    session.recordExplain(explain);
  }
  const std::string exposition = renderPrometheus(session);
  EXPECT_TRUE(validPromExposition(exposition));
}

}  // namespace
}  // namespace osel::obs
