// osel/support/table.h — fixed-width text table rendering for the benchmark
// harness. Every reproduced table/figure prints through this so bench output
// lines up with the rows the paper reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace osel::support {

/// Column alignment for TextTable rendering.
enum class Align { Left, Right };

/// A simple text table: a header row plus data rows, rendered with
/// column-aligned padding or as CSV. Cells are strings; numeric formatting
/// helpers live in format.h.
class TextTable {
 public:
  /// Creates a table with the given column headers (defines column count).
  /// Precondition: at least one column.
  explicit TextTable(std::vector<std::string> headers);

  /// Sets per-column alignment; default is Left for the first column and
  /// Right for the rest. Precondition: size matches column count.
  void setAlignment(std::vector<Align> alignment);

  /// Appends a data row. Precondition: size matches column count.
  void addRow(std::vector<std::string> row);

  /// Appends a horizontal separator row (rendered as dashes).
  void addSeparator();

  [[nodiscard]] std::size_t rowCount() const { return rows_.size(); }

  /// Renders with space padding, a header underline, and `indent` leading
  /// spaces on every line.
  [[nodiscard]] std::string render(std::size_t indent = 0) const;

  /// Renders as RFC-4180-ish CSV (cells containing comma/quote/newline are
  /// quoted; separators are skipped).
  [[nodiscard]] std::string renderCsv() const;

 private:
  struct Row {
    std::vector<std::string> cells;  // empty == separator
    bool separator = false;
  };

  std::vector<std::string> headers_;
  std::vector<Align> alignment_;
  std::vector<Row> rows_;
};

}  // namespace osel::support
