#ifndef FTA_EXP_REPORT_H_
#define FTA_EXP_REPORT_H_

#include <string>
#include <vector>

namespace fta {

/// Accumulates a rectangular results table (the rows/series of one paper
/// figure) and renders it as an aligned text table. Cells are strings;
/// use AddNumericRow for formatted numeric rows.
class ResultTable {
 public:
  /// `title` is printed above the table; `header` names the columns.
  ResultTable(std::string title, std::vector<std::string> header);

  /// Appends a row of preformatted cells (must match the header width).
  void AddRow(std::vector<std::string> cells);
  /// Appends a row of a label plus numeric cells formatted as %.4g.
  void AddNumericRow(const std::string& label,
                     const std::vector<double>& values);

  const std::string& title() const { return title_; }
  size_t num_rows() const { return rows_.size(); }

  /// Aligned, human-readable rendering (what the bench binaries print).
  std::string ToText() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fta

#endif  // FTA_EXP_REPORT_H_
