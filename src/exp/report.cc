#include "exp/report.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace fta {

ResultTable::ResultTable(std::string title, std::vector<std::string> header)
    : title_(std::move(title)), header_(std::move(header)) {}

void ResultTable::AddRow(std::vector<std::string> cells) {
  FTA_CHECK_MSG(cells.size() == header_.size(),
                "row width does not match header");
  rows_.push_back(std::move(cells));
}

void ResultTable::AddNumericRow(const std::string& label,
                                const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(StrFormat("%.4g", v));
  AddRow(std::move(cells));
}

std::string ResultTable::ToText() const {
  std::vector<size_t> width(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::string out = "== " + title_ + " ==\n";
  const auto render = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += StrFormat("%-*s", static_cast<int>(width[c] + 2), row[c].c_str());
    }
    // Trim trailing spaces for tidy output.
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out.push_back('\n');
  };
  render(header_);
  size_t total = header_.size() * 2;
  for (size_t c = 0; c < header_.size(); ++c) total += width[c];
  out += std::string(total - 2, '-');
  out.push_back('\n');
  for (const auto& row : rows_) render(row);
  return out;
}

}  // namespace fta
