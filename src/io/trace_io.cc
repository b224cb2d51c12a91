#include "io/trace_io.h"

#include "io/csv.h"
#include "util/string_util.h"

namespace fta {

std::string SerializeRawTrace(const RawCrowdData& raw) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"#", "FTA raw trace v1: task,x,y,expiry,reward | worker,x,y"});
  for (size_t t = 0; t < raw.task_locations.size(); ++t) {
    rows.push_back({"task", StrFormat("%.17g", raw.task_locations[t].x),
                    StrFormat("%.17g", raw.task_locations[t].y),
                    StrFormat("%.17g", raw.task_expiries[t]),
                    StrFormat("%.17g", raw.task_rewards[t])});
  }
  for (const Point& w : raw.worker_locations) {
    rows.push_back(
        {"worker", StrFormat("%.17g", w.x), StrFormat("%.17g", w.y)});
  }
  return ToCsv(rows);
}

Status SaveRawTrace(const std::string& path, const RawCrowdData& raw) {
  return WriteTextFile(path, SerializeRawTrace(raw));
}

namespace {

StatusOr<double> Field(const std::vector<std::string>& row, size_t i) {
  if (i >= row.size()) {
    return Status::ParseError(
        StrFormat("'%s' row is missing field %zu", row[0].c_str(), i));
  }
  return ParseDouble(row[i]);
}

}  // namespace

StatusOr<RawCrowdData> DeserializeRawTrace(const std::string& text) {
  StatusOr<CsvDocument> doc = ParseCsv(text);
  if (!doc.ok()) return doc.status();
  RawCrowdData raw;
  for (const auto& row : doc->rows) {
    if (row.empty()) continue;
    if (row[0] == "task") {
      auto x = Field(row, 1);
      auto y = Field(row, 2);
      auto expiry = Field(row, 3);
      auto reward = Field(row, 4);
      if (!x.ok()) return x.status();
      if (!y.ok()) return y.status();
      if (!expiry.ok()) return expiry.status();
      if (!reward.ok()) return reward.status();
      if (*expiry <= 0.0) {
        return Status::ParseError("task expiry must be positive");
      }
      if (*reward < 0.0) {
        return Status::ParseError("task reward must be non-negative");
      }
      raw.task_locations.push_back({*x, *y});
      raw.task_expiries.push_back(*expiry);
      raw.task_rewards.push_back(*reward);
    } else if (row[0] == "worker") {
      auto x = Field(row, 1);
      auto y = Field(row, 2);
      if (!x.ok()) return x.status();
      if (!y.ok()) return y.status();
      raw.worker_locations.push_back({*x, *y});
    } else if (StartsWith(row[0], "#")) {
      continue;
    } else {
      return Status::ParseError("unknown trace row tag: '" + row[0] + "'");
    }
  }
  return raw;
}

StatusOr<RawCrowdData> LoadRawTrace(const std::string& path) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) return text.status();
  return DeserializeRawTrace(*text);
}

}  // namespace fta
