#include "io/assignment_io.h"

#include "io/csv.h"
#include "util/string_util.h"

namespace fta {

std::string SerializeAssignment(const Assignment& assignment) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"#", "FTA assignment v1"});
  rows.push_back({"N", StrFormat("%zu", assignment.num_workers())});
  for (size_t w = 0; w < assignment.num_workers(); ++w) {
    const Route& route = assignment.route(w);
    if (route.empty()) continue;
    std::vector<std::string> row{"A", StrFormat("%zu", w)};
    for (uint32_t dp : route) row.push_back(StrFormat("%u", dp));
    rows.push_back(std::move(row));
  }
  return ToCsv(rows);
}

Status SaveAssignment(const std::string& path,
                      const Assignment& assignment) {
  return WriteTextFile(path, SerializeAssignment(assignment));
}

StatusOr<Assignment> DeserializeAssignment(const std::string& text,
                                           const Instance& instance) {
  StatusOr<CsvDocument> doc = ParseCsv(text);
  if (!doc.ok()) return doc.status();
  Assignment assignment(instance.num_workers());
  bool saw_count = false;
  for (const auto& row : doc->rows) {
    if (row.empty() || StartsWith(row[0], "#")) continue;
    if (row[0] == "N") {
      if (row.size() < 2) return Status::ParseError("N row missing count");
      StatusOr<int64_t> n = ParseInt(row[1]);
      if (!n.ok()) return n.status();
      if (*n < 0 || static_cast<size_t>(*n) != instance.num_workers()) {
        return Status::InvalidArgument(StrFormat(
            "assignment is for %lld workers, instance has %zu",
            static_cast<long long>(*n), instance.num_workers()));
      }
      saw_count = true;
    } else if (row[0] == "A") {
      if (row.size() < 3) {
        return Status::ParseError("A row needs a worker and >= 1 stop");
      }
      StatusOr<int64_t> w = ParseInt(row[1]);
      if (!w.ok()) return w.status();
      if (*w < 0 || static_cast<size_t>(*w) >= instance.num_workers()) {
        return Status::OutOfRange(StrFormat(
            "worker %lld out of range", static_cast<long long>(*w)));
      }
      Route route;
      for (size_t i = 2; i < row.size(); ++i) {
        StatusOr<int64_t> dp = ParseInt(row[i]);
        if (!dp.ok()) return dp.status();
        if (*dp < 0 ||
            static_cast<size_t>(*dp) >= instance.num_delivery_points()) {
          return Status::OutOfRange(StrFormat(
              "delivery point %lld out of range",
              static_cast<long long>(*dp)));
        }
        route.push_back(static_cast<uint32_t>(*dp));
      }
      if (!assignment.route(static_cast<size_t>(*w)).empty()) {
        return Status::InvalidArgument(
            StrFormat("duplicate A row for worker %lld",
                      static_cast<long long>(*w)));
      }
      assignment.SetRoute(static_cast<size_t>(*w), std::move(route));
    } else {
      return Status::ParseError("unknown assignment row tag: '" + row[0] +
                                "'");
    }
  }
  if (!saw_count) return Status::ParseError("missing N row");
  Status s = assignment.Validate(instance);
  if (!s.ok()) return s;
  return assignment;
}

StatusOr<Assignment> LoadAssignment(const std::string& path,
                                    const Instance& instance) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) return text.status();
  return DeserializeAssignment(*text, instance);
}

}  // namespace fta
