#include "io/dataset_io.h"

#include "io/csv.h"
#include "util/string_util.h"

namespace fta {

std::string SerializeInstances(const MultiCenterInstance& multi) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"#", "FTA instance file v1"});
  for (const Instance& inst : multi.centers) {
    rows.push_back({"C", StrFormat("%.17g", inst.center().x),
                    StrFormat("%.17g", inst.center().y),
                    StrFormat("%.17g", inst.travel().speed())});
    for (const DeliveryPoint& dp : inst.delivery_points()) {
      rows.push_back({"D", StrFormat("%.17g", dp.location().x),
                      StrFormat("%.17g", dp.location().y)});
    }
    for (size_t d = 0; d < inst.num_delivery_points(); ++d) {
      for (const SpatialTask& t : inst.delivery_point(d).tasks()) {
        rows.push_back({"T", StrFormat("%u", t.delivery_point),
                        StrFormat("%.17g", t.expiry),
                        StrFormat("%.17g", t.reward)});
      }
    }
    for (const Worker& w : inst.workers()) {
      rows.push_back({"W", StrFormat("%.17g", w.location.x),
                      StrFormat("%.17g", w.location.y),
                      StrFormat("%u", w.max_delivery_points)});
    }
  }
  return ToCsv(rows);
}

Status SaveInstances(const std::string& path,
                     const MultiCenterInstance& multi) {
  return WriteTextFile(path, SerializeInstances(multi));
}

namespace {

/// Mutable draft of one center block while parsing.
struct CenterDraft {
  Point center;
  double speed = 5.0;
  std::vector<Point> dp_locations;
  std::vector<std::vector<SpatialTask>> dp_tasks;
  std::vector<Worker> workers;

  StatusOr<Instance> Finish() const {
    std::vector<DeliveryPoint> dps;
    dps.reserve(dp_locations.size());
    for (size_t d = 0; d < dp_locations.size(); ++d) {
      dps.emplace_back(dp_locations[d], dp_tasks[d]);
    }
    Instance inst(center, std::move(dps), workers, TravelModel(speed));
    Status s = inst.Validate();
    if (!s.ok()) return s;
    return inst;
  }
};

StatusOr<double> Field(const std::vector<std::string>& row, size_t i) {
  if (i >= row.size()) {
    return Status::ParseError(
        StrFormat("row '%s' is missing field %zu", row[0].c_str(), i));
  }
  return ParseDouble(row[i]);
}

}  // namespace

StatusOr<MultiCenterInstance> DeserializeInstances(const std::string& text) {
  StatusOr<CsvDocument> doc = ParseCsv(text);
  if (!doc.ok()) return doc.status();

  MultiCenterInstance multi;
  CenterDraft draft;
  bool have_center = false;
  const auto flush = [&]() -> Status {
    if (!have_center) return Status::Ok();
    StatusOr<Instance> inst = draft.Finish();
    if (!inst.ok()) return inst.status();
    multi.centers.push_back(std::move(inst).value());
    draft = CenterDraft{};
    return Status::Ok();
  };

  for (const auto& row : doc->rows) {
    if (row.empty()) continue;
    const std::string& tag = row[0];
    if (tag == "C") {
      Status s = flush();
      if (!s.ok()) return s;
      auto x = Field(row, 1);
      auto y = Field(row, 2);
      auto speed = Field(row, 3);
      if (!x.ok()) return x.status();
      if (!y.ok()) return y.status();
      if (!speed.ok()) return speed.status();
      if (*speed <= 0.0) return Status::ParseError("speed must be > 0");
      draft.center = {*x, *y};
      draft.speed = *speed;
      have_center = true;
    } else if (tag == "D") {
      if (!have_center) return Status::ParseError("D row before any C row");
      auto x = Field(row, 1);
      auto y = Field(row, 2);
      if (!x.ok()) return x.status();
      if (!y.ok()) return y.status();
      draft.dp_locations.push_back({*x, *y});
      draft.dp_tasks.emplace_back();
    } else if (tag == "T") {
      if (!have_center) return Status::ParseError("T row before any C row");
      auto dp = Field(row, 1);
      auto expiry = Field(row, 2);
      auto reward = Field(row, 3);
      if (!dp.ok()) return dp.status();
      if (!expiry.ok()) return expiry.status();
      if (!reward.ok()) return reward.status();
      const size_t d = static_cast<size_t>(*dp);
      if (*dp < 0 || d >= draft.dp_locations.size()) {
        return Status::ParseError(
            StrFormat("task references unknown delivery point %.0f", *dp));
      }
      draft.dp_tasks[d].push_back(
          SpatialTask{static_cast<uint32_t>(d), *expiry, *reward});
    } else if (tag == "W") {
      if (!have_center) return Status::ParseError("W row before any C row");
      auto x = Field(row, 1);
      auto y = Field(row, 2);
      auto maxdp = Field(row, 3);
      if (!x.ok()) return x.status();
      if (!y.ok()) return y.status();
      if (!maxdp.ok()) return maxdp.status();
      if (*maxdp < 1.0) return Status::ParseError("worker maxDP must be >= 1");
      draft.workers.push_back(
          Worker{{*x, *y}, static_cast<uint32_t>(*maxdp)});
    } else if (StartsWith(tag, "#")) {
      continue;  // comment row
    } else {
      return Status::ParseError("unknown row tag: '" + tag + "'");
    }
  }
  Status s = flush();
  if (!s.ok()) return s;
  return multi;
}

StatusOr<MultiCenterInstance> LoadInstances(const std::string& path) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) return text.status();
  return DeserializeInstances(*text);
}

}  // namespace fta
