#include "obs/prometheus.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace fta {
namespace obs {

namespace {

/// Shortest round-tripping decimal, same rule as JsonWriter::Double, so a
/// value prints identically on the JSON and Prometheus sides.
std::string FormatDouble(double value) {
  if (!std::isfinite(value)) {
    if (std::isnan(value)) return "NaN";
    return value > 0 ? "+Inf" : "-Inf";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    if (std::strtod(candidate, nullptr) == value) return candidate;
  }
  return buf;
}

void AppendSample(std::string& out, const std::string& name,
                  std::string_view labels, double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += FormatDouble(value);
  out += '\n';
}

void AppendSample(std::string& out, const std::string& name,
                  std::string_view labels, uint64_t value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void AppendType(std::string& out, const std::string& name,
                std::string_view type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string PrometheusName(std::string_view name) {
  std::string out = "fta_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricReading& m : snapshot.metrics) {
    const std::string name = PrometheusName(m.name);
    switch (m.kind) {
      case MetricReading::Kind::kCounter: {
        const std::string total = name + "_total";
        AppendType(out, total, "counter");
        AppendSample(out, total, "", m.counter);
        break;
      }
      case MetricReading::Kind::kGauge: {
        AppendType(out, name, "gauge");
        AppendSample(out, name, "", m.gauge);
        break;
      }
      case MetricReading::Kind::kSketch: {
        AppendType(out, name, "summary");
        AppendSample(out, name, "quantile=\"0.5\"",
                     m.sketch.ValueAtQuantile(0.5));
        AppendSample(out, name, "quantile=\"0.9\"",
                     m.sketch.ValueAtQuantile(0.9));
        AppendSample(out, name, "quantile=\"0.99\"",
                     m.sketch.ValueAtQuantile(0.99));
        AppendSample(out, name + "_sum", "", m.sum);
        AppendSample(out, name + "_count", "", m.count);
        break;
      }
    }
  }
  return out;
}

void AppendWindowSummary(std::string_view name, const WindowStats& stats,
                         std::string& out) {
  const std::string family = PrometheusName(std::string("window_") +
                                            std::string(name));
  AppendType(out, family, "gauge");
  AppendSample(out, family, "stat=\"p50\"", stats.Quantile(0.5));
  AppendSample(out, family, "stat=\"p90\"", stats.Quantile(0.9));
  AppendSample(out, family, "stat=\"p99\"", stats.Quantile(0.99));
  AppendSample(out, family, "stat=\"count\"", stats.count());
  AppendSample(out, family, "stat=\"sum\"", stats.sum());
  AppendSample(out, family, "stat=\"rate_per_epoch\"", stats.RatePerEpoch());
  AppendSample(out, family, "stat=\"epochs\"",
               static_cast<uint64_t>(stats.epochs));
}

bool WriteTextFileAtomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f << text;
    f.flush();
    if (!f) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace obs
}  // namespace fta
