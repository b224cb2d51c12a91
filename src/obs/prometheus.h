#ifndef FTA_OBS_PROMETHEUS_H_
#define FTA_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/window.h"

namespace fta {
namespace obs {

/// Prometheus text-exposition rendering of the metrics layer.
///
/// Pure functions over snapshot values: rendering never touches the live
/// registry, takes no locks beyond the snapshot the caller already made,
/// and reads no clock — the output is a deterministic function of its
/// inputs, so a replayed run publishes byte-identical pages.
///
/// Mapping:
///  - Counter   -> `# TYPE <name>_total counter` + one sample
///  - Gauge     -> `# TYPE <name> gauge` + one sample
///  - Sketch    -> `# TYPE <name> summary`, quantile samples for
///                 0.5 / 0.9 / 0.99 read from the sketch, `_sum`, `_count`

/// Sanitizes a registry metric name ("stream/tick_ms") into a Prometheus
/// metric name ("fta_stream_tick_ms"): prefixes "fta_", maps every
/// character outside [a-zA-Z0-9_:] to '_'.
std::string PrometheusName(std::string_view name);

/// Renders a full snapshot as a Prometheus text-format page (version
/// 0.0.4, the format every Prometheus scraper accepts).
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Appends one rolling window as a gauge family
/// `fta_window_<name>{stat="..."}` with stats p50/p90/p99/count/sum/
/// rate_per_epoch/epochs. Windows live outside the registry, so they are
/// exported separately from ToPrometheusText.
void AppendWindowSummary(std::string_view name, const WindowStats& stats,
                         std::string& out);

/// Publishes `text` at `path` atomically: writes `path`.tmp then renames
/// over `path`, so a concurrent reader (scraper, tail, metrics-serve)
/// never observes a torn page. Returns false on I/O failure.
bool WriteTextFileAtomic(const std::string& path, const std::string& text);

}  // namespace obs
}  // namespace fta

#endif  // FTA_OBS_PROMETHEUS_H_
