#include "exp/run_report.h"

#include <fstream>
#include <utility>

#include "obs/json.h"

namespace fta {
namespace {

void AppendEngine(obs::JsonWriter& w, const BestResponseCounters& e) {
  w.BeginObject();
  w.Key("strategies_scanned");
  w.UInt(e.strategies_scanned);
  w.Key("parallel_batches");
  w.UInt(e.parallel_batches);
  w.Key("simd");
  w.BeginObject();
  w.Key("batches");
  w.UInt(e.simd_batches);
  w.Key("lanes");
  w.UInt(e.simd_lanes);
  w.EndObject();
  w.Key("ledger");
  w.BeginObject();
  w.Key("sorts_eliminated");
  w.UInt(e.ledger.sorts_eliminated);
  w.Key("bytes_not_allocated");
  w.UInt(e.ledger.bytes_not_allocated);
  w.Key("memmove_elements");
  w.UInt(e.ledger.memmove_elements);
  w.Key("scratch_reuses");
  w.UInt(e.ledger.scratch_reuses);
  w.EndObject();
  w.EndObject();
}

void AppendGeneration(obs::JsonWriter& w, const GenerationCounters& g) {
  w.BeginObject();
  w.Key("states_expanded");
  w.UInt(g.states_expanded);
  w.Key("options_recorded");
  w.UInt(g.options_recorded);
  w.Key("pareto_inserts");
  w.UInt(g.pareto_inserts);
  w.Key("pareto_evictions");
  w.UInt(g.pareto_evictions);
  w.Key("entries");
  w.UInt(g.entries);
  w.Key("strategies");
  w.UInt(g.strategies);
  w.Key("arena_nodes");
  w.UInt(g.arena_nodes);
  w.Key("arena_bytes");
  w.UInt(g.arena_bytes);
  w.Key("adjacency_pairs");
  w.UInt(g.adjacency_pairs);
  w.Key("shards");
  w.UInt(g.shards);
  w.Key("max_shard_states");
  w.UInt(g.max_shard_states);
  w.Key("adjacency_ms");
  w.Double(g.adjacency_ms);
  w.Key("enumerate_ms");
  w.Double(g.enumerate_ms);
  w.Key("finalize_ms");
  w.Double(g.finalize_ms);
  w.Key("strategies_ms");
  w.Double(g.strategies_ms);
  w.Key("wall_ms");
  w.Double(g.wall_ms);
  w.EndObject();
}

}  // namespace

std::string RunReport::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("fta-run-report-v1");
  w.Key("tool");
  w.String(tool);
  w.Key("algorithm");
  w.String(algorithm);
  w.Key("dataset");
  w.String(dataset);

  w.Key("metrics");
  w.BeginObject();
  w.Key("payoff_difference");
  w.Double(metrics.payoff_difference);
  w.Key("average_payoff");
  w.Double(metrics.average_payoff);
  w.Key("total_payoff");
  w.Double(metrics.total_payoff);
  w.Key("cpu_seconds");
  w.Double(metrics.cpu_seconds);
  w.Key("num_workers");
  w.UInt(metrics.num_workers);
  w.Key("assigned_workers");
  w.UInt(metrics.assigned_workers);
  w.Key("covered_tasks");
  w.UInt(metrics.covered_tasks);
  w.Key("rounds");
  w.Int(metrics.rounds);
  w.Key("converged");
  w.Bool(metrics.converged);
  w.EndObject();

  w.Key("generation");
  AppendGeneration(w, metrics.generation);

  w.Key("engine");
  AppendEngine(w, metrics.engine);

  w.Key("iterations");
  w.BeginArray();
  for (const IterationStats& it : metrics.trace) {
    w.BeginObject();
    w.Key("iteration");
    w.Int(it.iteration);
    w.Key("payoff_difference");
    w.Double(it.payoff_difference);
    w.Key("average_payoff");
    w.Double(it.average_payoff);
    w.Key("potential");
    w.Double(it.potential);
    w.Key("num_changes");
    w.UInt(it.num_changes);
    w.Key("engine");
    AppendEngine(w, it.engine);
    w.EndObject();
  }
  w.EndArray();

  w.Key("metrics_registry");
  registry.AppendTo(w);

  w.Key("windows");
  w.BeginObject();
  for (const auto& [name, stats] : windows) {
    w.Key(name);
    w.BeginObject();
    w.Key("epochs");
    w.UInt(stats.epochs);
    w.Key("capacity");
    w.UInt(stats.capacity);
    w.Key("count");
    w.UInt(stats.count());
    w.Key("sum");
    w.Double(stats.sum());
    w.Key("rate_per_epoch");
    w.Double(stats.RatePerEpoch());
    w.Key("p50");
    w.Double(stats.Quantile(0.5));
    w.Key("p90");
    w.Double(stats.Quantile(0.9));
    w.Key("p99");
    w.Double(stats.Quantile(0.99));
    w.EndObject();
  }
  w.EndObject();

  w.Key("spans");
  w.BeginArray();
  for (const obs::SpanEvent& s : spans) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("start_us");
    w.UInt(s.start_us);
    w.Key("dur_us");
    w.UInt(s.dur_us);
    w.Key("tid");
    w.UInt(s.tid);
    w.Key("depth");
    w.UInt(s.depth);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.str();
}

Status RunReport::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << ToJson() << '\n';
  out.close();
  if (!out) return Status::IoError("failed writing '" + path + "'");
  return Status::Ok();
}

RunReport BuildRunReport(std::string tool, std::string algorithm,
                         std::string dataset, RunMetrics metrics) {
  RunReport report;
  report.tool = std::move(tool);
  report.algorithm = std::move(algorithm);
  report.dataset = std::move(dataset);
  report.metrics = std::move(metrics);
  report.registry = obs::MetricsRegistry::Global().Snapshot();
  report.spans = obs::TraceRecorder::Global().Snapshot();
  return report;
}

}  // namespace fta
