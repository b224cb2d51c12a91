// C-VDPS catalog generation micro-bench: thread-count determinism, phase
// timings, and the heap allocations of one serial generation on the GM
// default instance, plus a report-only |DP| sweep at fixed density. Emits
// BENCH_vdps.json with wall-clock, counter, and memory fields so the bench
// trajectory accumulates across revisions.
//
// Hard gates (the bench aborts if they fail):
//  - catalogs are bit-identical across thread counts {1, 2, 4, 8}, for the
//    sequence and the beam engine;
//  - one serial sequence-engine Generate on the GM default instance makes
//    at most kMaxAllocsPerEntry heap allocations per generated entry,
//    counted by the global operator new of heap_count.cc. The catalog
//    itself holds about three vectors per entry (its set, its Pareto
//    frontier, a route per kept option) plus one strategy list and one
//    payoff list per worker; the rest is the enumeration's flat stores
//    and the strategy phase's reused buffers.

#include <sys/resource.h>

#include <fstream>
#include <sstream>

#include "bench/common.h"
#include "bench/heap_count.h"

namespace fta {
namespace bench {
namespace {

/// The allocation gate: heap allocations per generated entry of one serial
/// sequence-engine Generate on the GM default instance.
constexpr double kMaxAllocsPerEntry = 7.0;

/// Exact structural equality of two catalogs: entries (sets, rewards,
/// Pareto options with routes) and per-worker strategies. Doubles compared
/// bit-for-bit — the determinism guarantee is "identical", not "close".
bool CatalogsIdentical(const VdpsCatalog& a, const VdpsCatalog& b) {
  if (a.num_entries() != b.num_entries()) return false;
  for (size_t e = 0; e < a.num_entries(); ++e) {
    const CVdpsEntry& x = a.entry(e);
    const CVdpsEntry& y = b.entry(e);
    if (x.dps != y.dps || x.total_reward != y.total_reward ||
        x.options.size() != y.options.size()) {
      return false;
    }
    for (size_t o = 0; o < x.options.size(); ++o) {
      if (x.options[o].route != y.options[o].route ||
          x.options[o].center_time != y.options[o].center_time ||
          x.options[o].slack != y.options[o].slack) {
        return false;
      }
    }
  }
  if (a.num_workers() != b.num_workers()) return false;
  for (size_t w = 0; w < a.num_workers(); ++w) {
    const auto& sa = a.strategies(w);
    const auto& sb = b.strategies(w);
    if (sa.size() != sb.size()) return false;
    for (size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].entry_id != sb[i].entry_id || sa[i].option != sb[i].option ||
          a.route(sa[i]) != b.route(sb[i]) ||
          sa[i].total_time != sb[i].total_time ||
          sa[i].payoff != sb[i].payoff) {
        return false;
      }
    }
  }
  return true;
}

void AppendCounters(std::ostringstream& json, const GenerationCounters& g) {
  json << "\"states_expanded\": " << g.states_expanded
       << ", \"options_recorded\": " << g.options_recorded
       << ", \"pareto_inserts\": " << g.pareto_inserts
       << ", \"pareto_evictions\": " << g.pareto_evictions
       << ", \"entries\": " << g.entries
       << ", \"strategies\": " << g.strategies
       << ", \"arena_nodes\": " << g.arena_nodes
       << ", \"arena_bytes\": " << g.arena_bytes
       << ", \"adjacency_pairs\": " << g.adjacency_pairs
       << ", \"shards\": " << g.shards
       << ", \"max_shard_states\": " << g.max_shard_states
       << ", \"adjacency_ms\": " << StrFormat("%.3f", g.adjacency_ms)
       << ", \"enumerate_ms\": " << StrFormat("%.3f", g.enumerate_ms)
       << ", \"finalize_ms\": " << StrFormat("%.3f", g.finalize_ms)
       << ", \"strategies_ms\": " << StrFormat("%.3f", g.strategies_ms)
       << ", \"wall_ms\": " << StrFormat("%.3f", g.wall_ms);
}

/// The process's peak resident set so far, in MiB (Linux reports KiB).
double MaxRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Report-only |DP| sweep at fixed density: one SYN center whose region
/// grows with |DP| while delivery points, workers and tasks per km² stay at
/// the paper's SYN values (ScaleSyn), generated serially under SynOptions
/// (ε = 2 km, max_set_size 3). A center's 2 h deadlines bound how far its
/// sequences reach, so the enumeration saturates while the adjacency grows
/// linearly; a dense |DP|² travel matrix would grow quadratically. Each
/// step finishes within a few seconds on a 4-vCPU host.
void RunDpSweep(std::ostringstream& json) {
  std::printf("\n|DP| sweep (one SYN center, fixed density, serial):\n");
  json << "  \"dp_sweep\": [\n";
  const std::vector<size_t> steps{100, 1000, 10000, 100000};
  for (size_t i = 0; i < steps.size(); ++i) {
    SynConfig syn = ScaleSyn(SynConfig{}, static_cast<double>(steps[i]) /
                                              static_cast<double>(
                                                  SynConfig{}.num_delivery_points));
    syn.num_centers = 1;
    const Instance instance = std::move(GenerateSyn(syn).centers[0]);
    VdpsConfig config = SynOptions().vdps;
    config.num_threads = 1;
    Stopwatch sw;
    const VdpsCatalog catalog = VdpsCatalog::Generate(instance, config);
    const double wall_ms = sw.ElapsedMillis();
    const GenerationCounters& g = catalog.generation();
    std::printf(
        "  dps=%5zu area=%6.1fkm  pairs=%7llu states=%7llu entries=%7llu "
        "strategies=%8llu  adj=%7.2fms enum=%7.2fms strat=%7.2fms "
        "wall=%8.2fms  max_rss=%.1fMiB\n",
        instance.num_delivery_points(), syn.area,
        static_cast<unsigned long long>(g.adjacency_pairs),
        static_cast<unsigned long long>(g.states_expanded),
        static_cast<unsigned long long>(g.entries),
        static_cast<unsigned long long>(g.strategies), g.adjacency_ms,
        g.enumerate_ms, g.strategies_ms, wall_ms, MaxRssMb());
    json << "    {\"dps\": " << instance.num_delivery_points()
         << ", \"workers\": " << instance.num_workers()
         << ", \"area_km\": " << StrFormat("%.3f", syn.area)
         << ", \"bench_wall_ms\": " << StrFormat("%.3f", wall_ms)
         << ", \"max_rss_mb\": " << StrFormat("%.1f", MaxRssMb()) << ", ";
    AppendCounters(json, g);
    json << (i + 1 < steps.size() ? "},\n" : "}\n");
  }
  json << "  ],\n";
}

void Main() {
  PrintHeader("bench_vdps — parallel, allocation-lean C-VDPS generation");

  const Instance instance = GenerateGMissionLike(GmDefault(), GmPrepDefault());
  const VdpsConfig base = GmOptions().vdps;
  const std::vector<size_t> thread_counts{1, 2, 4, 8};

  struct Engine {
    const char* name;
    size_t beam_width;  // 0 = exhaustive sequence enumerator
  };
  // The exact DP is capped at 24 delivery points, so on the GM default
  // (|DP| = 100) the engines under test are the two scalable ones; the
  // vdps_catalog_equivalence test battery pins exact == sequences.
  const std::vector<Engine> engines{{"sequences", 0}, {"beam", 64}};

  std::ostringstream json;
  json << "{\n  \"bench\": \"vdps\",\n  \"meta\": " << BenchMetaJson()
       << ",\n"
       << "  \"dataset\": \"GM default (200 tasks, 40 workers, 100 dps, "
          "eps=0.6, maxDP=3)\",\n  \"engines\": [\n";

  bool first_entry = true;
  for (const Engine& engine : engines) {
    std::vector<VdpsCatalog> catalogs;
    for (size_t threads : thread_counts) {
      VdpsConfig config = base;
      config.beam_width = engine.beam_width;
      config.num_threads = threads;
      // Reuse one pool per thread count across engines and repetitions so
      // the timed region measures generation, not thread spawn.
      if (threads > 1) config.pool = &SharedBenchPool(threads);
      Stopwatch sw;
      catalogs.push_back(VdpsCatalog::Generate(instance, config));
      const double wall_ms = sw.ElapsedMillis();
      const VdpsCatalog& catalog = catalogs.back();
      const bool identical = CatalogsIdentical(catalogs.front(), catalog);
      FTA_CHECK_MSG(identical, "catalog at " << threads
                                             << " threads diverged from the "
                                                "1-thread catalog ("
                                             << engine.name << ")");
      std::printf(
          "%-9s threads=%zu  wall=%8.2fms  entries=%zu strategies=%llu "
          "states=%llu arena=%llu B  identical_to_serial=%s\n",
          engine.name, threads, wall_ms, catalog.num_entries(),
          static_cast<unsigned long long>(catalog.generation().strategies),
          static_cast<unsigned long long>(
              catalog.generation().states_expanded),
          static_cast<unsigned long long>(catalog.generation().arena_bytes),
          identical ? "yes" : "NO");
      if (!first_entry) json << ",\n";
      first_entry = false;
      json << "    {\"engine\": \"" << engine.name
           << "\", \"threads\": " << threads << ", \"bench_wall_ms\": "
           << StrFormat("%.3f", wall_ms) << ", \"identical_to_serial\": "
           << (identical ? "true" : "false") << ", ";
      AppendCounters(json, catalog.generation());
      json << "}";
    }
  }
  json << "\n  ],\n";

  RunDpSweep(json);

  // Allocation gate: every global operator new during one serial
  // Generate, after a warm-up run has paid for first-use statics (metric
  // registrations). The returned catalog's own vectors count too.
  VdpsConfig serial = base;
  serial.num_threads = 1;
  VdpsCatalog::Generate(instance, serial);
  const uint64_t before = HeapAllocations();
  const VdpsCatalog measured = VdpsCatalog::Generate(instance, serial);
  const uint64_t allocs = HeapAllocations() - before;
  const double per_entry =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<size_t>(measured.num_entries(), 1));
  std::printf(
      "\nsequences engine, serial Generate: %llu heap allocations for %zu "
      "entries and %llu strategies = %.2f per entry (gate <= %.1f)\n",
      static_cast<unsigned long long>(allocs), measured.num_entries(),
      static_cast<unsigned long long>(measured.generation().strategies),
      per_entry, kMaxAllocsPerEntry);
  FTA_CHECK_MSG(per_entry <= kMaxAllocsPerEntry,
                "serial Generate must make <= "
                    << kMaxAllocsPerEntry
                    << " heap allocations per entry, got "
                    << StrFormat("%.2f", per_entry));

  json << "  \"allocations\": {\"engine\": \"sequences\", \"threads\": 1"
       << ", \"heap_allocations\": " << allocs
       << ", \"entries\": " << measured.num_entries()
       << ", \"strategies\": " << measured.generation().strategies
       << ", \"allocs_per_entry\": " << StrFormat("%.3f", per_entry)
       << ", \"gate_max_allocs_per_entry\": "
       << StrFormat("%.1f", kMaxAllocsPerEntry) << "}\n}\n";

  const std::string path = "BENCH_vdps.json";
  std::ofstream out(path);
  out << json.str();
  out.close();
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace fta

int main() { fta::bench::Main(); }
