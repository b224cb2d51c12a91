// C-VDPS catalog generation micro-bench: thread-count determinism, phase
// timings, and the route arena's allocation savings on the GM default
// instance. Emits BENCH_vdps.json with wall-clock, counter, and memory
// fields so the bench trajectory accumulates across revisions.
//
// Hard gates (the bench aborts if they fail):
//  - catalogs are bit-identical across thread counts {1, 2, 4, 8};
//  - the sequence engine cuts transient route allocations and bytes per
//    generated entry by >= 2x vs. the pre-arena implementation (modeled
//    exactly by the legacy_* counters). "Transient" = route copies that do
//    not survive into the final catalog: the old enumerator allocated a
//    sort key + an option route per recorded sequence and threw away
//    everything the Pareto frontier rejected; the serial arena engines
//    allocate exactly the final catalog (entry.dps keys + surviving
//    routes), so their transient route traffic is zero by construction.
//    (Parallel runs additionally copy the few set keys that multiple
//    shards discover independently; the gate measures the serial run.)

#include <fstream>
#include <sstream>

#include "bench/common.h"

namespace fta {
namespace bench {
namespace {

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
       << ", \"route_allocs\": " << g.route_allocs
       << ", \"route_bytes_copied\": " << g.route_bytes_copied
       << ", \"scratch_bytes_copied\": " << g.scratch_bytes_copied
       << ", \"legacy_route_allocs\": " << g.legacy_route_allocs
       << ", \"legacy_route_bytes\": " << g.legacy_route_bytes
       << ", \"adjacency_pairs\": " << g.adjacency_pairs
       << ", \"shards\": " << g.shards
       << ", \"max_shard_states\": " << g.max_shard_states
       << ", \"adjacency_ms\": " << StrFormat("%.3f", g.adjacency_ms)
       << ", \"enumerate_ms\": " << StrFormat("%.3f", g.enumerate_ms)
       << ", \"finalize_ms\": " << StrFormat("%.3f", g.finalize_ms)
       << ", \"strategies_ms\": " << StrFormat("%.3f", g.strategies_ms)
       << ", \"wall_ms\": " << StrFormat("%.3f", g.wall_ms);
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
  GenerationCounters sequences_serial_counters;
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
      if (engine.beam_width == 0 && threads == 1) {
        sequences_serial_counters = catalog.generation();
      }
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

  // Allocation-reduction gate. Both implementations end with the same
  // catalog (entry.dps keys + surviving option routes), so the retained
  // route copies are common to both and the arena's win is everything
  // else: the pre-arena enumerator's per-record sort key + option route
  // allocations that the Pareto frontier later discarded. For the arena
  // engines route_allocs/route_bytes_copied count exactly the retained
  // copies, so the transient traffic is (legacy − retained) vs.
  // scratch-only — zero heap allocations, zero heap bytes.
  const GenerationCounters& g = sequences_serial_counters;
  const uint64_t transient_allocs_now = 0;  // by construction; see above
  const uint64_t transient_bytes_now = g.scratch_bytes_copied;
  const uint64_t transient_allocs_old = g.legacy_route_allocs - g.route_allocs;
  const uint64_t transient_bytes_old =
      g.legacy_route_bytes - g.route_bytes_copied;
  const double alloc_ratio =
      static_cast<double>(transient_allocs_old) /
      static_cast<double>(std::max<uint64_t>(transient_allocs_now, 1));
  const double bytes_ratio =
      static_cast<double>(transient_bytes_old) /
      static_cast<double>(std::max<uint64_t>(transient_bytes_now, 1));
  const double entries_d = static_cast<double>(std::max<uint64_t>(g.entries, 1));
  std::printf(
      "\nsequences engine, route-copy accounting (per generated entry):\n"
      "  transient allocs: %.2f pre-arena -> %.2f now (>= %.0fx reduction)\n"
      "  transient bytes:  %.2f pre-arena -> %.2f now (>= %.0fx reduction)\n"
      "  total allocs:     %.2f pre-arena -> %.2f now "
      "(remainder is the final catalog itself)\n"
      "  arena footprint:  %llu B of shared 8-byte nodes replace %llu B of "
      "discarded route copies\n",
      static_cast<double>(transient_allocs_old) / entries_d,
      static_cast<double>(transient_allocs_now) / entries_d, alloc_ratio,
      static_cast<double>(transient_bytes_old) / entries_d,
      static_cast<double>(transient_bytes_now) / entries_d, bytes_ratio,
      static_cast<double>(g.legacy_route_allocs) / entries_d,
      static_cast<double>(g.route_allocs) / entries_d,
      static_cast<unsigned long long>(g.arena_bytes),
      static_cast<unsigned long long>(transient_bytes_old));
  FTA_CHECK_MSG(
      transient_allocs_old > 0 && alloc_ratio >= 2.0 && bytes_ratio >= 2.0,
      "route arena must cut transient route allocations and bytes per entry "
      "by >= 2x (got "
          << StrFormat("%.2fx / %.2fx", alloc_ratio, bytes_ratio) << ")");

  json << "  \"alloc_reduction\": {\"engine\": \"sequences\", "
       << "\"transient_alloc_ratio\": " << StrFormat("%.3f", alloc_ratio)
       << ", \"transient_bytes_ratio\": " << StrFormat("%.3f", bytes_ratio)
       << ", \"transient_allocs_per_entry\": "
       << StrFormat("%.3f",
                    static_cast<double>(transient_allocs_old) / entries_d)
       << ", \"transient_allocs_per_entry_now\": "
       << StrFormat("%.3f",
                    static_cast<double>(transient_allocs_now) / entries_d)
       << ", \"total_allocs_per_entry\": "
       << StrFormat("%.3f", static_cast<double>(g.route_allocs) / entries_d)
       << ", \"legacy_total_allocs_per_entry\": "
       << StrFormat("%.3f",
                    static_cast<double>(g.legacy_route_allocs) / entries_d)
       << "}\n}\n";

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
