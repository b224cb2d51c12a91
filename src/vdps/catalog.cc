#include "vdps/catalog.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "vdps/catalog_internal.h"
#include "vdps/generators.h"
#include "vdps/pareto.h"

namespace fta {
namespace {

using vdps_internal::kMinTravelTime;

/// Mirrors a finished generation run into the process-wide metrics
/// registry. Counter adds only (order-invariant across parallel centers);
/// wall times go to a sketch, whose *count* stays deterministic.
void PublishGeneration(const GenerationCounters& g) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& runs = reg.GetCounter("vdps/generations");
  static obs::Counter& states = reg.GetCounter("vdps/states_expanded");
  static obs::Counter& options = reg.GetCounter("vdps/options_recorded");
  static obs::Counter& inserts = reg.GetCounter("vdps/pareto_inserts");
  static obs::Counter& evictions = reg.GetCounter("vdps/pareto_evictions");
  static obs::Counter& entries = reg.GetCounter("vdps/entries");
  static obs::Counter& strategies = reg.GetCounter("vdps/strategies");
  static obs::Counter& arena_nodes = reg.GetCounter("vdps/arena_nodes");
  static obs::Counter& arena_bytes = reg.GetCounter("vdps/arena_bytes");
  static obs::Counter& adjacency = reg.GetCounter("vdps/adjacency_pairs");
  static obs::Counter& shards = reg.GetCounter("vdps/shards");
  static obs::QuantileSketch& wall =
      reg.GetSketch("vdps/generate_wall_ms", 0.01);
  runs.Increment();
  states.Add(g.states_expanded);
  options.Add(g.options_recorded);
  inserts.Add(g.pareto_inserts);
  evictions.Add(g.pareto_evictions);
  entries.Add(g.entries);
  strategies.Add(g.strategies);
  arena_nodes.Add(g.arena_nodes);
  arena_bytes.Add(g.arena_bytes);
  adjacency.Add(g.adjacency_pairs);
  shards.Add(g.shards);
  wall.Observe(g.wall_ms);
}

/// Workers per strategy-phase job: enough that each job's reused list
/// and sort buffers amortize over several workers.
constexpr size_t kWorkersPerStrategyChunk = 16;

/// The radix key of SortStrategies: ascending key is descending payoff for
/// payoffs >= 0, and + 0.0 folds -0 into +0, which compares equal to it.
uint64_t StrategyKey(const WorkerStrategy& st) {
  return ~std::bit_cast<uint64_t>(st.payoff + 0.0);
}

}  // namespace

namespace vdps_internal {

WorkerStrategy* SortStrategies(WorkerStrategy* list, WorkerStrategy* scratch,
                               size_t n) {
  for (size_t i = 0; i < n; ++i) FTA_DCHECK(list[i].payoff >= 0.0);
  if (n < kRadixSortMinStrategies) {
    std::sort(list, list + n, StrategyOrder{});
    return list;
  }
  // One pass counts all eight byte digits; a digit every key shares is
  // skipped (payoffs of one worker share their exponent bytes).
  constexpr int kDigits = 8;
  uint32_t count[kDigits][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = StrategyKey(list[i]);
    for (int d = 0; d < kDigits; ++d) ++count[d][(key >> (8 * d)) & 0xff];
  }
  const uint64_t first = StrategyKey(list[0]);
  WorkerStrategy* src = list;
  WorkerStrategy* dst = scratch;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 8 * d;
    if (count[d][(first >> shift) & 0xff] == n) continue;
    uint32_t at[256];
    uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      at[b] = sum;
      sum += count[d][b];
    }
    for (size_t i = 0; i < n; ++i) {
      dst[at[(StrategyKey(src[i]) >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

StrategyProbe::StrategyProbe(const std::vector<CVdpsEntry>& entries)
    : size(entries.size()), reach(entries.size()) {
  for (size_t e = 0; e < entries.size(); ++e) {
    const std::vector<SequenceOption>& options = entries[e].options;
    size[e] = static_cast<uint32_t>(entries[e].dps.size());
    reach[e] = options.empty() ? -kInfinity : options.back().slack + kEps;
    max_reach = std::max(max_reach, reach[e]);
  }
}

TravelGraph BuildTravelGraph(const Instance& instance,
                             const VdpsConfig& config, ThreadPool* pool,
                             GenerationCounters* counters) {
  Stopwatch sw;
  FTA_SPAN("vdps/adjacency");
  const std::vector<Point> points = instance.DeliveryPointLocations();
  TravelGraph g;
  g.adj = std::isinf(config.epsilon)
              ? CompleteAdjacency(points.size())
              : GridIndex(points, config.epsilon)
                    .BuildRadiusAdjacency(config.epsilon, pool);
  g.times = EdgeTravelTimes(instance.center(), points, g.adj,
                            instance.travel());
  counters->adjacency_ms = sw.ElapsedMillis();
  counters->adjacency_pairs = g.adj.num_pairs();
  return g;
}

}  // namespace vdps_internal

void GenerationCounters::Merge(const GenerationCounters& o) {
  states_expanded += o.states_expanded;
  options_recorded += o.options_recorded;
  pareto_inserts += o.pareto_inserts;
  pareto_evictions += o.pareto_evictions;
  entries += o.entries;
  arena_nodes += o.arena_nodes;
  arena_bytes += o.arena_bytes;
  adjacency_pairs += o.adjacency_pairs;
  shards += o.shards;
  max_shard_states = std::max(max_shard_states, o.max_shard_states);
  strategies += o.strategies;
  adjacency_ms += o.adjacency_ms;
  enumerate_ms += o.enumerate_ms;
  finalize_ms += o.finalize_ms;
  strategies_ms += o.strategies_ms;
  wall_ms += o.wall_ms;
}

VdpsCatalog VdpsCatalog::Generate(const Instance& instance,
                                  const VdpsConfig& config) {
  FTA_SPAN("vdps/generate");
  Stopwatch wall;
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  if (config.pool != nullptr) {
    // Injected pool: reuse the caller's workers (a 1-thread pool keeps
    // generation serial, matching the num_threads <= 1 contract).
    if (config.pool->num_threads() > 1) pool = config.pool;
  } else if (config.num_threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(config.num_threads);
    pool = owned_pool.get();
  }

  GenerationResult gen =
      config.use_exact_dp
          ? GenerateCVdpsExact(instance, config)
          : (config.beam_width > 0
                 ? GenerateCVdpsBeam(instance, config, config.beam_width, pool)
                 : GenerateCVdpsSequences(instance, config, pool));
  VdpsCatalog catalog;
  catalog.entries_ = std::move(gen.entries);
  catalog.truncated_ = gen.truncated;
  catalog.gen_ = gen.counters;
  catalog.config_ = config;
  // The catalog outlives the Generate() call; never retain the caller's
  // pool pointer past it (ApplyDelta and regen-from-config run serial).
  catalog.config_.pool = nullptr;
  catalog.adjacency_ = std::move(gen.adjacency);
  catalog.num_dps_ = instance.num_delivery_points();

  // Materialize per-worker strategies: a C-VDPS is valid for worker w iff
  // some retained sequence tolerates the worker's center offset, and the
  // set respects the worker's maxDP. Workers are independent, so the build
  // fans out over chunks of workers; each slot is written by exactly one
  // job. A chunk builds each list in one reused buffer, sorts it, and
  // copies it once into an exact-size vector.
  Stopwatch strat_sw;
  const size_t num_workers = instance.num_workers();
  catalog.strategies_.resize(num_workers);
  {
    FTA_SPAN("vdps/strategies");
    const std::vector<CVdpsEntry>& entries = catalog.entries_;
    const vdps_internal::StrategyProbe probe(entries);
    const auto build_workers = [&](size_t, size_t begin, size_t end) {
      std::vector<WorkerStrategy> list;
      std::vector<WorkerStrategy> scratch;
      list.reserve(entries.size());
      for (size_t w = begin; w < end; ++w) {
        vdps_internal::ProbeEntries(entries, probe,
                                    instance.WorkerToCenterTime(w),
                                    instance.worker(w).max_delivery_points,
                                    list);
        if (scratch.size() < list.size()) scratch.resize(entries.size());
        const WorkerStrategy* sorted = vdps_internal::SortStrategies(
            list.data(), scratch.data(), list.size());
        catalog.strategies_[w].assign(sorted, sorted + list.size());
      }
    };
    if (pool != nullptr && num_workers > 1) {
      pool->RunChunked(num_workers, kWorkersPerStrategyChunk, build_workers);
    } else {
      build_workers(0, 0, num_workers);
    }
  }

  catalog.gen_.strategies_ms = strat_sw.ElapsedMillis();
  for (const auto& s : catalog.strategies_) {
    catalog.gen_.strategies += s.size();
  }
  catalog.RebuildStrategyPayoffs();

  catalog.gen_.wall_ms = wall.ElapsedMillis();
  // Phase-boundary contract: the catalog every solver will consume is
  // deep-checked once, right after generation.
  FTA_DCHECK_OK(catalog.ValidateInvariants(instance));
  PublishGeneration(catalog.gen_);
  FTA_LOG(kInfo) << "C-VDPS generation: entries=" << catalog.entries_.size()
                 << " strategies=" << catalog.gen_.strategies << " wall_ms="
                 << StrFormat("%.2f", catalog.gen_.wall_ms)
                 << " arena_bytes=" << catalog.gen_.arena_bytes
                 << " threads=" << (pool != nullptr ? pool->num_threads() : 1);
  return catalog;
}

namespace {

/// Tolerance for cross-checking stored times/rewards against a fresh
/// evaluation: the generators accumulate the same left-to-right sums the
/// evaluator does, but multi-set rewards may fold in a different
/// association, so allow a few ulps of headroom.
constexpr double kValidateTol = 1e-9;

bool NearlyEqual(double a, double b) {
  // Exact equality first: slack is +inf for routes no deadline constrains,
  // and inf - inf below would be NaN.
  if (a == b) return true;
  return std::abs(a - b) <=
         kValidateTol * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

Status ValidateCVdpsEntry(const Instance& instance, const CVdpsEntry& entry) {
  if (entry.dps.empty()) {
    return Status::Internal("C-VDPS entry with an empty delivery point set");
  }
  double reward = 0.0;
  for (size_t i = 0; i < entry.dps.size(); ++i) {
    if (entry.dps[i] >= instance.num_delivery_points()) {
      return Status::Internal(
          StrFormat("entry references delivery point %u out of range",
                    entry.dps[i]));
    }
    if (i > 0 && entry.dps[i - 1] >= entry.dps[i]) {
      return Status::Internal("entry.dps not strictly ascending");
    }
    reward += instance.delivery_point(entry.dps[i]).total_reward();
  }
  if (!NearlyEqual(reward, entry.total_reward)) {
    return Status::Internal(
        StrFormat("entry total_reward %.17g != recomputed %.17g",
                  entry.total_reward, reward));
  }
  if (entry.options.empty()) {
    return Status::Internal("C-VDPS entry without any retained sequence");
  }
  if (!ParetoFrontierInvariantHolds(entry.options)) {
    return Status::Internal(
        "frontier violates (center_time asc, slack asc) invariant");
  }
  std::vector<uint32_t> sorted;
  for (const SequenceOption& opt : entry.options) {
    sorted = opt.route;
    std::sort(sorted.begin(), sorted.end());
    if (sorted != entry.dps) {
      return Status::Internal("option route is not a permutation of dps");
    }
    const RouteEvaluation eval =
        EvaluateRouteFromCenter(instance, opt.route, 0.0);
    if (!eval.feasible) {
      return Status::Internal("retained sequence misses a deadline");
    }
    if (!NearlyEqual(eval.total_time, opt.center_time)) {
      return Status::Internal(
          StrFormat("option center_time %.17g != evaluated %.17g",
                    opt.center_time, eval.total_time));
    }
    if (!NearlyEqual(eval.slack, opt.slack)) {
      return Status::Internal(StrFormat(
          "option slack %.17g != evaluated %.17g", opt.slack, eval.slack));
    }
  }
  return Status::Ok();
}

Status VdpsCatalog::ValidateInvariants(const Instance& instance) const {
  for (const CVdpsEntry& entry : entries_) {
    if (Status s = ValidateCVdpsEntry(instance, entry); !s.ok()) return s;
  }
  if (strategies_.size() != instance.num_workers()) {
    return Status::Internal(
        StrFormat("catalog covers %zu workers, instance has %zu",
                  strategies_.size(), instance.num_workers()));
  }
  for (size_t w = 0; w < strategies_.size(); ++w) {
    const double offset = instance.WorkerToCenterTime(w);
    const uint32_t max_dp = instance.worker(w).max_delivery_points;
    const std::vector<WorkerStrategy>& sts = strategies_[w];
    for (size_t i = 0; i < sts.size(); ++i) {
      const WorkerStrategy& st = sts[i];
      if (st.entry_id >= entries_.size()) {
        return Status::Internal(StrFormat(
            "worker %zu strategy %zu references missing entry %u", w, i,
            st.entry_id));
      }
      const CVdpsEntry& entry = entries_[st.entry_id];
      if (entry.dps.size() > max_dp) {
        return Status::Internal(StrFormat(
            "worker %zu strategy %zu exceeds maxDP (%zu > %u)", w, i,
            entry.dps.size(), max_dp));
      }
      if (i > 0 && (sts[i - 1].payoff < st.payoff ||
                    (sts[i - 1].payoff == st.payoff &&
                     sts[i - 1].entry_id >= st.entry_id))) {
        return Status::Internal(StrFormat(
            "worker %zu strategies not sorted by (payoff desc, entry asc) "
            "at %zu",
            w, i));
      }
      const SequenceOption* opt = entry.BestOptionFor(offset);
      if (opt == nullptr ||
          st.option != static_cast<size_t>(opt - entry.options.data())) {
        return Status::Internal(StrFormat(
            "worker %zu strategy %zu option differs from BestOptionFor", w,
            i));
      }
      if (st.total_time != offset + opt->center_time ||
          st.total_reward != entry.total_reward ||
          st.payoff !=
              entry.total_reward / std::max(st.total_time, kMinTravelTime)) {
        return Status::Internal(StrFormat(
            "worker %zu strategy %zu carries stale time/reward/payoff", w,
            i));
      }
    }
  }
  // The SoA payoff mirror must track strategies_ bit for bit — the
  // BestResponseEngine's candidate scan reads only the mirror.
  if (strategy_payoffs_.size() != strategies_.size()) {
    return Status::Internal(
        StrFormat("strategy payoff mirror covers %zu workers, expected %zu",
                  strategy_payoffs_.size(), strategies_.size()));
  }
  for (size_t w = 0; w < strategies_.size(); ++w) {
    if (strategy_payoffs_[w].size() != strategies_[w].size()) {
      return Status::Internal(StrFormat(
          "strategy payoff mirror for worker %zu has %zu rows, expected %zu",
          w, strategy_payoffs_[w].size(), strategies_[w].size()));
    }
    for (size_t i = 0; i < strategies_[w].size(); ++i) {
      if (std::bit_cast<uint64_t>(strategy_payoffs_[w][i]) !=
          std::bit_cast<uint64_t>(strategies_[w][i].payoff)) {
        return Status::Internal(StrFormat(
            "strategy payoff mirror stale for worker %zu strategy %zu", w,
            i));
      }
    }
  }
  if (num_dps_ != instance.num_delivery_points()) {
    return Status::Internal(StrFormat(
        "catalog sized for %zu delivery points, instance has %zu", num_dps_,
        instance.num_delivery_points()));
  }
  return Status::Ok();
}

int32_t VdpsCatalog::FindEntry(std::span<const uint32_t> dps) const {
  const auto less = [](const CVdpsEntry& e, std::span<const uint32_t> key) {
    if (e.dps.size() != key.size()) return e.dps.size() < key.size();
    return std::lexicographical_compare(e.dps.begin(), e.dps.end(),
                                        key.begin(), key.end());
  };
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), dps, less);
  if (it == entries_.end() || it->dps.size() != dps.size() ||
      !std::equal(it->dps.begin(), it->dps.end(), dps.begin())) {
    return -1;
  }
  return static_cast<int32_t>(it - entries_.begin());
}

int32_t VdpsCatalog::FindStrategy(size_t worker, uint32_t entry_id) const {
  const std::vector<WorkerStrategy>& sts = strategies_[worker];
  for (size_t i = 0; i < sts.size(); ++i) {
    if (sts[i].entry_id == entry_id) return static_cast<int32_t>(i);
  }
  return -1;
}

size_t VdpsCatalog::MaxStrategiesPerWorker() const {
  size_t m = 0;
  for (const auto& s : strategies_) m = std::max(m, s.size());
  return m;
}

void VdpsCatalog::RebuildStrategyPayoffs() {
  strategy_payoffs_.resize(strategies_.size());
  for (size_t w = 0; w < strategies_.size(); ++w) {
    const std::vector<WorkerStrategy>& sts = strategies_[w];
    strategy_payoffs_[w].resize(sts.size());
    for (size_t i = 0; i < sts.size(); ++i) {
      strategy_payoffs_[w][i] = sts[i].payoff;
    }
  }
}

std::string VdpsCatalog::Summary() const {
  size_t total = 0;
  for (const auto& s : strategies_) total += s.size();
  return StrFormat(
      "VdpsCatalog{entries=%zu, workers=%zu, strategies=%zu, max/worker=%zu%s}",
      entries_.size(), strategies_.size(), total, MaxStrategiesPerWorker(),
      truncated_ ? ", TRUNCATED" : "");
}

}  // namespace fta
