#include "vdps/enumeration_store.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "vdps/catalog_internal.h"
#include "vdps/pareto.h"

namespace fta {
namespace vdps_internal {

uint32_t SetTable::Hash(std::span<const uint32_t> key) {
  uint64_t h = key.size();
  for (uint32_t x : key) h = (h ^ x) * 0x9e3779b97f4a7c15ULL;
  return static_cast<uint32_t>(h >> 32);
}

bool SetTable::KeyEquals(uint32_t set, std::span<const uint32_t> key) const {
  const std::span<const uint32_t> mine = this->key(set);
  return mine.size() == key.size() &&
         std::equal(mine.begin(), mine.end(), key.begin());
}

size_t SetTable::Grow(uint32_t hash) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
  const size_t mask = slots_.size() - 1;
  const auto free_slot = [&](uint32_t h) {
    size_t pos = h & mask;
    while (slots_[pos].id != kNone) pos = (pos + 1) & mask;
    return pos;
  };
  for (const Slot& s : old) {
    if (s.id != kNone) slots_[free_slot(s.hash)] = s;
  }
  return free_slot(hash);
}

void FinalizeShards(std::vector<EnumerationShard>& shards,
                    const VdpsConfig& config, GenerationResult& result) {
  GenerationCounters& c = result.counters;
  for (const EnumerationShard& s : shards) {
    c.states_expanded += s.counters.states_expanded;
    c.options_recorded += s.counters.options_recorded;
    c.arena_nodes += s.arena.num_nodes();
    c.arena_bytes += s.arena.bytes();
    c.max_shard_states =
        std::max(c.max_shard_states, s.counters.states_expanded);
    result.truncated = result.truncated || s.truncated;
  }
  c.shards += shards.size();

  // 1. Map every later shard's sets into shard 0's table, shards
  // ascending, and rewrite each logged option's set id to the merged one.
  // A set's reward is a function of its key, so whichever shard created
  // it first holds the same double.
  SetTable& merged = shards[0].sets;
  std::vector<uint32_t> to_merged;
  for (size_t s = 1; s < shards.size(); ++s) {
    const SetTable& local = shards[s].sets;
    to_merged.resize(local.size());
    for (uint32_t i = 0; i < local.size(); ++i) {
      to_merged[i] = merged.Intern(local.key(i), /*may_add=*/true,
                                   [&] { return local.reward(i); });
    }
    for (LoggedOption& opt : shards[s].log) opt.set = to_merged[opt.set];
  }

  // 2. Counting sort of the option logs by merged set id. The sort is
  // stable — shards ascending, log order inside a shard — so each set's
  // options come out in exactly the order the serial enumerator recorded
  // them: shards partition an ascending root range.
  const size_t num_sets = merged.size();
  std::vector<uint32_t> first(num_sets + 1, 0);
  for (const EnumerationShard& s : shards) {
    for (const LoggedOption& opt : s.log) ++first[opt.set + 1];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  struct RawOption {
    double center_time;
    double slack;
    uint32_t node;
    uint32_t shard;
  };
  std::vector<RawOption> options(first.back());
  {
    std::vector<uint32_t> cursor(first.begin(), first.end() - 1);
    for (uint32_t s = 0; s < shards.size(); ++s) {
      for (const LoggedOption& opt : shards[s].log) {
        options[cursor[opt.set]++] =
            RawOption{opt.center_time, opt.slack, opt.node, s};
      }
    }
  }

  // 3. The final entry order: set ids sorted by EntryOrder on their keys.
  std::vector<uint32_t> order(num_sets);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return EntryOrder::Less(merged.key(a), merged.key(b));
  });

  // 4. Replay the serial Pareto selection over each set's options and
  // materialize the entries in final order, routes only for survivors.
  ParetoStats stats;
  std::vector<RawOption> frontier;
  result.entries.resize(num_sets);
  for (size_t k = 0; k < num_sets; ++k) {
    const uint32_t id = order[k];
    frontier.clear();
    for (uint32_t i = first[id]; i < first[id + 1]; ++i) {
      InsertParetoOptionT(frontier, options[i], config.max_pareto, &stats);
    }
    CVdpsEntry& entry = result.entries[k];
    const std::span<const uint32_t> key = merged.key(id);
    entry.dps.assign(key.begin(), key.end());
    entry.total_reward = merged.reward(id);
    entry.options.resize(frontier.size());
    for (size_t o = 0; o < frontier.size(); ++o) {
      SequenceOption& opt = entry.options[o];
      shards[frontier[o].shard].arena.Materialize(frontier[o].node,
                                                  opt.route);
      opt.center_time = frontier[o].center_time;
      opt.slack = frontier[o].slack;
    }
    FTA_DCHECK(ParetoFrontierInvariantHolds(entry.options));
  }
  c.pareto_inserts += stats.inserts;
  c.pareto_evictions += stats.evictions;
  c.entries += result.entries.size();
}

}  // namespace vdps_internal
}  // namespace fta
