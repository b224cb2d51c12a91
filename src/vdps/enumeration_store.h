#ifndef FTA_VDPS_ENUMERATION_STORE_H_
#define FTA_VDPS_ENUMERATION_STORE_H_

// Internal shared machinery of the sequence/beam C-VDPS enumerators: the
// per-shard flat set store and the deterministic shard merge. Not part of
// the public catalog API.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vdps/catalog.h"
#include "vdps/generators.h"
#include "vdps/route_arena.h"

namespace fta {
namespace vdps_internal {

/// The distinct delivery point sets one enumeration shard has found, in
/// flat arrays: set i's sorted key is keys[key_at[i] .. key_at[i + 1]),
/// its reward rewards[i]. An open-addressing table (linear probing, a
/// power-of-two slot count, at most half full) maps a key to its id. Ids
/// are dense and count up in creation order.
class SetTable {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  size_t size() const { return rewards_.size(); }

  std::span<const uint32_t> key(uint32_t set) const {
    return {keys_.data() + key_at_[set], keys_.data() + key_at_[set + 1]};
  }
  double reward(uint32_t set) const { return rewards_[set]; }

  /// The id of `key` (sorted ascending). An absent key becomes set size()
  /// with reward `reward()` when `may_add`, and yields kNone otherwise.
  template <typename RewardFn>
  uint32_t Intern(std::span<const uint32_t> key, bool may_add,
                  RewardFn&& reward) {
    const uint32_t hash = Hash(key);
    size_t pos = 0;
    if (!slots_.empty()) {
      const size_t mask = slots_.size() - 1;
      for (pos = hash & mask; slots_[pos].id != kNone;
           pos = (pos + 1) & mask) {
        if (slots_[pos].hash == hash && KeyEquals(slots_[pos].id, key)) {
          return slots_[pos].id;
        }
      }
    }
    if (!may_add) return kNone;
    if (2 * (size() + 1) > slots_.size()) pos = Grow(hash);
    const uint32_t id = static_cast<uint32_t>(size());
    slots_[pos] = Slot{id, hash};
    keys_.insert(keys_.end(), key.begin(), key.end());
    key_at_.push_back(static_cast<uint32_t>(keys_.size()));
    rewards_.push_back(reward());
    return id;
  }

 private:
  struct Slot {
    uint32_t id = kNone;
    /// The key's hash, compared before the key and reused by Grow.
    uint32_t hash = 0;
  };

  static uint32_t Hash(std::span<const uint32_t> key);
  bool KeyEquals(uint32_t set, std::span<const uint32_t> key) const;
  /// Doubles the slot table (16 slots at first), re-places every set, and
  /// returns the free slot a new key of hash `hash` goes to.
  size_t Grow(uint32_t hash);

  std::vector<uint32_t> keys_;
  std::vector<uint32_t> key_at_{0};
  std::vector<double> rewards_;
  std::vector<Slot> slots_;
};

/// One recorded feasible sequence as the enumerators log it: the
/// (center_time, slack) pair, the route's arena handle, and the id of its
/// set in the shard's SetTable.
struct LoggedOption {
  double center_time = 0.0;
  double slack = 0.0;
  uint32_t node = RouteArena::kNone;
  uint32_t set = SetTable::kNone;
};

/// One enumeration shard: a private set table, option log, route arena,
/// and counters. Shards never share mutable state, so a batch of them runs
/// lock-free; FinalizeShards merges them in shard order afterwards.
struct EnumerationShard {
  SetTable sets;
  /// Every recorded option, in recording order.
  std::vector<LoggedOption> log;
  RouteArena arena;
  GenerationCounters counters;
  /// True if the max_entries cap blocked a set creation.
  bool truncated = false;

  /// The id of set `key` (sorted ascending), created with reward
  /// `reward()` when new. Returns SetTable::kNone — and sets `truncated` —
  /// when a creation would exceed `max_entries` (0 = unlimited).
  template <typename RewardFn>
  uint32_t Intern(std::span<const uint32_t> key, size_t max_entries,
                  RewardFn&& reward) {
    const uint32_t id =
        sets.Intern(key, max_entries == 0 || sets.size() < max_entries,
                    reward);
    if (id == SetTable::kNone) truncated = true;
    return id;
  }
};

/// Merges the shards in index order and builds the final sorted entry
/// list. Per set, logged options concatenate across shards ascending —
/// with shards covering ascending first-delivery-point ranges this
/// reproduces the serial enumerator's recording order exactly, for any
/// shard count — then run through the shared Pareto selection; only
/// surviving options get their routes materialized from the owning
/// shard's arena. Aggregates every shard's counters (and arena totals)
/// into result.counters.
void FinalizeShards(std::vector<EnumerationShard>& shards,
                    const VdpsConfig& config, GenerationResult& result);

}  // namespace vdps_internal
}  // namespace fta

#endif  // FTA_VDPS_ENUMERATION_STORE_H_
