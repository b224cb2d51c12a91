// hot-path-allocation fixture for the warm catalog delta: a per-strategy
// route copy put back inside the delta-strategy-patch region is reported;
// the reserved, reused strategy buffer stays clean.
#include <cstdint>
#include <vector>

namespace fta {

struct Strategy {
  uint32_t entry_id = 0;
  std::vector<uint32_t> route;
};

inline void Patch(std::vector<Strategy>& sts,
                  const std::vector<uint32_t>& fresh) {
  std::vector<Strategy> additions;
  additions.reserve(fresh.size());
  // FTA_HOT_BEGIN(delta-strategy-patch)
  for (uint32_t id : fresh) {
    Strategy st;
    st.entry_id = id;
    st.route.push_back(id);
    additions.push_back(st);
  }
  // FTA_HOT_END(delta-strategy-patch)
  sts.insert(sts.end(), additions.begin(), additions.end());
}

}  // namespace fta
