// hot-path-allocation fixture, sized containers: a standard container
// constructed with arguments inside a hot region allocates on every pass;
// default construction, references, a NOLINT(fta-alloc) line, and code
// outside the region stay clean.
#include <cstddef>
#include <string>
#include <vector>

namespace fta {

struct Candidate {
  double utility = 0.0;
};

// FTA_HOT_BEGIN(fan-out)
inline double FanOut(size_t shards, const std::vector<double>& in) {
  std::vector<Candidate> winners(shards);
  std::vector<int> counts{1, 2, 3};
  auto copy = std::vector<double>(in.begin(), in.end());
  std::vector<double> empty;
  const std::vector<double>& view = in;
  std::string label("shard");  // NOLINT(fta-alloc) cold diagnostic path
  return winners[0].utility + view[0] + copy[0] +
         static_cast<double>(counts.size() + empty.size() + label.size());
}
// FTA_HOT_END(fan-out)

inline std::vector<int> Outside(size_t n) { return std::vector<int>(n); }

}  // namespace fta
