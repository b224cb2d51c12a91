#ifndef FTA_BENCH_HEAP_COUNT_H_
#define FTA_BENCH_HEAP_COUNT_H_

#include <cstdint>

namespace fta {
namespace bench {

/// Global operator new / new[] calls made so far by this process. A bench
/// that links heap_count.cc gets counting, malloc-backed replacements of
/// the global allocation functions, so the difference of two reads around
/// a call is its exact allocation count. The counter is relaxed: read it
/// on the thread whose allocations are counted, around serial work.
uint64_t HeapAllocations();

}  // namespace bench
}  // namespace fta

#endif  // FTA_BENCH_HEAP_COUNT_H_
