// Fixture: the path of the deleted AVX2 kernel TU. No file is sanctioned,
// so its intrinsic header and intrinsic are flagged like any other.
#include <immintrin.h>

namespace fta {

__m256d DoubleLanes(__m256d x) { return _mm256_add_pd(x, x); }

}  // namespace fta
