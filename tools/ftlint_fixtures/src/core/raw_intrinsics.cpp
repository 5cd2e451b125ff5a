// Fixture: raw vector intrinsics anywhere in the tree must trip
// no-raw-intrinsics — the include, the vector type, and the intrinsic call
// each on their own. (This file is never compiled; it only feeds ftlint.)
#include <immintrin.h>

namespace ftsched {

unsigned long long and_first_word(const unsigned long long* a,
                                  const unsigned long long* b) {
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  const __m256i anded = _mm256_and_si256(va, vb);
  unsigned long long out[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), anded);
  return __builtin_ia32_lzcnt_u64(out[0]);
}

}  // namespace ftsched
