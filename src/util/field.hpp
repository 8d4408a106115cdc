// Arithmetic in GF(p) for the Mersenne prime p = 2^61 - 1.
//
// The k-wise independent hash families (src/hash) and the 1-sparse
// fingerprint tests inside the l0-samplers (src/sketch) both need a prime
// field whose elements fit a machine word and whose size exceeds every
// universe we hash (edge ids are < n^2 <= 2^40 in our experiments).
// 2^61 - 1 admits a fast reduction without 128-bit division.
#pragma once

#include <cstdint>

namespace ccq::field {

inline constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;

/// Reduce a value < 2^122 (i.e. any product of two field elements) mod p.
/// Inline: it sits under every mul of the k-wise hashes and fingerprints.
inline std::uint64_t reduce(unsigned __int128 x) {
  // Split into low 61 bits and high 61 bits, then fold: since
  // 2^61 == 1 (mod p), x == lo + hi (mod p).
  const auto lo = static_cast<std::uint64_t>(x) & kPrime;
  const auto hi = static_cast<std::uint64_t>(x >> 61);
  std::uint64_t s = lo + hi;  // hi < 2^61, so s < 2^62
  s = (s & kPrime) + (s >> 61);
  if (s >= kPrime) s -= kPrime;
  return s;
}

/// Canonicalize a value < 2^64 into [0, p).
inline std::uint64_t canon(std::uint64_t x) {
  x = (x & kPrime) + (x >> 61);
  if (x >= kPrime) x -= kPrime;
  return x;
}

inline std::uint64_t add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a + b;  // < 2^62, no overflow
  if (s >= kPrime) s -= kPrime;
  return s;
}

inline std::uint64_t sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a + kPrime - b;
}

inline std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
  return reduce(static_cast<unsigned __int128>(a) * b);
}

inline std::uint64_t neg(std::uint64_t a) { return a == 0 ? 0 : kPrime - a; }

/// a^e mod p by square-and-multiply.
std::uint64_t pow(std::uint64_t a, std::uint64_t e);

/// Multiplicative inverse (a must be nonzero).
std::uint64_t inv(std::uint64_t a);

}  // namespace ccq::field
