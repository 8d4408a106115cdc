#include "util/field.hpp"

#include "util/error.hpp"

namespace ccq::field {

std::uint64_t pow(std::uint64_t a, std::uint64_t e) {
  std::uint64_t base = canon(a);
  std::uint64_t acc = 1;
  while (e != 0) {
    if (e & 1) acc = mul(acc, base);
    base = mul(base, base);
    e >>= 1;
  }
  return acc;
}

std::uint64_t inv(std::uint64_t a) {
  check(canon(a) != 0, "field::inv: zero has no inverse");
  return pow(a, kPrime - 2);
}

}  // namespace ccq::field
