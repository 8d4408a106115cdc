// Fixed-size storage whose elements start unwritten.
//
// A std::vector zero-fills every element on the allocating thread before
// anyone writes it. For large buffers that a producer fills completely —
// a route's delivery arena, an exact-size packet array filled slice by
// slice on the engine's lanes — that fill is pure waste, and it makes the
// allocating thread take every page fault. UninitializedArray allocates
// without constructing, so the producer's write is each element's first
// touch. Every element must be written before it is read.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>

namespace ccq {

template <typename T>
class UninitializedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "UninitializedArray holds implicit-lifetime element types");

 public:
  UninitializedArray() = default;
  explicit UninitializedArray(std::size_t size)
      : data_(size > 0 ? std::allocator<T>{}.allocate(size) : nullptr,
              Free{size}),
        size_(size) {}

  std::size_t size() const { return size_; }
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  std::span<T> span() { return {data_.get(), size_}; }
  std::span<const T> span() const { return {data_.get(), size_}; }

 private:
  struct Free {
    std::size_t size{0};
    void operator()(T* p) const { std::allocator<T>{}.deallocate(p, size); }
  };
  std::unique_ptr<T[], Free> data_;
  std::size_t size_{0};
};

}  // namespace ccq
