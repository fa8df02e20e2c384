// Allocation-counting hook: global operator new/delete replacements that
// count every heap allocation in the binary and remember the largest one.
// Replacements must be defined exactly once per program, so include this
// header from exactly one source file of a test binary.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace cqs::test {

inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<std::size_t> g_largest_allocation{0};

inline void note_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}

struct AllocationStats {
  std::uint64_t count = 0;
  std::size_t largest = 0;  // bytes of the largest single request
};

/// Allocations requested while `fn` runs (including failed ones).
template <typename Fn>
AllocationStats measure_allocations(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  g_largest_allocation.store(0);
  fn();
  return {g_allocations.load() - before, g_largest_allocation.load()};
}

/// Allocations performed by `fn`.
template <typename Fn>
std::uint64_t count_allocations(Fn&& fn) {
  return measure_allocations(fn).count;
}

}  // namespace cqs::test

void* operator new(std::size_t size) {
  cqs::test::note_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  cqs::test::note_allocation(size);
  void* p = nullptr;
  if (posix_memalign(&p, std::max<std::size_t>(
                             static_cast<std::size_t>(align), sizeof(void*)),
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
