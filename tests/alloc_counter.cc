// Counting replacements of the global allocation functions, linked into the
// test binaries that assert a disabled sink does not allocate. Every
// replaceable non-aligned form is replaced, nothrow included, so each
// allocation and its release pair malloc with free (a partial set would
// let, e.g., std::stable_sort's nothrow buffer come from the toolchain's
// operator new and go back through this file's free). Pool threads
// allocate concurrently, hence the atomic counter.

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_counter.h"

namespace {

std::atomic<size_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace ptp {
namespace test {

size_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

}  // namespace test
}  // namespace ptp

void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
