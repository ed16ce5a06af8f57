// Replaces the global non-aligned operator new/delete for the
// test_batch_decide binary so its allocation pins can assert that the
// steady-state decide paths never touch the heap. Counting only; allocation
// behaviour is unchanged. One replacement per link is the limit, so the
// binary's test files share this one through allocationCount().
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "batch_test_support.h"

namespace {
std::atomic<std::uint64_t> gAllocations{0};

// noinline keeps GCC from tracking malloc/free provenance through the
// replaced operators and raising a spurious -Wmismatched-new-delete.
[[gnu::noinline]] void* countedAlloc(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void countedFree(void* p) noexcept { std::free(p); }
}  // namespace

namespace osel::runtime::batch_test {

std::uint64_t allocationCount() {
  return gAllocations.load(std::memory_order_relaxed);
}

}  // namespace osel::runtime::batch_test

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }
