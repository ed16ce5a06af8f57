// Replaces the global non-aligned operator new/delete for the
// test_client_alloc binary, as tests/runtime/counting_new.cpp does for
// test_batch_decide, but counts per thread: the loopback oseld the pins talk
// to runs in the same process, and its workers' allocations must not be
// charged to the client under test. Counting only; allocation behaviour is
// unchanged.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "thread_counting_new.h"

namespace {
thread_local std::uint64_t tAllocations = 0;

// noinline keeps GCC from tracking malloc/free provenance through the
// replaced operators and raising a spurious -Wmismatched-new-delete.
[[gnu::noinline]] void* countedAlloc(std::size_t size) {
  tAllocations += 1;
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void countedFree(void* p) noexcept { std::free(p); }
}  // namespace

namespace osel::service::alloc_test {

std::uint64_t threadAllocationCount() { return tAllocations; }

}  // namespace osel::service::alloc_test

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }
