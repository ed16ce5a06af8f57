// Per-thread heap-allocation count from thread_counting_new.cpp's
// replacement operator new.
#pragma once

#include <cstdint>

namespace osel::service::alloc_test {

/// operator new calls made so far by the calling thread.
[[nodiscard]] std::uint64_t threadAllocationCount();

}  // namespace osel::service::alloc_test
