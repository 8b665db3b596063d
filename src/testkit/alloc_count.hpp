// Heap-allocation counter for tests and benchmarks that assert a path is
// allocation-free. Linking the malnet_alloc_count library replaces the
// global operator new of that binary with a counting one; only binaries
// that link it are affected.
#pragma once

#include <cstdint>

namespace malnet::testkit {

/// Calls to the global operator new (any form) since the program started.
[[nodiscard]] std::uint64_t allocations();

}  // namespace malnet::testkit
