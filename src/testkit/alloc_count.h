// Heap-allocation counting for tests and benches.
//
// Including this header replaces the global operator new and delete of the
// executable: every new (array and nothrow forms included) bumps a
// per-thread counter and forwards to malloc.  The replacements are ordinary
// (non-inline) definitions, so include the header in exactly one
// translation unit of a test or bench executable, and never from the
// library itself.
//
// The counter is per thread: a count brackets work that runs on the calling
// thread, such as api::Engine::run_batch with one worker.
#ifndef RLCEFF_TESTKIT_ALLOC_COUNT_H
#define RLCEFF_TESTKIT_ALLOC_COUNT_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace rlceff::testkit {

inline thread_local std::uint64_t heap_allocations = 0;

// Allocations made on this thread so far.
inline std::uint64_t allocation_count() { return heap_allocations; }

// Heap allocations `fn()` makes on the calling thread.
template <class Fn>
std::uint64_t count_allocations(Fn&& fn) {
  const std::uint64_t before = heap_allocations;
  fn();
  return heap_allocations - before;
}

}  // namespace rlceff::testkit

// Never inlined: inlined into a caller, the malloc/free pairing trips GCC's
// -Wmismatched-new-delete against the new expression that allocated.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++rlceff::testkit::heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's buffer takes one), so every new
// is counted and pairs with the free below.
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++rlceff::testkit::heap_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // RLCEFF_TESTKIT_ALLOC_COUNT_H
