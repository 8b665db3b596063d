#include "testkit/alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n, std::size_t align = 0) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align == 0) return std::malloc(n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* counted_new(std::size_t n, std::size_t align = 0) {
  if (void* p = counted_malloc(n, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace malnet::testkit {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace malnet::testkit

// Every form is replaced, aligned ones included (std::pmr's default
// resource allocates through them), so each block is counted and returns
// through the free() that matches its malloc() (sanitizers check pairing).
using std::align_val_t;
using std::nothrow_t;
using std::size_t;

void* operator new(size_t n) { return counted_new(n); }
void* operator new[](size_t n) { return counted_new(n); }
void* operator new(size_t n, align_val_t a) {
  return counted_new(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, align_val_t a) {
  return counted_new(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](size_t n, const nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new(size_t n, align_val_t a, const nothrow_t&) noexcept {
  return counted_malloc(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, align_val_t a, const nothrow_t&) noexcept {
  return counted_malloc(n, static_cast<size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, align_val_t, const nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, align_val_t, const nothrow_t&) noexcept { std::free(p); }
