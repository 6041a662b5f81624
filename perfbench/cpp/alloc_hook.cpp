// Global operator new/delete replacement for the traced build: counts every
// heap allocation the process makes (alloc.{ini,tgt}.per_io and
// bytes_per_io) while forwarding to malloc/free.
#include <cstdlib>
#include <new>

#include "trace.h"

namespace pb::trace {

std::atomic<u64> g_allocs{0};
std::atomic<u64> g_alloc_bytes{0};

namespace {

void* counted(std::size_t n, std::size_t align) {
  if (!g_alloc_quiet) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  return p;
}

void* counted_or_throw(std::size_t n, std::size_t align) {
  void* p = counted(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace
}  // namespace pb::trace

using pb::trace::counted;
using pb::trace::counted_or_throw;

void* operator new(std::size_t n) { return counted_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_or_throw(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
