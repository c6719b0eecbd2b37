// Allocation budget: heap allocations per simulated repetition.
//
// This binary replaces the global operator new/delete with counting
// versions and runs one rep each of LAMMPS and MiniFE on Linux, McKernel
// and mOS at 16 nodes. The count is a pure function of the code path (no
// timing, no addresses, no thread interleaving: run_app's serial overload
// runs on the calling thread), so each budget below is the exact count the
// current code makes. An allocation that creeps back into a per-lane,
// per-VMA or per-counter path raises the count and fails the test; a
// change that removes allocations lowers the budget to its new count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "workloads/app.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The replaceable global allocation functions, counting every call. The
// aligned overloads keep the library's own pairing (nothing here allocates
// over-aligned types).
// mkos-lint: allow(naked-new) — replaces the global allocator to count calls
void* operator new(std::size_t n) { return counted_alloc(n); }
// mkos-lint: allow(naked-new) — replaces the global allocator to count calls
void* operator new[](std::size_t n) { return counted_alloc(n); }
// mkos-lint: allow(naked-new) — the matching release of the counted allocator
void operator delete(void* p) noexcept { std::free(p); }
// mkos-lint: allow(naked-new) — the matching release of the counted allocator
void operator delete[](void* p) noexcept { std::free(p); }
// mkos-lint: allow(naked-new) — the matching release of the counted allocator
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// mkos-lint: allow(naked-new) — the matching release of the counted allocator
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using mkos::core::SystemConfig;

struct BudgetCase {
  const char* app;
  const char* os;
  SystemConfig config;
  std::uint64_t budget;  ///< allocations of one rep at 16 nodes
};

/// Allocations of one single-rep cell, after a warm-up cell that builds the
/// process-wide and per-thread tables (KNL topology, counter names) once.
std::uint64_t allocations_per_rep(const BudgetCase& c) {
  constexpr int kNodes = 16;
  constexpr std::uint64_t kSeed = 42;
  const auto app = mkos::workloads::make_app(c.app);
  EXPECT_NE(app, nullptr) << c.app;
  if (app == nullptr) return 0;
  (void)mkos::core::run_app(*app, c.config, kNodes, /*reps=*/1, kSeed);
  const std::uint64_t before = g_allocations.load();
  const mkos::core::RunStats rs = mkos::core::run_app(*app, c.config, kNodes, 1, kSeed);
  const std::uint64_t count = g_allocations.load() - before;
  EXPECT_EQ(rs.fom.count(), 1u);
  return count;
}

TEST(AllocBudget, OneRepStaysWithinItsBudget) {
  const BudgetCase cases[] = {
      {"LAMMPS", "Linux", SystemConfig::linux_default(), 440},
      {"LAMMPS", "McKernel", SystemConfig::mckernel(), 596},
      {"LAMMPS", "mOS", SystemConfig::mos(), 438},
      {"MiniFE", "Linux", SystemConfig::linux_default(), 509},
      {"MiniFE", "McKernel", SystemConfig::mckernel(), 614},
      {"MiniFE", "mOS", SystemConfig::mos(), 456},
  };
  for (const BudgetCase& c : cases) {
    const std::uint64_t count = allocations_per_rep(c);
    std::printf("%-7s on %-8s at 16 nodes: %llu allocations per rep (budget %llu)\n", c.app,
                c.os, static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(c.budget));
    EXPECT_LE(count, c.budget) << c.app << " on " << c.os;
  }
}

}  // namespace
