// Differential fuzz suite for the flat bit-matrix KnapsackProfile: seeded
// random instances — zero-profit items, items larger than the capacity,
// capacity 0 — cross-checked against solve_dp, solve_branch_and_bound and
// (for small n) solve_brute_force at *every* capacity in the profile.
//
// Profits are multiples of 0.5 well below 2^53, so every partial sum is
// exactly representable and the comparisons are deliberately exact (==):
// the solvers must agree to the bit, whatever order they add profits in.
//
// The bound reduction in the workspace solve_dp (detail::reduce_items) is
// fuzzed against the unreduced KnapsackProfile on generated instance
// families, including real-valued profits whose rounded sums tie or
// differ by one ulp, and unit-tested directly.
//
// The best DP kernel (AVX2 where the CPU has it) is checked against the
// scalar loop on the raw value curve and take bits, full and windowed
// (dp_fill's traceback window), the windowed fill against the full one,
// and four canonical subsets are pinned by value.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/knapsack.hpp"
#include "util/rng.hpp"

namespace mobi::core {
namespace {

std::vector<KnapsackItem> random_items(util::Rng& rng, std::size_t n,
                                       object::Units max_size) {
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item.size = object::Units(rng.uniform_int(1, max_size));
    // Exactly-representable profits; ~1 in 6 items is worthless.
    item.profit = rng.bernoulli(1.0 / 6.0)
                      ? 0.0
                      : 0.5 * double(rng.uniform_int(1, 40));
  }
  return items;
}

// Recomputes value/used from the chosen indices and checks feasibility,
// ordering, and exact agreement with the reported fields.
void check_solution(const std::vector<KnapsackItem>& items,
                    const KnapsackSolution& solution, object::Units capacity,
                    double expected_value) {
  double value = 0.0;
  object::Units used = 0;
  std::size_t previous = 0;
  for (std::size_t k = 0; k < solution.chosen.size(); ++k) {
    const std::size_t index = solution.chosen[k];
    ASSERT_LT(index, items.size());
    if (k > 0) {
      ASSERT_GT(index, previous) << "indices not strictly ascending";
    }
    previous = index;
    // Strict-improvement DP and the B&B never take worthless items.
    EXPECT_GT(items[index].profit, 0.0);
    value += items[index].profit;
    used += items[index].size;
  }
  EXPECT_EQ(value, solution.value);
  EXPECT_EQ(used, solution.used);
  EXPECT_LE(used, capacity);
  EXPECT_EQ(solution.value, expected_value);
}

TEST(KnapsackDiff, ProfileMatchesAllSolversOnRandomInstances) {
  util::Rng rng(20260805);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(0, 12));
    // max item size up to 12 against capacities up to 25: a healthy
    // fraction of items exceed small capacities outright.
    const auto items = random_items(rng, n, 12);
    const auto cap = object::Units(rng.uniform_int(0, 25));
    const KnapsackProfile profile(items, cap);
    ASSERT_EQ(profile.max_capacity(), cap);
    ASSERT_EQ(profile.item_count(), n);

    double previous = 0.0;
    for (object::Units c = 0; c <= cap; ++c) {
      const double value = profile.value_at(c);
      EXPECT_GE(value, previous) << "value curve must be non-decreasing";
      previous = value;

      check_solution(items, profile.solution_at(c), c, value);
      EXPECT_EQ(solve_dp(items, c).value, value) << "cap " << c;
      EXPECT_EQ(solve_branch_and_bound(items, c).value, value)
          << "cap " << c;
      if (n <= 10) {
        EXPECT_EQ(solve_brute_force(items, c).value, value) << "cap " << c;
      }
    }
  }
}

TEST(KnapsackDiff, CapacityZeroTakesNothing) {
  util::Rng rng(7);
  const auto items = random_items(rng, 8, 5);
  const KnapsackProfile profile(items, 0);
  EXPECT_EQ(profile.value_at(0), 0.0);
  const KnapsackSolution solution = profile.solution_at(0);
  EXPECT_TRUE(solution.chosen.empty());
  EXPECT_EQ(solution.used, 0);
  EXPECT_EQ(solve_branch_and_bound(items, 0).value, 0.0);
}

TEST(KnapsackDiff, AllItemsLargerThanCapacity) {
  std::vector<KnapsackItem> items{{10, 5.0}, {12, 3.0}, {11, 7.5}};
  const KnapsackProfile profile(items, 9);
  for (object::Units c = 0; c <= 9; ++c) {
    EXPECT_EQ(profile.value_at(c), 0.0);
    EXPECT_TRUE(profile.solution_at(c).chosen.empty());
    EXPECT_EQ(solve_branch_and_bound(items, c).value, 0.0);
  }
}

TEST(KnapsackDiff, ZeroProfitItemsNeverChosen) {
  std::vector<KnapsackItem> items{{1, 0.0}, {2, 4.0}, {1, 0.0}, {3, 6.0}};
  const KnapsackProfile profile(items, 6);
  const KnapsackSolution solution = profile.solution_at(6);
  EXPECT_EQ(solution.value, 10.0);
  EXPECT_EQ(solution.chosen, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(solve_branch_and_bound(items, 6).value, 10.0);
}

TEST(KnapsackDiff, EmptyInstance) {
  const std::vector<KnapsackItem> none;
  const KnapsackProfile profile(none, 5);
  for (object::Units c = 0; c <= 5; ++c) {
    EXPECT_EQ(profile.value_at(c), 0.0);
    EXPECT_TRUE(profile.solution_at(c).chosen.empty());
  }
}

// The workspace overload of solve_dp takes exactness shortcuts (take-all
// when everything fits, greedy-prefix when the density order is decisive)
// before falling back to the dense DP. Sweeping every capacity of many
// random instances hits all three code paths; chosen indices, value, and
// used units must match the DP profile bit-for-bit in each one.
TEST(KnapsackDiff, WorkspaceSolveDpMatchesProfileAtEveryCapacity) {
  util::Rng rng(31337);
  KnapsackWorkspace ws;
  KnapsackSolution reused;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(0, 14));
    const auto items = random_items(rng, n, 10);
    const auto cap = object::Units(rng.uniform_int(0, 60));
    const KnapsackProfile profile(items, cap);
    for (object::Units c = 0; c <= cap; ++c) {
      const KnapsackSolution expected = profile.solution_at(c);
      solve_dp(items, c, ws, reused);
      EXPECT_EQ(reused.chosen, expected.chosen) << "cap " << c;
      EXPECT_EQ(reused.value, expected.value) << "cap " << c;
      EXPECT_EQ(reused.used, expected.used) << "cap " << c;
    }
  }
}

// A workspace borrowed across calls with growing *and* shrinking problem
// sizes must behave exactly like a fresh solve every time — stale buffer
// contents from a larger earlier instance must never leak into a smaller
// later one. Covers all three workspace solvers.
TEST(KnapsackDiff, WorkspaceReuseMatchesFreshAcrossVaryingSizes) {
  util::Rng rng(4242);
  KnapsackWorkspace ws;
  KnapsackSolution reused;
  // Capacities deliberately spike up then collapse, repeatedly.
  const object::Units caps[] = {5, 120, 0, 37, 200, 3, 64, 1, 90, 12};
  for (int round = 0; round < 8; ++round) {
    for (object::Units cap : caps) {
      const std::size_t n = std::size_t(rng.uniform_int(0, 20));
      const auto items = random_items(rng, n, 15);

      solve_dp(items, cap, ws, reused);
      const KnapsackSolution fresh_dp = solve_dp(items, cap);
      EXPECT_EQ(reused.chosen, fresh_dp.chosen);
      EXPECT_EQ(reused.value, fresh_dp.value);
      EXPECT_EQ(reused.used, fresh_dp.used);

      solve_greedy(items, cap, ws, reused);
      const KnapsackSolution fresh_greedy = solve_greedy(items, cap);
      EXPECT_EQ(reused.chosen, fresh_greedy.chosen);
      EXPECT_EQ(reused.value, fresh_greedy.value);
      EXPECT_EQ(reused.used, fresh_greedy.used);

      solve_fptas(items, cap, 0.3, ws, reused);
      const KnapsackSolution fresh_fptas = solve_fptas(items, cap, 0.3);
      EXPECT_EQ(reused.chosen, fresh_fptas.chosen);
      EXPECT_EQ(reused.value, fresh_fptas.value);
      EXPECT_EQ(reused.used, fresh_fptas.used);
    }
  }
}

// Wide capacities exercise multi-word bit rows (row_words > 1) including
// the word-boundary columns 63/64/127/128.
TEST(KnapsackDiff, WideCapacityCrossesWordBoundaries) {
  util::Rng rng(99);
  const auto items = random_items(rng, 10, 40);
  const object::Units cap = 200;
  const KnapsackProfile profile(items, cap);
  for (object::Units c : {0, 1, 63, 64, 65, 127, 128, 129, 199, 200}) {
    const double value = profile.value_at(c);
    check_solution(items, profile.solution_at(c), c, value);
    EXPECT_EQ(solve_branch_and_bound(items, c).value, value);
    EXPECT_EQ(solve_brute_force(items, c).value, value);
  }
}

// ---------------------------------------------------------------------------
// Bound reduction
// ---------------------------------------------------------------------------

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

// The items reduce_items keeps at `capacity`, found as solve_dp finds them.
std::vector<std::size_t> kept_at(const std::vector<KnapsackItem>& items,
                                 object::Units capacity,
                                 KnapsackWorkspace& ws) {
  detail::density_order(items, ws);
  const auto kept = detail::reduce_items(items, capacity, ws);
  return {kept.begin(), kept.end()};
}

using Generator = std::function<std::vector<KnapsackItem>(util::Rng&)>;

struct Family {
  std::string name;
  Generator generate;
  object::Units max_capacity;
  int instances;
};

// Pisinger's classic classes, scaled down: sizes uniform in [1, R].
constexpr object::Units kRange = 40;

std::vector<KnapsackItem> pisinger(util::Rng& rng, std::size_t n,
                                   const std::function<double(object::Units)>&
                                       profit_of) {
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item.size = object::Units(rng.uniform_int(1, kRange));
    item.profit = profit_of(item.size);
  }
  return items;
}

std::vector<Family> families() {
  std::vector<Family> out;
  // >= 40% zero-profit items; real-valued profits like the station's
  // sums of (1 - score), so rounded sums rarely equal exact ones.
  out.push_back({"zero_heavy",
                 [](util::Rng& rng) {
                   std::vector<KnapsackItem> items(40);
                   for (auto& item : items) {
                     item.size = object::Units(rng.uniform_int(1, 12));
                     item.profit =
                         rng.bernoulli(0.5) ? 0.0 : rng.uniform() * 3.0;
                   }
                   return items;
                 },
                 120, 6});
  // Many items larger than the whole sweep's top capacity.
  out.push_back({"oversize",
                 [](util::Rng& rng) {
                   std::vector<KnapsackItem> items(30);
                   for (auto& item : items) {
                     const bool big = rng.bernoulli(0.4);
                     item.size = object::Units(big ? rng.uniform_int(61, 120)
                                                   : rng.uniform_int(1, 15));
                     item.profit = rng.uniform() * (big ? 40.0 : 5.0);
                   }
                   return items;
                 },
                 60, 6});
  // Small integral profits and sizes: exact value and density ties.
  out.push_back({"integral_ties",
                 [](util::Rng& rng) {
                   std::vector<KnapsackItem> items(40);
                   for (auto& item : items) {
                     item.size = object::Units(rng.uniform_int(1, 5));
                     item.profit = double(rng.uniform_int(0, 5));
                   }
                   return items;
                 },
                 80, 6});
  // Runs of equal density (3, 2 and 1 per unit); sweeping every capacity
  // moves the break item through the middle of each run.
  out.push_back({"equal_density_runs",
                 [](util::Rng& rng) {
                   std::vector<KnapsackItem> items(36);
                   for (auto& item : items) {
                     item.size = object::Units(rng.uniform_int(1, 6));
                     item.profit =
                         double(rng.uniform_int(1, 3)) * double(item.size);
                   }
                   return items;
                 },
                 100, 6});
  // Multiples of 0.1: subsets with equal exact sums round differently.
  out.push_back({"decimal_ties",
                 [](util::Rng& rng) {
                   std::vector<KnapsackItem> items(36);
                   for (auto& item : items) {
                     item.size = object::Units(rng.uniform_int(1, 8));
                     item.profit = 0.1 * double(rng.uniform_int(0, 20));
                   }
                   return items;
                 },
                 90, 6});
  // Profits so small next to the others that adding them rounds to no
  // change: the strict-improvement DP leaves such items out.
  out.push_back({"absorbed_profits",
                 [](util::Rng& rng) {
                   std::vector<KnapsackItem> items(30);
                   for (auto& item : items) {
                     item.size = object::Units(rng.uniform_int(1, 10));
                     item.profit =
                         rng.bernoulli(0.5)
                             ? double(rng.uniform_int(0, 3))
                             : 1e-16 * double(rng.uniform_int(1, 3));
                   }
                   return items;
                 },
                 120, 6});
  out.push_back({"uncorrelated",
                 [](util::Rng& rng) {
                   return pisinger(rng, 30, [&](object::Units) {
                     return double(rng.uniform_int(1, kRange));
                   });
                 },
                 200, 4});
  out.push_back({"weakly_correlated",
                 [](util::Rng& rng) {
                   return pisinger(rng, 30, [&](object::Units w) {
                     return double(rng.uniform_int(
                         std::max<object::Units>(1, w - kRange / 10),
                         w + kRange / 10));
                   });
                 },
                 200, 4});
  out.push_back({"strongly_correlated",
                 [](util::Rng& rng) {
                   return pisinger(rng, 30, [](object::Units w) {
                     return double(w + kRange / 10);
                   });
                 },
                 200, 4});
  out.push_back({"subset_sum",
                 [](util::Rng& rng) {
                   return pisinger(rng, 30,
                                   [](object::Units w) { return double(w); });
                 },
                 200, 4});
  return out;
}

// At every capacity of every instance, the reduced workspace solve must
// return the unreduced profile's answer: the same value bits, units used
// and chosen indices. Each family must also actually drop rows somewhere,
// or it would not be testing the reduction.
TEST(KnapsackReductionDiff, MatchesUnreducedProfileOnEveryFamily) {
  util::Rng rng(20261017);
  KnapsackWorkspace ws;
  KnapsackWorkspace probe;
  KnapsackSolution reused;
  for (const Family& family : families()) {
    std::size_t dropped = 0;
    for (int instance = 0; instance < family.instances; ++instance) {
      const auto items = family.generate(rng);
      for (object::Units c = 0; c <= family.max_capacity; ++c) {
        const KnapsackSolution expected =
            KnapsackProfile(items, c).solution_at(c);
        solve_dp(items, c, ws, reused);
        ASSERT_EQ(bits_of(reused.value), bits_of(expected.value))
            << family.name << " #" << instance << " cap " << c;
        ASSERT_EQ(reused.used, expected.used)
            << family.name << " #" << instance << " cap " << c;
        ASSERT_EQ(reused.chosen, expected.chosen)
            << family.name << " #" << instance << " cap " << c;
        dropped += items.size() - kept_at(items, c, probe).size();
      }
    }
    EXPECT_GT(dropped, 0u) << family.name << " never exercised the reduction";
  }
}

TEST(KnapsackReduction, ZeroProfitAndOversizeItemsAreNeverKept) {
  util::Rng rng(811);
  KnapsackWorkspace ws;
  for (int trial = 0; trial < 200; ++trial) {
    const auto items = random_items(rng, std::size_t(rng.uniform_int(0, 25)),
                                    30);
    const auto cap = object::Units(rng.uniform_int(0, 40));
    for (std::size_t i : kept_at(items, cap, ws)) {
      EXPECT_GT(items[i].profit, 0.0) << "trial " << trial;
      EXPECT_LE(items[i].size, cap) << "trial " << trial;
    }
  }
}

// Integral profits make every subset sum exact, so brute force can list
// every optimal subset: a dropped item must be in none of them, not just
// absent from the one the DP reconstructs.
TEST(KnapsackReduction, DroppedItemsAreInNoOptimalSubset) {
  util::Rng rng(2718);
  KnapsackWorkspace ws;
  std::size_t dropped_total = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(1, 12));
    std::vector<KnapsackItem> items(n);
    for (auto& item : items) {
      item.size = object::Units(rng.uniform_int(1, 9));
      item.profit = double(rng.uniform_int(0, 12));
    }
    const auto cap = object::Units(rng.uniform_int(0, 30));
    const std::vector<std::size_t> kept = kept_at(items, cap, ws);
    std::vector<bool> is_kept(n, false);
    for (std::size_t i : kept) is_kept[i] = true;
    dropped_total += n - kept.size();

    const double best = solve_brute_force(items, cap).value;
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      double value = 0.0;
      object::Units used = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          value += items[i].profit;
          used += items[i].size;
        }
      }
      if (used > cap || value != best) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask & (1u << i)) && items[i].profit > 0.0) {
          EXPECT_TRUE(is_kept[i]) << "trial " << trial << ": item " << i
                                  << " is in an optimum but was dropped";
        }
      }
    }
  }
  EXPECT_GT(dropped_total, 0u);
}

// Shaped like a busy station's batch: ~640 candidates of size 1..16, over
// 40% already fresh (profit 0), the rest worth a few requesters' lost
// recency, against an 800-unit budget. Most rows cannot matter.
TEST(KnapsackReduction, StationLikeInstanceKeepsUnderHalf) {
  util::Rng rng(7);
  std::vector<KnapsackItem> items(640);
  for (auto& item : items) {
    item.size = object::Units(rng.uniform_int(1, 16));
    item.profit = rng.bernoulli(0.45)
                      ? 0.0
                      : double(rng.uniform_int(1, 4)) * rng.uniform();
  }
  const object::Units cap = 800;
  KnapsackWorkspace ws;
  const std::vector<std::size_t> kept = kept_at(items, cap, ws);
  EXPECT_LT(kept.size(), items.size() / 2);

  KnapsackSolution reduced;
  solve_dp(items, cap, ws, reduced);
  const KnapsackSolution expected = KnapsackProfile(items, cap).solution_at(cap);
  EXPECT_EQ(bits_of(reduced.value), bits_of(expected.value));
  EXPECT_EQ(reduced.used, expected.used);
  EXPECT_EQ(reduced.chosen, expected.chosen);
}

// ---------------------------------------------------------------------------
// DP kernels
// ---------------------------------------------------------------------------

struct KernelFill {
  std::vector<double> values;
  std::vector<std::uint64_t> bits;
};

// Runs one kernel and copies out its raw value curve and take-bit matrix.
KernelFill fill_with(const std::vector<KnapsackItem>& items, std::size_t cap,
                     std::size_t trace_from, detail::DpKernel kernel) {
  KnapsackWorkspace ws;
  detail::dp_fill(items, cap, ws, (cap + 64) / 64, trace_from, kernel);
  return {detail::WorkspaceAccess::values(ws),
          detail::WorkspaceAccess::take_bits(ws)};
}

// Two fills must agree bit for bit on every column both filled: the
// final value curve from trace_from up (the last row's window), and the
// whole take-bit matrix (bits below a window are 0 in both).
void expect_fills_match(const KernelFill& got, const KernelFill& want,
                        std::size_t cap, std::size_t trace_from,
                        const std::string& what) {
  ASSERT_EQ(got.values.size(), cap + 1) << what;
  ASSERT_EQ(want.values.size(), cap + 1) << what;
  for (std::size_t c = trace_from; c <= cap; ++c) {
    ASSERT_EQ(bits_of(got.values[c]), bits_of(want.values[c]))
        << what << " cap " << c;
  }
  EXPECT_EQ(got.bits, want.bits) << what;
}

// The best kernel on this build (the AVX2 two-row kernel where the CPU
// has it) must reproduce the scalar loop's value curve and decision
// bit-matrix word for word. Without AVX2 both sides run the scalar loop,
// which still pins it as deterministic.
void expect_kernels_match(const std::vector<KnapsackItem>& items,
                          std::size_t cap, const std::string& what,
                          std::size_t trace_from = 0) {
  using detail::DpKernel;
  expect_fills_match(fill_with(items, cap, trace_from, detail::best_dp_kernel()),
                     fill_with(items, cap, trace_from, DpKernel::kScalar), cap,
                     trace_from, what + " from " + std::to_string(trace_from));
}

// A windowed fill is the full fill restricted to each row's window
// [max(0, trace_from - R_i), cap], R_i the total size of the rows after
// row i: the same final values from trace_from up, and the same take bits
// inside every window (0 below it).
void expect_window_matches_full(const std::vector<KnapsackItem>& items,
                                std::size_t cap, std::size_t trace_from,
                                detail::DpKernel kernel,
                                const std::string& what) {
  KernelFill full = fill_with(items, cap, 0, kernel);
  const std::size_t row_words = (cap + 64) / 64;
  std::size_t after = 0;
  for (const KnapsackItem& item : items) after += std::size_t(item.size);
  for (std::size_t i = 0; i < items.size(); ++i) {
    after -= std::size_t(items[i].size);
    const std::size_t lo = trace_from > after ? trace_from - after : 0;
    for (std::size_t c = 0; c < lo && c <= cap; ++c) {
      full.bits[i * row_words + (c >> 6)] &= ~(std::uint64_t{1} << (c & 63));
    }
  }
  expect_fills_match(fill_with(items, cap, trace_from, kernel), full, cap,
                     trace_from,
                     what + " window from " + std::to_string(trace_from));
}

// Random instances (zero-profit items, items larger than the capacity)
// at random capacities 0..150. The suite name covers the data-parallel
// DP kernels.
TEST(KnapsackParallel, DpKernelsBitIdentical) {
  util::Rng rng(1337);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(0, 40));
    const auto items = random_items(rng, n, 9);
    const auto cap = std::size_t(rng.uniform_int(0, 150));
    expect_kernels_match(items, cap, "random #" + std::to_string(trial));
  }
}

// Capacities 63/64/65 (plus 127/128) cross the packed decision-row word
// edges: the kernels must agree on the raw buffers, and solve_dp (bound
// reduction included) must return the unreduced profile's subset.
TEST(KnapsackParallel, WordBoundaryCapacities) {
  util::Rng rng(424242);
  KnapsackWorkspace ws;
  KnapsackSolution got;
  for (int trial = 0; trial < 6; ++trial) {
    const auto items = random_items(rng, 24, 6);
    for (object::Units cap : {63, 64, 65, 127, 128}) {
      const std::string what =
          "trial " + std::to_string(trial) + " cap " + std::to_string(cap);
      expect_kernels_match(items, std::size_t(cap), what);
      solve_dp(items, cap, ws, got);
      const KnapsackSolution want = KnapsackProfile(items, cap).solution_at(cap);
      EXPECT_EQ(got.chosen, want.chosen) << what;
      EXPECT_EQ(got.value, want.value) << what;
      EXPECT_EQ(got.used, want.used) << what;
    }
  }
}

// Every generated family, real-valued profits included, through the
// AVX2 kernel itself.
TEST(KnapsackDpKernel, Avx2MatchesScalarBitForBit) {
  if (detail::best_dp_kernel() != detail::DpKernel::kTwoRowAvx2) {
    GTEST_SKIP() << "no AVX2 on this build or CPU; only the scalar kernel runs";
  }
  util::Rng rng(1337);
  for (const Family& family : families()) {
    for (int instance = 0; instance < family.instances; ++instance) {
      expect_kernels_match(family.generate(rng),
                           std::size_t(family.max_capacity),
                           family.name + " #" + std::to_string(instance));
    }
  }
}

// The traceback window, through dp_fill's kernel argument: the AVX2 fill
// must match the scalar fill on every filled column at the word-edge
// capacities, for a single row, with windows that start at 0 (trace_from
// 0, or rows followed by more than trace_from units) and windows that do
// not, and on every generated family traced from its capacity, as
// solve_dp traces.
TEST(KnapsackDpWindow, Avx2MatchesScalarOnEveryFilledColumn) {
  if (detail::best_dp_kernel() != detail::DpKernel::kTwoRowAvx2) {
    GTEST_SKIP() << "no AVX2 on this build or CPU; only the scalar kernel runs";
  }
  util::Rng rng(9090);
  for (int trial = 0; trial < 6; ++trial) {
    const auto items = random_items(rng, 24, 6);
    for (std::size_t cap : {63, 64, 65, 127, 128}) {
      for (std::size_t from : {std::size_t{0}, cap / 2, cap - 1, cap}) {
        expect_kernels_match(items, cap, "trial " + std::to_string(trial) +
                                             " cap " + std::to_string(cap),
                             from);
      }
    }
  }
  for (object::Units size : {1, 5, 63, 64, 65, 128}) {
    const std::vector<KnapsackItem> one{{size, 2.5}};
    for (std::size_t cap : {63, 64, 65, 127, 128}) {
      for (std::size_t from : {std::size_t{0}, cap - 1, cap}) {
        expect_kernels_match(one, cap, "single row of size " +
                                           std::to_string(size) + " cap " +
                                           std::to_string(cap),
                             from);
      }
    }
  }
  for (const Family& family : families()) {
    for (int instance = 0; instance < family.instances; ++instance) {
      const auto cap = std::size_t(family.max_capacity);
      expect_kernels_match(family.generate(rng), cap,
                           family.name + " #" + std::to_string(instance), cap);
    }
  }
}

// Each kernel's windowed fill is its full fill restricted to the windows,
// so filling less changes nothing the traceback reads.
TEST(KnapsackDpWindow, WindowedFillIsFullFillInsideWindows) {
  util::Rng rng(4711);
  for (detail::DpKernel kernel :
       {detail::DpKernel::kScalar, detail::best_dp_kernel()}) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t n = std::size_t(rng.uniform_int(0, 40));
      const auto items = random_items(rng, n, trial % 2 == 0 ? 9 : 40);
      const auto cap = std::size_t(rng.uniform_int(0, 150));
      const auto from = std::size_t(rng.uniform_int(0, std::int64_t(cap)));
      const std::string what = "trial " + std::to_string(trial);
      expect_window_matches_full(items, cap, from, kernel, what);
      expect_window_matches_full(items, cap, cap, kernel, what);
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical subsets, pinned: a change to the shortcuts, the reduction or
// the kernels must not silently reorder selections. Each case is checked
// through solve_dp and through the unreduced KnapsackProfile.
// ---------------------------------------------------------------------------

void expect_pinned(const std::vector<KnapsackItem>& items, object::Units cap,
                   double value, object::Units used,
                   const std::vector<std::size_t>& chosen) {
  const KnapsackSolution dp = solve_dp(items, cap);
  EXPECT_EQ(dp.value, value);
  EXPECT_EQ(dp.used, used);
  EXPECT_EQ(dp.chosen, chosen);
  const KnapsackSolution profile = KnapsackProfile(items, cap).solution_at(cap);
  EXPECT_EQ(profile.value, value);
  EXPECT_EQ(profile.used, used);
  EXPECT_EQ(profile.chosen, chosen);
}

// Every subset of equal-density items ties the LP bound. Exact fill is
// achievable, so the optimum is density * cap, and the canonical subset
// is the mask-minimal one.
TEST(KnapsackCanonical, AllEqualDensities) {
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 20; ++i) {
    items.push_back({object::Units(i + 1), 0.5 * double(i + 1)});
  }
  expect_pinned(items, 50, 25.0, 50, {0, 1, 2, 3, 5, 6, 7, 8, 9});
}

// One item fills the knapsack alone against many small denser items;
// the giant must lose to the denser pile (12 * 3.0 beats 30.0).
TEST(KnapsackCanonical, OneGiantItem) {
  std::vector<KnapsackItem> items{{40, 30.0}};
  for (int i = 0; i < 12; ++i) items.push_back({3, 3.0});
  expect_pinned(items, 40, 36.0, 36,
                {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
}

// Duplicate (size, profit) pairs force pure index tie-breaks: only one of
// the clones fits, and the canonical answer is the lowest-index clone.
TEST(KnapsackCanonical, DuplicateProfitsTieBreak) {
  const std::vector<KnapsackItem> items{
      {5, 7.5}, {5, 7.5}, {5, 7.5}, {5, 7.5}, {2, 1.0}};
  expect_pinned(items, 7, 8.5, 7, {0, 4});
}

// Capacity above the total weight: every positive-profit item, and no
// zero-profit one.
TEST(KnapsackCanonical, CapLargerThanTotalWeight) {
  const std::vector<KnapsackItem> items{
      {4, 2.0}, {3, 0.0}, {5, 9.5}, {2, 1.5}, {6, 0.0}};
  expect_pinned(items, 100, 13.0, 11, {0, 2, 3});
}

}  // namespace
}  // namespace mobi::core
