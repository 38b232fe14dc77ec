#include "core/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace mobi::core {

namespace detail {

void validate_items(std::span<const KnapsackItem> items) {
  for (const KnapsackItem& item : items) {
    if (item.size <= 0) {
      throw std::invalid_argument("knapsack: item sizes must be > 0");
    }
    if (item.profit < 0.0 || !std::isfinite(item.profit)) {
      throw std::invalid_argument("knapsack: profits must be finite, >= 0");
    }
  }
}

/// Density order shared by the greedy solver, the DP shortcut and the
/// bound reduction: profit density descending, then size ascending, then
/// index ascending. The comparator must stay identical in
/// all places — the shortcut's optimality argument assumes the greedy's
/// exact order. Only positive-profit items are ordered: a zero-profit
/// item has density 0 and so would sort after every positive one, where
/// no reader looks. (Only a profit below the smallest normal double could
/// round a positive item's density to 0 too; the exact solvers' answers
/// do not depend on where such an item sorts.) The keys are packed, so
/// the sort moves and compares contiguous records instead of chasing
/// indices into the items.
void density_order(std::span<const KnapsackItem> items, KnapsackWorkspace& ws) {
  std::vector<DensityKey>& keys = ws.density_keys_;
  keys.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].profit > 0.0) {
      keys.push_back(
          {items[i].profit / double(items[i].size), items[i].size, i});
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const DensityKey& a, const DensityKey& b) {
              if (a.density != b.density) return a.density > b.density;
              if (a.size != b.size) return a.size < b.size;
              return a.index < b.index;
            });
  std::vector<std::size_t>& order = ws.order_;
  order.resize(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) order[k] = keys[k].index;
}

/// Shortcut 1: when every positive-profit item fits within the capacity
/// together, the optimum is forced. Every DP node the reconstruction visits
/// has room for all positive items below it, so its value is F(i - 1), the
/// rounded ascending sum of those items, and item i is taken exactly when
/// F(i - 1) + p_i rounds strictly above F(i - 1) — always, unless p_i is
/// absorbed by rounding (then the strict-improvement DP leaves it out, as
/// it leaves out zero-profit items). The ascending fold below makes the
/// same test, so value, used and chosen match the DP bit-for-bit.
bool take_all_shortcut(std::span<const KnapsackItem> items,
                       object::Units capacity, KnapsackSolution& out) {
  object::Units need = 0;
  for (const KnapsackItem& item : items) {
    if (item.profit > 0.0) {
      need += item.size;
      if (need > capacity) return false;
    }
  }
  out.reset();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double value = out.value + items[i].profit;
    if (value > out.value) {
      out.chosen.push_back(i);
      out.used += items[i].size;
    }
    out.value = value;
  }
  return true;
}

/// Shortcut 2: when the density-greedy prefix fills the capacity *exactly*
/// — no skipped item, no leftover — and there is a density gap to the
/// first positive-profit item left out, the greedy value equals the
/// fractional (LP) upper bound and the integral optimum is unique: any
/// other feasible set swaps at least one whole unit of prefix for lower-
/// density items (or drops it), so it is worse by at least the gap. The
/// DP compares rounded sums, so the gap must also clear their rounding
/// error — at most (n + 2) * 2^-53 of the prefix value each, n counting
/// every item the DP rows add, zero-profit ones too — and that of
/// the two densities; then every other set's rounded sum is strictly
/// smaller too, and the DP must reconstruct this same set. Value is folded
/// in ascending index order to match the DP's double.
bool greedy_prefix_shortcut(std::span<const KnapsackItem> items,
                            object::Units capacity, KnapsackWorkspace& ws,
                            KnapsackSolution& out) {
  density_order(items, ws);
  const std::vector<std::size_t>& order = WorkspaceAccess::order(ws);
  object::Units left = capacity;
  double prefix_value = 0.0;  // density order; only sizes the gap check
  std::size_t k = 0;
  for (; k < order.size(); ++k) {
    const KnapsackItem& item = items[order[k]];
    if (item.size > left) break;  // a skip: prefix ends short
    left -= item.size;
    prefix_value += item.profit;
    if (left == 0) {
      ++k;
      break;
    }
  }
  // Not an exact fill (or the positives ran out before it).
  if (left != 0) return false;
  if (k == 0) {                 // capacity 0: the empty set is the optimum
    out.reset();
    return true;
  }
  if (k < order.size()) {
    const KnapsackItem& last = items[order[k - 1]];
    const KnapsackItem& next = items[order[k]];
    const double dl = last.profit / double(last.size);
    const double dn = next.profit / double(next.size);
    const double rounding =
        4.0 * double(items.size() + 2) * 0x1p-53 * prefix_value +
        0x1p-51 * dl;
    // A (near-)tie across the cut: not provably unique.
    if (!(dl - dn > rounding)) return false;
  }
  out.reset();
  out.chosen.assign(order.begin(), order.begin() + std::ptrdiff_t(k));
  std::sort(out.chosen.begin(), out.chosen.end());
  for (std::size_t index : out.chosen) {
    out.value += items[index].profit;
    out.used += items[index].size;
  }
  return true;
}

/// Bound reduction: drop the items that provably cannot change the DP's
/// answer, so the O(n * capacity) table is filled for the survivors only.
///
/// Write V(i, c) for the DP value over items 0..i at capacity c and fl-sum
/// for a subset's profits added in ascending index order with rounding.
/// Because rounding is monotone, V(i, c) is the maximum fl-sum over the
/// feasible subsets of 0..i; the final value V* is the largest fl-sum of
/// any feasible subset.
///  * A zero-profit row never sets a bit (prev[c - s] + 0 > prev[c] is
///    false, the value curve being non-decreasing in c) and leaves the
///    curve unchanged, so deleting it changes no other row.
///  * An item larger than the capacity never fits; its row is empty.
///  * For the rest: the reconstruction only visits nodes (i, c) whose best
///    subset, completed by the items already chosen above i, reaches V*.
///    If no item of a subset reaching V* is dropped, every value the
///    reconstruction compares is the same with or without the dropped
///    rows, so it takes the same bits — same chosen, used and value.
///    Item j can be in no such subset when p_j + LP(C - s_j) < LB: LP is
///    the Dantzig (fractional) bound over all items, an upper bound on
///    what the others add in the remaining room, and LB, the greedy-with-
///    skips value, is the fl-sum of a feasible subset, so LB <= V*.
/// The margin absorbs rounding. Each quantity the test relies on (LB, the
/// bound, and the rounded sums of the subsets they stand for) adds at most
/// n + 4 rounded non-negative terms, so it is off by at most
/// (n + 4) * 2^-53 times the total profit. The test combines five such
/// errors; 8x covers them and the rounding of the margin itself. It scales
/// with the data: a rounding bound, not a tuned constant.
std::span<const std::size_t> reduce_items(std::span<const KnapsackItem> items,
                                          object::Units capacity,
                                          KnapsackWorkspace& ws) {
  // The rounding margin counts every item (each is a DP row); the sums
  // run over the positive ones, all that the density order holds.
  const std::size_t n = items.size();
  const std::vector<std::size_t>& order = ws.order_;
  const std::size_t m = order.size();
  // Density-order prefix sums up to the break item (the first that no
  // longer fits): LP(c) for c <= capacity never reads further.
  std::vector<double>& profit_sum = ws.prefix_profit_;
  std::vector<object::Units>& size_sum = ws.prefix_size_;
  profit_sum.resize(m + 1);
  size_sum.resize(m + 1);
  profit_sum[0] = 0.0;
  size_sum[0] = 0;
  std::size_t brk = 0;
  object::Units max_size = 0;  // largest positive item that fits
  for (; brk < m; ++brk) {
    const KnapsackItem& item = items[order[brk]];
    if (item.size > capacity - size_sum[brk]) break;
    profit_sum[brk + 1] = profit_sum[brk] + item.profit;
    size_sum[brk + 1] = size_sum[brk] + item.size;
    max_size = std::max(max_size, item.size);
  }
  double lower = profit_sum[brk];
  double total = profit_sum[brk];
  object::Units left = capacity - size_sum[brk];
  for (std::size_t k = brk; k < m; ++k) {
    const KnapsackItem& item = items[order[k]];
    total += item.profit;
    if (item.size <= capacity) max_size = std::max(max_size, item.size);
    if (item.size <= left) {
      lower += item.profit;
      left -= item.size;
    }
  }
  const double cutoff = lower - 8.0 * double(n + 4) * 0x1p-53 * total;

  // Dantzig bound LP(capacity - s) for every positive item's size s: whole
  // items while they fit, then a fraction of the next. The room only
  // shrinks as s grows, so one backward walk over the prefix serves every
  // size.
  std::vector<double>& lp = ws.lp_by_size_;
  lp.resize(std::size_t(max_size) + 1);
  std::size_t k = brk;
  for (object::Units size = 1; size <= max_size; ++size) {
    const object::Units room = capacity - size;
    while (size_sum[k] > room) --k;
    double bound = profit_sum[k];
    if (k < m) {
      const KnapsackItem& next = items[order[k]];
      bound += next.profit * double(room - size_sum[k]) / double(next.size);
    }
    lp[std::size_t(size)] = bound;
  }

  ws.kept_.clear();
  ws.kept_items_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const KnapsackItem& item = items[i];
    if (item.profit <= 0.0 || item.size > capacity) continue;
    if (item.profit + lp[std::size_t(item.size)] < cutoff) continue;
    ws.kept_.push_back(i);
    ws.kept_items_.push_back(item);
  }
  return ws.kept_;
}

// ---------------------------------------------------------------------------
// DP kernels. Both produce bit-identical value curves and decision
// matrices; the AVX2 two-row kernel trades the scalar loop's early-exit
// branch for straight-line lane math that vectorizes.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) && defined(__GNUC__)
#define MOBI_KNAPSACK_AVX2_DISPATCH 1
#else
#define MOBI_KNAPSACK_AVX2_DISPATCH 0
#endif

namespace {

/// Row windows of dp_fill: walks the rows in order and yields each one's
/// first filled column, max(0, trace_from - R_i).
class RowWindow {
 public:
  RowWindow(std::span<const KnapsackItem> items, std::size_t trace_from)
      : trace_from_(trace_from) {
    for (const KnapsackItem& item : items) after_ += std::size_t(item.size);
  }
  /// Call once per row, in order, with that row's size.
  std::size_t next(std::size_t size) noexcept {
    after_ -= size;
    return trace_from_ > after_ ? trace_from_ - after_ : 0;
  }

 private:
  std::size_t trace_from_;
  std::size_t after_ = 0;  // total size of the rows not yet passed
};

/// The classic in-place descending-capacity row update over each row's
/// window. `values` must be zero-filled, `bits` zero-filled with
/// `row_words` words per item row. Below a window the in-place curve
/// keeps an earlier row's values, which no later row reads.
void dp_kernel_scalar(std::span<const KnapsackItem> items, std::size_t cap,
                      std::size_t trace_from, double* values,
                      std::uint64_t* bits, std::size_t row_words) {
  RowWindow window(items, trace_from);
  std::uint64_t* row = bits;
  for (std::size_t i = 0; i < items.size(); ++i, row += row_words) {
    const auto size = std::size_t(items[i].size);
    const double profit = items[i].profit;
    const std::size_t lo = window.next(size);
    if (size > cap) continue;
    // Columns [lo, size) keep the previous row's value in place.
    const std::size_t first = std::max(size, lo);
    for (std::size_t c = cap; c >= first; --c) {
      const double candidate = values[c - size] + profit;
      if (candidate > values[c]) {
        values[c] = candidate;
        row[c >> 6] |= std::uint64_t{1} << (c & 63);
      }
      if (c == first) break;  // avoid size_t underflow
    }
  }
}

#if MOBI_KNAPSACK_AVX2_DISPATCH
/// Two-row word-parallel kernel, compiled for AVX2 (4 double lanes per
/// op). Instead of updating one row in place right-to-left (a
/// loop-carried dependence plus an unpredictable store branch), each item
/// reads `prev` and writes `curr`:
///
///   curr[c] = max(prev[c], prev[c - size] + profit)      (c >= size)
///   curr[c] = prev[c]                                    (c <  size)
///
/// which is the same recurrence, so values are bit-identical — and the
/// max form is branch-free, letting the compiler turn the value pass into
/// packed-double maxpd lanes. Only additions and max/compare on
/// non-negative finite doubles: no FMA contraction is possible, so the
/// lanes compute the exact same IEEE results. The decision bit is
/// `curr[c] > prev[c]` (taking strictly improved), packed 64 columns per
/// word so each output word of the flat bit-matrix is produced by one
/// lane-comparison sweep. `curr > prev` equals the scalar kernel's
/// `candidate > values[c]` test: curr is either prev (bit 0) or a
/// strictly greater candidate (bit 1).
///
/// Buffer parity: the caller pre-swaps so that after one swap per
/// *effective* item (size <= cap; skipped rows advance `row` but not the
/// buffers) the final curve lands in ws.values_ without a copy.
///
/// Windows: each row computes only [lo, cap] (RowWindow) and packs only
/// the words covering it, masking the lanes of the first word below lo,
/// so its bits match the scalar kernel's; the words below stay zero.
__attribute__((target("avx2"))) void dp_kernel_two_row_avx2(
    std::span<const KnapsackItem> items, std::size_t cap,
    std::size_t trace_from, double* a, double* b, std::uint64_t* bits,
    std::size_t row_words) {
  RowWindow window(items, trace_from);
  std::uint64_t* row = bits;
  for (std::size_t i = 0; i < items.size(); ++i, row += row_words) {
    const auto size = std::size_t(items[i].size);
    const double profit = items[i].profit;
    const std::size_t lo = window.next(size);
    if (size > cap) continue;
    const double* __restrict prev = a;
    double* __restrict curr = b;
    for (std::size_t c = lo; c < size; ++c) curr[c] = prev[c];
    for (std::size_t c = std::max(size, lo); c <= cap; ++c) {
      const double cand = prev[c - size] + profit;
      curr[c] = cand > prev[c] ? cand : prev[c];
    }
    std::uint64_t keep = ~std::uint64_t{0} << (lo & 63);
    for (std::size_t w = lo >> 6; w < row_words; ++w) {
      const std::size_t base = w << 6;
      const std::size_t lanes = std::min<std::size_t>(64, cap + 1 - base);
      std::uint64_t packed = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        packed |= std::uint64_t(curr[base + l] > prev[base + l]) << l;
      }
      row[w] = packed & keep;
      keep = ~std::uint64_t{0};
      if (base + 64 > cap) break;
    }
    std::swap(a, b);
  }
}
#endif

}  // namespace

DpKernel best_dp_kernel() noexcept {
#if MOBI_KNAPSACK_AVX2_DISPATCH
  if (__builtin_cpu_supports("avx2")) return DpKernel::kTwoRowAvx2;
#endif
  return DpKernel::kScalar;
}

void dp_fill(std::span<const KnapsackItem> items, std::size_t cap,
             KnapsackWorkspace& ws, std::size_t row_words,
             std::size_t trace_from, DpKernel kernel) {
  const std::size_t n = items.size();
  std::vector<double>& values = WorkspaceAccess::values(ws);
  std::vector<std::uint64_t>& bits = WorkspaceAccess::take_bits(ws);
  // resize + fill instead of assign: once the workspace has seen its
  // high-water capacity, later fills touch no allocator at all.
  values.resize(cap + 1);
  bits.resize(n * row_words);
  std::fill(bits.begin(), bits.end(), 0);
#if MOBI_KNAPSACK_AVX2_DISPATCH
  if (kernel == DpKernel::kTwoRowAvx2) {
    std::vector<double>& prev = WorkspaceAccess::values_prev(ws);
    prev.resize(cap + 1);
    double* a = values.data();
    double* b = prev.data();
    std::size_t effective = 0;
    for (const KnapsackItem& item : items) {
      if (std::size_t(item.size) <= cap) ++effective;
    }
    // One buffer swap per effective item: start so the result ends in a.
    if (effective & 1) std::swap(a, b);
    std::fill(a, a + cap + 1, 0.0);
    dp_kernel_two_row_avx2(items, cap, trace_from, a, b, bits.data(),
                           row_words);
    return;
  }
#endif
  std::fill(values.begin(), values.end(), 0.0);
  dp_kernel_scalar(items, cap, trace_from, values.data(), bits.data(),
                   row_words);
}

}  // namespace detail

KnapsackProfile::KnapsackProfile(std::span<const KnapsackItem> items,
                                 object::Units max_capacity)
    : ws_(&own_) {
  detail::validate_items(items);
  build(items, max_capacity, 0);
}

KnapsackProfile::KnapsackProfile(std::span<const KnapsackItem> items,
                                 object::Units max_capacity,
                                 KnapsackWorkspace& workspace)
    : ws_(&workspace) {
  detail::validate_items(items);
  build(items, max_capacity, 0);
}

KnapsackProfile::KnapsackProfile(std::span<const KnapsackItem> items,
                                 object::Units max_capacity,
                                 KnapsackWorkspace& workspace,
                                 TracebackAtMaxOnly)
    : ws_(&workspace) {
  build(items, max_capacity, max_capacity);
}

void KnapsackProfile::build(std::span<const KnapsackItem> items,
                            object::Units max_capacity,
                            object::Units trace_from) {
  if (max_capacity < 0) {
    throw std::invalid_argument("KnapsackProfile: negative capacity");
  }
  const std::size_t n = items.size();
  const auto cap = std::size_t(max_capacity);
  ws_->item_sizes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) ws_->item_sizes_[i] = items[i].size;

  // Row-by-row DP through the best kernel (detail::DpKernel); strict
  // improvement keeps solutions minimal (zero-profit items never taken).
  // The decision matrix is a single flat allocation; each item touches
  // only its own contiguous row — prefetch-friendly, no pointer chasing.
  row_words_ = (cap + 1 + 63) / 64;
  detail::dp_fill(items, cap, *ws_, row_words_, std::size_t(trace_from));
}

double KnapsackProfile::value_at(object::Units c) const {
  if (c < 0 || c > max_capacity()) {
    throw std::out_of_range("KnapsackProfile::value_at");
  }
  return ws_->values_[std::size_t(c)];
}

KnapsackSolution KnapsackProfile::solution_at(object::Units c) const {
  KnapsackSolution solution;
  solution_into(c, solution);
  return solution;
}

void KnapsackProfile::solution_into(object::Units c,
                                    KnapsackSolution& out) const {
  if (c < 0 || c > max_capacity()) {
    throw std::out_of_range("KnapsackProfile::solution_at");
  }
  out.reset();
  out.value = ws_->values_[std::size_t(c)];
  auto remaining = std::size_t(c);
  const std::vector<object::Units>& sizes = ws_->item_sizes_;
  for (std::size_t i = sizes.size(); i-- > 0;) {
    if (taken(i, remaining)) {
      out.chosen.push_back(i);
      out.used += sizes[i];
      remaining -= std::size_t(sizes[i]);
    }
  }
  std::reverse(out.chosen.begin(), out.chosen.end());
}

KnapsackSolution solve_dp(std::span<const KnapsackItem> items,
                          object::Units capacity) {
  KnapsackWorkspace ws;
  KnapsackSolution out;
  solve_dp(items, capacity, ws, out);
  return out;
}

void solve_dp(std::span<const KnapsackItem> items, object::Units capacity,
              KnapsackWorkspace& ws, KnapsackSolution& out) {
  // The batch is validated exactly once here; the profile construction
  // below skips re-validation (TracebackAtMaxOnly route).
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("KnapsackProfile: negative capacity");
  }
  if (detail::take_all_shortcut(items, capacity, out)) return;
  if (detail::greedy_prefix_shortcut(items, capacity, ws, out)) return;
  // The shortcut left the density order in the workspace.
  const std::span<const std::size_t> kept =
      detail::reduce_items(items, capacity, ws);
  const KnapsackProfile profile(ws.kept_items_, capacity, ws,
                                KnapsackProfile::TracebackAtMaxOnly{});
  profile.solution_into(capacity, out);
  for (std::size_t& index : out.chosen) index = kept[index];
}

KnapsackSolution solve_greedy(std::span<const KnapsackItem> items,
                              object::Units capacity) {
  KnapsackWorkspace ws;
  KnapsackSolution out;
  solve_greedy(items, capacity, ws, out);
  return out;
}

void solve_greedy(std::span<const KnapsackItem> items, object::Units capacity,
                  KnapsackWorkspace& ws, KnapsackSolution& out) {
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("solve_greedy: negative capacity");
  }
  detail::density_order(items, ws);
  out.reset();
  object::Units left = capacity;
  for (std::size_t index : ws.order_) {  // positive-profit items only
    if (items[index].size <= left) {
      out.chosen.push_back(index);
      out.value += items[index].profit;
      out.used += items[index].size;
      left -= items[index].size;
    }
  }
  // 1/2-approximation guarantee needs max(greedy, best single item).
  std::size_t best_single = items.size();
  double best_value = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].size <= capacity && items[i].profit > best_value) {
      best_single = i;
      best_value = items[i].profit;
    }
  }
  if (best_value > out.value) {
    out.reset();
    out.chosen.push_back(best_single);
    out.value = best_value;
    out.used = items[best_single].size;
    return;
  }
  std::sort(out.chosen.begin(), out.chosen.end());
}

KnapsackSolution solve_fptas(std::span<const KnapsackItem> items,
                             object::Units capacity, double epsilon) {
  KnapsackWorkspace ws;
  KnapsackSolution out;
  solve_fptas(items, capacity, epsilon, ws, out);
  return out;
}

void solve_fptas(std::span<const KnapsackItem> items, object::Units capacity,
                 double epsilon, KnapsackWorkspace& ws,
                 KnapsackSolution& out) {
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("solve_fptas: negative capacity");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    throw std::invalid_argument("solve_fptas: epsilon must be in (0, 1)");
  }
  out.reset();
  const std::size_t n = items.size();
  double max_profit = 0.0;
  for (const auto& item : items) {
    if (item.size <= capacity) max_profit = std::max(max_profit, item.profit);
  }
  if (n == 0 || max_profit <= 0.0) return;

  // Scale profits to integers: q_i = floor(p_i / K), K = eps * P / n.
  const double scale = epsilon * max_profit / double(n);
  ws.scaled_.resize(n);
  std::uint64_t total_scaled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ws.scaled_[i] = std::uint64_t(items[i].profit / scale);
    total_scaled += ws.scaled_[i];
  }
  // Guard the decision-matrix footprint (bits = n * (total_scaled + 1)).
  constexpr std::uint64_t kMaxBits = 64ULL * 1024 * 1024 * 8;
  if (std::uint64_t(n) * (total_scaled + 1) > kMaxBits) {
    throw std::invalid_argument(
        "solve_fptas: instance too large for reconstruction memory budget");
  }

  // min_weight[q] = least total size achieving scaled profit exactly q.
  // The take matrix is flat 64-bit words, one padded row per item, reusing
  // the workspace's bit buffer like the profile DP does.
  const auto q_max = std::size_t(total_scaled);
  constexpr object::Units kInfeasible = std::numeric_limits<object::Units>::max();
  ws.min_weight_.resize(q_max + 1);
  std::fill(ws.min_weight_.begin(), ws.min_weight_.end(), kInfeasible);
  ws.min_weight_[0] = 0;
  const std::size_t row_words = (q_max + 1 + 63) / 64;
  ws.take_bits_.resize(n * row_words);
  std::fill(ws.take_bits_.begin(), ws.take_bits_.end(), 0);
  std::uint64_t* row = ws.take_bits_.data();
  for (std::size_t i = 0; i < n; ++i, row += row_words) {
    const auto q_i = std::size_t(ws.scaled_[i]);
    if (q_i == 0) continue;  // adds no scaled profit; skip (keeps DP tight)
    for (std::size_t q = q_max; q >= q_i; --q) {
      if (ws.min_weight_[q - q_i] == kInfeasible) {
        if (q == q_i) break;
        continue;
      }
      const object::Units weight = ws.min_weight_[q - q_i] + items[i].size;
      if (weight < ws.min_weight_[q]) {
        ws.min_weight_[q] = weight;
        row[q >> 6] |= std::uint64_t{1} << (q & 63);
      }
      if (q == q_i) break;
    }
  }
  std::size_t best_q = 0;
  for (std::size_t q = 0; q <= q_max; ++q) {
    if (ws.min_weight_[q] <= capacity) best_q = q;
  }
  // Reconstruct and report the *true* (unscaled) value of the chosen set.
  std::size_t q = best_q;
  for (std::size_t i = n; i-- > 0;) {
    if (q == 0) break;
    if ((ws.take_bits_[i * row_words + (q >> 6)] >> (q & 63)) & 1u) {
      out.chosen.push_back(i);
      out.value += items[i].profit;
      out.used += items[i].size;
      q -= std::size_t(ws.scaled_[i]);
    }
  }
  std::reverse(out.chosen.begin(), out.chosen.end());
}

KnapsackSolution solve_brute_force(std::span<const KnapsackItem> items,
                                   object::Units capacity) {
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("solve_brute_force: negative capacity");
  }
  if (items.size() > 30) {
    throw std::invalid_argument("solve_brute_force: too many items");
  }
  const std::uint32_t n = std::uint32_t(items.size());
  KnapsackSolution best;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    double value = 0.0;
    object::Units used = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) {
        value += items[i].profit;
        used += items[i].size;
      }
    }
    if (used <= capacity && value > best.value) {
      best.value = value;
      best.used = used;
      best.chosen.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (mask & (1ULL << i)) best.chosen.push_back(i);
      }
    }
  }
  return best;
}

namespace {

/// Depth-first branch and bound over items pre-sorted by profit density.
class BranchAndBound {
 public:
  BranchAndBound(std::span<const KnapsackItem> items, object::Units capacity,
                 std::uint64_t node_limit)
      : items_(items), capacity_(capacity), node_limit_(node_limit) {
    order_.resize(items.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      const double da = items[a].profit / double(items[a].size);
      const double db = items[b].profit / double(items[b].size);
      if (da != db) return da > db;
      return a < b;
    });
    taken_.assign(items.size(), false);
  }

  KnapsackSolution run() {
    descend(0, 0, 0.0);
    std::sort(best_.chosen.begin(), best_.chosen.end());
    return best_;
  }

 private:
  /// LP relaxation: fill greedily from `depth`, fractionally at the end.
  double fractional_bound(std::size_t depth, object::Units used,
                          double value) const {
    object::Units left = capacity_ - used;
    for (std::size_t i = depth; i < order_.size() && left > 0; ++i) {
      const KnapsackItem& item = items_[order_[i]];
      if (item.profit <= 0.0) break;  // density-sorted: rest are worthless
      if (item.size <= left) {
        value += item.profit;
        left -= item.size;
      } else {
        value += item.profit * double(left) / double(item.size);
        left = 0;
      }
    }
    return value;
  }

  void descend(std::size_t depth, object::Units used, double value) {
    if (++nodes_ > node_limit_) {
      throw std::runtime_error("solve_branch_and_bound: node limit exceeded");
    }
    if (value > best_.value) {
      best_.value = value;
      best_.used = used;
      best_.chosen.clear();
      for (std::size_t i = 0; i < depth; ++i) {
        if (taken_[i]) best_.chosen.push_back(order_[i]);
      }
    }
    if (depth == order_.size()) return;
    // A strict comparison would also prune ties with the incumbent, which
    // is correct but makes zero-profit instances degenerate; epsilon keeps
    // the pruning strict on real profit.
    if (fractional_bound(depth, used, value) <= best_.value + 1e-12) return;

    const KnapsackItem& item = items_[order_[depth]];
    if (item.size <= capacity_ - used && item.profit > 0.0) {
      taken_[depth] = true;
      descend(depth + 1, used + item.size, value + item.profit);
      taken_[depth] = false;
    }
    descend(depth + 1, used, value);
  }

  std::span<const KnapsackItem> items_;
  object::Units capacity_;
  std::uint64_t node_limit_;
  std::uint64_t nodes_ = 0;
  std::vector<std::size_t> order_;
  std::vector<bool> taken_;
  KnapsackSolution best_;
};

}  // namespace

KnapsackSolution solve_branch_and_bound(std::span<const KnapsackItem> items,
                                        object::Units capacity,
                                        std::uint64_t node_limit) {
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("solve_branch_and_bound: negative capacity");
  }
  return BranchAndBound(items, capacity, node_limit).run();
}

}  // namespace mobi::core
