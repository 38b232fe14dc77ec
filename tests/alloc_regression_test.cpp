// Zero-allocation regression guard for the per-tick hot path
// (docs/performance.md). Global counting operator new hooks observe every
// heap allocation in the process; after a warm-up phase grows all the
// retained scratch buffers (candidate builder, knapsack workspace, fetch
// and transfer lists, downlink queue) to their high-water sizes, further
// steady-state BaseStation::process_batch calls must perform *zero*
// allocations. Runs under the `perf` ctest label.
//
// The downlink only reaches an allocation-free steady state when it
// drains every tick (a persistent backlog grows the pending queue without
// bound), so the stations here get ample downlink capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cache/decay.hpp"
#include "cache/invalidation.hpp"
#include "cache/replacement.hpp"
#include "client/cell.hpp"
#include "client/mobile_client.hpp"
#include "coop/cooperative.hpp"
#include "core/base_station.hpp"
#include "core/knapsack.hpp"
#include "exp/mobility_fleet.hpp"
#include "exp/multi_cell.hpp"
#include "exp/policy_sim.hpp"
#include "net/fault_injector.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/window.hpp"
#include "object/builders.hpp"
#include "sim/fault_plan.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  g_allocated_bytes += size;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  ++g_allocations;
  g_allocated_bytes += size;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  g_allocated_bytes += size;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  g_allocated_bytes += size;
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, std::size_t(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, std::size_t(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mobi {
namespace {

// Runs the BM_BaseStationTick-shaped workload: pre-generated zipf batches,
// a few server updates per tick so the policy always has real work, and
// asserts that `measured_passes` over the batch pool allocate nothing
// after `warmup_passes` have grown every buffer.
void run_steady_state(const std::string& policy, bool coalesce,
                      const sim::FaultPlan* faults = nullptr,
                      std::size_t fetch_retry_limit = 0,
                      obs::RequestTracer* tracer = nullptr) {
  SCOPED_TRACE(policy + (coalesce ? " +coalesce" : "") +
               (faults ? (faults->empty() ? " +idle-injector"
                                          : " +active-faults")
                       : "") +
               (tracer ? " +tracer" : ""));
  constexpr std::size_t kObjects = 256;
  constexpr std::size_t kBatch = 128;
  constexpr int kUpdatesPerTick = 8;

  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(kObjects, 1, 8, rng);
  server::ServerPool servers(catalog, faults ? 4 : 1);
  core::BaseStationConfig config;
  config.download_budget = object::Units(kObjects) / 4;
  config.coalesce_downlink = coalesce;
  config.downlink_capacity = 1 << 20;  // drains every tick (see header note)
  config.fetch_retry_limit = fetch_retry_limit;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy(policy), config);
  // The injector lives outside the measured region; attaching it must not
  // add steady-state allocations — retry queue and fault scratch are
  // grown to catalog size up front, and draws are allocation-free.
  std::unique_ptr<net::FaultInjector> injector;
  if (faults) {
    injector = std::make_unique<net::FaultInjector>(*faults,
                                                    servers.server_count());
    station.set_fault_injector(injector.get());
    servers.set_fault_injector(injector.get());
  }
  if (tracer) station.set_request_tracer(tracer);

  workload::RequestGenerator generator(
      workload::make_zipf_access(kObjects, 1.0), workload::ConstantTarget{1.0},
      kBatch, rng.split());
  std::vector<workload::RequestBatch> batches;
  for (int b = 0; b < 32; ++b) batches.push_back(generator.next_batch());
  // Pre-drawn update ids: the measured region must not touch the id pool.
  std::vector<object::ObjectId> update_ids;
  for (std::size_t i = 0; i < batches.size() * kUpdatesPerTick; ++i) {
    update_ids.push_back(
        object::ObjectId(rng.uniform_int(0, std::int64_t(kObjects) - 1)));
  }

  sim::Tick now = 0;
  const auto one_pass = [&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      for (int u = 0; u < kUpdatesPerTick; ++u) {
        station.on_server_update(update_ids[b * kUpdatesPerTick + u], now);
      }
      station.process_batch(batches[b], now);
      ++now;
    }
  };

  for (int pass = 0; pass < 2; ++pass) one_pass();  // warm-up
  const std::uint64_t before = g_allocations.load();
  for (int pass = 0; pass < 3; ++pass) one_pass();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
}

TEST(AllocRegression, HooksObserveAllocations) {
  const std::uint64_t before = g_allocations.load();
  auto* p = new std::vector<int>(100);
  delete p;
  EXPECT_GT(g_allocations.load(), before);
}

TEST(AllocRegression, KnapsackPolicySteadyStateIsAllocationFree) {
  run_steady_state("on-demand-knapsack", false);
}

TEST(AllocRegression, KnapsackPolicyCoalescingSteadyStateIsAllocationFree) {
  run_steady_state("on-demand-knapsack", true);
}

TEST(AllocRegression, GreedyPolicySteadyStateIsAllocationFree) {
  run_steady_state("on-demand-knapsack-greedy", false);
}

TEST(AllocRegression, IdleInjectorSteadyStateIsAllocationFree) {
  // An attached injector with an empty plan must be indistinguishable
  // from no injector on the allocation axis too.
  const sim::FaultPlan empty;
  run_steady_state("on-demand-knapsack", false, &empty);
}

TEST(AllocRegression, AttachedTracerSteadyStateIsAllocationFree) {
  // A RequestTracer with a deliberately tiny event buffer: warm-up fills
  // the log, and from then on every record drops (a counter bump, no
  // growth). The downlink's parallel timestamp queue reaches its own
  // high-water mark in warm-up, so the traced steady state — sampling
  // decisions, histogram observes, drop accounting — allocates nothing.
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 0.2;
  plan.downlink_drop_rate = 0.1;
  obs::RequestTracer::Config config;
  config.sample_every = 2;
  config.event_capacity = 512;
  obs::RequestTracer tracer(config);
  obs::MetricsRegistry registry;
  tracer.register_histograms(&registry);
  run_steady_state("on-demand-knapsack", false, &plan, 3, &tracer);
  EXPECT_EQ(tracer.log().size(), tracer.log().capacity());
  EXPECT_GT(tracer.log().dropped(), 0u);
  EXPECT_GT(registry.find_histogram("lat.served_recency_gap")->total(), 0u);
}

TEST(AllocRegression, ActiveFaultPlanSteadyStateIsAllocationFree) {
  // Even with live fetch failures, slowdowns, drops, outages and a retry
  // budget, the retry queue and fault scratch reach a high-water mark in
  // warm-up and the measured ticks allocate nothing.
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 0.2;
  plan.fetch_slowdown_rate = 0.1;
  plan.downlink_drop_rate = 0.1;
  plan.server_outage_rate = 0.05;
  plan.server_outage_ticks = 4;
  run_steady_state("on-demand-knapsack", false, &plan, 3);
}

TEST(AllocRegression, CoherentCoopClusterSteadyStateIsAllocationFree) {
  // Steady-state coherence traffic — sharer-set updates, invalidations,
  // propagations, lease sweeps, peer-tier candidate pricing and peer
  // fetches — runs on the directory's preallocated vectors and the
  // cells' retained batch/fetch scratch, so ticking a coherent cluster
  // allocates nothing once every buffer has hit its high-water mark.
  for (const coop::ConsistencyMode mode :
       {coop::ConsistencyMode::kInvalidate, coop::ConsistencyMode::kPropagate,
        coop::ConsistencyMode::kLease}) {
    SCOPED_TRACE(coop::consistency_mode_name(mode));
    coop::CoopConfig config;
    config.cell_count = 3;
    config.object_count = 48;
    config.requests_per_tick_per_cell = 16;
    config.update_period = 2;  // protocol fires on half the ticks
    config.warmup_ticks = 4;   // steady state measures in accounting mode
    config.measure_ticks = 1 << 20;
    config.budget_per_cell = 20;
    config.coherence.enabled = true;
    config.coherence.mode = mode;
    config.coherence.lease_ticks = 3;
    config.seed = 23;
    coop::CoopCluster cluster(config);
    for (int t = 0; t < 40; ++t) cluster.tick();  // warm-up
    const std::uint64_t before = g_allocations.load();
    for (int t = 0; t < 20; ++t) cluster.tick();
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " steady-state heap allocations";
    // The measured ticks actually carried protocol traffic.
    const auto& r = cluster.result();
    EXPECT_GT(r.invalidations + r.propagations + r.lease_expiries, 0u);
  }
}

TEST(AllocRegression, WarmedArenaReplaySteadyStateIsAllocationFree) {
  // The fleet cold path's contract: after one horizon run has grown the
  // arena to its high-water mark, reset() + an identical replay touches
  // the heap zero times — every vector grab lands in retained slabs.
  util::MonotonicArena arena(1 << 12);
  const auto one_run = [&arena] {
    util::ArenaVector<double> series{util::ArenaAllocator<double>(&arena)};
    series.reserve(2048);
    for (int i = 0; i < 2048; ++i) series.push_back(double(i));
    util::ArenaVector<std::uint64_t> rows{
        util::ArenaAllocator<std::uint64_t>(&arena)};
    rows.reserve(512);
    for (int i = 0; i < 512; ++i) rows.push_back(std::uint64_t(i) * 3);
    return series.back() + double(rows.back());
  };
  one_run();  // warm-up grows the slabs
  const std::size_t reserved = arena.bytes_reserved();
  const std::uint64_t before = g_allocations.load();
  double sum = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    arena.reset();
    sum += one_run();
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_GT(sum, 0.0);
}

TEST(AllocRegression, MobilityFleetSteadyStateIsAllocationFree) {
  // The serial fleet path under *active* mobility: clients keep crossing
  // cells, rosters shift, handoff windows open and close, payloads sit in
  // flight, and every barrier appends a stats row — all on capacity
  // reserved in the constructor (rosters/batches/in-flight to the fleet
  // population, rows to the tick count). The station-side scratch
  // (candidate builder, knapsack workspace, downlink queue) grows with
  // the largest batch a cell has ever seen, and under mobility that
  // high-water mark is population-dependent — so the warm-up uses a
  // trace that parks the ENTIRE fleet in each cell in turn, forcing
  // every station through the global worst case (a full-population
  // batch) before measurement starts. The measured churn phase keeps
  // clients hopping every tick at far smaller per-cell populations;
  // those steady-state ticks must allocate nothing.
  constexpr std::uint32_t kCells = 3;
  constexpr std::uint32_t kClients = 12;  // 4 per cell at construction
  std::vector<sim::TraceHop> trace;
  for (std::uint32_t cell = 0; cell < kCells; ++cell) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      trace.push_back({sim::Tick(5 + 10 * cell), c, cell});
    }
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    trace.push_back({35, c, c % kCells});  // spread back out
  }
  for (sim::Tick t = 40; t < 120; ++t) {  // rolling churn, one hop per tick
    const auto client = std::uint32_t(t % kClients);
    // Rotate the target each lap so every hop is a genuine crossing.
    trace.push_back({t, client,
                     std::uint32_t((t / kClients + client) % kCells)});
  }

  exp::MultiCellConfig config;
  config.cell_count = kCells;
  config.cell.client_count = kClients / kCells;
  config.cell.object_count = 24;
  config.cell.ticks = 120;
  config.cell.base_budget = 8;
  config.mobility.mode = sim::MobilityMode::kTraceDriven;
  config.mobility.trace = trace;
  config.mobility.handoff_ticks = 2;
  config.seed = 11;
  exp::MobilityFleet fleet(config);
  for (int t = 0; t < 60; ++t) fleet.step();  // warm-up: mass-dwell phases
  const std::uint64_t warm_crossings = fleet.stats().crossings;
  const std::uint64_t before = g_allocations.load();
  while (!fleet.done()) fleet.step();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
  // The measured ticks actually carried mobility traffic.
  EXPECT_GT(fleet.stats().crossings, warm_crossings);
  EXPECT_GT(fleet.stats().deliveries, 0u);
}

// run_cell's tick, held open: a warm fixed-roster ClientCell with
// disconnects, handoff faults, fetch failures and retries. Reports are
// cut into one reused scratch report, the invalidation log is pruned
// after each broadcast, and the batch and requester lists are reserved
// for the roster, so once the station's scratch has reached its
// high-water sizes a tick allocates nothing.
TEST(AllocRegression, ClientCellSteadyStateIsAllocationFree) {
  client::CellConfig config;
  config.object_count = 60;
  config.client_count = 16;
  config.base_budget = 12;
  config.report_period = 3;
  config.server_count = 2;
  config.fetch_retry_limit = 2;
  config.client.disconnect_rate = 0.1;
  config.faults.fetch_failure_rate = 0.2;
  config.faults.handoff_rate = 0.05;
  util::Rng rng(config.seed);
  const auto catalog = object::make_random_catalog(
      config.object_count, config.size_lo, config.size_hi, rng);
  const util::Rng connectivity = rng.split();
  const util::Rng requests = rng.split();
  client::ClientCell cell(
      catalog, config,
      exp::make_access(config.access, config.object_count, config.zipf_alpha),
      connectivity, requests, /*delivery_ticks=*/0, config.client_count);
  std::vector<client::MobileClient> clients;
  for (std::uint32_t id = 0; id < config.client_count; ++id) {
    clients.emplace_back(id, catalog, config.client);
    cell.add_client(id);
  }
  sim::Tick t = 0;
  for (; t < 300; ++t) cell.tick(t, clients);  // warm-up
  const client::CellResult warm = cell.result();
  const std::uint64_t before = g_allocations.load();
  for (; t < 800; ++t) cell.tick(t, clients);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
  // The measured ticks did the work the header names.
  const client::CellResult& done = cell.result();
  EXPECT_GT(done.requests, warm.requests);
  EXPECT_GT(done.served_by_base, warm.served_by_base);
  EXPECT_GT(done.sleeper_drops, warm.sleeper_drops);
  EXPECT_GT(done.handoffs, warm.handoffs);
  EXPECT_GT(done.retries, warm.retries);
}

// A client's cache holds its residents in storage reserved at
// construction, and the invalidation listener walks them in place: once
// built, a client serves, stores, hears reports and drops its cache under
// the sleeper rule without touching the heap.
TEST(AllocRegression, WarmMobileClientIsAllocationFree) {
  util::Rng rng(13);
  const auto catalog = object::make_random_catalog(200, 1, 8, rng);
  client::MobileClient mobile(0, catalog, {});
  // Reports over every third object, then one after a missed window.
  std::vector<cache::InvalidationReport> reports;
  for (sim::Tick w = 0; w < 8; ++w) {
    cache::InvalidationReport report{5 * w, 5 * (w + 1), {}};
    for (object::ObjectId id = object::ObjectId(w % 3); id < 200; id += 3) {
      report.items.push_back({id, 1 + std::uint32_t(id % 2)});
    }
    reports.push_back(std::move(report));
  }
  reports.push_back(cache::InvalidationReport{50, 55, {}});  // gap: sleeper
  std::vector<object::ObjectId> wants;
  for (int i = 0; i < 400; ++i) {
    wants.push_back(object::ObjectId(rng.uniform_int(0, 199)));
  }
  const server::FetchResult fetched{1, 0, 1};

  const auto one_pass = [&](sim::Tick base) {
    for (std::size_t i = 0; i < wants.size(); ++i) {
      const sim::Tick now = base + sim::Tick(i);
      if (!mobile.lookup(wants[i], now)) {
        mobile.store(wants[i], fetched, now, i % 4 == 0 ? 0.5 : 1.0);
      }
      if (i % 50 == 49) mobile.hear_report(reports[i / 50]);
    }
  };
  one_pass(0);  // warm-up (the first pass already fills the cache)
  const std::uint64_t drops = mobile.sleeper_drops();
  const std::uint64_t before = g_allocations.load();
  mobile.hear_report(reports.back());  // the sleeper rule fires
  for (int pass = 1; pass <= 3; ++pass) one_pass(1000 * pass);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
  EXPECT_GT(mobile.sleeper_drops(), drops);
  EXPECT_GT(mobile.hits(), 0u);
}

// A bounded cache is sized by its capacity, not by the catalog: twenty
// units of cache over a million objects, with its invalidation listener,
// cost a few hundred bytes of heap however much it churns.
TEST(AllocRegression, BoundedCacheIsSizedByCapacity) {
  constexpr std::size_t kObjects = 1'000'000;
  const auto catalog = object::make_uniform_catalog(kObjects, 1);
  cache::InvalidationReport report{0, 1, {}};
  for (object::ObjectId id = 0; id < kObjects; id += 997) {
    report.items.push_back({id, 1});
  }
  const server::FetchResult fetched{1, 0, 1};
  const std::uint64_t before = g_allocated_bytes.load();
  {
    cache::BoundedCache store(catalog, cache::make_harmonic_decay(), 20,
                              cache::lru_policy());
    cache::InvalidationListener listener;
    for (sim::Tick t = 0; t < 200; ++t) {
      const auto id = object::ObjectId((std::size_t(t) * 997) % kObjects);
      store.admit(id, fetched, t);
      store.read(id, t);
    }
    EXPECT_EQ(store.used(), 20);
    EXPECT_GT(listener.apply(report, store), 0);
  }
  const std::uint64_t bytes = g_allocated_bytes.load() - before;
  EXPECT_LT(bytes, 4096u) << bytes << " bytes allocated";
}

TEST(AllocRegression, StreamingSinkSteadyStateIsAllocationFree) {
  // The inline-flush JsonlTraceSink reserves both event halves and the
  // serialization scratch at construction; steady-state write() is a
  // push into reserved storage and flushes serialize into the grow-only
  // scratch and fwrite (stdio buffers are not operator-new traffic). One
  // warm-up lap past several flush boundaries grows the scratch to its
  // high-water mark; after that, streaming allocates nothing.
  obs::JsonlTraceSink sink("/dev/null", {256, /*background_flush=*/false});
  const auto one_lap = [&sink] {
    for (std::uint32_t i = 0; i < 2048; ++i) {
      sink.write({sim::Tick(i), obs::EventKind(i % 13), i % 3, i, i % 7,
                  double(i % 5)});
    }
  };
  one_lap();  // warm-up: scratch reaches its high-water mark
  const std::uint64_t before = g_allocations.load();
  one_lap();
  sink.flush();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
  EXPECT_EQ(sink.streamed_events(), 4096u);
  EXPECT_EQ(sink.flushed_events(), 4096u);
}

TEST(AllocRegression, WindowedProfiledSloSteadyStateIsAllocationFree) {
  // The full online-observability stack at once: live bs.* metrics, a
  // phase profiler with live prof.phase.* counters, a tumbling
  // WindowAggregator whose tiny ring wraps during warm-up, and an SLO
  // monitor evaluating (and alerting) on every closed frame. All of it
  // runs on storage preallocated at begin()/construction — frame
  // baselines, the closed-frame ring, breach-bit rings, trie nodes — so
  // the observed steady state must allocate exactly as much as the
  // unobserved one: nothing.
  constexpr std::size_t kObjects = 128;
  constexpr std::size_t kBatch = 64;
  constexpr int kUpdatesPerTick = 4;

  util::Rng rng(3);
  const auto catalog = object::make_random_catalog(kObjects, 1, 8, rng);
  server::ServerPool servers(catalog, 4);
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 0.2;
  net::FaultInjector injector(plan, servers.server_count());
  core::BaseStationConfig config;
  config.download_budget = object::Units(kObjects) / 4;
  config.downlink_capacity = 1 << 20;
  config.fetch_retry_limit = 3;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy("on-demand-knapsack"), config);
  station.set_fault_injector(&injector);
  servers.set_fault_injector(&injector);

  obs::MetricsRegistry registry;
  station.set_metrics(&registry);
  obs::PhaseProfiler profiler;
  profiler.attach_registry(&registry);
  station.set_profiler(&profiler);  // creates phases -> live counters

  // Retry ceiling (breaches on every faulty frame, so the burn-rate
  // alert fires mid-run) plus a hit-rate ratio objective.
  obs::SloObjective retry_ceiling;
  retry_ceiling.name = "retry-ceiling";
  retry_ceiling.column = "bs.fault.retries.rate";
  retry_ceiling.threshold = 0.0;
  retry_ceiling.fast_windows = 2;
  retry_ceiling.slow_windows = 4;
  obs::SloObjective hit_rate;
  hit_rate.name = "hit-rate";
  hit_rate.column = "bs.hits.rate";
  hit_rate.denominator = "bs.requests.rate";
  hit_rate.cmp = obs::SloObjective::Cmp::kGe;
  hit_rate.threshold = 0.5;
  hit_rate.fast_windows = 2;
  hit_rate.slow_windows = 4;
  obs::SloMonitor monitor(&registry, {retry_ceiling, hit_rate});

  obs::WindowAggregator::Config window_config;
  window_config.window_ticks = 8;
  window_config.frame_capacity = 2;  // wraps well inside warm-up
  obs::WindowAggregator windows(registry, window_config);
  windows.set_listener(&monitor);
  windows.begin();  // after the last registration (slo.* included)

  workload::RequestGenerator generator(
      workload::make_zipf_access(kObjects, 1.0), workload::ConstantTarget{1.0},
      kBatch, rng.split());
  std::vector<workload::RequestBatch> batches;
  for (int b = 0; b < 16; ++b) batches.push_back(generator.next_batch());
  std::vector<object::ObjectId> update_ids;
  for (std::size_t i = 0; i < batches.size() * kUpdatesPerTick; ++i) {
    update_ids.push_back(
        object::ObjectId(rng.uniform_int(0, std::int64_t(kObjects) - 1)));
  }

  sim::Tick now = 0;
  const auto one_pass = [&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      for (int u = 0; u < kUpdatesPerTick; ++u) {
        station.on_server_update(update_ids[b * kUpdatesPerTick + u], now);
      }
      station.process_batch(batches[b], now);
      windows.on_tick(now);
      ++now;
    }
  };

  for (int pass = 0; pass < 2; ++pass) one_pass();  // warm-up
  EXPECT_GT(windows.dropped_frames(), 0u);  // the ring already wrapped
  const std::uint64_t before = g_allocations.load();
  for (int pass = 0; pass < 3; ++pass) one_pass();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";

  // The measured frames actually exercised the whole stack.
  windows.finish();
  EXPECT_EQ(windows.windows_closed(), 10u);  // 80 ticks / W=8
  EXPECT_EQ(monitor.evaluations(), 20u);     // 10 frames x 2 objectives
  EXPECT_GT(monitor.breaches(), 0u);
  EXPECT_GT(monitor.alerts(), 0u);
  EXPECT_GT(profiler.root_total_wall_ns(), 0u);
  EXPECT_EQ(registry.scalar_value("slo.alerts"), double(monitor.alerts()));
}

// The exact solve's bound reduction fills grow-only prefix-sum and kept-
// item scratch: once a workspace has seen the largest instance, reduced
// solves of any of them allocate nothing.
TEST(AllocRegression, WarmReducedKnapsackSolveIsAllocationFree) {
  util::Rng rng(12);
  std::vector<std::vector<core::KnapsackItem>> instances;
  for (std::size_t n : {200, 600, 60, 400}) {
    std::vector<core::KnapsackItem> items(n);
    for (auto& item : items) {
      // Even sizes against an odd budget: no exact greedy fill.
      item.size = 2 * object::Units(rng.uniform_int(1, 8));
      item.profit = rng.bernoulli(0.45) ? 0.0 : rng.uniform() * 3.0;
    }
    instances.push_back(std::move(items));
  }
  constexpr object::Units kBudget = 301;
  core::KnapsackWorkspace ws;
  core::KnapsackSolution out;
  for (const auto& items : instances) {
    // The instances must take the DP path with rows actually dropped.
    ASSERT_FALSE(core::detail::take_all_shortcut(items, kBudget, out));
    ASSERT_FALSE(core::detail::greedy_prefix_shortcut(items, kBudget, ws, out));
    ASSERT_LT(core::detail::reduce_items(items, kBudget, ws).size(),
              items.size());
    core::solve_dp(items, kBudget, ws, out);  // warm-up
  }
  const std::uint64_t before = g_allocations.load();
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& items : instances) {
      core::solve_dp(items, kBudget, ws, out);
    }
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
}

// run_policy_sim draws every batch into one reused buffer and reserves
// the per-request score vector for the whole measured window up front,
// so its allocation count depends on set-up and warm-up only: ten times
// the measured ticks costs not one allocation more. The config is the
// default one (zipf access, knapsack policy, 50 requests a tick); its
// station scratch reaches its high-water sizes within ~200 ticks, so the
// warm-up runs 300.
TEST(AllocRegression, PolicySimTickLoopIsAllocationFree) {
  const auto allocations_at = [](sim::Tick measure_ticks) {
    exp::PolicySimConfig config;
    config.warmup_ticks = 300;
    config.measure_ticks = measure_ticks;
    const std::uint64_t before = g_allocations.load();
    const exp::PolicySimResult result = exp::run_policy_sim(config);
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(result.requests,
              std::uint64_t(measure_ticks) * config.requests_per_tick);
    return after - before;
  };
  EXPECT_EQ(allocations_at(20), allocations_at(200));
}

}  // namespace
}  // namespace mobi
