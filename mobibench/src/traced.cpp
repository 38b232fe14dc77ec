#include "traced.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "core/benefit.hpp"
#include "core/policy.hpp"
#include "core/scoring.hpp"
#include "exp/mobility_fleet.hpp"
#include "object/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "server/remote_server.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

namespace mobibench {

namespace exp = mobi::exp;
namespace client = mobi::client;
namespace coop = mobi::coop;
namespace core = mobi::core;
namespace util = mobi::util;
namespace obs = mobi::obs;

namespace {

// Raw per-layer observations, summed over every repetition.
struct Layers {
  SpanLog log;                   // driver-thread spans (workers merged in)
  std::map<std::string, double> sum;
  std::vector<double> updates_ns;  // coop: per-tick coherence/update time
  std::vector<double> dispatch_s, worker_busy_frac, imbalance, record_share;
  std::vector<double> pool_cpu_util, overhead;
  double select_ns = 0.0;   // bs.select wall time inside process_batch
  double barrier_ns = 0.0;  // fleet.barrier wall time inside step
  double coherence_ns = 0.0, coop_tick_ns = 0.0;

  void add(const std::string& key, double value) { sum[key] += value; }
  double get(const std::string& key) const {
    const auto it = sum.find(key);
    return it == sum.end() ? 0.0 : it->second;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Pool usage over one parallel region: which worker ran which shard for
// how long, and the process CPU the region burned.
void record_pool_usage(Layers& layers, std::size_t workers,
                       const std::vector<std::thread::id>& who,
                       const std::vector<double>& shard_ns, double wall_ns,
                       double cpu_s) {
  if (workers == 0 || wall_ns <= 0.0) return;
  std::vector<std::thread::id> ids;
  std::vector<double> busy;
  for (std::size_t i = 0; i < who.size(); ++i) {
    const auto it = std::find(ids.begin(), ids.end(), who[i]);
    if (it == ids.end()) {
      ids.push_back(who[i]);
      busy.push_back(shard_ns[i]);
    } else {
      busy[std::size_t(it - ids.begin())] += shard_ns[i];
    }
  }
  double total = 0.0, most = 0.0;
  for (const double b : busy) {
    total += b;
    most = std::max(most, b);
  }
  layers.worker_busy_frac.push_back(total / (double(workers) * wall_ns));
  layers.imbalance.push_back(ratio(most, total / double(workers)));
  layers.pool_cpu_util.push_back(cpu_s / (double(workers) * wall_ns * 1e-9));
}

// --- station_hot: run_policy_sim's loop, re-driven call by call.

RunOutcome replay_station(const Workload& w, Layers& layers) {
  const exp::PolicySimConfig& config = w.station;
  if (!config.faults.empty()) {
    throw std::logic_error("station replay covers fault-free configs only");
  }
  util::Rng rng(config.seed);
  const mobi::object::Catalog catalog = mobi::object::make_random_catalog(
      config.object_count, config.size_lo, config.size_hi, rng);
  mobi::server::ServerPool servers(catalog, config.server_count);
  core::BaseStationConfig bs_config;
  bs_config.download_budget = config.budget;
  bs_config.fetch_retry_limit = config.fetch_retry_limit;
  const double mean_size =
      double(catalog.total_size()) / double(catalog.size());
  bs_config.downlink_capacity = std::max<mobi::object::Units>(
      1, mobi::object::Units(double(config.requests_per_tick) * mean_size));
  core::BaseStation station(catalog, servers,
                            mobi::cache::make_harmonic_decay(config.decay_c),
                            core::make_scorer(config.scorer),
                            core::make_policy(config.policy), bs_config);
  obs::PhaseProfiler profiler;
  station.set_profiler(&profiler);
  const obs::PhaseProfiler::PhaseId select = profiler.phase("bs.select");

  std::shared_ptr<const mobi::workload::AccessDistribution> access;
  switch (config.access) {
    case exp::AccessPattern::kUniform:
      access = mobi::workload::make_uniform_access(config.object_count);
      break;
    case exp::AccessPattern::kRankLinear:
      access = mobi::workload::make_rank_linear_access(config.object_count);
      break;
    case exp::AccessPattern::kZipf:
      access = mobi::workload::make_zipf_access(config.object_count,
                                                config.zipf_alpha);
      break;
  }
  mobi::workload::RequestGenerator generator(
      access, config.targets, config.requests_per_tick, rng.split());
  auto updates = config.staggered_updates
                     ? mobi::workload::make_periodic_staggered(
                           config.object_count, config.update_period)
                     : mobi::workload::make_periodic_synchronized(
                           config.object_count, config.update_period);

  core::CandidateBuilder candidates;  // what the knapsack is offered
  mobi::workload::RequestBatch batch;
  exp::PolicySimResult result;
  double score_sum = 0.0;
  double recency_sum = 0.0;
  double candidate_count = 0.0, hits = 0.0, reads = 0.0, stale = 0.0;
  const mobi::sim::Tick total = config.warmup_ticks + config.measure_ticks;
  for (mobi::sim::Tick t = 0; t < total; ++t) {
    {
      ScopedSpan span(layers.log, SpanName::kApplyUpdates);
      station.apply_updates(*updates, t);
    }
    {
      ScopedSpan span(layers.log, SpanName::kNextBatch);
      generator.next_batch_into(batch);
    }
    const bool measured = t >= config.warmup_ticks;
    if (measured) {
      candidate_count += double(
          candidates.build(batch, catalog, station.cache(), station.scorer())
              .candidates.size());
    }
    const mobi::cache::CacheStats before = station.cache().stats();
    core::TickResult tick;
    {
      ScopedSpan span(layers.log, SpanName::kProcessBatch);
      tick = station.process_batch(batch, t);
    }
    if (!measured) continue;
    const mobi::cache::CacheStats& after = station.cache().stats();
    hits += double(after.hits - before.hits);
    reads += double((after.hits + after.misses) - (before.hits + before.misses));
    for (const auto& request : batch) {
      if (station.cache().contains(request.object) &&
          station.cache().is_stale(request.object,
                                   servers.version(request.object))) {
        stale += 1.0;
      }
    }
    score_sum += tick.score_sum;
    recency_sum += tick.recency_sum;
    result.units_downloaded += tick.units_downloaded;
    result.objects_downloaded += tick.objects_downloaded;
    result.requests += tick.requests;
    result.failed_fetches += tick.failed_fetches;
    result.retries += tick.retries;
    result.retry_successes += tick.retry_successes;
    result.degraded_serves += tick.degraded_serves;
  }
  if (result.requests > 0) {
    result.average_score = score_sum / double(result.requests);
    result.average_recency = recency_sum / double(result.requests);
  }
  result.downlink_utilization = station.downlink().utilization();
  result.downlink_dropped = station.downlink().dropped_total();

  layers.select_ns += double(profiler.total_wall_ns(select));
  layers.add("ticks", double(config.measure_ticks));
  layers.add("candidates", candidate_count);
  layers.add("fetched", double(result.objects_downloaded));
  layers.add("retries", double(result.retries));
  layers.add("retry_successes", double(result.retry_successes));
  layers.add("hits", hits);
  layers.add("reads", reads);
  layers.add("stale", stale);
  layers.add("units", double(result.units_downloaded));
  layers.add("downlink_util", result.downlink_utilization);
  layers.add("downlink_util_n", 1.0);
  layers.add("downlink_dropped", double(station.downlink().dropped_total()));
  layers.add("downlink_enqueued", double(station.downlink().enqueued_total()));

  RunOutcome out;
  out.totals = totals_of(result);
  out.requests = result.requests;
  return out;
}

// --- fleet_skewed: run_multi_cell's sharded dispatch, one run_cell per
// shard on the same kind of pool, each shard timed on its worker.

RunOutcome replay_sharded(const Workload& w, util::ThreadPool* pool,
                          Layers& layers) {
  const exp::MultiCellConfig& config = w.fleet;
  const std::vector<std::uint64_t> costs = exp::shard_cost_estimates(config);
  const std::size_t shards = config.cell_count;
  std::vector<client::CellResult> per_cell(shards);
  std::vector<std::int64_t> start(shards), end(shards);
  std::vector<std::thread::id> who(shards);
  const auto run_one = [&](std::size_t i) {
    client::CellConfig cell = config.cell;
    cell.seed = exp::shard_seed(config.seed, i);
    if (!config.cell_client_counts.empty()) {
      cell.client_count = config.cell_client_counts[i];
    }
    start[i] = now_ns();
    per_cell[i] = client::run_cell(cell);
    end[i] = now_ns();
    who[i] = std::this_thread::get_id();
  };
  const double cpu0 = cpu_now();
  const std::int64_t wall0 = now_ns();
  {
    ScopedSpan dispatch(layers.log, SpanName::kDispatch);
    if (pool) {
      util::weighted_parallel_for(*pool, costs, run_one);
    } else {
      for (std::size_t i = 0; i < shards; ++i) run_one(i);
    }
    for (std::size_t i = 0; i < shards; ++i) {
      layers.log.add(SpanName::kShard, start[i], end[i]);
    }
  }
  const double wall_ns = double(now_ns() - wall0);
  const double cpu_s = cpu_now() - cpu0;
  std::vector<double> shard_ns(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shard_ns[i] = double(end[i] - start[i]);
  }
  record_pool_usage(layers, pool ? pool->size() : 1, who, shard_ns, wall_ns,
                    cpu_s);

  client::CellResult aggregate;
  for (const auto& cell : per_cell) accumulate(aggregate, cell);
  layers.add("ticks", double(config.cell.ticks));
  layers.add("retries", double(aggregate.retries));
  layers.add("retry_successes", double(aggregate.retry_successes));
  layers.add("units", double(aggregate.base_downloaded));
  layers.add("local_hits", double(aggregate.served_locally));
  layers.add("requests", double(aggregate.requests));
  return outcome_of(w, aggregate, exp::MobilityRunStats{});
}

// --- fleet_mobile: the mobility fleet stepped tick by tick.

RunOutcome replay_mobile(const Workload& w, util::ThreadPool* pool,
                         Layers& layers) {
  exp::MobilityFleet fleet(w.fleet);
  obs::PhaseProfiler profiler;
  fleet.set_profiler(&profiler);
  const obs::PhaseProfiler::PhaseId barrier = profiler.phase("fleet.barrier");
  const double cpu0 = cpu_now();
  const std::int64_t wall0 = now_ns();
  while (!fleet.done()) {
    ScopedSpan span(layers.log, SpanName::kFleetStep);
    fleet.step(pool);
  }
  const double wall_ns = double(now_ns() - wall0);
  const double cpu_s = cpu_now() - cpu0;
  if (pool) {
    layers.pool_cpu_util.push_back(cpu_s /
                                   (double(pool->size()) * wall_ns * 1e-9));
  }
  layers.barrier_ns += double(profiler.total_wall_ns(barrier));

  client::CellResult aggregate;
  for (std::size_t i = 0; i < fleet.cell_count(); ++i) {
    accumulate(aggregate, fleet.cell_result(i));
  }
  const exp::MobilityRunStats& stats = fleet.stats();
  layers.add("ticks", double(fleet.ticks()));
  layers.add("crossings", double(stats.crossings));
  layers.add("deliveries", double(stats.deliveries));
  layers.add("lost_deliveries", double(stats.lost_deliveries));
  layers.add("retries", double(aggregate.retries));
  layers.add("retry_successes", double(aggregate.retry_successes));
  layers.add("units", double(aggregate.base_downloaded));
  layers.add("local_hits", double(aggregate.served_locally));
  layers.add("requests", double(aggregate.requests));
  return outcome_of(w, aggregate, stats);
}

// --- coop_writes: every cluster stepped tick by tick on a worker, each
// with its own (single-threaded) PhaseProfiler.

RunOutcome replay_coop(const Workload& w, util::ThreadPool* pool,
                       Layers& layers) {
  const exp::MultiCellConfig& config = w.fleet;
  const std::vector<std::uint64_t> costs = exp::shard_cost_estimates(config);
  const std::size_t shards = costs.size();
  const std::size_t width = config.cells_per_cluster;
  const mobi::sim::Tick warmup = config.cluster.warmup_ticks;
  const mobi::sim::Tick total = warmup + config.cluster.measure_ticks;

  struct Shard {
    coop::CoopResult result;
    std::vector<std::int64_t> tick_start, tick_end;
    std::vector<double> coherence_ns;  // per tick
    double updates_measured = 0.0;
    std::thread::id who;
  };
  std::vector<Shard> out(shards);
  const auto run_one = [&](std::size_t i) {
    Shard& s = out[i];
    coop::CoopConfig cluster_config = config.cluster;
    cluster_config.seed = exp::shard_seed(config.seed, i);
    cluster_config.cell_count =
        std::min(width, config.cell_count - i * width);
    coop::CoopCluster cluster(cluster_config);
    obs::PhaseProfiler profiler;
    cluster.set_profiler(&profiler);
    const auto coherence = profiler.phase("coop.coherence");
    s.tick_start.reserve(std::size_t(total));
    s.tick_end.reserve(std::size_t(total));
    s.coherence_ns.reserve(std::size_t(total));
    std::uint64_t updates_at_warmup = 0;
    for (mobi::sim::Tick t = 0; t < total; ++t) {
      if (t == warmup) updates_at_warmup = profiler.sim_cost(coherence);
      const std::uint64_t coherence_before = profiler.total_wall_ns(coherence);
      s.tick_start.push_back(now_ns());
      cluster.tick();
      s.tick_end.push_back(now_ns());
      s.coherence_ns.push_back(
          double(profiler.total_wall_ns(coherence) - coherence_before));
    }
    s.updates_measured =
        double(profiler.sim_cost(coherence) - updates_at_warmup);
    s.result = cluster.result();
    s.who = std::this_thread::get_id();
  };
  const double cpu0 = cpu_now();
  const std::int64_t wall0 = now_ns();
  {
    ScopedSpan dispatch(layers.log, SpanName::kDispatch);
    if (pool) {
      util::weighted_parallel_for(*pool, costs, run_one);
    } else {
      for (std::size_t i = 0; i < shards; ++i) run_one(i);
    }
  }
  const double wall_ns = double(now_ns() - wall0);
  const double cpu_s = cpu_now() - cpu0;

  coop::CoopResult aggregate;
  std::vector<std::thread::id> who(shards);
  std::vector<double> shard_ns(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    const Shard& s = out[i];
    accumulate(aggregate, s.result);
    who[i] = s.who;
    for (std::size_t t = 0; t < s.tick_start.size(); ++t) {
      layers.log.add(SpanName::kCoopTick, s.tick_start[t], s.tick_end[t]);
      layers.coop_tick_ns += double(s.tick_end[t] - s.tick_start[t]);
      shard_ns[i] += double(s.tick_end[t] - s.tick_start[t]);
      layers.coherence_ns += s.coherence_ns[t];
    }
    layers.updates_ns.insert(layers.updates_ns.end(), s.coherence_ns.begin(),
                             s.coherence_ns.end());
    layers.add("updates", s.updates_measured);
  }
  record_pool_usage(layers, pool ? pool->size() : 1, who, shard_ns, wall_ns,
                    cpu_s);
  layers.add("ticks", double(config.cluster.measure_ticks));
  layers.add("invalidations", double(aggregate.invalidations));
  layers.add("peer_hits", double(aggregate.peer_hits));
  layers.add("fetches",
             double(aggregate.origin_fetches + aggregate.neighbor_fetches));
  layers.add("units", double(aggregate.origin_units));
  return outcome_of(aggregate);
}

RunOutcome replay(const Workload& w, util::ThreadPool* pool, Layers& layers) {
  ScopedSpan root(layers.log, SpanName::kReplay);
  switch (w.id) {
    case WorkloadId::kStationHot: return replay_station(w, layers);
    case WorkloadId::kFleetSkewed: return replay_sharded(w, pool, layers);
    case WorkloadId::kFleetMobile: return replay_mobile(w, pool, layers);
    case WorkloadId::kCoopWrites: return replay_coop(w, pool, layers);
  }
  throw std::logic_error("unknown workload");
}

// The library's own driver-side phases (mc.dispatch / mc.record) from one
// observed run_multi_cell call.
RunOutcome observed_run(const Workload& w, util::ThreadPool* pool,
                        Layers& layers) {
  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  obs::PhaseProfiler profiler;
  exp::MultiCellObservers observers;
  observers.recorder = &recorder;
  observers.profiler = &profiler;
  RunOutcome out = run_entry_point(w, pool, observers);
  const double dispatch =
      double(profiler.total_wall_ns(profiler.phase("mc.dispatch")));
  const double record =
      double(profiler.total_wall_ns(profiler.phase("mc.record")));
  layers.dispatch_s.push_back(dispatch * 1e-9);
  layers.record_share.push_back(ratio(record, dispatch + record));
  return out;
}

void add_timing(MetricValues& m, const std::string& prefix,
                const std::vector<double>& samples, bool with_max) {
  m.set(prefix + ".p50", quantile(samples, 0.5));
  if (with_max) {
    m.set(prefix + ".max",
          samples.empty() ? 0.0
                          : *std::max_element(samples.begin(), samples.end()));
  } else {
    m.set(prefix + ".p99", quantile(samples, 0.99));
  }
  m.set(prefix + ".n", double(samples.size()));
}

// Every per-layer metric gets a value; a layer the workload does not
// exercise (or whose counts its public results do not expose) reads 0.
MetricValues finish(const Workload& w, const Layers& l) {
  MetricValues m;
  for (const MetricDef& def : per_layer_metrics()) m.set(def.name, 0.0);
  const double ticks = l.get("ticks");
  m.set("core.retry_success_frac",
        ratio(l.get("retry_successes"), l.get("retries")));
  m.set("net.units_per_tick", ratio(l.get("units"), ticks));
  m.set("obs.trace_overhead_frac", median(l.overhead));
  m.set("util.pool_cpu_util", median(l.pool_cpu_util));
  switch (w.id) {
    case WorkloadId::kStationHot: {
      add_timing(m, "workload.next_batch_ns",
                 l.log.durations(SpanName::kNextBatch), false);
      add_timing(m, "workload.updates_ns",
                 l.log.durations(SpanName::kApplyUpdates), false);
      add_timing(m, "core.process_batch_us",
                 l.log.durations(SpanName::kProcessBatch, 1e3), false);
      m.set("core.select_share",
            ratio(l.select_ns, l.log.total_ns(SpanName::kProcessBatch)));
      m.set("core.candidates_per_tick", ratio(l.get("candidates"), ticks));
      m.set("core.fetch_yield", ratio(l.get("fetched"), l.get("candidates")));
      m.set("cache.hit_frac", ratio(l.get("hits"), l.get("reads")));
      m.set("cache.stale_serve_frac", ratio(l.get("stale"), l.get("reads")));
      m.set("net.downlink_util",
            ratio(l.get("downlink_util"), l.get("downlink_util_n")));
      m.set("net.downlink_dropped_frac",
            ratio(l.get("downlink_dropped"), l.get("downlink_enqueued")));
      break;
    }
    case WorkloadId::kFleetSkewed:
    case WorkloadId::kFleetMobile: {
      m.set("client.local_hit_frac",
            ratio(l.get("local_hits"), l.get("requests")));
      m.set("exp.dispatch_s", median(l.dispatch_s));
      m.set("exp.record_share", median(l.record_share));
      if (w.id == WorkloadId::kFleetSkewed) {
        add_timing(m, "client.shard_ms", l.log.durations(SpanName::kShard, 1e6),
                   true);
        m.set("exp.worker_busy_frac", median(l.worker_busy_frac));
        m.set("exp.imbalance", median(l.imbalance));
      } else {
        add_timing(m, "mobility.step_us",
                   l.log.durations(SpanName::kFleetStep, 1e3), false);
        m.set("mobility.barrier_share",
              ratio(l.barrier_ns, l.log.total_ns(SpanName::kFleetStep)));
        m.set("mobility.crossings_per_tick", ratio(l.get("crossings"), ticks));
        m.set("mobility.delivery_yield",
              ratio(l.get("deliveries"),
                    l.get("deliveries") + l.get("lost_deliveries")));
      }
      break;
    }
    case WorkloadId::kCoopWrites: {
      add_timing(m, "workload.updates_ns", l.updates_ns, false);
      add_timing(m, "coop.tick_us", l.log.durations(SpanName::kCoopTick, 1e3),
                 false);
      m.set("coop.coherence_share", ratio(l.coherence_ns, l.coop_tick_ns));
      m.set("coop.invalidations_per_update",
            ratio(l.get("invalidations"), l.get("updates")));
      m.set("coop.peer_hit_frac", ratio(l.get("peer_hits"), l.get("fetches")));
      m.set("exp.dispatch_s", median(l.dispatch_s));
      m.set("exp.record_share", median(l.record_share));
      m.set("exp.worker_busy_frac", median(l.worker_busy_frac));
      m.set("exp.imbalance", median(l.imbalance));
      break;
    }
  }
  return m;
}

}  // namespace

RunReport run_traced(const Workload& workload, const RunOptions& options) {
  RunReport report;
  Layers layers;
  Pool pool(workload, options.pool_threads);
  report.pool_workers = pool.workers();
  std::size_t reps = 0;
  const double start = wall_now();
  while (reps < options.min_reps || wall_now() - start < options.seconds) {
    const RepetitionCpu cpu(workload, reps++);
    const Timed untraced = timed_run(workload, pool.get());

    const double wall0 = wall_now();
    RunOutcome replayed = replay(workload, pool.get(), layers);
    const double traced_wall = wall_now() - wall0;
    report.attempted += 2;
    layers.overhead.push_back(traced_wall / untraced.wall_s - 1.0);

    if (options.corrupt_total && !replayed.totals.fields.empty()) {
      replayed.totals.fields.front().second += 1.0;
    }
    const std::string diff =
        Totals::mismatch(untraced.outcome.totals, replayed.totals);
    if (!diff.empty()) {
      ++report.failed;
      report.fail("traced replay diverged from the untraced run: " + diff);
    }
    if (workload.multi_cell()) {
      const RunOutcome observed =
          observed_run(workload, pool.get(), layers);
      ++report.attempted;
      const std::string odiff =
          Totals::mismatch(untraced.outcome.totals, observed.totals);
      if (!odiff.empty()) {
        ++report.failed;
        report.fail("observed run diverged from the untraced run: " + odiff);
      }
    }
  }
  report.metrics = finish(workload, layers);
  report.samples.set("reps", double(reps));
  report.samples.set("spans", double(layers.log.spans().size()));
  return report;
}

}  // namespace mobibench
