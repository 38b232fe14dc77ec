#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "util/rng.hpp"

namespace mobibench {

namespace exp = mobi::exp;
namespace client = mobi::client;
namespace coop = mobi::coop;

namespace {

struct Entry {
  WorkloadId id;
  const char* name;
};

constexpr Entry kWorkloads[] = {
    {WorkloadId::kStationHot, "station_hot"},
    {WorkloadId::kFleetSkewed, "fleet_skewed"},
    {WorkloadId::kFleetMobile, "fleet_mobile"},
    {WorkloadId::kCoopWrites, "coop_writes"},
};

// Zipf(alpha)-distributed client populations over `cells` cells with the
// fleet total fixed at cells x mean, the rank order scattered over the
// cell indices by a seeded shuffle (big cells are not all at the front,
// so no schedule gets a lucky contiguous layout).
std::vector<std::size_t> skewed_client_counts(std::size_t cells,
                                              std::size_t mean,
                                              double alpha,
                                              std::uint64_t seed) {
  const std::size_t total = cells * mean;
  std::vector<double> weights(cells);
  for (std::size_t r = 0; r < cells; ++r) {
    weights[r] = 1.0 / std::pow(double(r + 1), alpha);
  }
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::size_t> by_rank(cells);
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < cells; ++r) {
    by_rank[r] = std::max<std::size_t>(
        1, std::size_t(std::llround(double(total) * weights[r] / sum)));
    assigned += by_rank[r];
  }
  if (assigned < total) {
    by_rank[0] += total - assigned;
  } else {
    std::size_t excess = assigned - total;
    for (std::size_t r = 0; r < cells && excess > 0; ++r) {
      const std::size_t take = std::min(excess, by_rank[r] - 1);
      by_rank[r] -= take;
      excess -= take;
    }
  }
  std::vector<std::size_t> order(cells);
  std::iota(order.begin(), order.end(), std::size_t{0});
  mobi::util::SplitMix64 mix(seed ^ 0x5ca77e2ce11ULL);
  for (std::size_t i = cells; i > 1; --i) {
    std::swap(order[i - 1], order[std::size_t(mix.next() % i)]);
  }
  std::vector<std::size_t> counts(cells);
  for (std::size_t r = 0; r < cells; ++r) counts[order[r]] = by_rank[r];
  return counts;
}

Workload station_hot(std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  Workload w;
  exp::PolicySimConfig& c = w.station;
  c.object_count = tiny ? 512 : 4096;
  c.size_lo = 1;
  c.size_hi = 16;
  c.requests_per_tick = tiny ? 128 : 1024;
  c.access = exp::AccessPattern::kZipf;
  c.zipf_alpha = 0.8;
  c.update_period = 20;
  c.budget = tiny ? 100 : 800;
  c.seed = seed;
  c.warmup_ticks = tiny ? 10 : 50;
  c.measure_ticks = tiny ? 30 : 150;
  w.warmup_ticks = c.warmup_ticks;
  return w;
}

// Shared shape of the sharded fleets: many small cells, each a full
// run_cell (clients with local caches, invalidation reports, a budgeted
// base station).
void fleet_common(Workload& w, std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  exp::MultiCellConfig& c = w.fleet;
  c.topology = exp::CellTopology::kSharded;
  c.cell_count = tiny ? 6 : 64;
  c.cell.object_count = 200;
  c.cell.base_budget = 60;
  c.cell.client_count = tiny ? 8 : 40;
  c.seed = seed;
}

Workload fleet_skewed(std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  Workload w;
  fleet_common(w, seed, scale);
  exp::MultiCellConfig& c = w.fleet;
  c.cell_client_counts =
      skewed_client_counts(c.cell_count, c.cell.client_count, 1.0, seed);
  c.cell.server_count = 4;
  c.cell.fetch_retry_limit = 3;
  c.cell.faults.fetch_failure_rate = 0.05;
  c.cell.faults.server_outage_rate = 0.01;
  c.cell.faults.handoff_rate = 0.01;
  w.pooled = true;
  w.warmup_ticks = tiny ? 5 : 30;
  c.cell.ticks = w.warmup_ticks + (tiny ? 20 : 250);
  return w;
}

Workload fleet_mobile(std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  Workload w;
  fleet_common(w, seed, scale);
  exp::MultiCellConfig& c = w.fleet;
  c.mobility.mode = mobi::sim::MobilityMode::kRandomWaypoint;
  // Not pooled: MobilityFleet forks and joins the pool on every tick, so
  // one worker that loses its CPU for a moment stalls the whole tick. On
  // a shared 4-vCPU host that made pooled throughput bimodal from run to
  // run (IQR/median 0.5-0.8 over 10 runs), while CPU time per request
  // held. Serial, the workload needs one CPU and still runs every cell
  // tick, the mobility barrier and the handoff bus.
  w.warmup_ticks = tiny ? 5 : 20;
  c.cell.ticks = w.warmup_ticks + (tiny ? 20 : 110);
  return w;
}

Workload coop_writes(std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  Workload w;
  exp::MultiCellConfig& c = w.fleet;
  c.topology = exp::CellTopology::kCoopClusters;
  c.cell_count = tiny ? 6 : 48;
  c.cells_per_cluster = 3;
  c.seed = seed;
  w.pooled = true;
  coop::CoopConfig& k = c.cluster;
  k.distinct_interests = true;
  k.update_period = 1;
  k.coherence.enabled = true;
  k.coherence.mode = coop::ConsistencyMode::kInvalidate;
  k.warmup_ticks = tiny ? 5 : 30;
  k.measure_ticks = tiny ? 30 : 1500;
  w.warmup_ticks = k.warmup_ticks;
  return w;
}

void add_cell(Totals& t, const client::CellResult& r) {
  t.add("requests", double(r.requests));
  t.add("served_locally", double(r.served_locally));
  t.add("served_by_base", double(r.served_by_base));
  t.add("score_sum", r.score_sum);
  t.add("base_downloaded", double(r.base_downloaded));
  t.add("sleeper_drops", double(r.sleeper_drops));
  t.add("disconnect_ticks", double(r.disconnect_ticks));
  t.add("failed_fetches", double(r.failed_fetches));
  t.add("retries", double(r.retries));
  t.add("retry_successes", double(r.retry_successes));
  t.add("degraded_serves", double(r.degraded_serves));
  t.add("handoffs", double(r.handoffs));
  t.add("downlink_dropped", double(r.downlink_dropped));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& e : kWorkloads) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

std::optional<WorkloadId> parse_workload(const std::string& name) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) return e.id;
  }
  return std::nullopt;
}

Workload make_workload(WorkloadId id, std::uint64_t seed, Scale scale) {
  Workload w;
  switch (id) {
    case WorkloadId::kStationHot: w = station_hot(seed, scale); break;
    case WorkloadId::kFleetSkewed: w = fleet_skewed(seed, scale); break;
    case WorkloadId::kFleetMobile: w = fleet_mobile(seed, scale); break;
    case WorkloadId::kCoopWrites: w = coop_writes(seed, scale); break;
  }
  w.id = id;
  for (const Entry& e : kWorkloads) {
    if (e.id == id) w.name = e.name;
  }
  return w;
}

Workload setup_only(const Workload& workload) {
  Workload w = workload;
  w.station.measure_ticks = 0;
  w.fleet.cell.ticks = w.warmup_ticks;
  w.fleet.cluster.measure_ticks = 0;
  return w;
}

std::string Totals::mismatch(const Totals& a, const Totals& b) {
  if (a.fields.size() != b.fields.size()) return "field count differs";
  for (std::size_t i = 0; i < a.fields.size(); ++i) {
    const auto& [name, x] = a.fields[i];
    const double y = b.fields[i].second;
    if (name != b.fields[i].first ||
        std::memcmp(&x, &y, sizeof(double)) != 0) {
      std::ostringstream out;
      out.precision(17);
      out << name << ": " << x << " vs " << y;
      return out.str();
    }
  }
  return {};
}

Totals totals_of(const exp::PolicySimResult& r) {
  Totals t;
  t.add("average_score", r.average_score);
  t.add("average_recency", r.average_recency);
  t.add("units_downloaded", double(r.units_downloaded));
  t.add("objects_downloaded", double(r.objects_downloaded));
  t.add("downlink_utilization", r.downlink_utilization);
  t.add("requests", double(r.requests));
  t.add("failed_fetches", double(r.failed_fetches));
  t.add("retries", double(r.retries));
  t.add("retry_successes", double(r.retry_successes));
  t.add("degraded_serves", double(r.degraded_serves));
  t.add("downlink_dropped", double(r.downlink_dropped));
  return t;
}

Totals totals_of(const client::CellResult& r) {
  Totals t;
  add_cell(t, r);
  return t;
}

Totals totals_of(const coop::CoopResult& r) {
  Totals t;
  t.add("requests", double(r.requests));
  t.add("score_sum", r.score_sum);
  t.add("recency_sum", r.recency_sum);
  t.add("origin_units", double(r.origin_units));
  t.add("neighbor_units", double(r.neighbor_units));
  t.add("origin_fetches", double(r.origin_fetches));
  t.add("neighbor_fetches", double(r.neighbor_fetches));
  t.add("invalidations", double(r.invalidations));
  t.add("propagations", double(r.propagations));
  t.add("lease_expiries", double(r.lease_expiries));
  t.add("peer_hits", double(r.peer_hits));
  t.add("peer_fetch_units", double(r.peer_fetch_units));
  t.add("coherence_units", double(r.coherence_units));
  return t;
}

void accumulate(client::CellResult& into, const client::CellResult& from) {
  into.requests += from.requests;
  into.served_locally += from.served_locally;
  into.served_by_base += from.served_by_base;
  into.score_sum += from.score_sum;
  into.base_downloaded += from.base_downloaded;
  into.sleeper_drops += from.sleeper_drops;
  into.disconnect_ticks += from.disconnect_ticks;
  into.failed_fetches += from.failed_fetches;
  into.retries += from.retries;
  into.retry_successes += from.retry_successes;
  into.degraded_serves += from.degraded_serves;
  into.handoffs += from.handoffs;
  into.downlink_dropped += from.downlink_dropped;
}

void accumulate(coop::CoopResult& into, const coop::CoopResult& from) {
  into.requests += from.requests;
  into.score_sum += from.score_sum;
  into.recency_sum += from.recency_sum;
  into.origin_units += from.origin_units;
  into.neighbor_units += from.neighbor_units;
  into.origin_fetches += from.origin_fetches;
  into.neighbor_fetches += from.neighbor_fetches;
  into.invalidations += from.invalidations;
  into.propagations += from.propagations;
  into.lease_expiries += from.lease_expiries;
  into.peer_hits += from.peer_hits;
  into.peer_fetch_units += from.peer_fetch_units;
  into.coherence_units += from.coherence_units;
}

RunOutcome outcome_of(const Workload& workload,
                      const client::CellResult& aggregate,
                      const exp::MobilityRunStats& mobility) {
  RunOutcome out;
  out.totals = totals_of(aggregate);
  if (!workload.fleet.mobility.empty()) {
    out.totals.add("crossings", double(mobility.crossings));
    out.totals.add("migrations", double(mobility.migrations));
    out.totals.add("deliveries", double(mobility.deliveries));
    out.totals.add("lost_deliveries", double(mobility.lost_deliveries));
  }
  out.requests = aggregate.requests;
  out.avg_score = aggregate.average_score();
  out.units_per_request =
      aggregate.requests
          ? double(aggregate.base_downloaded) / double(aggregate.requests)
          : 0.0;
  out.failed_requests = aggregate.degraded_serves + mobility.lost_deliveries;
  return out;
}

RunOutcome outcome_of(const coop::CoopResult& aggregate) {
  RunOutcome out;
  out.totals = totals_of(aggregate);
  out.requests = aggregate.requests;
  out.avg_score = aggregate.average_score();
  out.units_per_request =
      aggregate.requests
          ? double(aggregate.origin_units) / double(aggregate.requests)
          : 0.0;
  return out;
}

RunOutcome run_entry_point(const Workload& workload,
                           mobi::util::ThreadPool* pool) {
  return run_entry_point(workload, pool, exp::MultiCellObservers{});
}

RunOutcome run_entry_point(const Workload& workload,
                           mobi::util::ThreadPool* pool,
                           const exp::MultiCellObservers& observers) {
  if (!workload.multi_cell()) {
    const exp::PolicySimResult r = exp::run_policy_sim(workload.station);
    RunOutcome out;
    out.totals = totals_of(r);
    out.requests = r.requests;
    out.avg_score = r.average_score;
    out.units_per_request =
        r.requests ? double(r.units_downloaded) / double(r.requests) : 0.0;
    out.failed_requests = r.degraded_serves;
    return out;
  }
  const exp::MultiCellResult r =
      exp::run_multi_cell(workload.fleet, pool, observers);
  if (workload.fleet.topology == exp::CellTopology::kCoopClusters) {
    return outcome_of(r.coop_aggregate);
  }
  return outcome_of(workload, r.aggregate, r.mobility);
}

}  // namespace mobibench
