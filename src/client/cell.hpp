// Two-tier cell simulation: mobile clients with local caches in front of
// a base station running a download policy, with periodic invalidation
// reports broadcast to the clients over the downlink.
//
// Per tick:
//   1. servers update; the base-station cache decays (it is co-located
//      with the report generator, so its knowledge is current), and the
//      updates are appended to the invalidation log;
//   2. every report_period ticks a report is broadcast; connected clients
//      apply it (the sleeper rule drops the local cache of clients that
//      slept through a window);
//   3. each connected client draws a request; if its local copy meets its
//      target recency it is served locally, otherwise the request goes to
//      the base station, which answers per its DownloadPolicy, and the
//      client stores the response (inheriting the served copy's recency).
//
// client::ClientCell runs that tick for a roster of client ids;
// client::run_cell is one ClientCell with a fixed roster.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/invalidation.hpp"
#include "client/mobile_client.hpp"
#include "core/base_station.hpp"
#include "exp/fig2.hpp"
#include "net/fault_injector.hpp"
#include "object/object.hpp"
#include "server/remote_server.hpp"
#include "sim/fault_plan.hpp"
#include "sim/tick.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/requests.hpp"
#include "workload/updates.hpp"

namespace mobi::obs {
class RequestTracer;
}  // namespace mobi::obs

namespace mobi::client {

struct CellConfig {
  std::size_t object_count = 200;
  object::Units size_lo = 1;
  object::Units size_hi = 8;
  std::size_t client_count = 50;
  MobileClientConfig client;
  exp::AccessPattern access = exp::AccessPattern::kZipf;
  double zipf_alpha = 1.0;
  sim::Tick update_period = 4;
  sim::Tick report_period = 5;
  sim::Tick ticks = 300;
  object::Units base_budget = 60;
  std::string base_policy = "on-demand-knapsack";
  std::uint64_t seed = 42;
  /// Servers behind the fixed network (objects assigned round-robin);
  /// > 1 makes per-server outage faults partial rather than total.
  std::size_t server_count = 1;
  /// Retry budget handed to the base station (0 = fail once, serve
  /// stale; see BaseStationConfig::fetch_retry_limit).
  std::size_t fetch_retry_limit = 0;
  /// Fault schedule. The default (empty) plan attaches no injector and
  /// the run is bit-identical to the fault-free code path. A nonzero
  /// plan is reseeded per cell (mixing faults.seed with `seed`), so
  /// multi-cell shards stay deterministic for any thread-pool size.
  sim::FaultPlan faults;
};

struct CellResult {
  std::size_t requests = 0;
  std::size_t served_locally = 0;     // from the client's own cache
  std::size_t served_by_base = 0;
  double score_sum = 0.0;             // true per-client recency scores
  object::Units base_downloaded = 0;  // fixed-network traffic
  std::uint64_t sleeper_drops = 0;
  std::uint64_t disconnect_ticks = 0;  // client-ticks spent disconnected
  // Resilience accounting (all zero when CellConfig::faults is empty).
  std::uint64_t failed_fetches = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_successes = 0;
  std::uint64_t degraded_serves = 0;
  std::uint64_t handoffs = 0;
  object::Units downlink_dropped = 0;

  double average_score() const noexcept {
    return requests ? score_sum / double(requests) : 1.0;
  }
  double local_hit_rate() const noexcept {
    return requests ? double(served_locally) / double(requests) : 0.0;
  }
};

/// Per-tick series storage: one cumulative CellResult snapshot per tick,
/// optionally allocated from a util::MonotonicArena so a fleet run's cold
/// path (cells × ticks snapshots) lands in a few reused slabs instead of
/// per-cell heap growth. The arena is single-threaded: callers running
/// cells on worker threads must reserve() each series to its final size
/// (one snapshot per tick, exactly) *before* dispatch — see
/// util/arena.hpp. A default-constructed series uses the heap.
using CellSeries = std::vector<CellResult, util::ArenaAllocator<CellResult>>;

/// One cell, stepped a tick at a time. It owns the cell's servers, base
/// station, (pruned) invalidation log, update process, fault injector,
/// connectivity and request streams, a sorted roster of resident client
/// ids, the cumulative CellResult, the serves in flight and the reused
/// per-tick scratch. The clients belong to the caller, indexed by id, so
/// a client can leave one cell's roster and join another's between ticks
/// (exp::MobilityFleet); run_cell is one ClientCell with a fixed roster.
///
/// Per-client counters (sleeper drops, handoffs) travel with the client;
/// each tick the cell claims every resident's unclaimed increments, so a
/// cell's cumulative series stays monotone across migrations, and for a
/// fixed roster each snapshot equals the sum over its clients.
///
/// The station refers to the servers and the injector in place, so a
/// ClientCell neither copies nor moves.
class ClientCell {
 public:
  /// `config.seed` reseeds a nonzero fault plan (so every cell's fault
  /// stream is independent of how cells are distributed over threads);
  /// `config.client_count` sizes the downlink. `delivery_ticks` > 0 puts
  /// each base-station serve in flight for that many ticks and credits
  /// its score only when it lands on a client still resident and on the
  /// air; 0 stores and scores it at once. Scratch is reserved for a
  /// roster of up to `max_clients`. `catalog` must outlive the cell.
  ClientCell(const object::Catalog& catalog, const CellConfig& config,
             std::shared_ptr<const workload::AccessDistribution> access,
             util::Rng connectivity, util::Rng requests,
             sim::Tick delivery_ticks, std::size_t max_clients);
  ClientCell(const ClientCell&) = delete;
  ClientCell& operator=(const ClientCell&) = delete;

  /// Runs tick `t` over the residents (`clients` indexed by id): updates
  /// -> invalidation report -> landings -> client requests ->
  /// process_batch -> stores or in-flight serves -> snapshot.
  void tick(sim::Tick t, std::span<MobileClient> clients);

  /// Roster edits, kept sorted. remove_client throws std::logic_error if
  /// `id` is not resident.
  void add_client(std::uint32_t id);
  void remove_client(std::uint32_t id);
  /// Claims every resident's unclaimed counters into result() (a fleet's
  /// end-of-run sweep, for handoffs granted after the last tick).
  void settle(std::span<MobileClient> clients);

  /// Observation, attached before the first tick. The tracer follows the
  /// station (and through it the downlink and fixed network); `series`
  /// receives one cumulative snapshot per tick. Both read-only: results
  /// are bit-identical with or without them.
  void set_tracer(obs::RequestTracer* tracer);
  void set_series(CellSeries* series) noexcept { series_ = series; }
  obs::RequestTracer* tracer() const noexcept { return tracer_; }

  core::BaseStation& station() noexcept { return station_; }
  const std::vector<std::uint32_t>& roster() const noexcept { return roster_; }
  const CellResult& result() const noexcept { return result_; }
  std::uint64_t delivered_payloads() const noexcept { return delivered_; }
  std::uint64_t lost_deliveries() const noexcept { return lost_; }

 private:
  /// One serve in flight: decided at some tick, landing at `land`.
  /// `recency` is frozen at send time (the payload does not change
  /// mid-flight).
  struct Delivery {
    std::uint32_t client = 0;
    object::ObjectId object = 0;
    double recency = 1.0;
    sim::Tick land = 0;
  };

  void claim(MobileClient& mobile) noexcept;
  void land_deliveries(sim::Tick t, std::span<MobileClient> clients);

  sim::Tick report_period_;
  sim::Tick handoff_ticks_;
  sim::Tick delivery_ticks_;
  server::ServerPool servers_;
  core::BaseStation station_;
  std::optional<net::FaultInjector> injector_;  // empty fault plan: none
  cache::InvalidationLog log_;
  std::unique_ptr<workload::UpdateProcess> updates_;
  std::shared_ptr<const workload::AccessDistribution> access_;
  util::Rng connectivity_rng_;
  util::Rng request_rng_;
  std::vector<std::uint32_t> roster_;  // sorted client ids
  CellResult result_;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  // Reused per-tick scratch (reserved in the constructor).
  workload::RequestBatch batch_;
  std::vector<std::uint32_t> requester_;  // client id per batch entry
  std::vector<Delivery> in_flight_;       // kept compact, enqueue order
  cache::InvalidationReport report_;
  obs::RequestTracer* tracer_ = nullptr;
  CellSeries* series_ = nullptr;
};

/// One cell with a fixed roster of clients 0..client_count-1 and instant
/// delivery. The catalog and both client streams come from Rng(seed).
/// `per_tick` (may be null) receives one cumulative snapshot per tick, so
/// per_tick->back() equals the return value; `tracer` (may be null) is
/// attached to the station for the whole run. The caller owns both;
/// neither changes the result.
CellResult run_cell(const CellConfig& config, CellSeries* per_tick = nullptr,
                    obs::RequestTracer* tracer = nullptr);

}  // namespace mobi::client
