#include "client/cell.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "cache/decay.hpp"
#include "object/builders.hpp"

namespace mobi::client {

ClientCell::ClientCell(
    const object::Catalog& catalog, const CellConfig& config,
    std::shared_ptr<const workload::AccessDistribution> access,
    util::Rng connectivity, util::Rng requests, sim::Tick delivery_ticks,
    std::size_t max_clients)
    : report_period_(config.report_period),
      handoff_ticks_(config.faults.handoff_ticks),
      delivery_ticks_(delivery_ticks),
      servers_(catalog, config.server_count),
      station_(catalog, servers_, cache::make_harmonic_decay(),
               std::make_unique<core::ReciprocalScorer>(),
               core::make_policy(config.base_policy),
               [&] {
                 core::BaseStationConfig bs_config;
                 bs_config.download_budget = config.base_budget;
                 bs_config.downlink_capacity = std::max<object::Units>(
                     1, object::Units(config.client_count) * config.size_hi);
                 bs_config.fetch_retry_limit = config.fetch_retry_limit;
                 return bs_config;
               }()),
      log_(config.object_count),
      updates_(workload::make_periodic_staggered(config.object_count,
                                                 config.update_period)),
      access_(std::move(access)),
      connectivity_rng_(connectivity),
      request_rng_(requests) {
  // Nonzero fault plan: one injector per cell, reseeded from the cell's
  // own seed. An empty plan attaches nothing — the fault-free code path,
  // bit for bit.
  if (!config.faults.empty()) {
    sim::FaultPlan plan = config.faults;
    plan.seed = util::SplitMix64(plan.seed ^ config.seed).next();
    injector_.emplace(plan, servers_.server_count());
    station_.set_fault_injector(&*injector_);
    servers_.set_fault_injector(&*injector_);
  }
  roster_.reserve(max_clients);
  batch_.reserve(max_clients);
  requester_.reserve(max_clients);
  if (delivery_ticks_ > 0) {
    in_flight_.reserve(max_clients * std::size_t(delivery_ticks_ + 1));
  }
  report_.items.reserve(config.object_count);
}

void ClientCell::set_tracer(obs::RequestTracer* tracer) {
  tracer_ = tracer;
  station_.set_request_tracer(tracer);
}

void ClientCell::add_client(std::uint32_t id) {
  roster_.insert(std::upper_bound(roster_.begin(), roster_.end(), id), id);
}

void ClientCell::remove_client(std::uint32_t id) {
  const auto it = std::lower_bound(roster_.begin(), roster_.end(), id);
  if (it == roster_.end() || *it != id) {
    throw std::logic_error("ClientCell: client not resident");
  }
  roster_.erase(it);
}

void ClientCell::claim(MobileClient& mobile) noexcept {
  const MobileClient::Claim fresh = mobile.claim_counters();
  result_.sleeper_drops += fresh.sleeper_drops;
  result_.handoffs += fresh.handoffs;
}

void ClientCell::settle(std::span<MobileClient> clients) {
  for (std::uint32_t id : roster_) claim(clients[id]);
}

void ClientCell::tick(sim::Tick t, std::span<MobileClient> clients) {
  // Open this tick's fault windows (idempotent — process_batch would do
  // it too, but the handoff draws below need the tick open).
  if (injector_) injector_->begin_tick(t);

  // Server updates: base-station knowledge is immediate; clients must
  // wait for the next report.
  updates_->for_each_updated(t, [&](object::ObjectId id) {
    station_.on_server_update(id, t);
    log_.record_update(id, t);
  });

  if (t > 0 && t % report_period_ == 0) {
    log_.make_report_into(t - report_period_, t, report_);
    for (std::uint32_t id : roster_) {
      MobileClient& mobile = clients[id];
      if (mobile.connected()) mobile.hear_report(report_);
    }
    // Entries older than the window just broadcast can never appear in a
    // report again; dropping them keeps the log's footprint flat over
    // arbitrarily long runs.
    log_.prune(t - report_period_);
  }

  // Payloads land before clients act, so a copy that arrives this tick
  // can serve this tick's request locally.
  if (delivery_ticks_ > 0) land_deliveries(t, clients);

  batch_.clear();
  requester_.clear();
  for (std::uint32_t id : roster_) {
    MobileClient& mobile = clients[id];
    if (injector_ && mobile.connected() && injector_->draw_handoff()) {
      mobile.begin_handoff(handoff_ticks_);
    }
    claim(mobile);
    mobile.step_connectivity(connectivity_rng_);
    if (!mobile.connected()) {
      ++result_.disconnect_ticks;
      continue;
    }
    const object::ObjectId want = access_->sample(request_rng_);
    ++result_.requests;
    const auto local = mobile.lookup(want, t);
    if (local && *local >= mobile.target_recency()) {
      ++result_.served_locally;
      result_.score_sum += 1.0;  // local copy meets the client's target
      continue;
    }
    batch_.push_back(workload::Request{want, mobile.target_recency(),
                                       workload::ClientId(mobile.id())});
    requester_.push_back(id);
  }

  const bool instant = delivery_ticks_ <= 0;
  const auto tick_result = station_.process_batch(batch_, t);
  result_.base_downloaded += tick_result.units_downloaded;
  result_.served_by_base += batch_.size();
  // With delivery latency, base-path serve scores are credited when the
  // payload lands on the client (land_deliveries), not when the station
  // decides — a serve the client never receives scores nothing.
  if (instant) result_.score_sum += tick_result.score_sum;
  result_.failed_fetches += tick_result.failed_fetches;
  result_.retries += tick_result.retries;
  result_.retry_successes += tick_result.retry_successes;
  result_.degraded_serves += tick_result.degraded_serves;

  // Clients store what the base station served them, inheriting the
  // served copy's recency.
  for (std::size_t r = 0; r < batch_.size(); ++r) {
    const auto& request = batch_[r];
    const auto recency = station_.cache().recency(request.object);
    if (!recency) continue;  // base had nothing either (cache-only policy)
    if (instant) {
      clients[requester_[r]].store(request.object,
                                   servers_.fetch(request.object), t,
                                   *recency);
    } else {
      in_flight_.push_back(Delivery{requester_[r], request.object, *recency,
                                    t + delivery_ticks_});
    }
  }

  result_.downlink_dropped = station_.downlink().dropped_total();
  if (series_) series_->push_back(result_);
}

void ClientCell::land_deliveries(sim::Tick t,
                                 std::span<MobileClient> clients) {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    const Delivery delivery = in_flight_[i];
    if (delivery.land > t) {
      in_flight_[keep++] = delivery;
      continue;
    }
    // The payload lands only if its client is still in this cell and on
    // the air; a migrant or sleeper simply loses it — the units were
    // spent either way, which is exactly the waste the residency-
    // weighted knapsack trades against.
    MobileClient& mobile = clients[delivery.client];
    const bool resident = std::binary_search(roster_.begin(), roster_.end(),
                                             delivery.client);
    if (!resident || !mobile.connected()) {
      ++lost_;
      continue;
    }
    mobile.store(delivery.object, servers_.fetch(delivery.object), t,
                 delivery.recency);
    result_.score_sum +=
        station_.scorer().score(delivery.recency, mobile.target_recency());
    ++delivered_;
  }
  in_flight_.resize(keep);
}

CellResult run_cell(const CellConfig& config, CellSeries* per_tick,
                    obs::RequestTracer* tracer) {
  util::Rng rng(config.seed);
  const object::Catalog catalog = object::make_random_catalog(
      config.object_count, config.size_lo, config.size_hi, rng);
  util::Rng connectivity = rng.split();
  util::Rng requests = rng.split();
  ClientCell cell(catalog, config,
                  exp::make_access(config.access, config.object_count,
                                   config.zipf_alpha),
                  connectivity, requests, /*delivery_ticks=*/0,
                  config.client_count);
  cell.set_tracer(tracer);
  cell.set_series(per_tick);

  std::vector<MobileClient> clients;
  clients.reserve(config.client_count);
  for (std::size_t i = 0; i < config.client_count; ++i) {
    clients.emplace_back(std::uint32_t(i), catalog, config.client);
    cell.add_client(std::uint32_t(i));
  }
  for (sim::Tick t = 0; t < config.ticks; ++t) cell.tick(t, clients);
  return cell.result();
}

}  // namespace mobi::client
