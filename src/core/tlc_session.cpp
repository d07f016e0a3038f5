#include "core/tlc_session.hpp"

namespace tlc::core {

TlcSession::TlcSession(SessionConfig config,
                       std::unique_ptr<Strategy> strategy, Rng rng)
    : config_(std::move(config)), strategy_(std::move(strategy)), rng_(rng) {}

void TlcSession::set_send(SendFn send) {
  send_ = std::move(send);
  if (endpoint_) endpoint_->set_send(send_);
}

PlanRef TlcSession::current_plan() const {
  PlanRef plan;
  plan.t_start = config_.first_cycle_start +
                 static_cast<SimTime>(cycle_index_) * config_.cycle_length;
  plan.t_end = plan.t_start + config_.cycle_length;
  plan.c = config_.c;
  return plan;
}

Status TlcSession::begin_cycle(const UsageView& measured) {
  if (endpoint_ && !endpoint_->done() && !endpoint_->failed()) {
    return Err("session: a negotiation is already in flight");
  }
  EndpointConfig endpoint_config;
  endpoint_config.role = config_.role;
  endpoint_config.own_private = config_.own_keys.private_key;
  endpoint_config.own_public = config_.own_keys.public_key;
  endpoint_config.peer_public = config_.peer_key;
  endpoint_config.plan = current_plan();
  endpoint_config.view = measured;
  endpoint_config.max_rounds = config_.max_rounds;
  endpoint_config.tolerate_faults = config_.tolerate_faults;
  endpoint_ = std::make_unique<ProtocolEndpoint>(endpoint_config, *strategy_,
                                                 rng_.fork());
  endpoint_->set_send(send_);
  return Status::Ok();
}

Status TlcSession::start() {
  if (!endpoint_) return Err("session: begin_cycle first");
  if (!send_) return Err("session: no transport (set_send first)");
  endpoint_->start();
  return Status::Ok();
}

Status TlcSession::receive(const Bytes& wire) {
  if (!endpoint_) return Err("session: begin_cycle first");
  return endpoint_->receive(wire);
}

Expected<CycleReceipt> TlcSession::finish_cycle() {
  if (!endpoint_) return Err("session: nothing to finish");
  if (endpoint_->failed()) return Err("session: negotiation failed");
  if (!endpoint_->done()) return Err("session: negotiation still running");

  CycleReceipt receipt;
  receipt.plan = current_plan();
  receipt.charged = endpoint_->negotiated();
  receipt.rounds = endpoint_->rounds();
  store_.add(receipt.plan, encode_signed_poc(*endpoint_->poc()));
  crypto_seconds_ += endpoint_->crypto_seconds();
  last_receipt_ = receipt;
  endpoint_.reset();
  ++cycle_index_;
  ++completed_;
  return receipt;
}

void TlcSession::skip_cycle() {
  if (endpoint_) crypto_seconds_ += endpoint_->crypto_seconds();
  endpoint_.reset();
  ++cycle_index_;
}

}  // namespace tlc::core
