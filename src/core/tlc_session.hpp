// High-level TLC session API.
//
// The library surface a downstream integrator uses: one `TlcSession`
// per (edge vendor, operator) relationship and direction of billing. It
// owns the cycle sequence (consistent T via the agreed cycle length),
// wraps the per-cycle signed negotiation, archives each PoC, and hands
// you the numbers. Transport is a callback — bytes in, bytes out — so
// it runs over anything from an in-process queue to a real socket.
//
// Typical flow per cycle (either party):
//   session.begin_cycle(measured_view);      // after the cycle ends
//   session.start();                          // initiator only
//   ... shuttle bytes via set_send / receive ...
//   if (session.cycle_complete()) session.finish_cycle();
#pragma once

#include <memory>
#include <optional>

#include "core/poc_store.hpp"
#include "core/protocol.hpp"
#include "core/strategy.hpp"

namespace tlc::core {

struct SessionConfig {
  PartyRole role = PartyRole::Operator;
  crypto::RsaKeyPair own_keys;
  crypto::RsaPublicKey peer_key;
  /// Agreed plan parameters (setup step 1 of §5.3.1).
  double c = 0.5;
  SimTime cycle_length = kHour;
  SimTime first_cycle_start = 0;
  int max_rounds = 64;
  /// Passed through to EndpointConfig::tolerate_faults — required when
  /// the session runs over a lossy transport (§8).
  bool tolerate_faults = false;
};

/// Summary of a settled cycle.
struct CycleReceipt {
  PlanRef plan;
  std::uint64_t charged = 0;
  int rounds = 0;
};

class TlcSession {
 public:
  using SendFn = ProtocolEndpoint::SendFn;

  /// `strategy` decides claims/acceptance for every cycle (HonestStrategy
  /// or OptimalStrategy for well-behaved parties).
  TlcSession(SessionConfig config, std::unique_ptr<Strategy> strategy,
             Rng rng);

  /// Outgoing-message sink; must be set before negotiating.
  void set_send(SendFn send);

  /// The plan of the cycle currently being (or about to be) settled.
  [[nodiscard]] PlanRef current_plan() const;

  /// Arms the negotiation for the current cycle with this party's
  /// measured usage. Fails if a negotiation is already in flight.
  [[nodiscard]] Status begin_cycle(const UsageView& measured);

  /// Initiator entry point: sends the first CDR (call after
  /// begin_cycle; exactly one party initiates).
  [[nodiscard]] Status start();

  /// Feeds a message from the peer.
  [[nodiscard]] Status receive(const Bytes& wire);

  [[nodiscard]] bool negotiating() const { return endpoint_ != nullptr; }
  [[nodiscard]] bool cycle_complete() const {
    return endpoint_ && endpoint_->done();
  }
  [[nodiscard]] bool cycle_failed() const {
    return endpoint_ && endpoint_->failed();
  }

  /// Archives the PoC, records the receipt, advances to the next cycle.
  /// Fails unless cycle_complete().
  [[nodiscard]] Expected<CycleReceipt> finish_cycle();

  /// Gives up on the current cycle and moves on to the next one —
  /// graceful degradation after the transport retry budget is spent:
  /// the cycle settles via the operator's unilateral legacy CDR bill
  /// instead, so the plan window must still advance.
  void skip_cycle();

  /// Tamper/duplicate counters of the in-flight negotiation (0 when
  /// none is running).
  [[nodiscard]] int tamper_suspected() const {
    return endpoint_ ? endpoint_->tamper_suspected() : 0;
  }
  [[nodiscard]] int duplicates_ignored() const {
    return endpoint_ ? endpoint_->duplicates_ignored() : 0;
  }
  /// Whether the in-flight negotiation is stuck at Algorithm 1's fixed
  /// point (ProtocolEndpoint::stalled; false when none is running).
  [[nodiscard]] bool stalled() const {
    return endpoint_ && endpoint_->stalled();
  }
  [[nodiscard]] std::string failure_reason() const {
    return endpoint_ ? endpoint_->failure_reason() : std::string{};
  }
  [[nodiscard]] int cycle_index() const { return cycle_index_; }

  [[nodiscard]] const PocStore& receipts() const { return store_; }
  [[nodiscard]] int completed_cycles() const { return completed_; }
  [[nodiscard]] const std::optional<CycleReceipt>& last_receipt() const {
    return last_receipt_;
  }
  /// Accumulated crypto time across all cycles (Fig 17 accounting).
  [[nodiscard]] double crypto_seconds() const { return crypto_seconds_; }

 private:
  SessionConfig config_;
  std::unique_ptr<Strategy> strategy_;
  Rng rng_;
  SendFn send_;
  std::unique_ptr<ProtocolEndpoint> endpoint_;
  PocStore store_;
  int cycle_index_ = 0;
  int completed_ = 0;
  double crypto_seconds_ = 0.0;
  std::optional<CycleReceipt> last_receipt_;
};

}  // namespace tlc::core
