#include "transport/settlement_runner.hpp"

#include <algorithm>
#include <utility>

#include "core/verifier.hpp"
#include "sim/rng_stream.hpp"

namespace tlc::transport {
namespace {

/// Per-cycle jitter index space: stream 0 drives the edge endpoint's
/// retry jitter, stream 1 the operator's.
constexpr std::uint64_t kEdgeJitterStream = 0;
constexpr std::uint64_t kOpJitterStream = 1;

}  // namespace

SettlementRunner::SettlementRunner(core::TlcSession& edge,
                                   core::TlcSession& op,
                                   FaultyChannel& channel, RetryPolicy policy,
                                   std::uint64_t jitter_seed,
                                   std::uint64_t start_tick)
    : edge_(edge),
      op_(op),
      channel_(channel),
      policy_(policy),
      edge_driver_(edge, policy, sim::stream_rng(jitter_seed, kEdgeJitterStream),
                   [this](const Bytes& wire) {
                     channel_.send(FaultyChannel::Dir::ToOperator, wire, now_);
                   }),
      op_driver_(op, policy, sim::stream_rng(jitter_seed, kOpJitterStream),
                 [this](const Bytes& wire) {
                   channel_.send(FaultyChannel::Dir::ToEdge, wire, now_);
                 }),
      now_(start_tick) {}

void SettlementRunner::fill_counters(CycleRunResult& result,
                                     std::uint64_t start) const {
  result.retransmits = edge_driver_.retransmits() + op_driver_.retransmits();
  result.duplicates =
      edge_driver_.duplicates_seen() + op_driver_.duplicates_seen();
  // Endpoint counters must be read before finish/skip tears the
  // endpoint down.
  result.tamper_suspected = edge_.tamper_suspected() + op_.tamper_suspected();
  result.ticks = now_ - start;
}

CycleRunResult SettlementRunner::degrade(std::string reason,
                                         std::uint64_t start) {
  CycleRunResult result;
  fill_counters(result, start);
  result.outcome = result.tamper_suspected > 0
                       ? core::SettleOutcome::RejectedTamper
                       : core::SettleOutcome::Degraded;
  result.failure_reason = std::move(reason);
  // Graceful degradation: give up on *this* cycle only. Advancing the
  // cycle index keeps both plan windows aligned for the next cycle,
  // which settles via the operator's unilateral legacy CDR bill.
  edge_.skip_cycle();
  op_.skip_cycle();
  return result;
}

CycleRunResult SettlementRunner::run_cycle(
    const crypto::RsaPublicKey& edge_key,
    const crypto::RsaPublicKey& operator_key) {
  const std::uint64_t start = now_;
  const core::PlanRef plan = op_.current_plan();

  edge_driver_.set_now(now_);
  op_driver_.set_now(now_);
  if (!op_.start().ok()) return degrade("cycle could not start", start);

  for (;;) {
    for (const Bytes& wire :
         channel_.deliver_due(FaultyChannel::Dir::ToEdge, now_)) {
      edge_driver_.on_wire(wire, now_);
    }
    for (const Bytes& wire :
         channel_.deliver_due(FaultyChannel::Dir::ToOperator, now_)) {
      op_driver_.on_wire(wire, now_);
    }

    if (edge_.cycle_complete() && op_.cycle_complete()) break;
    if (edge_.cycle_failed() || op_.cycle_failed()) {
      const std::string why =
          edge_.cycle_failed() ? edge_.failure_reason() : op_.failure_reason();
      return degrade("protocol-failed: " + why, start);
    }
    if (edge_.stalled() && op_.stalled()) {
      return degrade(kReasonStalled, start);
    }
    if (!edge_driver_.poll(now_) || !op_driver_.poll(now_)) {
      return degrade(kReasonBudget, start);
    }

    const std::uint64_t next =
        std::min({channel_.earliest_due(), edge_driver_.next_deadline(),
                  op_driver_.next_deadline()});
    if (next == FaultyChannel::kIdle) return degrade(kReasonIdle, start);
    now_ = std::max(next, now_ + 1);
    if (now_ - start > policy_.max_ticks) {
      return degrade(kReasonDeadline, start);
    }
  }

  CycleRunResult result;
  fill_counters(result, start);

  const auto op_receipt = op_.finish_cycle();
  const auto edge_receipt = edge_.finish_cycle();
  if (!op_receipt || !edge_receipt) {
    // finish_cycle cannot fail on a done endpoint, but stay terminal.
    result.outcome = core::SettleOutcome::Degraded;
    result.failure_reason =
        op_receipt ? edge_receipt.error() : op_receipt.error();
    if (!op_receipt) op_.skip_cycle();
    if (!edge_receipt) edge_.skip_cycle();
    return result;
  }
  result.charged = op_receipt->charged;
  result.rounds = op_receipt->rounds;
  result.poc_wire = op_.receipts().entries().back().poc_wire;

  // Algorithm 2 gate: a PoC both parties hold but nobody else can
  // verify is not a settlement — classify it as tampering.
  core::VerificationRequest request;
  request.poc_wire = result.poc_wire;
  request.plan = plan;
  request.edge_key = edge_key;
  request.operator_key = operator_key;
  if (auto verified = core::verify_poc(request); !verified) {
    result.outcome = core::SettleOutcome::RejectedTamper;
    result.failure_reason =
        std::string(kReasonUnverifiable) + ": " + verified.error();
    result.charged = 0;
    result.poc_wire.clear();
    return result;
  }

  result.outcome = result.retransmits > 0 ? core::SettleOutcome::Retried
                                          : core::SettleOutcome::Converged;
  return result;
}

UeSettlement::UeSettlement(const core::BatchConfig& config,
                           const core::RsaKeyCache& keys, std::uint64_t ue_id,
                           FaultyChannel channel, RetryPolicy policy,
                           std::uint64_t jitter_root)
    : keys_(keys),
      ue_id_(ue_id),
      edge_(core::make_batch_session(config, keys, ue_id,
                                     core::PartyRole::EdgeVendor)),
      op_(core::make_batch_session(config, keys, ue_id,
                                   core::PartyRole::Operator)),
      channel_(std::move(channel)),
      policy_(policy),
      jitter_root_(jitter_root) {}

void UeSettlement::settle_cycle(const core::SettlementItem& item,
                                core::SettlementReceipt& receipt) {
  if (!op_->begin_cycle(item.op_view).ok() ||
      !edge_->begin_cycle(item.edge_view).ok()) {
    receipt.failure_reason = "cycle could not start";
    return;
  }
  // Each cycle is a fresh transport association: leftovers of the
  // previous cycle (late duplicates, reordered stragglers) must not
  // replay into this one, and its faults are its own.
  channel_.begin_cycle(receipt.cycle);

  const std::uint64_t cycle_stream = receipt.cycle;
  SettlementRunner runner(*edge_, *op_, channel_, policy_,
                          sim::stream_seed(jitter_root_, cycle_stream), now_);
  CycleRunResult result = runner.run_cycle(
      keys_.edge_key(ue_id_).public_key, keys_.operator_key(ue_id_).public_key);
  now_ = runner.now() + 1;

  receipt.outcome = result.outcome;
  receipt.completed = result.outcome == core::SettleOutcome::Converged ||
                      result.outcome == core::SettleOutcome::Retried;
  receipt.charged = result.charged;
  receipt.rounds = result.rounds;
  receipt.poc_wire = std::move(result.poc_wire);
  receipt.retransmits = result.retransmits;
  receipt.failure_reason = std::move(result.failure_reason);
}

}  // namespace tlc::transport
