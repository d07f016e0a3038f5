// One settlement cycle over a fault-injecting channel (§8:
// retry/degradation state machine), and the per-UE loop every
// settlement rung runs its cycles through.
//
// Drives an (edge, operator) session pair through a FaultyChannel on a
// shared virtual clock until the cycle reaches exactly one terminal
// state:
//
//   Converged       both sides hold the PoC; no retransmission needed
//   Retried         both sides hold the PoC after >= 1 retransmission
//   Degraded        retry budget or deadline spent, or both parties
//                   stuck at Algorithm 1's fixed point; legacy CDR bill
//   RejectedTamper  corruption/forgery detected (or the final PoC fails
//                   Algorithm 2); legacy CDR bill
//
// "Never stuck" is structural: every loop iteration advances the clock
// to the next channel delivery or timer deadline, an idle transport
// with nothing armed degrades immediately, and a hard per-cycle tick
// deadline backstops everything else. Once both sessions report
// stalled() (negotiation.hpp) every later round repeats the last one,
// so the cycle degrades at once instead of running to the round cap.
// A converged PoC is re-checked with the public verifier (Algorithm 2)
// before it is reported — a PoC that cannot be publicly verified is
// worthless, so it degrades the cycle as tampering instead of being
// accepted.
//
// In-process settlement (core::settle_in_process) is this runner over
// an all-zero-profile channel, so these files build into tlc_core.
#pragma once

#include <memory>
#include <string>

#include "core/batch_settlement.hpp"
#include "core/tlc_session.hpp"
#include "transport/faulty_channel.hpp"
#include "transport/reliable_session.hpp"

namespace tlc::transport {

/// Canonical degradation reasons (receipt failure_reason values).
inline constexpr const char* kReasonBudget = "retry-budget-exhausted";
inline constexpr const char* kReasonDeadline = "cycle-deadline-exceeded";
inline constexpr const char* kReasonIdle = "transport-idle";
inline constexpr const char* kReasonUnverifiable = "unverifiable-poc";
inline constexpr const char* kReasonStalled = "negotiation did not complete";

struct CycleRunResult {
  core::SettleOutcome outcome = core::SettleOutcome::Degraded;
  std::uint64_t charged = 0;
  int rounds = 0;
  Bytes poc_wire;  // operator's archived copy (empty unless converged)
  int retransmits = 0;
  int duplicates = 0;
  int tamper_suspected = 0;
  std::uint64_t ticks = 0;  // virtual ticks the cycle consumed
  std::string failure_reason;
};

class SettlementRunner {
 public:
  /// Both sessions and the channel must have the cycle begun
  /// (begin_cycle). `jitter_seed` decorrelates the two parties' retry
  /// timers; `start_tick` continues the caller's monotonic clock.
  SettlementRunner(core::TlcSession& edge, core::TlcSession& op,
                   FaultyChannel& channel, RetryPolicy policy,
                   std::uint64_t jitter_seed, std::uint64_t start_tick);

  /// Runs the cycle to a terminal state. The public keys feed the
  /// Algorithm 2 check of the converged PoC.
  [[nodiscard]] CycleRunResult run_cycle(
      const crypto::RsaPublicKey& edge_key,
      const crypto::RsaPublicKey& operator_key);

  /// Clock position after run_cycle (monotonic across cycles).
  [[nodiscard]] std::uint64_t now() const { return now_; }

 private:
  CycleRunResult degrade(std::string reason, std::uint64_t start);
  void fill_counters(CycleRunResult& result, std::uint64_t start) const;

  core::TlcSession& edge_;
  core::TlcSession& op_;
  FaultyChannel& channel_;
  RetryPolicy policy_;
  ReliableSessionDriver edge_driver_;
  ReliableSessionDriver op_driver_;
  std::uint64_t now_;
};

/// One UE's reused session pair (core::make_batch_session) and its
/// channel. Settles the UE's cycles in order, each through a fresh
/// SettlementRunner on one monotonic virtual clock.
class UeSettlement {
 public:
  /// `jitter_root` roots the per-cycle retry jitter. `keys` must
  /// outlive this.
  UeSettlement(const core::BatchConfig& config, const core::RsaKeyCache& keys,
               std::uint64_t ue_id, FaultyChannel channel, RetryPolicy policy,
               std::uint64_t jitter_root);

  /// Settles the UE's next cycle into `receipt`, which settle_by_ue
  /// stamped with (ue_id, cycle).
  void settle_cycle(const core::SettlementItem& item,
                    core::SettlementReceipt& receipt);

 private:
  const core::RsaKeyCache& keys_;
  std::uint64_t ue_id_;
  std::unique_ptr<core::TlcSession> edge_;
  std::unique_ptr<core::TlcSession> op_;
  FaultyChannel channel_;
  RetryPolicy policy_;
  std::uint64_t jitter_root_;
  std::uint64_t now_ = 0;
};

}  // namespace tlc::transport
