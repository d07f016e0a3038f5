// Batch settlement over a fault-injected transport: the §17
// degradation ladder. LossySettler is the one transport settler; it
// runs on core::settle_by_ue and picks each UE group's first rung from
// TransportConfig::coding:
//
//   Coding::Rlnc  coded → stop-and-wait → legacy
//   Coding::Off           stop-and-wait → legacy
//
// The coded rung negotiates in-process and carries the group's sealed
// receipts as one RLNC transfer (coded_session.hpp); a spent budget or
// a payload that is not the group's drops the whole group a rung.
// Stop-and-wait (§8) settles each cycle through the SettlementRunner
// over the UE's FaultyChannel, as in-process settlement does over a
// zero-fault one, and degrades a cycle that cannot converge to the
// legacy CDR bill; the UE's next cycle proceeds.
//
// Zero-fault contract: every rung matches the in-process receipts
// through each UE's first failed cycle, which fails on every rung for
// the same reason. After it the in-process and coded rungs leave the
// UE's remaining cycles un-negotiated; stop-and-wait negotiates them.
//
// Determinism contract: faults derive from (transport.seed, ue,
// message index), retry jitter from (transport.seed, ue, cycle,
// party), RLNC coefficients from (transport.seed, kCodedCoeffStream,
// ue) and session nonces from (rng_salt, ue, role) — no wall clock, no
// shared RNG sequences — so receipts and counters are bit-identical for
// every thread count.
#pragma once

#include <vector>

#include "core/batch_settlement.hpp"
#include "recovery/crash_plan.hpp"
#include "transport/transport_config.hpp"

namespace tlc::transport {

/// Receipts plus the coded-path census (§17; all-zero with
/// Coding::Off). The per-outcome census (§8) is folded from the
/// receipts by fleet::detail::aggregate_fleet.
struct LossyBatchReport {
  std::vector<core::SettlementReceipt> receipts;
  CodedCounters coded;
};

class LossySettler {
 public:
  /// `keys` must outlive the settler.
  LossySettler(core::BatchConfig config, TransportConfig transport,
               const core::RsaKeyCache& keys);

  /// Crash injection as core::settle_by_ue describes; the coded rung
  /// also fires the coded-packet points inside each group's transfer.
  void set_crash_plan(recovery::CrashPlan* plan) { plan_ = plan; }

  /// Settles every item down the ladder; receipts come back in input
  /// order, per-group coded counters merge in group order.
  [[nodiscard]] LossyBatchReport settle(
      const std::vector<core::SettlementItem>& items,
      unsigned threads = 1) const;

 private:
  using Receipts = std::vector<core::SettlementReceipt>;

  void settle_stop_and_wait(const std::vector<core::SettlementItem>& items,
                            const core::UeGroup& group,
                            Receipts& receipts) const;
  [[nodiscard]] CodedCounters settle_coded(
      const std::vector<core::SettlementItem>& items,
      const core::UeGroup& group, Receipts& receipts) const;

  core::BatchConfig config_;
  TransportConfig transport_;
  const core::RsaKeyCache& keys_;
  recovery::CrashPlan* plan_ = nullptr;
};

/// The name benchmark/src/traced.cpp settles coded fleets under; with
/// Coding::Rlnc the ladder starts on the coded rung.
using CodedSettler = LossySettler;

}  // namespace tlc::transport
