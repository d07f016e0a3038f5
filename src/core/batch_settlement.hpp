// Batch TLC settlement over many (UE, cycle) pairs.
//
// The fleet case of §5: one edge vendor and one operator settle every
// subscriber's cycles, not a single device's. Running a fresh
// `TlcSession` pair per (UE, cycle) would re-run RSA keygen — by far
// the most expensive step (Fig 17) — tens of times per cycle, so the
// batch API amortizes it two ways:
//
//  * `RsaKeyCache` precomputes a small set of key pairs once,
//    deterministically from a seed, and hands them out by UE slot
//    (reads are const and thread-safe);
//  * one reusable `TlcSession` pair per UE settles that UE's cycles in
//    sequence, exactly as the single-UE API would.
//
// Distinct UEs share no mutable state, so `settle_by_ue` fans UE
// groups out over util::parallel_for. Every rung — in-process here,
// stop-and-wait and coded in transport::LossySettler — is a per-group
// function on that one fan-out.
//
// Every rung pumps a cycle's messages through one
// transport::SettlementRunner (settlement_runner.hpp); in-process
// settlement runs it over a zero-fault channel. The runner fails a
// stuck negotiation as soon as both sessions sit at Algorithm 1's fixed
// point (negotiation.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/tlc_session.hpp"
#include "crypto/rsa.hpp"
#include "recovery/crash_plan.hpp"

namespace tlc::core {

/// Deterministic pool of precomputed RSA key pairs. Key slot `i` is a
/// pure function of (seed, i): growing or shrinking the cache never
/// changes the keys existing slots return.
class RsaKeyCache {
 public:
  RsaKeyCache(std::size_t modulus_bits, std::size_t slots,
              std::uint64_t seed);

  [[nodiscard]] std::size_t slots() const { return edge_keys_.size(); }
  [[nodiscard]] std::size_t modulus_bits() const { return modulus_bits_; }

  /// Keys for a UE relationship; `ue_id` maps onto a slot by modulo.
  [[nodiscard]] const crypto::RsaKeyPair& edge_key(std::uint64_t ue_id) const {
    return edge_keys_[static_cast<std::size_t>(ue_id % edge_keys_.size())];
  }
  [[nodiscard]] const crypto::RsaKeyPair& operator_key(
      std::uint64_t ue_id) const {
    return op_keys_[static_cast<std::size_t>(ue_id % op_keys_.size())];
  }

 private:
  std::size_t modulus_bits_;
  std::vector<crypto::RsaKeyPair> edge_keys_;
  std::vector<crypto::RsaKeyPair> op_keys_;
};

/// One (UE, cycle) settlement input. Items of one UE are settled in
/// input order through a single reused session pair; the n-th item of a
/// UE is its cycle n.
struct SettlementItem {
  std::uint64_t ue_id = 0;
  UsageView edge_view;
  UsageView op_view;
};

/// How a (UE, cycle) settlement ended (§8 per-cycle outcome taxonomy).
enum class SettleOutcome : std::uint8_t {
  Converged,       // negotiated on the first delivery of every message
  Retried,         // negotiated, but only after >= 1 retransmission
  Degraded,        // retry budget / deadline spent; legacy CDR bill
  RejectedTamper,  // corruption or forgery detected; legacy CDR bill
};

[[nodiscard]] const char* settle_outcome_name(SettleOutcome outcome);

struct SettlementReceipt {
  std::uint64_t ue_id = 0;
  std::uint32_t cycle = 0;  // per-UE cycle index
  bool completed = false;
  std::uint64_t charged = 0;
  int rounds = 0;
  /// The archived PoC (identical on both sides; the operator's copy).
  Bytes poc_wire;
  SettleOutcome outcome = SettleOutcome::Degraded;
  /// Retransmissions spent on this cycle (lossy transport only).
  int retransmits = 0;
  /// Why the cycle did not converge (empty when it did).
  std::string failure_reason;
};

struct BatchConfig {
  double c = 0.5;
  SimTime cycle_length = kHour;
  SimTime first_cycle_start = 0;
  int max_rounds = 64;
  /// Root for per-session RNG derivation (nonces). Receipts are a pure
  /// function of (items, keys, salt).
  std::uint64_t rng_salt = 0x5eedfa11ULL;
};

/// One UE's share of a batch: indices of its items, in input order.
/// Item n of a UE is its cycle n.
struct UeGroup {
  std::uint64_t ue_id = 0;
  std::vector<std::size_t> item_indices;
};

/// One rung settling one UE group: fills `receipts`, the group's
/// receipts in cycle order, pre-stamped with (ue_id, cycle).
/// `group_index` is the group's first-appearance rank.
using SettleGroup =
    std::function<void(std::size_t group_index, const UeGroup& group,
                       std::vector<SettlementReceipt>& receipts)>;

/// The one UE-group fan-out every settlement rung runs on: groups
/// items by UE in first-appearance order, fires the settle-cycle crash
/// point once per (UE, cycle) scoped by UE id, settles each group on
/// one of `threads` workers and returns the receipts in input order,
/// identical for every thread count. A CrashException raised on a
/// worker is rethrown here once every worker has stopped.
[[nodiscard]] std::vector<SettlementReceipt> settle_by_ue(
    const std::vector<SettlementItem>& items, unsigned threads,
    recovery::CrashPlan* plan, const SettleGroup& settle_group);

/// Builds the reusable per-UE session one side of a batch settlement
/// runs. Key slots and the session RNG stream (salt, 2*ue + role) are
/// pure functions of their inputs, so every rung negotiates the same
/// PoCs for the same (UE, cycle) as long as that cycle is negotiated.
/// The session tolerates faults (SessionConfig::tolerate_faults).
[[nodiscard]] std::unique_ptr<TlcSession> make_batch_session(
    const BatchConfig& config, const RsaKeyCache& keys, std::uint64_t ue_id,
    PartyRole role);

/// The in-process rung: the group's cycles through the settlement
/// runner over a zero-fault channel. After the first cycle that fails,
/// the rest are not negotiated and carry its reason (§5.1: retry policy
/// belongs to the caller).
void settle_in_process(const BatchConfig& config, const RsaKeyCache& keys,
                       const std::vector<SettlementItem>& items,
                       const UeGroup& group,
                       std::vector<SettlementReceipt>& receipts);

class BatchSettler {
 public:
  /// `keys` must outlive the settler.
  BatchSettler(BatchConfig config, const RsaKeyCache& keys);

  /// Crash injection as settle_by_ue describes.
  void set_crash_plan(recovery::CrashPlan* plan) { plan_ = plan; }

  /// Settles every item on the in-process rung through settle_by_ue.
  /// Each group holds its session pair only while it runs.
  [[nodiscard]] std::vector<SettlementReceipt> settle(
      const std::vector<SettlementItem>& items, unsigned threads = 1) const;

 private:
  BatchConfig config_;
  const RsaKeyCache& keys_;
  recovery::CrashPlan* plan_ = nullptr;
};

}  // namespace tlc::core
