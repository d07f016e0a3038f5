// Offline Charging System (OFCS).
//
// The function node the paper extends with TLC (§6: "an extended policy
// of LTE offline charging functions"). The SPGW pushes CDRs here; the
// OFCS archives them per subscriber, rates them into bills under the
// data plan (including the "unlimited" plan's quota-then-throttle
// behaviour of §2.1), and exposes the post-processing hook where TLC's
// loss-selfishness cancellation replaces the raw gateway volume with
// the negotiated x.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "charging/plan.hpp"
#include "epc/cdr.hpp"
#include "epc/ids.hpp"
#include "recovery/state_log.hpp"

namespace tlc::epc {

/// Per-cycle settlement outcome census (§8). The fleet engine folds it
/// from the settlement receipts; the OFCS only bills.
struct SettlementCounters {
  std::uint64_t converged = 0;
  std::uint64_t retried = 0;
  std::uint64_t degraded = 0;
  std::uint64_t rejected_tamper = 0;

  [[nodiscard]] std::uint64_t total() const {
    return converged + retried + degraded + rejected_tamper;
  }
  [[nodiscard]] bool operator==(const SettlementCounters&) const = default;
};

/// One rated charging cycle for a subscriber.
struct BillLine {
  std::uint32_t cycle_index = 0;
  /// Raw gateway volume aggregated from the cycle's CDRs.
  std::uint64_t gateway_volume = 0;
  /// Volume actually billed (equals gateway_volume in legacy mode; the
  /// TLC hook substitutes the negotiated x).
  std::uint64_t billed_volume = 0;
  std::uint64_t amount_micro = 0;  // micro currency units (1e-6)
  bool throttled = false;
};

struct SubscriberBilling {
  std::vector<BillLine> lines;
  std::uint64_t total_billed_bytes = 0;
  std::uint64_t total_amount_micro = 0;
  /// Whether the subscriber is currently speed-limited (quota hit).
  bool throttled = false;
};

class Ofcs {
 public:
  /// TLC post-processing hook: given the cycle's aggregated gateway
  /// volume, returns the billed volume (the negotiated x). Absent hook
  /// = legacy billing.
  using ChargeHook = std::function<std::uint64_t(
      Imsi, std::uint32_t cycle_index, std::uint64_t gateway_volume)>;

  explicit Ofcs(charging::DataPlan plan);

  /// Ingests a CDR from the gateway (any number per cycle).
  void ingest(const ChargingDataRecord& cdr);

  /// Installs the TLC policy (§6). Replaces any previous hook.
  void set_charge_hook(ChargeHook hook) { hook_ = std::move(hook); }

  /// Closes the current cycle for `imsi`: aggregates its pending CDRs,
  /// applies the hook, rates the bill, updates quota/throttle state.
  /// Returns the new bill line (zero-volume cycles still produce one).
  BillLine close_cycle(Imsi imsi);

  /// Idempotent close: closing a cycle that is already rated returns
  /// the stored line (exact bits — nothing is recomputed) instead of
  /// opening a new one. This is what makes post-recovery re-execution
  /// safe: a supervisor that replays a billing pass after a crash
  /// cannot close the same cycle twice (the no-double-bill invariant,
  /// DESIGN.md §11.4). `cycle_index` must not be ahead of the
  /// subscriber's next open cycle.
  BillLine close_cycle(Imsi imsi, std::uint32_t cycle_index);

  /// Closes the current cycle for every known subscriber, in ascending
  /// IMSI order (deterministic regardless of ingest order — fleet runs
  /// merge shard results concurrently). Returns one line per
  /// subscriber.
  std::vector<std::pair<Imsi, BillLine>> close_cycle_all();

  /// Cycle-indexed variant (idempotent, like the two-argument
  /// close_cycle): re-closing cycle `cycle_index` after recovery hands
  /// back the stored lines.
  std::vector<std::pair<Imsi, BillLine>> close_cycle_all(
      std::uint32_t cycle_index);

  /// Subscribers with state, ascending IMSI order.
  [[nodiscard]] std::vector<Imsi> subscribers() const;

  /// Fleet-level rollup across every subscriber's rated cycles.
  struct FleetTotals {
    std::size_t subscribers = 0;
    std::size_t throttled = 0;  // currently speed-limited
    std::uint64_t billed_bytes = 0;
    std::uint64_t amount_micro = 0;
    /// §13 audit rollup: bytes that escaped charging (free-class +
    /// zero-rated, from CDR uncharged fields) and subscribers with at
    /// least one anomaly flag raised.
    std::uint64_t uncharged_bytes = 0;
    std::size_t flagged_subscribers = 0;
  };
  [[nodiscard]] FleetTotals totals() const;

  /// §13 audit accessors: cumulative uncharged volume and the anomaly
  /// flag union ingested for one subscriber (0 if unknown).
  [[nodiscard]] std::uint64_t uncharged_bytes(Imsi imsi) const;
  [[nodiscard]] std::uint32_t anomaly_flags(Imsi imsi) const;

  [[nodiscard]] const SubscriberBilling* billing(Imsi imsi) const;
  /// CDRs archived for a subscriber (the audit trail; unauthenticated
  /// in legacy 4G/5G, which is what TLC's PoC fixes).
  [[nodiscard]] const std::vector<ChargingDataRecord>* archive(
      Imsi imsi) const;

  [[nodiscard]] const charging::DataPlan& plan() const { return plan_; }
  [[nodiscard]] std::uint64_t cdrs_ingested() const { return ingested_; }

  // ---- Crash recovery (DESIGN.md §11.4) -----------------------------
  //
  // With a StateLog attached the ledger follows write-ahead discipline:
  // every mutation is journaled before it is applied, each op carries
  // an idempotent record ID ((imsi, charging_id, seq) for CDRs,
  // (imsi, cycle) for closes), and replay of any op suffix over any
  // snapshot converges on the same state — no byte billed twice, no
  // rated cycle lost. The settlement outcomes are not the ledger's: the
  // supervisor journals the receipts, and the census is folded from
  // them. Without a log, nothing below runs and the legacy behaviour is
  // bit-identical to before.

  /// Attaches `log` and recovers: restores the last checkpoint (if
  /// any) and re-applies the journaled op suffix. Call on a freshly
  /// constructed Ofcs, before any ingest. nullptr detaches.
  [[nodiscard]] Status attach_recovery(recovery::StateLog* log);

  /// Snapshots the full ledger into the StateLog and rotates its
  /// journal, bounding future replay.
  [[nodiscard]] Status checkpoint();

  /// Full-fidelity state snapshot / restore (exact double bits; used
  /// by checkpoints and tested for round-trip identity).
  [[nodiscard]] Bytes serialize_state() const;
  [[nodiscard]] Status restore_state(const Bytes& snapshot);

  /// First journal/apply error since attach, if any. The WAL rule is
  /// "no apply without a durable op", so a failed append drops the
  /// mutation and records the error here instead of half-applying.
  [[nodiscard]] const Status& recovery_error() const {
    return recovery_error_;
  }
  [[nodiscard]] std::uint64_t duplicate_ops_dropped() const {
    return duplicate_ops_dropped_;
  }

 private:
  struct State {
    std::vector<ChargingDataRecord> archive;
    std::uint64_t pending_ul = 0;
    std::uint64_t pending_dl = 0;
    std::uint32_t next_cycle = 0;
    SubscriberBilling billing;
    /// §13 audit aggregates, accumulated over ingested CDRs.
    std::uint64_t uncharged_bytes = 0;
    std::uint32_t anomaly_flags = 0;
  };

  /// Keys: see the recovery comment above.
  using CdrKey = std::tuple<std::uint64_t, std::uint16_t, std::uint32_t>;

  void apply_ingest(const ChargingDataRecord& cdr);
  /// Applies a fully-rated line to the subscriber (no recomputation —
  /// replay must reproduce the exact stored doubles).
  void apply_close(Imsi imsi, const BillLine& line);
  [[nodiscard]] Status apply_journal_op(const Bytes& op);
  /// Journals `op`; on I/O failure records recovery_error_ and returns
  /// false (caller must then skip the apply).
  [[nodiscard]] bool journal_op(const Bytes& op);

  charging::DataPlan plan_;
  ChargeHook hook_;
  std::unordered_map<Imsi, State> subscribers_;
  std::uint64_t ingested_ = 0;

  recovery::StateLog* log_ = nullptr;
  Status recovery_error_ = Status::Ok();
  std::uint64_t duplicate_ops_dropped_ = 0;
  /// Idempotence set (maintained only while a StateLog is attached;
  /// std::set so snapshots serialise deterministically).
  std::set<CdrKey> seen_cdrs_;
};

}  // namespace tlc::epc
