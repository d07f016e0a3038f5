#include "core/batch_settlement.hpp"

#include <unordered_map>
#include <utility>

#include "sim/rng_stream.hpp"
#include "transport/settlement_runner.hpp"
#include "util/parallel_for.hpp"

namespace tlc::core {

RsaKeyCache::RsaKeyCache(std::size_t modulus_bits, std::size_t slots,
                         std::uint64_t seed)
    : modulus_bits_(modulus_bits) {
  if (slots == 0) slots = 1;
  edge_keys_.reserve(slots);
  op_keys_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    // Slot keys derive from (seed, slot) alone so slot i survives cache
    // resizes; even/odd streams keep the two parties' keys distinct.
    const std::uint64_t edge_key_stream = 2 * i;
    const std::uint64_t op_key_stream = 2 * i + 1;
    Rng edge_rng = sim::stream_rng(seed, edge_key_stream);
    Rng op_rng = sim::stream_rng(seed, op_key_stream);
    edge_keys_.push_back(crypto::rsa_generate(modulus_bits, edge_rng));
    op_keys_.push_back(crypto::rsa_generate(modulus_bits, op_rng));
    // rsa_generate warms the Montgomery contexts, so the slots handed
    // out below are read-only from here on — workers on any thread
    // share them without ever racing a lazy rebuild.
  }
}

const char* settle_outcome_name(SettleOutcome outcome) {
  switch (outcome) {
    case SettleOutcome::Converged:
      return "converged";
    case SettleOutcome::Retried:
      return "retried";
    case SettleOutcome::Degraded:
      return "degraded";
    case SettleOutcome::RejectedTamper:
      return "rejected-tamper";
  }
  return "?";
}

std::unique_ptr<TlcSession> make_batch_session(const BatchConfig& config,
                                               const RsaKeyCache& keys,
                                               std::uint64_t ue_id,
                                               PartyRole role) {
  SessionConfig session_config;
  session_config.role = role;
  if (role == PartyRole::EdgeVendor) {
    session_config.own_keys = keys.edge_key(ue_id);
    session_config.peer_key = keys.operator_key(ue_id).public_key;
  } else {
    session_config.own_keys = keys.operator_key(ue_id);
    session_config.peer_key = keys.edge_key(ue_id).public_key;
  }
  session_config.c = config.c;
  session_config.cycle_length = config.cycle_length;
  session_config.first_cycle_start = config.first_cycle_start;
  session_config.max_rounds = config.max_rounds;
  // Lenient on every rung: a forged or mangled message is counted and
  // dropped, never fatal. A perfect pipe never delivers one.
  session_config.tolerate_faults = true;
  // Session RNG derives from (salt, ue, role): a pure function, so the
  // same UE settles to byte-identical PoCs whether it runs in a batch,
  // alone, or on any worker thread.
  const std::uint64_t stream =
      2 * ue_id + (role == PartyRole::EdgeVendor ? 0 : 1);
  return std::make_unique<TlcSession>(
      std::move(session_config), std::make_unique<OptimalStrategy>(),
      sim::stream_rng(config.rng_salt, stream));
}

namespace {

/// Groups items by UE in first-appearance order: the n-th item of a UE
/// is its cycle n.
std::vector<UeGroup> group_by_ue(const std::vector<SettlementItem>& items) {
  // The side index makes grouping O(n); vector order alone fixes the
  // output, so the unordered lookup cannot leak into results.
  std::vector<UeGroup> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_by_id;
  group_by_id.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto [it, inserted] =
        group_by_id.try_emplace(items[i].ue_id, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().ue_id = items[i].ue_id;
    }
    groups[it->second].item_indices.push_back(i);
  }
  return groups;
}

}  // namespace

std::vector<SettlementReceipt> settle_by_ue(
    const std::vector<SettlementItem>& items, unsigned threads,
    recovery::CrashPlan* plan, const SettleGroup& settle_group) {
  std::vector<SettlementReceipt> receipts(items.size());
  const std::vector<UeGroup> groups = group_by_ue(items);
  util::parallel_for(groups.size(), threads, [&](std::size_t g) {
    const UeGroup& group = groups[g];
    std::vector<SettlementReceipt> slots(group.item_indices.size());
    for (std::size_t cycle = 0; cycle < slots.size(); ++cycle) {
      if (plan != nullptr) {
        plan->fire(recovery::kCrashSettleCycle, group.ue_id);
      }
      slots[cycle].ue_id = group.ue_id;
      slots[cycle].cycle = static_cast<std::uint32_t>(cycle);
    }
    settle_group(g, group, slots);
    for (std::size_t cycle = 0; cycle < slots.size(); ++cycle) {
      receipts[group.item_indices[cycle]] = std::move(slots[cycle]);
    }
  });
  return receipts;
}

void settle_in_process(const BatchConfig& config, const RsaKeyCache& keys,
                       const std::vector<SettlementItem>& items,
                       const UeGroup& group,
                       std::vector<SettlementReceipt>& receipts) {
  // A perfect pipe: no fault ever fires and no retry timer expires, so
  // neither the channel seed nor the jitter root reaches a receipt.
  transport::UeSettlement pair(config, keys, group.ue_id,
                               transport::FaultyChannel({}, {}, 0),
                               transport::RetryPolicy{}, /*jitter_root=*/0);
  const SettlementReceipt* first_failure = nullptr;
  for (std::size_t cycle = 0; cycle < receipts.size(); ++cycle) {
    if (first_failure != nullptr) {
      receipts[cycle].failure_reason = first_failure->failure_reason;
      continue;
    }
    pair.settle_cycle(items[group.item_indices[cycle]], receipts[cycle]);
    if (!receipts[cycle].completed) first_failure = &receipts[cycle];
  }
}

BatchSettler::BatchSettler(BatchConfig config, const RsaKeyCache& keys)
    : config_(config), keys_(keys) {}

std::vector<SettlementReceipt> BatchSettler::settle(
    const std::vector<SettlementItem>& items, unsigned threads) const {
  return settle_by_ue(
      items, threads, plan_,
      [&](std::size_t, const UeGroup& group,
          std::vector<SettlementReceipt>& receipts) {
        settle_in_process(config_, keys_, items, group, receipts);
      });
}

}  // namespace tlc::core
