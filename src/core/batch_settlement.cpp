#include "core/batch_settlement.hpp"

#include <deque>
#include <unordered_map>
#include <utility>

#include "sim/rng_stream.hpp"
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
                                               PartyRole role,
                                               bool tolerate_faults) {
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
  session_config.tolerate_faults = tolerate_faults;
  // Session RNG derives from (salt, ue, role): a pure function, so the
  // same UE settles to byte-identical PoCs whether it runs in a batch,
  // alone, or on any worker thread.
  const std::uint64_t stream =
      2 * ue_id + (role == PartyRole::EdgeVendor ? 0 : 1);
  return std::make_unique<TlcSession>(
      std::move(session_config), std::make_unique<OptimalStrategy>(),
      sim::stream_rng(config.rng_salt, stream));
}

std::vector<UeGroup> group_by_ue(const std::vector<SettlementItem>& items,
                                 std::vector<SettlementReceipt>& receipts) {
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
    UeGroup& group = groups[it->second];
    group.item_indices.push_back(i);
    receipts[i].ue_id = items[i].ue_id;
    receipts[i].cycle =
        static_cast<std::uint32_t>(group.item_indices.size() - 1);
  }
  return groups;
}

namespace {

/// One UE's reused session pair and its in-flight wire messages.
struct Group {
  const UeGroup* ue = nullptr;
  std::unique_ptr<TlcSession> edge;
  std::unique_ptr<TlcSession> op;
  // Pending wire messages: (to_edge, bytes), FIFO per group.
  std::deque<std::pair<bool, Bytes>> wire;
  bool poisoned = false;  // a cycle failed; remaining cycles skip
  std::string poison_reason;
};

/// Builds the group's session pair; the send closures point back at
/// the group, so it must not move while the sessions live.
void open_sessions(Group& group, const BatchConfig& config,
                   const RsaKeyCache& keys) {
  const std::uint64_t ue = group.ue->ue_id;
  group.edge = make_batch_session(config, keys, ue, PartyRole::EdgeVendor);
  group.op = make_batch_session(config, keys, ue, PartyRole::Operator);
  Group* raw = &group;
  group.edge->set_send(
      [raw](const Bytes& m) { raw->wire.emplace_back(false, m); });
  group.op->set_send(
      [raw](const Bytes& m) { raw->wire.emplace_back(true, m); });
}

void poison(Group& group, const std::string& reason) {
  group.poisoned = true;
  if (group.poison_reason.empty()) group.poison_reason = reason;
}

/// Delivers one queued message; poisons the group on protocol errors.
void deliver_one(Group& group) {
  auto [to_edge, message] = std::move(group.wire.front());
  group.wire.pop_front();
  const Status status = to_edge ? group.edge->receive(message)
                                : group.op->receive(message);
  if (!status.ok()) poison(group, status.error());
}

/// Arms cycle `item` on both sides and lets the operator initiate.
bool begin_group_cycle(Group& group, const SettlementItem& item) {
  if (group.poisoned) return false;
  if (!group.op->begin_cycle(item.op_view).ok()) return false;
  if (!group.edge->begin_cycle(item.edge_view).ok()) return false;
  return group.op->start().ok();
}

/// Finishes the in-flight cycle and fills the receipt; a failed
/// negotiation poisons the group (its remaining receipts stay
/// incomplete — §5.1: retry policy belongs to the caller).
void finish_group_cycle(Group& group, SettlementReceipt& receipt) {
  if (group.poisoned || !group.op->cycle_complete() ||
      !group.edge->cycle_complete()) {
    group.op->abort_cycle();
    group.edge->abort_cycle();
    poison(group, "negotiation did not complete");
    receipt.failure_reason = group.poison_reason;
    return;
  }
  const auto op_receipt = group.op->finish_cycle();
  const auto edge_receipt = group.edge->finish_cycle();
  if (!op_receipt || !edge_receipt) {
    poison(group, op_receipt ? edge_receipt.error() : op_receipt.error());
    receipt.failure_reason = group.poison_reason;
    return;
  }
  receipt.completed = true;
  receipt.charged = op_receipt->charged;
  receipt.rounds = op_receipt->rounds;
  receipt.poc_wire = group.op->receipts().entries().back().poc_wire;
  receipt.outcome = SettleOutcome::Converged;
}

/// All cycles of one group through a local FIFO pump. Sessions live
/// only while the group runs, so a batch holds one pair per worker
/// rather than one per UE.
void run_group(Group& group, const BatchConfig& config,
               const RsaKeyCache& keys, recovery::CrashPlan* plan,
               const std::vector<SettlementItem>& items,
               std::vector<SettlementReceipt>& receipts) {
  open_sessions(group, config, keys);
  for (std::size_t item_index : group.ue->item_indices) {
    if (plan != nullptr) {
      plan->fire(recovery::kCrashSettleCycle, group.ue->ue_id);
    }
    if (!begin_group_cycle(group, items[item_index])) {
      poison(group, "cycle could not start");
      receipts[item_index].failure_reason = group.poison_reason;
      continue;
    }
    while (!group.wire.empty() && !group.poisoned) deliver_one(group);
    finish_group_cycle(group, receipts[item_index]);
  }
  group.edge.reset();
  group.op.reset();
}

}  // namespace

BatchSettler::BatchSettler(BatchConfig config, const RsaKeyCache& keys)
    : config_(config), keys_(keys) {}

std::vector<SettlementReceipt> BatchSettler::settle(
    const std::vector<SettlementItem>& items, unsigned threads) const {
  std::vector<SettlementReceipt> receipts(items.size());
  const std::vector<UeGroup> ue_groups = group_by_ue(items, receipts);
  // Sized once and never resized: the send closures hold Group
  // addresses.
  std::vector<Group> groups(ue_groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    groups[g].ue = &ue_groups[g];
  }

  // Each group is fully local to one worker and writes only its own
  // receipt slots, so results never depend on the worker count.
  util::parallel_for(groups.size(), threads, [&](std::size_t g) {
    run_group(groups[g], config_, keys_, plan_, items, receipts);
  });
  return receipts;
}

}  // namespace tlc::core
