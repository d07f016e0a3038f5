#include "transport/lossy_settlement.hpp"

#include <utility>

#include "sim/rng_stream.hpp"
#include "transport/coded_session.hpp"
#include "transport/faulty_channel.hpp"
#include "transport/settlement_runner.hpp"

namespace tlc::transport {
namespace {

/// A UE's channel: its fault schedule derives from (seed, ue) alone, so
/// a group is a pure function of its inputs wherever it runs, and the
/// coded rung and its stop-and-wait fallback see the same link. Even
/// stream; the odd one is the UE's retry jitter.
FaultyChannel ue_channel(const TransportConfig& transport, std::uint64_t ue) {
  const std::uint64_t fault_stream = 2 * ue;
  return FaultyChannel(transport.to_edge, transport.to_operator,
                       sim::stream_seed(transport.seed, fault_stream));
}

}  // namespace

LossySettler::LossySettler(core::BatchConfig config, TransportConfig transport,
                           const core::RsaKeyCache& keys)
    : config_(config), transport_(transport), keys_(keys) {}

LossyBatchReport LossySettler::settle(
    const std::vector<core::SettlementItem>& items, unsigned threads) const {
  const bool coded = transport_.coding == Coding::Rlnc;
  // Indexed by group; a batch has at most one group per item.
  std::vector<CodedCounters> counters(coded ? items.size() : 0);
  LossyBatchReport report;
  report.receipts = core::settle_by_ue(
      items, threads, plan_,
      [&](std::size_t g, const core::UeGroup& group, Receipts& receipts) {
        if (coded) {
          counters[g] = settle_coded(items, group, receipts);
        } else {
          settle_stop_and_wait(items, group, receipts);
        }
      });
  for (const CodedCounters& group_counters : counters) {
    report.coded += group_counters;
  }
  return report;
}

void LossySettler::settle_stop_and_wait(
    const std::vector<core::SettlementItem>& items, const core::UeGroup& group,
    Receipts& receipts) const {
  const std::uint64_t jitter_stream = 2 * group.ue_id + 1;
  UeSettlement pair(config_, keys_, group.ue_id,
                    ue_channel(transport_, group.ue_id), transport_.retry,
                    sim::stream_seed(transport_.seed, jitter_stream));
  for (std::size_t cycle = 0; cycle < receipts.size(); ++cycle) {
    pair.settle_cycle(items[group.item_indices[cycle]], receipts[cycle]);
  }
}

CodedCounters LossySettler::settle_coded(
    const std::vector<core::SettlementItem>& items, const core::UeGroup& group,
    Receipts& receipts) const {
  const std::uint64_t ue = group.ue_id;
  // Negotiate in-process, seal the receipts and carry them across the
  // lossy link as one RLNC transfer. `receipts` keeps its stamped
  // blanks until the transfer lands, for the fallback below.
  Receipts negotiated = receipts;
  core::settle_in_process(config_, keys_, items, group, negotiated);

  FaultyChannel channel = ue_channel(transport_, ue);
  const std::uint64_t coeff_root =
      sim::stream_seed(transport_.seed, kCodedCoeffStream);
  const std::uint64_t group_coeff_stream = ue;
  const std::uint64_t coeff_seed =
      sim::stream_seed(coeff_root, group_coeff_stream);
  CodedReceiver receiver(transport_.coded);
  receiver.set_crash_plan(plan_, ue);
  CodedTransfer transfer(transport_.coded, channel,
                         /*transfer_id=*/coeff_seed,
                         seal_receipts(negotiated), coeff_seed);
  const TransferOutcome outcome = transfer.run(receiver);
  CodedCounters counters = outcome.counters;

  if (outcome.delivered) {
    if (auto payload = receiver.payload()) {
      if (auto delivered =
              unseal_group_receipts(*payload, ue, receipts.size())) {
        counters.cycles_coded += receipts.size();
        receipts = std::move(*delivered);
        return counters;
      }
    }
  }
  // The coded rung spent its budget or the payload was not this
  // group's: re-settle the whole group stop-and-wait, which degrades
  // hopeless cycles to the legacy CDR bill. Its fault and jitter
  // schedules are the ones a pure stop-and-wait run draws.
  ++counters.fallbacks;
  settle_stop_and_wait(items, group, receipts);
  return counters;
}

}  // namespace tlc::transport
