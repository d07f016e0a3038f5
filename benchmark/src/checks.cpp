#include "checks.hpp"

#include <algorithm>
#include <unordered_map>

#include "charging/ingest.hpp"
#include "core/verifier.hpp"
#include "goldens.hpp"
#include "util/bytes.hpp"

namespace tlc::bench {

Digests digests_of(const fleet::FleetResult& result) {
  return Digests{{to_hex(result.measurement_digest), to_hex(result.cdf_digest),
                  to_hex(result.poc_digest), to_hex(result.anomaly_digest),
                  to_hex(result.ingest_digest)}};
}

std::optional<Digests> golden_digests(std::string_view workload, bool smoke) {
  for (const GoldenDigests& golden : kGoldenDigests) {
    if (golden.workload == workload && golden.smoke == smoke) {
      Digests digests;
      for (std::size_t i = 0; i < digests.hex.size(); ++i) {
        digests.hex[i] = golden.hex[i];
      }
      return digests;
    }
  }
  return std::nullopt;
}

CheckReport check_outputs(const fleet::FleetConfig& config,
                          const fleet::FleetResult& result,
                          const core::RsaKeyCache& keys,
                          const crypto::RsaPublicKey* ingest_key) {
  CheckReport report;
  const auto fail = [&report](std::string what) {
    if (report.errors.size() < 20) report.errors.push_back(std::move(what));
  };

  const auto cycles = static_cast<std::size_t>(std::max(config.base.cycles, 0));
  if (result.receipts.size() != result.records.size() * cycles) {
    fail("receipt count " + std::to_string(result.receipts.size()) +
         " != UE-cycles " + std::to_string(result.records.size() * cycles));
    report.failed_ue_cycles = result.records.size() * cycles;
    return report;
  }

  // Algorithm 2 on every completed receipt: receipts are in
  // (ue_index, cycle) order, and cycle k's plan is [kT, (k+1)T).
  for (const core::SettlementReceipt& receipt : result.receipts) {
    if (!receipt.completed) continue;
    core::VerificationRequest request;
    request.poc_wire = receipt.poc_wire;
    request.plan.t_start =
        static_cast<SimTime>(receipt.cycle) * config.base.cycle_length;
    request.plan.t_end = request.plan.t_start + config.base.cycle_length;
    request.plan.c = config.base.plan_c;
    request.edge_key = keys.edge_key(receipt.ue_id).public_key;
    request.operator_key = keys.operator_key(receipt.ue_id).public_key;
    const Expected<core::VerifiedCharge> verified = core::verify_poc(request);
    ++report.receipts_verified;
    if (!verified) {
      ++report.failed_ue_cycles;
      fail("ue " + std::to_string(receipt.ue_id) + " cycle " +
           std::to_string(receipt.cycle) + ": " + verified.error());
    } else if (verified->charged != receipt.charged) {
      ++report.failed_ue_cycles;
      fail("ue " + std::to_string(receipt.ue_id) + " cycle " +
           std::to_string(receipt.cycle) + ": charged " +
           std::to_string(receipt.charged) + " but the PoC proves " +
           std::to_string(verified->charged));
    }
  }

  // Bills: the TLC hook bills x where the cycle settled and the gateway
  // volume where it fell back to legacy billing.
  std::unordered_map<std::uint64_t, const fleet::UeRecord*> by_imsi;
  for (const fleet::UeRecord& record : result.records) {
    by_imsi[record.imsi.value] = &record;
  }
  if (result.bills.size() != cycles) {
    fail("bill cycles " + std::to_string(result.bills.size()) +
         " != " + std::to_string(cycles));
  }
  for (std::size_t cycle = 0; cycle < result.bills.size(); ++cycle) {
    if (result.bills[cycle].size() != result.records.size()) {
      fail("cycle " + std::to_string(cycle) + " bills " +
           std::to_string(result.bills[cycle].size()) + " subscribers");
    }
    for (const auto& [imsi, line] : result.bills[cycle]) {
      const auto it = by_imsi.find(imsi.value);
      if (it == by_imsi.end() || cycle >= it->second->cycles.size()) {
        fail("bill for unknown subscriber " + std::to_string(imsi.value));
        continue;
      }
      const fleet::UeRecord& record = *it->second;
      const core::SettlementReceipt& receipt =
          result.receipts[record.ue_index * cycles + cycle];
      const std::uint64_t gateway = record.cycles[cycle].gateway_volume;
      const std::uint64_t expected = receipt.completed ? receipt.charged : gateway;
      if (line.gateway_volume != gateway || line.billed_volume != expected) {
        ++report.failed_ue_cycles;
        fail("ue " + std::to_string(record.ue_index) + " cycle " +
             std::to_string(cycle) + ": billed " +
             std::to_string(line.billed_volume) + ", expected " +
             std::to_string(expected));
      }
    }
  }

  // Streaming ingest: one RSA signature per sealed batch.
  if (config.streaming_ingest) {
    if (ingest_key == nullptr || !(result.ingest_key == *ingest_key)) {
      fail("ingest key differs from the set-up derivation");
    }
    std::uint64_t leaves = 0;
    for (const charging::BatchPoc& batch : result.ingest_batches) {
      const Status status = charging::verify_batch_poc(batch, result.ingest_key);
      ++report.batches_verified;
      leaves += batch.leaf_count;
      if (!status.ok()) {
        fail("ingest batch " + std::to_string(batch.batch_seq) + ": " +
             status.error());
      }
    }
    if (leaves != result.records.size() * cycles) {
      fail("ingest batches cover " + std::to_string(leaves) + " CDRs, not " +
           std::to_string(result.records.size() * cycles));
    }
  } else if (!result.ingest_batches.empty()) {
    fail("ingest batches sealed with streaming ingest off");
  }
  return report;
}

}  // namespace tlc::bench
