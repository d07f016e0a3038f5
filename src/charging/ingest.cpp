#include "charging/ingest.hpp"

#include <algorithm>
#include <utility>

#include "util/serde.hpp"

namespace tlc::charging {
namespace {

/// Wire version for every streaming-ingest artifact (leaf, commitment,
/// batch PoC, inclusion proof). Bump together: a verifier that cannot
/// parse the commitment cannot check any proof against it.
constexpr std::uint8_t kBatchWireVersion = 1;

constexpr std::size_t kCdrLeafSize = epc::kFullCdrSize;
constexpr std::size_t kRootSize = 32;

}  // namespace

// A leaf is one full-width CDR (the epc_cdr_full codec) and nothing
// else, so its framing adds no schema of its own.
// tlclint: allow(schema-coverage) one epc_cdr_full record
Bytes encode_cdr_leaf(const epc::ChargingDataRecord& cdr) {
  ByteWriter w;
  epc::write_cdr(w, cdr);
  return w.take();
}

// tlclint: allow(schema-coverage) one epc_cdr_full record
Expected<epc::ChargingDataRecord> decode_cdr_leaf(const Bytes& wire) {
  if (wire.size() != kCdrLeafSize) return Err("cdr leaf: wrong size");
  // The exact size leaves no read below short.
  ByteReader r(wire);
  return epc::read_cdr(r);
}

// tlclint: codec(charging_batch_commitment, encode, version=kBatchWireVersion)
Bytes encode_batch_commitment(const BatchPoc& poc) {
  // Signing leaf_count next to the root is what closes the
  // odd-duplication root ambiguity (see crypto/merkle.hpp); batch_seq
  // prevents replaying one batch's signature for another.
  ByteWriter w;
  w.u8(kBatchWireVersion);
  w.u64(poc.batch_seq);
  w.u32(poc.leaf_count);
  w.i64(poc.first_usage);
  w.i64(poc.last_usage);
  w.blob(Bytes(poc.root.begin(), poc.root.end()));
  return w.take();
}

// tlclint: codec(charging_batch_poc, encode, version=kBatchWireVersion)
Bytes encode_batch_poc(const BatchPoc& poc) {
  ByteWriter w;
  w.u8(kBatchWireVersion);
  w.u64(poc.batch_seq);
  w.u32(poc.leaf_count);
  w.i64(poc.first_usage);
  w.i64(poc.last_usage);
  w.blob(Bytes(poc.root.begin(), poc.root.end()));
  w.blob(poc.signature);
  return w.take();
}

// tlclint: codec(charging_batch_poc, decode, version=kBatchWireVersion)
Expected<BatchPoc> decode_batch_poc(const Bytes& wire) {
  ByteReader r(wire);
  if (r.u8() != kBatchWireVersion) r.fail("batch poc: bad version");
  BatchPoc poc;
  poc.batch_seq = r.u64();
  poc.leaf_count = r.u32();
  poc.first_usage = r.i64();
  poc.last_usage = r.i64();
  const Bytes root = r.blob();
  poc.signature = r.blob();
  if (root.size() != kRootSize) r.fail("batch poc: bad root size");
  if (!r.ok()) return r.error_or("batch poc: truncated");
  if (!r.exhausted()) return Err("batch poc: trailing bytes");
  std::copy(root.begin(), root.end(), poc.root.begin());
  return poc;
}

// tlclint: codec(charging_inclusion_proof, encode, version=kBatchWireVersion)
Bytes encode_inclusion_proof(const InclusionProof& proof) {
  ByteWriter w;
  w.u8(kBatchWireVersion);
  w.u64(proof.batch_seq);
  w.u32(proof.merkle.leaf_index);
  w.u32(proof.merkle.leaf_count);
  w.u32(static_cast<std::uint32_t>(proof.merkle.path.size()));
  for (const crypto::MerkleHash& hash : proof.merkle.path) {
    w.blob(Bytes(hash.begin(), hash.end()));
  }
  return w.take();
}

// tlclint: codec(charging_inclusion_proof, decode, version=kBatchWireVersion)
Expected<InclusionProof> decode_inclusion_proof(const Bytes& wire) {
  ByteReader r(wire);
  if (r.u8() != kBatchWireVersion) r.fail("inclusion proof: bad version");
  InclusionProof proof;
  proof.batch_seq = r.u64();
  proof.merkle.leaf_index = r.u32();
  proof.merkle.leaf_count = r.u32();
  // Each path hash is a length-prefixed 32-byte blob.
  const std::uint32_t depth = r.count(4 + kRootSize);
  // A 32-bit leaf count caps real depth at 32; anything larger is a
  // forged header.
  if (depth > 64) r.fail("inclusion proof: depth implausible");
  proof.merkle.path.resize(depth);
  for (crypto::MerkleHash& node : proof.merkle.path) {
    const Bytes hash = r.blob();
    if (hash.size() != kRootSize) {
      r.fail("inclusion proof: bad path hash size");
      break;
    }
    std::copy(hash.begin(), hash.end(), node.begin());
  }
  if (!r.ok()) return r.error_or("inclusion proof: truncated");
  if (!r.exhausted()) return Err("inclusion proof: trailing bytes");
  return proof;
}

Status verify_batch_poc(const BatchPoc& poc,
                        const crypto::RsaPublicKey& key) {
  if (poc.leaf_count == 0) return Err("batch poc: empty batch");
  return crypto::rsa_verify(key, encode_batch_commitment(poc),
                            poc.signature);
}

Status verify_cdr_inclusion(const BatchPoc& poc,
                            const epc::ChargingDataRecord& cdr,
                            const InclusionProof& proof) {
  if (proof.batch_seq != poc.batch_seq) {
    return Err("inclusion: batch sequence mismatch");
  }
  if (proof.merkle.leaf_count != poc.leaf_count) {
    return Err("inclusion: leaf count mismatch");
  }
  return crypto::merkle_verify(poc.root, encode_cdr_leaf(cdr), proof.merkle);
}

StreamingIngest::StreamingIngest(IngestConfig config,
                                 const crypto::RsaPrivateKey* signing_key,
                                 epc::Ofcs* sink, BatchSink on_sealed)
    : config_(config),
      key_(signing_key),
      sink_(sink),
      on_sealed_(std::move(on_sealed)) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  pending_leaves_.reserve(config_.batch_size);
}

void StreamingIngest::submit(const epc::ChargingDataRecord& cdr) {
  // Billing first: the ledger never waits on (or depends on) a seal.
  if (sink_ != nullptr) sink_->ingest(cdr);

  Bytes leaf = encode_cdr_leaf(cdr);
  leaf_bytes_hashed_ += leaf.size();
  if (pending_leaves_.empty()) {
    pending_first_ = cdr.time_of_first_usage;
    pending_last_ = cdr.time_of_last_usage;
  } else {
    pending_first_ = std::min(pending_first_, cdr.time_of_first_usage);
    pending_last_ = std::max(pending_last_, cdr.time_of_last_usage);
  }
  pending_leaves_.push_back(std::move(leaf));
  ++submitted_;
  if (pending_leaves_.size() >= config_.batch_size) seal();
}

void StreamingIngest::flush() { seal(); }

void StreamingIngest::seal() {
  if (pending_leaves_.empty()) return;

  crypto::MerkleTree tree = crypto::MerkleTree::build(pending_leaves_);
  BatchPoc poc;
  poc.batch_seq = next_seq_++;
  poc.leaf_count = tree.leaf_count();
  poc.first_usage = pending_first_;
  poc.last_usage = pending_last_;
  poc.root = tree.root();
  if (key_ != nullptr) {
    poc.signature = crypto::rsa_sign(*key_, encode_batch_commitment(poc));
  }

  const Bytes wire = encode_batch_poc(poc);
  if (on_sealed_) on_sealed_(poc, wire);
  batches_.push_back(std::move(poc));
  if (config_.retain_batches) {
    sealed_.push_back(Sealed{std::move(tree), std::move(pending_leaves_)});
  }
  pending_leaves_.clear();  // valid-but-unspecified after the move above
  pending_leaves_.reserve(config_.batch_size);
  pending_first_ = 0;
  pending_last_ = 0;
}

Expected<InclusionProof> StreamingIngest::prove(
    std::size_t batch_index, std::uint32_t leaf_index) const {
  if (!config_.retain_batches) {
    return Err("ingest: batches not retained");
  }
  if (batch_index >= sealed_.size()) {
    return Err("ingest: batch index out of range");
  }
  auto merkle = sealed_[batch_index].tree.proof(leaf_index);
  if (!merkle) return Err(merkle.error());
  InclusionProof proof;
  proof.batch_seq = batches_[batch_index].batch_seq;
  proof.merkle = std::move(*merkle);
  return proof;
}

Expected<Bytes> StreamingIngest::leaf_wire(std::size_t batch_index,
                                           std::uint32_t leaf_index) const {
  if (!config_.retain_batches) {
    return Err("ingest: batches not retained");
  }
  if (batch_index >= sealed_.size()) {
    return Err("ingest: batch index out of range");
  }
  const std::vector<Bytes>& leaves = sealed_[batch_index].leaves;
  if (leaf_index >= leaves.size()) {
    return Err("ingest: leaf index out of range");
  }
  return leaves[leaf_index];
}

}  // namespace tlc::charging
