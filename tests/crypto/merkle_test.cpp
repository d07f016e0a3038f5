// Merkle tree edge cases and tamper rejection (DESIGN.md §16). The
// batch PoC's security reduces to this module: a proof must verify for
// exactly the committed (leaf bytes, index, count) triple and nothing
// else, and the root must be a pure function of the leaves — same on
// every kernel, every host, every thread count.
#include "crypto/merkle.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "charging/ingest.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_batch.hpp"
#include "epc/cdr.hpp"
#include "util/bytes.hpp"

namespace tlc::crypto {
namespace {

std::vector<Bytes> make_leaves(std::size_t count) {
  std::vector<Bytes> leaves;
  leaves.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Bytes leaf(16 + (i % 7));
    for (std::size_t j = 0; j < leaf.size(); ++j) {
      leaf[j] = static_cast<std::uint8_t>(i * 31 + j * 7 + 1);
    }
    leaves.push_back(std::move(leaf));
  }
  return leaves;
}

TEST(MerkleTest, EmptyTreeHasZeroRootAndNoProofs) {
  const MerkleTree tree = MerkleTree::build(std::vector<Bytes>{});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root(), MerkleHash{});
  EXPECT_FALSE(tree.proof(0).has_value());
}

TEST(MerkleTest, SingleLeafRootIsTheLeafHash) {
  const Bytes leaf = bytes_of("lonely leaf");
  const MerkleTree tree = MerkleTree::build({leaf});
  EXPECT_EQ(tree.root(), merkle_leaf_hash(leaf));

  // Depth-zero proof: empty path, and it verifies.
  auto proof = tree.proof(0);
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(proof->path.empty());
  EXPECT_TRUE(merkle_verify(tree.root(), leaf, *proof).ok());
}

TEST(MerkleTest, LeafDomainSeparationChangesTheHash) {
  // A leaf hash is SHA-256(0x00 || data), never the bare digest — a
  // 65-byte node preimage can't masquerade as a leaf.
  const Bytes data = bytes_of("x");
  const auto leaf = merkle_leaf_hash(data);
  EXPECT_NE(Bytes(leaf.begin(), leaf.end()), sha256(data));
}

// Every count from 1 to 40 covers odd node counts at every level
// (1, 3, 5, 7, 9, 11, 13, 25 ... each put the duplication rule at a
// different height). All proofs of every tree must verify.
TEST(MerkleTest, AllProofsVerifyForEveryLeafCountUpTo40) {
  for (std::size_t count = 1; count <= 40; ++count) {
    const std::vector<Bytes> leaves = make_leaves(count);
    const MerkleTree tree = MerkleTree::build(leaves);
    ASSERT_EQ(tree.leaf_count(), count);
    for (std::uint32_t i = 0; i < count; ++i) {
      auto proof = tree.proof(i);
      ASSERT_TRUE(proof.has_value()) << "count=" << count << " i=" << i;
      EXPECT_EQ(proof->path.size(),
                merkle_proof_depth(static_cast<std::uint32_t>(count)));
      EXPECT_TRUE(merkle_verify(tree.root(), leaves[i], *proof).ok())
          << "count=" << count << " i=" << i;
    }
    EXPECT_FALSE(tree.proof(static_cast<std::uint32_t>(count)).has_value());
  }
}

TEST(MerkleTest, TamperedLeafIsRejected) {
  const std::vector<Bytes> leaves = make_leaves(11);
  const MerkleTree tree = MerkleTree::build(leaves);
  for (std::uint32_t i = 0; i < leaves.size(); ++i) {
    auto proof = tree.proof(i);
    ASSERT_TRUE(proof.has_value());
    Bytes tampered = leaves[i];
    tampered[0] ^= 0x01;
    EXPECT_FALSE(merkle_verify(tree.root(), tampered, *proof).ok())
        << "leaf " << i;
  }
}

TEST(MerkleTest, TamperedPathIsRejected) {
  const std::vector<Bytes> leaves = make_leaves(13);
  const MerkleTree tree = MerkleTree::build(leaves);
  auto proof = tree.proof(6);
  ASSERT_TRUE(proof.has_value());
  for (std::size_t level = 0; level < proof->path.size(); ++level) {
    MerkleProof bad = *proof;
    bad.path[level][7] ^= 0x80;
    EXPECT_FALSE(merkle_verify(tree.root(), leaves[6], bad).ok())
        << "level " << level;
  }
}

TEST(MerkleTest, WrongIndexIsRejected) {
  const std::vector<Bytes> leaves = make_leaves(16);
  const MerkleTree tree = MerkleTree::build(leaves);
  auto proof = tree.proof(5);
  ASSERT_TRUE(proof.has_value());

  // Same path, different claimed position.
  MerkleProof moved = *proof;
  moved.leaf_index = 4;
  EXPECT_FALSE(merkle_verify(tree.root(), leaves[5], moved).ok());

  // Right index, wrong leaf bytes (another real leaf).
  EXPECT_FALSE(merkle_verify(tree.root(), leaves[4], *proof).ok());

  // Out-of-range index.
  MerkleProof out = *proof;
  out.leaf_index = 16;
  EXPECT_FALSE(merkle_verify(tree.root(), leaves[5], out).ok());
}

TEST(MerkleTest, WrongDepthIsRejected) {
  const std::vector<Bytes> leaves = make_leaves(8);
  const MerkleTree tree = MerkleTree::build(leaves);
  auto proof = tree.proof(2);
  ASSERT_TRUE(proof.has_value());

  MerkleProof shortened = *proof;
  shortened.path.pop_back();
  EXPECT_FALSE(merkle_verify(tree.root(), leaves[2], shortened).ok());

  MerkleProof padded = *proof;
  padded.path.push_back(MerkleHash{});
  EXPECT_FALSE(merkle_verify(tree.root(), leaves[2], padded).ok());

  // Lying about the tree size changes the expected depth.
  MerkleProof resized = *proof;
  resized.leaf_count = 4;
  EXPECT_FALSE(merkle_verify(tree.root(), leaves[2], resized).ok());
  resized.leaf_count = 0;
  EXPECT_FALSE(merkle_verify(tree.root(), leaves[2], resized).ok());
}

TEST(MerkleTest, ProofDepthFormula) {
  EXPECT_EQ(merkle_proof_depth(0), 0u);
  EXPECT_EQ(merkle_proof_depth(1), 0u);
  EXPECT_EQ(merkle_proof_depth(2), 1u);
  EXPECT_EQ(merkle_proof_depth(3), 2u);
  EXPECT_EQ(merkle_proof_depth(4), 2u);
  EXPECT_EQ(merkle_proof_depth(5), 3u);
  EXPECT_EQ(merkle_proof_depth(1024), 10u);
  EXPECT_EQ(merkle_proof_depth(1025), 11u);
}

/// The fixed 1024-CDR corpus of the golden-root test: fully determined
/// by index arithmetic, no RNG, so the corpus can never drift.
std::vector<Bytes> golden_cdr_corpus() {
  std::vector<Bytes> leaves;
  leaves.reserve(1024);
  for (std::uint32_t i = 0; i < 1024; ++i) {
    epc::ChargingDataRecord cdr;
    cdr.served_imsi.value = 262420000000000ULL + i;
    cdr.gateway_address = 0x0a000001;
    cdr.charging_id = static_cast<std::uint16_t>(i % 64);
    cdr.sequence_number = i;
    cdr.time_of_first_usage = static_cast<SimTime>(i) * kSecond;
    cdr.time_of_last_usage = static_cast<SimTime>(i + 1) * kSecond;
    cdr.datavolume_uplink = 1000ULL * i;
    cdr.datavolume_downlink = 2000ULL * i + 17;
    cdr.uncharged_uplink = i % 3;
    cdr.uncharged_downlink = i % 5;
    cdr.anomaly_flags = i % 2;
    leaves.push_back(charging::encode_cdr_leaf(cdr));
  }
  return leaves;
}

// Pinned golden root over the fixed 1024-CDR corpus. This is the wire
// compatibility test: any change to the leaf codec, the domain bytes,
// the duplication rule or the fold order breaks it — deliberately.
// The root must also be identical on every kernel the host offers
// (and, via the fleet identity suite, at every thread count).
TEST(MerkleTest, GoldenRootFor1024CdrCorpus) {
  const std::vector<Bytes> leaves = golden_cdr_corpus();
  ASSERT_EQ(leaves.size(), 1024u);
  ASSERT_EQ(leaves[0].size(), 70u);

  const char* kGoldenRoot =
      "2262171c6e9f5059465defaf133c003162b5ced2648f9e0521134661f003817c";

  for (Sha256Kernel kernel :
       {Sha256Kernel::Scalar, Sha256Kernel::ShaNi, Sha256Kernel::Avx2x8}) {
    if (!sha256_kernel_available(kernel)) continue;
    ASSERT_TRUE(sha256_force_kernel(kernel));
    const MerkleTree tree = MerkleTree::build(leaves);
    EXPECT_EQ(to_hex(Bytes(tree.root().begin(), tree.root().end())),
              kGoldenRoot)
        << sha256_kernel_name(kernel);
  }
  sha256_reset_kernel();
}

}  // namespace
}  // namespace tlc::crypto
