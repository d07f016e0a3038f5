// Known-answer and equivalence hardening for the batched SHA-256
// kernels (DESIGN.md §16). The scalar `Sha256` class already has KAT
// coverage in sha256_test.cpp; this suite pins the *batch* front end —
// every kernel the host offers must reproduce the FIPS 180-4 vectors
// and match the scalar class bit-for-bit over a large randomized soak,
// because Merkle roots (and therefore batch PoC signatures) are only
// portable if dispatch can never change a digest.
#include "crypto/sha256_batch.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace tlc::crypto {
namespace {

/// Kernels the host actually supports (scalar always qualifies).
std::vector<Sha256Kernel> host_kernels() {
  std::vector<Sha256Kernel> kernels;
  for (Sha256Kernel k :
       {Sha256Kernel::Scalar, Sha256Kernel::ShaNi, Sha256Kernel::Avx2x8}) {
    if (sha256_kernel_available(k)) kernels.push_back(k);
  }
  return kernels;
}

/// Runs `body` once per available kernel, pinned to that kernel, and
/// restores auto-dispatch afterwards.
template <typename Body>
void for_each_kernel(const Body& body) {
  for (Sha256Kernel kernel : host_kernels()) {
    ASSERT_TRUE(sha256_force_kernel(kernel));
    body(kernel);
  }
  sha256_reset_kernel();
}

std::string batch_digest_hex(const std::string& message) {
  return to_hex(sha256_batch(std::vector<Bytes>{bytes_of(message)}).at(0));
}

TEST(Sha256BatchKatTest, ScalarKernelAlwaysAvailable) {
  EXPECT_TRUE(sha256_kernel_available(Sha256Kernel::Scalar));
  // Whatever dispatch picked must itself be available.
  EXPECT_TRUE(sha256_kernel_available(sha256_batch_kernel()));
}

TEST(Sha256BatchKatTest, ForcingUnavailableKernelIsRefused) {
  for (Sha256Kernel k : {Sha256Kernel::ShaNi, Sha256Kernel::Avx2x8}) {
    if (sha256_kernel_available(k)) continue;
    const Sha256Kernel before = sha256_batch_kernel();
    EXPECT_FALSE(sha256_force_kernel(k));
    EXPECT_EQ(sha256_batch_kernel(), before);
  }
  sha256_reset_kernel();
}

// NIST CAVP one- and multi-block messages, per kernel. The 56- and
// 112-byte messages land exactly on the padding boundary, forcing the
// two-block finalization path; the million-'a' message exercises long
// multi-block compression runs.
TEST(Sha256BatchKatTest, NistCavpVectorsEveryKernel) {
  for_each_kernel([](Sha256Kernel kernel) {
    SCOPED_TRACE(sha256_kernel_name(kernel));
    EXPECT_EQ(
        batch_digest_hex(""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(
        batch_digest_hex("abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        batch_digest_hex(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(
        batch_digest_hex(
            "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
            "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    EXPECT_EQ(
        batch_digest_hex(std::string(1000000, 'a')),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  });
}

// A full batch of eight identical-length messages rides the wide lane
// of the AVX2 kernel; each digest must still be the per-message answer.
TEST(Sha256BatchKatTest, FullWideGroupMatchesPerMessageVectors) {
  for_each_kernel([](Sha256Kernel kernel) {
    SCOPED_TRACE(sha256_kernel_name(kernel));
    const Bytes abc = bytes_of("abc");
    std::vector<Bytes> inputs(8, abc);
    for (const Bytes& digest : sha256_batch(inputs)) {
      EXPECT_EQ(
          to_hex(digest),
          "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }
  });
}

// Randomized equivalence soak: 10k inputs of varied lengths (crossing
// every padding and block boundary), batched through each kernel, must
// match the scalar Sha256 class digest-for-digest. Mixed lengths also
// exercise the straggler path next to the wide path in one run.
TEST(Sha256BatchKatTest, RandomizedEquivalenceSoak) {
  Rng rng(0x5a256);
  std::vector<Bytes> inputs;
  inputs.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    // Cluster around the interesting boundaries (0, 55..65, 119..128)
    // but cover the full 0..512 range too.
    std::uint64_t len;
    switch (i % 4) {
      case 0:
        len = rng.uniform_u64(4);
        break;
      case 1:
        len = 52 + rng.uniform_u64(16);
        break;
      case 2:
        len = 116 + rng.uniform_u64(16);
        break;
      default:
        len = rng.uniform_u64(512);
        break;
    }
    inputs.push_back(rng.bytes(static_cast<std::size_t>(len)));
  }

  std::vector<Bytes> reference;
  reference.reserve(inputs.size());
  for (const Bytes& input : inputs) reference.push_back(sha256(input));

  for_each_kernel([&](Sha256Kernel kernel) {
    SCOPED_TRACE(sha256_kernel_name(kernel));
    const std::vector<Bytes> digests = sha256_batch(inputs);
    ASSERT_EQ(digests.size(), reference.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < digests.size(); ++i) {
      if (digests[i] != reference[i]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
  });
}

// The raw pointer/length entry point (the Merkle hot path) against the
// vector convenience wrapper.
TEST(Sha256BatchKatTest, PointerEntryPointMatchesWrapper) {
  Rng rng(0xfeed);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 37; ++i) {
    inputs.push_back(rng.bytes(static_cast<std::size_t>(i * 3)));
  }
  std::vector<const std::uint8_t*> ptrs;
  std::vector<std::size_t> lens;
  for (const Bytes& input : inputs) {
    ptrs.push_back(input.data());
    lens.push_back(input.size());
  }
  std::vector<std::uint8_t> out(inputs.size() * 32);
  sha256_batch(ptrs.data(), lens.data(), inputs.size(), out.data());
  const std::vector<Bytes> expected = sha256_batch(inputs);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Bytes got(out.begin() + static_cast<std::ptrdiff_t>(32 * i),
                    out.begin() + static_cast<std::ptrdiff_t>(32 * (i + 1)));
    EXPECT_EQ(got, expected[i]) << "message " << i;
  }
}

TEST(Sha256BatchKatTest, EmptyBatchIsANoOp) {
  EXPECT_TRUE(sha256_batch(std::vector<Bytes>{}).empty());
  sha256_batch(nullptr, nullptr, 0, nullptr);  // must not crash
}

// A zero-length message may be passed as a null pointer. Nine of them
// fill one wide group plus a straggler, so every kernel builds the
// empty tail without reading through the pointer.
TEST(Sha256BatchKatTest, NullPointerEmptyMessagesEveryKernel) {
  const std::string empty_digest =
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  for_each_kernel([&](Sha256Kernel kernel) {
    SCOPED_TRACE(sha256_kernel_name(kernel));
    const std::vector<const std::uint8_t*> ptrs(9, nullptr);
    const std::vector<std::size_t> lens(9, 0);
    std::vector<std::uint8_t> out(9 * 32);
    sha256_batch(ptrs.data(), lens.data(), ptrs.size(), out.data());
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      const Bytes got(out.begin() + static_cast<std::ptrdiff_t>(32 * i),
                      out.begin() + static_cast<std::ptrdiff_t>(32 * (i + 1)));
      EXPECT_EQ(to_hex(got), empty_digest) << "message " << i;
    }
  });
}

}  // namespace
}  // namespace tlc::crypto
