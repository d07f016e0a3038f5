#include "crypto/montgomery.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/bignum.hpp"
#include "util/rng.hpp"

namespace tlc::crypto {
namespace {

/// `x` (< 2^(64k)) as exactly `k` base-2^64 limbs, least significant
/// first: the layout of MontgomeryContext::Rep.
MontgomeryContext::Rep to_rep(const BigUInt& x, std::size_t k) {
  MontgomeryContext::Rep out(k, 0);
  const std::vector<std::uint32_t>& limbs = x.limbs();
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs[i]) << (32 * (i % 2));
  }
  return out;
}

TEST(MontgomeryTest, RejectsEvenAndTrivialModuli) {
  EXPECT_FALSE(MontgomeryContext::create(BigUInt{}));
  EXPECT_FALSE(MontgomeryContext::create(BigUInt{1}));
  EXPECT_FALSE(MontgomeryContext::create(BigUInt{65536}));
  EXPECT_TRUE(MontgomeryContext::create(BigUInt{65537}));
}

TEST(MontgomeryTest, RoundTripIsIdentity) {
  const BigUInt n{1000003};  // odd prime
  auto ctx = MontgomeryContext::create(n);
  ASSERT_TRUE(ctx);
  for (std::uint64_t v : {0ull, 1ull, 2ull, 65537ull, 999999ull}) {
    const BigUInt x{v};
    EXPECT_EQ(ctx->from_mont(ctx->to_mont(x)), x) << v;
  }
  // Values >= n reduce on entry.
  EXPECT_EQ(ctx->from_mont(ctx->to_mont(BigUInt{2000007})), BigUInt{1});
}

TEST(MontgomeryTest, MulMatchesSchoolbook) {
  const BigUInt n{999999937};
  auto ctx = MontgomeryContext::create(n);
  ASSERT_TRUE(ctx);
  const BigUInt a{123456789};
  const BigUInt b{987654321};
  MontgomeryContext::Rep out;
  MontgomeryContext::Rep scratch;
  ctx->mul(ctx->to_mont(a), ctx->to_mont(b), out, scratch);
  EXPECT_EQ(ctx->from_mont(out), (a * b) % n);
}

TEST(MontgomeryTest, MulAllowsAliasedOutput) {
  const BigUInt n{999999937};
  auto ctx = MontgomeryContext::create(n);
  ASSERT_TRUE(ctx);
  const BigUInt a{123456789};
  MontgomeryContext::Rep acc = ctx->to_mont(a);
  MontgomeryContext::Rep scratch;
  ctx->mul(acc, acc, acc, scratch);  // out aliases both inputs
  EXPECT_EQ(ctx->from_mont(acc), (a * a) % n);
}

// Known-answer: 2^90 mod (2^61 - 1), a Mersenne prime. 2^90 = 2^29 * 2^61
// and 2^61 ≡ 1, so the answer is 2^29.
TEST(MontgomeryTest, KnownAnswerMersenne) {
  const BigUInt n = (BigUInt{1} << 61) - BigUInt{1};
  auto ctx = MontgomeryContext::create(n);
  ASSERT_TRUE(ctx);
  EXPECT_EQ(ctx->mod_exp(BigUInt{2}, BigUInt{90}), BigUInt{1} << 29);
  EXPECT_EQ(ctx->mod_exp_sparse(BigUInt{2}, BigUInt{90}), BigUInt{1} << 29);
}

// Known-answer: Fermat's little theorem at a 128-bit prime.
TEST(MontgomeryTest, KnownAnswerFermat) {
  // 2^127 - 1 is prime (Mersenne).
  const BigUInt p = (BigUInt{1} << 127) - BigUInt{1};
  auto ctx = MontgomeryContext::create(p);
  ASSERT_TRUE(ctx);
  const BigUInt a{0xdeadbeefcafebabeull};
  EXPECT_EQ(ctx->mod_exp(a, p - BigUInt{1}), BigUInt{1});
}

TEST(MontgomeryTest, ZeroAndOneExponents) {
  const BigUInt n{1000003};
  auto ctx = MontgomeryContext::create(n);
  ASSERT_TRUE(ctx);
  const BigUInt base{424242};
  EXPECT_EQ(ctx->mod_exp(base, BigUInt{}), BigUInt{1});
  EXPECT_EQ(ctx->mod_exp_sparse(base, BigUInt{}), BigUInt{1});
  EXPECT_EQ(ctx->mod_exp(base, BigUInt{1}), base);
  EXPECT_EQ(ctx->mod_exp_sparse(base, BigUInt{1}), base);
  EXPECT_EQ(ctx->mod_exp(BigUInt{}, BigUInt{5}), BigUInt{});
}

// The dispatch in BigUInt::mod_exp must agree with the retained
// schoolbook reference on odd moduli of every shape.
TEST(MontgomeryTest, ModExpMatchesSlowReference) {
  Rng rng(20260806);
  for (std::size_t bits : {33u, 64u, 100u, 129u, 256u}) {
    for (int i = 0; i < 10; ++i) {
      BigUInt n = BigUInt::random_with_bits(bits, rng);
      if (!n.is_odd()) n = n + BigUInt{1};
      const BigUInt base = BigUInt::random_with_bits(bits + 7, rng);
      const BigUInt exp = BigUInt::random_with_bits(bits / 2 + 1, rng);
      EXPECT_EQ(base.mod_exp(exp, n), base.mod_exp_slow(exp, n))
          << bits << " bits, case " << i;
    }
  }
}

// Randomized cross-check at RSA sizes: >= 1000 Montgomery products
// checked against schoolbook multiply-then-reduce over 512- and
// 1024-bit odd moduli.
TEST(MontgomeryTest, RandomizedCrossCheckRsaSizes) {
  Rng rng(987654321);
  std::size_t cases = 0;
  for (std::size_t bits : {512u, 1024u}) {
    for (int m = 0; m < 4; ++m) {
      BigUInt n = BigUInt::random_with_bits(bits, rng);
      if (!n.is_odd()) n = n + BigUInt{1};
      auto ctx = MontgomeryContext::create(n);
      ASSERT_TRUE(ctx);
      MontgomeryContext::Rep out;
      MontgomeryContext::Rep scratch;
      for (int i = 0; i < 130; ++i) {
        const BigUInt a = BigUInt::random_below(n, rng);
        const BigUInt b = BigUInt::random_below(n, rng);
        ctx->mul(ctx->to_mont(a), ctx->to_mont(b), out, scratch);
        ASSERT_EQ(ctx->from_mont(out), (a * b) % n)
            << bits << "-bit modulus, case " << i;
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 1000u);
}

// Exponentiation cross-check at RSA size, sparse and windowed paths.
TEST(MontgomeryTest, ExponentiationCrossCheckRsaSizes) {
  Rng rng(1357924680);
  BigUInt n = BigUInt::random_with_bits(512, rng);
  if (!n.is_odd()) n = n + BigUInt{1};
  auto ctx = MontgomeryContext::create(n);
  ASSERT_TRUE(ctx);
  for (int i = 0; i < 8; ++i) {
    const BigUInt base = BigUInt::random_below(n, rng);
    const BigUInt exp = BigUInt::random_with_bits(64, rng);
    const BigUInt want = base.mod_exp_slow(exp, n);
    EXPECT_EQ(ctx->mod_exp(base, exp), want) << "windowed, case " << i;
    EXPECT_EQ(ctx->mod_exp_sparse(base, exp), want) << "sparse, case " << i;
  }
  // e = 65537, the exponent the verify path actually uses.
  const BigUInt e{65537};
  const BigUInt s = BigUInt::random_below(n, rng);
  EXPECT_EQ(ctx->mod_exp_sparse(s, e), s.mod_exp_slow(e, n));
}

// Differential check of the raw Montgomery product at every limb width
// from 1 to 17, which covers each fixed-width kernel (4, 8 and 16
// limbs), its neighbours and the width-generic loop. The oracle is
// BigUInt: mul(a, b) must equal a * b * R^-1 mod n exactly, limb for
// limb, so a result in [n, 2n) fails too.
TEST(MontgomeryTest, KernelsMatchBigUIntAtEveryWidth) {
  Rng rng(20261017);
  for (std::size_t k = 1; k <= 17; ++k) {
    const BigUInt r = BigUInt{1} << (64 * k);
    std::vector<std::pair<std::string, BigUInt>> moduli;
    for (int i = 0; i < 3; ++i) {
      // Random odd moduli of exactly k limbs, the top limb full or short.
      const std::size_t bits = 64 * k - (i == 0 ? 0 : rng.next_u64() % 63);
      BigUInt n = BigUInt::random_with_bits(bits, rng);
      if (!n.is_odd()) n = n + BigUInt{1};
      moduli.emplace_back("random", n);
    }
    // Carry stress: every limb all ones, so the final subtraction and
    // every row's top carry fire as often as they can.
    moduli.emplace_back("all-ones", r - BigUInt{1});
    if (k > 1) {
      // A top limb of exactly 1: the smallest modulus of k limbs, the far
      // end from the all-ones one.
      BigUInt low = BigUInt::random_with_bits(64 * (k - 1) - 1, rng);
      if (!low.is_odd()) low = low + BigUInt{1};
      moduli.emplace_back("top-limb-1", (BigUInt{1} << (64 * (k - 1))) + low);
    }
    for (const auto& [shape, n] : moduli) {
      SCOPED_TRACE(std::to_string(k) + " limbs, " + shape + " modulus " +
                   n.to_hex());
      auto ctx = MontgomeryContext::create(n);
      ASSERT_TRUE(ctx);
      ASSERT_EQ(ctx->limb_count(), k);
      auto r_inv = (r % n).mod_inverse(n);
      ASSERT_TRUE(r_inv);
      std::vector<BigUInt> operands = {BigUInt{}, BigUInt{1}, n - BigUInt{1}};
      for (int i = 0; i < 4; ++i) {
        operands.push_back(BigUInt::random_below(n, rng));
        // Just below n with random low half: with the all-ones modulus
        // these drive a row's top limb to 2^64 - 1 before its reduction
        // carry arrives.
        const BigUInt low =
            BigUInt::random_below(n, rng) >> (n.bit_length() / 2);
        operands.push_back(n - BigUInt{1} - low);
      }
      MontgomeryContext::Rep out;
      MontgomeryContext::Rep scratch;
      for (const BigUInt& a : operands) {
        const MontgomeryContext::Rep ar = to_rep(a, k);
        const MontgomeryContext::Rep want_sq = to_rep((a * a * *r_inv) % n, k);
        ctx->square(ar, out, scratch);
        ASSERT_EQ(out, want_sq) << "square a=" << a.to_hex();
        MontgomeryContext::Rep aliased = ar;
        ctx->square(aliased, aliased, scratch);
        ASSERT_EQ(aliased, want_sq) << "aliased square a=" << a.to_hex();
        for (const BigUInt& b : operands) {
          const MontgomeryContext::Rep br = to_rep(b, k);
          const MontgomeryContext::Rep want = to_rep((a * b * *r_inv) % n, k);
          ctx->mul(ar, br, out, scratch);
          ASSERT_EQ(out, want) << "mul a=" << a.to_hex() << " b=" << b.to_hex();
          MontgomeryContext::Rep out_is_a = ar;
          ctx->mul(out_is_a, br, out_is_a, scratch);
          ASSERT_EQ(out_is_a, want) << "out aliases a";
          MontgomeryContext::Rep out_is_b = br;
          ctx->mul(ar, out_is_b, out_is_b, scratch);
          ASSERT_EQ(out_is_b, want) << "out aliases b";
        }
        MontgomeryContext::Rep all_three = ar;
        ctx->mul(all_three, all_three, all_three, scratch);
        ASSERT_EQ(all_three, want_sq) << "out aliases a and b";
      }
    }
  }
}

// The RSA-512 CRT half: 256-bit moduli run the 4-limb kernel, whose
// squares go through mul.
TEST(MontgomeryTest, ModExpMatchesSlowReferenceAt256Bits) {
  Rng rng(256256);
  for (int m = 0; m < 4; ++m) {
    BigUInt n = BigUInt::random_with_bits(256, rng);
    if (!n.is_odd()) n = n + BigUInt{1};
    auto ctx = MontgomeryContext::create(n);
    ASSERT_TRUE(ctx);
    ASSERT_EQ(ctx->limb_count(), 4u);
    for (int i = 0; i < 4; ++i) {
      const BigUInt base = BigUInt::random_below(n, rng);
      const BigUInt exp = BigUInt::random_with_bits(256 - 8 * i, rng);
      const BigUInt want = base.mod_exp_slow(exp, n);
      EXPECT_EQ(ctx->mod_exp(base, exp), want) << "windowed, modulus " << m;
      EXPECT_EQ(ctx->mod_exp_sparse(base, exp), want)
          << "sparse, modulus " << m;
    }
  }
}

}  // namespace
}  // namespace tlc::crypto
