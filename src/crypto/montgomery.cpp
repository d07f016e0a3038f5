#include "crypto/montgomery.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace tlc::crypto {
namespace {

using DoubleLimb = unsigned __int128;
using Limb = std::uint64_t;

/// -n0^{-1} mod 2^64 for odd n0, by Newton-Hensel lifting: x = n0 is
/// an inverse mod 2^3 (odd squares are 1 mod 8), and every iteration
/// doubles the number of correct low bits, so five reach 96 >= 64.
std::uint64_t neg_inverse_u64(std::uint64_t n0) {
  std::uint64_t x = n0;
  for (int i = 0; i < 5; ++i) {
    x *= 2u - n0 * x;
  }
  return ~x + 1u;
}

/// Packs base-2^32 BigUInt limbs into `k` base-2^64 words.
MontgomeryContext::Rep pack_limbs(const std::vector<std::uint32_t>& limbs32,
                                  std::size_t k) {
  MontgomeryContext::Rep out(k, 0);
  for (std::size_t i = 0; i < limbs32.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs32[i]) << (32 * (i % 2));
  }
  return out;
}

/// Inverse of pack_limbs (trailing zero halves are fine: BigUInt
/// normalizes on construction).
std::vector<std::uint32_t> unpack_limbs(const MontgomeryContext::Rep& limbs64) {
  std::vector<std::uint32_t> out(limbs64.size() * 2);
  for (std::size_t i = 0; i < limbs64.size(); ++i) {
    out[2 * i] = static_cast<std::uint32_t>(limbs64[i]);
    out[2 * i + 1] = static_cast<std::uint32_t>(limbs64[i] >> 32);
  }
  return out;
}

// ---- Fixed-width kernels ----------------------------------------------
//
// The generic loop below runs one serial carry chain in which every
// multiply-accumulate waits for the previous carry. The kernels for the
// limb counts RSA uses (K = 4, 8, 16) first form all K products of a
// row, which are independent, and then add their low halves and their
// high halves in two separate adc chains. `t` lives in a local array
// of compile-time size, and the final subtraction selects by mask.
// The inner loops are unrolled in full: with constant indices the
// compiler keeps the limbs in registers and each chain's carry in the
// flags register. The multiply and reduction row loops stay rolled to
// keep the code small; only the square's triangle of cross products,
// whose rows shrink, is unrolled whole.

/// out = a + b + carry; returns the carry out (0 or 1).
inline unsigned char add_carry(unsigned char carry, Limb a, Limb b,
                               Limb& out) {
#if defined(__x86_64__)
  unsigned long long sum = 0;
  carry = _addcarry_u64(carry, a, b, &sum);
  out = sum;
  return carry;
#else
  const DoubleLimb sum = static_cast<DoubleLimb>(a) + b + carry;
  out = static_cast<Limb>(sum);
  return static_cast<unsigned char>(sum >> 64);
#endif
}

/// out = a - b - borrow; returns the borrow out (0 or 1).
inline unsigned char sub_borrow(unsigned char borrow, Limb a, Limb b,
                                Limb& out) {
#if defined(__x86_64__)
  unsigned long long diff = 0;
  borrow = _subborrow_u64(borrow, a, b, &diff);
  out = diff;
  return borrow;
#else
  const DoubleLimb diff = static_cast<DoubleLimb>(a) - b - borrow;
  out = static_cast<Limb>(diff);
  return static_cast<unsigned char>((diff >> 64) & 1u);
#endif
}

/// lo[j] + hi[j] * 2^64 = x * y[j] for every j < L.
template <std::size_t L>
inline void row_products(Limb x, const Limb* y, Limb (&lo)[L],
                         Limb (&hi)[L]) {
#pragma GCC unroll 32
  for (std::size_t j = 0; j < L; ++j) {
    const DoubleLimb p = static_cast<DoubleLimb>(x) * y[j];
    lo[j] = static_cast<Limb>(p);
    hi[j] = static_cast<Limb>(p >> 64);
  }
}

/// t[0..K+1] += x * y[0..K-1]. The caller guarantees the sum fits in
/// K + 2 limbs, so no carry leaves t[K+1].
template <std::size_t K>
inline void mul_add_row(Limb* t, Limb x, const Limb* y) {
  Limb lo[K] = {};
  Limb hi[K] = {};
  row_products<K>(x, y, lo, hi);
  unsigned char c = 0;
#pragma GCC unroll 32
  for (std::size_t j = 0; j < K; ++j) c = add_carry(c, t[j], lo[j], t[j]);
  c = add_carry(c, t[K], 0, t[K]);
  t[K + 1] += c;
  c = 0;
#pragma GCC unroll 32
  for (std::size_t j = 0; j < K; ++j) {
    c = add_carry(c, t[j + 1], hi[j], t[j + 1]);
  }
  t[K + 1] += c;
}

/// out = t - n if t >= n, else t, for t = t[0..K] < 2n. Both candidates
/// are computed and one is kept by mask, so no branch depends on t.
template <std::size_t K>
inline void final_subtract(const Limb* t, const Limb* n, Limb* out) {
  Limb diff[K] = {};
  unsigned char borrow = 0;
#pragma GCC unroll 32
  for (std::size_t j = 0; j < K; ++j) {
    borrow = sub_borrow(borrow, t[j], n[j], diff[j]);
  }
  Limb top = 0;
  borrow = sub_borrow(borrow, t[K], 0, top);
  const Limb keep_t = Limb{0} - borrow;  // all ones when t < n
#pragma GCC unroll 32
  for (std::size_t j = 0; j < K; ++j) {
    out[j] = (t[j] & keep_t) | (diff[j] & ~keep_t);
  }
}

/// One Montgomery reduction row on the window t[0..K+1]: adds m * n
/// with m = t[0] * n' mod 2^64, which clears t[0], and shifts the
/// window down one limb. Callers keep t below 2^64 * (R + n), so the
/// sum fits the window.
template <std::size_t K>
inline void reduce_row(Limb* t, const Limb* n, Limb n_prime) {
  mul_add_row<K>(t, t[0] * n_prime, n);
#pragma GCC unroll 32
  for (std::size_t j = 0; j <= K; ++j) t[j] = t[j + 1];
  t[K + 1] = 0;
}

/// CIOS Montgomery product over exactly K limbs: out = a * b * R^-1
/// mod n. Every read of `a` and `b` precedes the write of `out`, so
/// `out` may alias either.
template <std::size_t K>
void mont_mul(const Limb* a, const Limb* b, const Limb* n, Limb n_prime,
              Limb* out) {
  // Invariant at the top of each row: t < 2n, so t[K + 1] == 0.
  Limb t[K + 2] = {};
  for (std::size_t i = 0; i < K; ++i) {
    mul_add_row<K>(t, a[i], b);
    reduce_row<K>(t, n, n_prime);
  }
  final_subtract<K>(t, n, out);
}

/// Montgomery square over exactly K limbs: out = a^2 * R^-1 mod n.
/// Each cross product a[i] * a[j] (i < j) is formed once and their sum
/// doubled, then the diagonal a[i]^2 is added. `out` may alias `a`.
template <std::size_t K>
void mont_square(const Limb* a, const Limb* n, Limb n_prime, Limb* out) {
  Limb sq[2 * K] = {};
  Limb lo[K] = {};
  Limb hi[K] = {};
  // Cross products, row i at limb 2i + 1. After row i the partial sum
  // is below 2^(64 (i + 1 + K)), so sq[i + K] is still zero when row i
  // starts and no carry leaves it.
#pragma GCC unroll 32
  for (std::size_t i = 0; i + 1 < K; ++i) {
    const std::size_t len = K - 1 - i;
#pragma GCC unroll 32
    for (std::size_t j = 0; j < len; ++j) {
      const DoubleLimb p = static_cast<DoubleLimb>(a[i]) * a[i + 1 + j];
      lo[j] = static_cast<Limb>(p);
      hi[j] = static_cast<Limb>(p >> 64);
    }
    Limb* row = sq + 2 * i + 1;
    unsigned char c = 0;
#pragma GCC unroll 32
    for (std::size_t j = 0; j < len; ++j) {
      c = add_carry(c, row[j], lo[j], row[j]);
    }
    row[len] = c;
    c = 0;
#pragma GCC unroll 32
    for (std::size_t j = 0; j < len; ++j) {
      c = add_carry(c, row[j + 1], hi[j], row[j + 1]);
    }
  }
  // Double the cross products (their sum is below a^2 / 2) and add the
  // diagonal in the same chain.
  unsigned char c = 0;
  Limb shifted_out = 0;
#pragma GCC unroll 32
  for (std::size_t i = 0; i < K; ++i) {
    const DoubleLimb p = static_cast<DoubleLimb>(a[i]) * a[i];
    const Limb even = (sq[2 * i] << 1) | shifted_out;
    const Limb odd = (sq[2 * i + 1] << 1) | (sq[2 * i] >> 63);
    shifted_out = sq[2 * i + 1] >> 63;
    c = add_carry(c, even, static_cast<Limb>(p), sq[2 * i]);
    c = add_carry(c, odd, static_cast<Limb>(p >> 64), sq[2 * i + 1]);
  }
  // Reduce the low half L only (sq = L + H R). The rows' carries stay
  // deferred in the window's top limbs instead of rippling through H,
  // which is added once afterwards: (L + M n) / R + H = (sq + M n) / R,
  // which is below 2n, so no carry leaves t[K].
  Limb t[K + 2] = {};
  std::copy(sq, sq + K, t);
  for (std::size_t i = 0; i < K; ++i) reduce_row<K>(t, n, n_prime);
  c = 0;
#pragma GCC unroll 32
  for (std::size_t j = 0; j < K; ++j) c = add_carry(c, t[j], sq[K + j], t[j]);
  t[K] += c;
  final_subtract<K>(t, n, out);
}

/// The width-generic CIOS loop: the kernel for every limb count
/// without a fixed-width instantiation.
void mont_mul_generic(const Limb* a, const Limb* b, const Limb* n,
                      Limb n_prime, std::size_t k, Limb* out,
                      MontgomeryContext::Rep& scratch) {
  // CIOS (Koc/Acar/Kaliski): interleave the multiply limbs with the
  // reduction limbs so the running total t never exceeds k + 2 limbs.
  scratch.assign(k + 2, 0);
  Limb* t = scratch.data();
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const DoubleLimb cur =
          t[j] + static_cast<DoubleLimb>(ai) * b[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    const DoubleLimb top = static_cast<DoubleLimb>(t[k]) + carry;
    t[k] = static_cast<Limb>(top);
    t[k + 1] = static_cast<Limb>(top >> 64);

    const Limb m = t[0] * n_prime;
    DoubleLimb cur = t[0] + static_cast<DoubleLimb>(m) * n[0];
    carry = static_cast<Limb>(cur >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      cur = t[j] + static_cast<DoubleLimb>(m) * n[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    cur = static_cast<DoubleLimb>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(cur);
    t[k] = t[k + 1] + static_cast<Limb>(cur >> 64);
    t[k + 1] = 0;
  }

  // t is in [0, 2n): one conditional subtraction finishes the reduce.
  bool subtract = t[k] != 0;
  if (!subtract) {
    subtract = true;
    for (std::size_t i = k; i-- > 0;) {
      if (t[i] != n[i]) {
        subtract = t[i] > n[i];
        break;
      }
    }
  }
  if (subtract) {
    Limb borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const DoubleLimb diff = static_cast<DoubleLimb>(t[i]) - n[i] - borrow;
      out[i] = static_cast<Limb>(diff);
      borrow = static_cast<Limb>(diff >> 64) & 1u;
    }
  } else {
    std::copy(t, t + k, out);
  }
}

}  // namespace

Expected<MontgomeryContext> MontgomeryContext::create(const BigUInt& modulus) {
  if (modulus.is_zero() || !modulus.is_odd()) {
    return Err("montgomery: modulus must be odd and non-zero");
  }
  if (modulus == BigUInt{1}) {
    return Err("montgomery: modulus must exceed 1");
  }
  MontgomeryContext ctx;
  ctx.modulus_ = modulus;
  const std::size_t k = (modulus.limbs().size() + 1) / 2;
  ctx.n_ = pack_limbs(modulus.limbs(), k);
  ctx.n_prime_ = neg_inverse_u64(ctx.n_[0]);
  // Fixed-width kernels for the limb counts RSA uses: 4 and 8 are the
  // CRT halves of RSA-512 and RSA-1024, 16 is the RSA-1024 modulus.
  // A dedicated square pays off from 8 limbs up; at 4 it measured no
  // faster than mul.
  switch (k) {
    case 4:
      ctx.mul_kernel_ = &mont_mul<4>;
      break;
    case 8:
      ctx.mul_kernel_ = &mont_mul<8>;
      ctx.square_kernel_ = &mont_square<8>;
      break;
    case 16:
      ctx.mul_kernel_ = &mont_mul<16>;
      ctx.square_kernel_ = &mont_square<16>;
      break;
    default:
      break;
  }
  // R = 2^(64k). One Algorithm D division each for R mod n and
  // R^2 mod n at construction buys a division-free inner loop forever.
  const BigUInt r = (BigUInt{1} << (64 * k)) % modulus;
  const BigUInt r2 = (r * r) % modulus;
  ctx.r_mod_n_ = pack_limbs(r.limbs(), k);
  ctx.r2_mod_n_ = pack_limbs(r2.limbs(), k);
  return ctx;
}

MontgomeryContext::Rep MontgomeryContext::pack(const BigUInt& x) const {
  assert(x < modulus_);
  return pack_limbs(x.limbs(), n_.size());
}

void MontgomeryContext::mul(const Rep& a, const Rep& b, Rep& out,
                            Rep& scratch) const {
  const std::size_t k = n_.size();
  assert(a.size() == k && b.size() == k);
  out.resize(k);  // no reallocation when `out` aliases `a` or `b`
  if (mul_kernel_ != nullptr) {
    mul_kernel_(a.data(), b.data(), n_.data(), n_prime_, out.data());
  } else {
    mont_mul_generic(a.data(), b.data(), n_.data(), n_prime_, k, out.data(),
                     scratch);
  }
}

void MontgomeryContext::square(const Rep& a, Rep& out, Rep& scratch) const {
  if (square_kernel_ == nullptr) {
    mul(a, a, out, scratch);
    return;
  }
  assert(a.size() == n_.size());
  out.resize(n_.size());
  square_kernel_(a.data(), n_.data(), n_prime_, out.data());
}

MontgomeryContext::Rep MontgomeryContext::to_mont(const BigUInt& x) const {
  const Rep xr = (x < modulus_) ? pack(x) : pack(x % modulus_);
  Rep out;
  Rep scratch;
  mul(xr, r2_mod_n_, out, scratch);
  return out;
}

BigUInt MontgomeryContext::from_mont(const Rep& a) const {
  Rep one_literal(n_.size(), 0);
  one_literal[0] = 1;
  Rep out;
  Rep scratch;
  mul(a, one_literal, out, scratch);
  return BigUInt::from_limbs(unpack_limbs(out));
}

BigUInt MontgomeryContext::mod_exp(const BigUInt& base,
                                   const BigUInt& exponent) const {
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) return BigUInt{1};  // modulus > 1, so 1 mod n == 1
  const Rep base_mont = to_mont(base);

  // Window width by exponent size: squarings dominate either way, the
  // window only trades table-build multiplies against scan multiplies.
  std::size_t w = 1;
  if (bits >= 512) {
    w = 5;
  } else if (bits >= 128) {
    w = 4;
  } else if (bits >= 24) {
    w = 3;
  } else if (bits >= 8) {
    w = 2;
  }

  Rep scratch;
  std::vector<Rep> table(std::size_t{1} << w);
  table[0] = one();
  table[1] = base_mont;
  for (std::size_t i = 2; i < table.size(); ++i) {
    mul(table[i - 1], base_mont, table[i], scratch);
  }

  const std::size_t windows = (bits + w - 1) / w;
  Rep acc;
  for (std::size_t win = windows; win-- > 0;) {
    std::size_t digit = 0;
    for (std::size_t bit = w; bit-- > 0;) {
      digit = (digit << 1) | (exponent.bit(win * w + bit) ? 1u : 0u);
    }
    if (win + 1 == windows) {
      // Top window holds the exponent's leading set bit, so digit != 0.
      acc = table[digit];
      continue;
    }
    for (std::size_t s = 0; s < w; ++s) square(acc, acc, scratch);
    if (digit != 0) mul(acc, table[digit], acc, scratch);
  }
  return from_mont(acc);
}

BigUInt MontgomeryContext::mod_exp_sparse(const BigUInt& base,
                                          const BigUInt& exponent) const {
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) return BigUInt{1};
  const Rep base_mont = to_mont(base);
  Rep acc = base_mont;
  Rep scratch;
  for (std::size_t i = bits - 1; i-- > 0;) {
    square(acc, acc, scratch);
    if (exponent.bit(i)) mul(acc, base_mont, acc, scratch);
  }
  return from_mont(acc);
}

}  // namespace tlc::crypto
