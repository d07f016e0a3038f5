// Montgomery-form modular arithmetic: the division-free fast path
// behind RSA sign/verify and Miller-Rabin (DESIGN.md §10).
//
// A `MontgomeryContext` precomputes, per odd modulus n: the limb vector
// of n, n' = -n^{-1} mod 2^64, and R^2 mod n (R = 2^(64k) for k limbs).
// Internally the context packs BigUInt's base-2^32 limbs into base-2^64
// words so every CIOS step is one 64x64->128 hardware multiply; with
// those, Montgomery multiplication replaces every multiply-then-divide
// of the schoolbook path with one fused interleaved pass. The limb
// counts RSA uses (4, 8 and 16: the RSA-512 and RSA-1024 CRT halves and
// the RSA-1024 modulus) run fixed-width kernels chosen once at `create`,
// with a dedicated squaring from 8 limbs up; every other width runs
// one width-generic loop. Modular exponentiation becomes:
//
//   * `mod_exp`        — fixed-window (w up to 5) for dense private
//                        exponents (CRT halves d_p / d_q, Miller-Rabin
//                        witnesses);
//   * `mod_exp_sparse` — plain left-to-right square-and-multiply, which
//                        is optimal for sparse public exponents
//                        (e = 65537 costs 16 squares + 1 multiply; a
//                        window table would cost 30 multiplies just to
//                        build).
//
// Contexts are immutable after construction, so a context cached inside
// a key (rsa.hpp) is safe to share across threads — the fleet hands
// `RsaKeyCache` entries to every worker concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/bignum.hpp"
#include "util/expected.hpp"

namespace tlc::crypto {

class MontgomeryContext {
 public:
  /// A residue in Montgomery form: exactly `limb_count()` base-2^64
  /// limbs, least significant first. Buffers are reused across the
  /// exponentiation inner loops — no per-multiply allocation.
  using Rep = std::vector<std::uint64_t>;

  /// Builds the context for `modulus`; the modulus must be odd and > 1
  /// (Montgomery reduction needs gcd(n, 2^64) == 1).
  [[nodiscard]] static Expected<MontgomeryContext> create(
      const BigUInt& modulus);

  [[nodiscard]] const BigUInt& modulus() const { return modulus_; }
  [[nodiscard]] std::size_t limb_count() const { return n_.size(); }

  /// x * R mod n. `x` is reduced mod n first if needed.
  [[nodiscard]] Rep to_mont(const BigUInt& x) const;
  /// a * R^-1 mod n (leaves Montgomery form).
  [[nodiscard]] BigUInt from_mont(const Rep& a) const;

  /// out = a * b * R^-1 mod n (CIOS), for a, b < n; the result is the
  /// canonical residue in [0, n) whichever kernel computes it.
  /// `scratch` must outlive the call and is resized as needed (only the
  /// width-generic kernel uses it); passing the same vector to
  /// consecutive calls amortizes its allocation. `out` may alias `a`
  /// or `b`.
  void mul(const Rep& a, const Rep& b, Rep& out, Rep& scratch) const;
  /// out = a^2 * R^-1 mod n. Same contract as `mul`.
  void square(const Rep& a, Rep& out, Rep& scratch) const;

  /// base^exponent mod n, fixed-window over Montgomery multiplication.
  /// Matches BigUInt::mod_exp_slow bit-for-bit on every input.
  [[nodiscard]] BigUInt mod_exp(const BigUInt& base,
                                const BigUInt& exponent) const;

  /// base^exponent mod n, left-to-right square-and-multiply: multiplies
  /// only on set exponent bits, so it wins for sparse exponents like
  /// the RSA public exponent 65537.
  [[nodiscard]] BigUInt mod_exp_sparse(const BigUInt& base,
                                       const BigUInt& exponent) const;

 private:
  MontgomeryContext() = default;

  /// Montgomery representation of 1 (= R mod n).
  [[nodiscard]] const Rep& one() const { return r_mod_n_; }

  /// Packs a value known to be < n into `limb_count()` base-2^64 limbs.
  [[nodiscard]] Rep pack(const BigUInt& x) const;

  /// Fixed-width kernels over raw limbs (montgomery.cpp), chosen once
  /// from the limb count in `create`.
  using MulKernel = void (*)(const std::uint64_t* a, const std::uint64_t* b,
                             const std::uint64_t* n, std::uint64_t n_prime,
                             std::uint64_t* out);
  using SquareKernel = void (*)(const std::uint64_t* a,
                                const std::uint64_t* n,
                                std::uint64_t n_prime, std::uint64_t* out);

  BigUInt modulus_;
  std::vector<std::uint64_t> n_;  // modulus limbs (base 2^64), length k
  std::uint64_t n_prime_ = 0;     // -n^{-1} mod 2^64
  Rep r_mod_n_;                   // R mod n (Montgomery form of 1)
  Rep r2_mod_n_;                  // R^2 mod n (to_mont multiplier)
  MulKernel mul_kernel_ = nullptr;        // null: width-generic loop
  SquareKernel square_kernel_ = nullptr;  // null: square via mul
};

}  // namespace tlc::crypto
