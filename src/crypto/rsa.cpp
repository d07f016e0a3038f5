#include "crypto/rsa.hpp"

#include <cassert>
#include <utility>

#include "crypto/prime.hpp"
#include "crypto/sha256.hpp"
#include "util/serde.hpp"

namespace tlc::crypto {
namespace {

// DER-encoded DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
constexpr std::uint8_t kSha256DigestInfoPrefix[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message) into `em_len` bytes:
/// 0x00 0x01 FF..FF 0x00 DigestInfo || H.
Expected<Bytes> emsa_pkcs1_encode(const Bytes& message, std::size_t em_len) {
  const Bytes digest = sha256(message);
  const std::size_t t_len = sizeof(kSha256DigestInfoPrefix) + digest.size();
  if (em_len < t_len + 11) {
    return Err("rsa: modulus too small for SHA-256 DigestInfo");
  }
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t_len - 3, 0xff);
  em.push_back(0x00);
  em.insert(em.end(), std::begin(kSha256DigestInfoPrefix),
            std::end(kSha256DigestInfoPrefix));
  em.insert(em.end(), digest.begin(), digest.end());
  assert(em.size() == em_len);
  return em;
}

/// Builds a shared Montgomery context for `modulus` into `slot` if the
/// modulus supports one (odd, > 1) and the slot is still empty.
void build_context(const BigUInt& modulus,
                   std::shared_ptr<const MontgomeryContext>& slot) {
  if (slot || modulus.is_zero() || !modulus.is_odd()) return;
  auto ctx = MontgomeryContext::create(modulus);
  if (ctx) {
    slot = std::make_shared<const MontgomeryContext>(std::move(*ctx));
  }
}

}  // namespace

void RsaPublicKey::precompute() { build_context(n, mont_n); }

void RsaPrivateKey::precompute() {
  build_context(p, mont_p);
  build_context(q, mont_q);
  build_context(n, mont_n);
}

// tlclint: codec(rsa_public_key, encode)
Bytes RsaPublicKey::serialize() const {
  ByteWriter writer;
  writer.blob(n.to_bytes());
  writer.blob(e.to_bytes());
  return writer.take();
}

// tlclint: codec(rsa_public_key, decode)
Expected<RsaPublicKey> RsaPublicKey::deserialize(const Bytes& data) {
  ByteReader reader(data);
  const Bytes n_bytes = reader.blob();
  const Bytes e_bytes = reader.blob();
  if (!reader.ok()) return Err("rsa pubkey: " + reader.error());
  if (!reader.exhausted()) return Err("rsa pubkey: trailing bytes");
  RsaPublicKey key;
  key.n = BigUInt::from_bytes(n_bytes);
  key.e = BigUInt::from_bytes(e_bytes);
  if (key.n.is_zero() || key.e.is_zero()) {
    return Err("rsa pubkey: zero modulus or exponent");
  }
  // Deserialization happens at key-pinning time, never per message —
  // pay for the Montgomery context here so every later verify is free.
  key.precompute();
  return key;
}

Bytes RsaPublicKey::fingerprint() const { return sha256(serialize()); }

std::string RsaPublicKey::fingerprint_hex() const {
  const std::string full = to_hex(fingerprint());
  return full.substr(0, 16);
}

BigUInt RsaPrivateKey::private_op(const BigUInt& m) const {
  if (p.is_zero() || q.is_zero()) {
    // No CRT parameters: full-size exponentiation (cached context when
    // the key was precomputed; mod_exp builds its own otherwise).
    return mont_n ? mont_n->mod_exp(m, d) : m.mod_exp(d, n);
  }
  // CRT: two half-size fixed-window exponentiations (≈4x the work of
  // one at half the width each), through the cached per-prime contexts.
  const BigUInt m1 = mont_p ? mont_p->mod_exp(m, d_p) : (m % p).mod_exp(d_p, p);
  const BigUInt m2 = mont_q ? mont_q->mod_exp(m, d_q) : (m % q).mod_exp(d_q, q);
  // Garner's recombination: h = q_inv * (m1 - m2) mod p (lift m2 into
  // p's residue ring first).
  const BigUInt m2_mod_p = m2 % p;
  BigUInt diff;
  if (m1 >= m2_mod_p) {
    diff = m1 - m2_mod_p;
  } else {
    diff = (m1 + p) - m2_mod_p;
  }
  BigUInt product;
  BigUInt::mul_into(q_inv, diff, product);
  const BigUInt h = product % p;
  BigUInt::mul_into(q, h, product);
  return m2 + product;
}

RsaKeyPair rsa_generate(std::size_t bits, Rng& rng) {
  assert(bits >= 512 && "modulus must be at least 512 bits");
  const BigUInt e{65537};
  const BigUInt one{1};

  for (;;) {
    const std::size_t half = bits / 2;
    BigUInt p = generate_prime(half, rng);
    BigUInt q = generate_prime(bits - half, rng);
    if (p == q) continue;
    if (p < q) std::swap(p, q);  // CRT convention: p > q

    const BigUInt n = p * q;
    if (n.bit_length() != bits) continue;

    const BigUInt p_minus_1 = p - one;
    const BigUInt q_minus_1 = q - one;
    // lambda(n) = lcm(p-1, q-1)
    const BigUInt g = BigUInt::gcd(p_minus_1, q_minus_1);
    const BigUInt lambda = (p_minus_1 / g) * q_minus_1;

    auto d = e.mod_inverse(lambda);
    if (!d) continue;  // gcd(e, lambda) != 1; extremely unlikely

    RsaKeyPair pair;
    pair.public_key.n = n;
    pair.public_key.e = e;
    pair.private_key.n = n;
    pair.private_key.d = *d;
    pair.private_key.p = p;
    pair.private_key.q = q;
    pair.private_key.d_p = *d % p_minus_1;
    pair.private_key.d_q = *d % q_minus_1;
    auto q_inv = q.mod_inverse(p);
    assert(q_inv);  // p, q distinct primes
    pair.private_key.q_inv = *q_inv;
    // Warm the Montgomery caches once here so every sign/verify this
    // key ever performs starts division-free (RsaKeyCache slots are
    // generated once and then shared read-only across fleet workers).
    pair.public_key.precompute();
    pair.private_key.precompute();
    return pair;
  }
}

Bytes rsa_sign(const RsaPrivateKey& key, const Bytes& message) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  auto em = emsa_pkcs1_encode(message, k);
  assert(em && "modulus below minimum signing size");
  const BigUInt m = BigUInt::from_bytes(*em);
  const BigUInt s = key.private_op(m);
  auto padded = s.to_bytes_padded(k);
  assert(padded && "RSA result wider than the modulus");
  return std::move(*padded);
}

Status rsa_verify(const RsaPublicKey& key, const Bytes& message,
                  const Bytes& signature) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) {
    return Err("rsa_verify: signature length mismatch");
  }
  const BigUInt s = BigUInt::from_bytes(signature);
  if (s >= key.n) {
    return Err("rsa_verify: signature out of range");
  }
  // Public exponents are sparse (e = 65537 has two set bits), so the
  // square-always/multiply-on-set-bits path beats a window table; an
  // uncached key builds a throwaway context (two divisions) rather
  // than falling back to division-per-step arithmetic.
  BigUInt m;
  if (key.mont_n) {
    m = key.mont_n->mod_exp_sparse(s, key.e);
  } else if (auto ctx = MontgomeryContext::create(key.n)) {
    m = ctx->mod_exp_sparse(s, key.e);
  } else {
    m = s.mod_exp(key.e, key.n);
  }
  auto recovered = m.to_bytes_padded(k);
  if (!recovered) return Err("rsa_verify: " + recovered.error());
  auto expected = emsa_pkcs1_encode(message, k);
  if (!expected) return Err(expected.error());
  if (!constant_time_equal(*recovered, *expected)) {
    return Err("rsa_verify: digest mismatch");
  }
  return Status::Ok();
}

Expected<Bytes> rsa_encrypt(const RsaPublicKey& key, const Bytes& payload,
                            Rng& rng) {
  const std::size_t k = key.modulus_bytes();
  if (payload.size() + 11 > k) {
    return Err("rsa_encrypt: payload too long for modulus");
  }
  // EME-PKCS1-v1_5: 0x00 0x02 PS(nonzero random) 0x00 M
  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.push_back(0x02);
  const std::size_t pad_len = k - payload.size() - 3;
  for (std::size_t i = 0; i < pad_len; ++i) {
    std::uint8_t b = 0;
    do {
      b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    } while (b == 0);
    em.push_back(b);
  }
  em.push_back(0x00);
  em.insert(em.end(), payload.begin(), payload.end());

  const BigUInt m = BigUInt::from_bytes(em);
  const BigUInt c = key.mont_n ? key.mont_n->mod_exp_sparse(m, key.e)
                               : m.mod_exp(key.e, key.n);
  return c.to_bytes_padded(k);
}

Expected<Bytes> rsa_decrypt(const RsaPrivateKey& key, const Bytes& ciphertext) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (ciphertext.size() != k) {
    return Err("rsa_decrypt: ciphertext length mismatch");
  }
  const BigUInt c = BigUInt::from_bytes(ciphertext);
  if (c >= key.n) {
    return Err("rsa_decrypt: ciphertext out of range");
  }
  const BigUInt m = key.private_op(c);
  auto padded = m.to_bytes_padded(k);
  if (!padded) return Err("rsa_decrypt: " + padded.error());
  const Bytes& em = *padded;
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    return Err("rsa_decrypt: bad padding header");
  }
  std::size_t separator = 2;
  while (separator < em.size() && em[separator] != 0x00) {
    ++separator;
  }
  if (separator == em.size() || separator < 10) {
    return Err("rsa_decrypt: bad padding body");
  }
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(separator) + 1,
               em.end());
}

}  // namespace tlc::crypto
