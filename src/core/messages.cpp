#include "core/messages.hpp"

#include "util/serde.hpp"

namespace tlc::core {
namespace {

/// Wire version of the three message bodies and their signed framings.
/// Bump on ANY field order/width change — the tools/schemas/msg_*.schema
/// goldens pin the current layout and `ctest -L static` fails on drift.
constexpr std::uint32_t kMessageWireVersion = 1;
static_assert(kMessageWireVersion >= 1);

void write_plan(ByteWriter& w, const PlanRef& plan) {
  w.i64(plan.t_start);
  w.i64(plan.t_end);
  w.f64(plan.c);
}

PlanRef read_plan(ByteReader& r) {
  PlanRef plan;
  plan.t_start = r.i64();
  plan.t_end = r.i64();
  plan.c = r.f64();
  return plan;
}

PartyRole read_role(ByteReader& r) {
  const std::uint8_t raw = r.u8();
  if (raw > 1) r.fail("message: invalid party role");
  return static_cast<PartyRole>(raw);
}

void check_type(ByteReader& r, MessageType expected) {
  if (r.u8() != static_cast<std::uint8_t>(expected)) {
    r.fail("wrong message type byte");
  }
}

}  // namespace

Expected<MessageType> peek_type(const Bytes& wire) {
  // Signed-message framing is blob(body) || blob(signature) [..], so the
  // body's leading type byte sits right after the 4-byte length prefix.
  if (wire.size() < 5) return Err("message: too short");
  const std::uint8_t type = wire[4];
  if (type < 1 || type > 3) return Err("message: unknown type byte");
  return static_cast<MessageType>(type);
}

// --- CDR ----------------------------------------------------------------

// tlclint: codec(msg_cdr_body, encode, version=kMessageWireVersion)
Bytes encode_cdr_body(const CdrMessage& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::Cdr));
  write_plan(w, body.plan);
  w.u8(static_cast<std::uint8_t>(body.sender));
  w.u64(body.seq);
  w.u64(body.nonce);
  w.u64(body.volume);
  return w.take();
}

SignedCdr sign_cdr(const CdrMessage& body, const crypto::RsaPrivateKey& key) {
  return SignedCdr{body, crypto::rsa_sign(key, encode_cdr_body(body))};
}

// tlclint: codec(msg_signed_cdr, encode, version=kMessageWireVersion)
Bytes encode_signed_cdr(const SignedCdr& cdr) {
  ByteWriter w;
  Bytes body = encode_cdr_body(cdr.body);
  w.blob(body);
  w.blob(cdr.signature);
  return w.take();
}

Expected<SignedCdr> decode_signed_cdr(const Bytes& wire) {
  // tlclint: codec(msg_signed_cdr, decode, version=kMessageWireVersion)
  ByteReader outer(wire);
  const Bytes body = outer.blob();
  SignedCdr cdr;
  cdr.signature = outer.blob();
  if (!outer.ok()) return Err("cdr: " + outer.error());
  if (!outer.exhausted()) return Err("cdr: trailing bytes");

  // tlclint: codec(msg_cdr_body, decode, version=kMessageWireVersion)
  ByteReader r(body);
  check_type(r, MessageType::Cdr);
  cdr.body.plan = read_plan(r);
  cdr.body.sender = read_role(r);
  cdr.body.seq = r.u64();
  cdr.body.nonce = r.u64();
  cdr.body.volume = r.u64();
  if (!r.ok()) return Err("cdr: " + r.error());
  if (!r.exhausted()) return Err("cdr: trailing bytes in body");
  return cdr;
}

Status verify_signed_cdr(const SignedCdr& cdr,
                         const crypto::RsaPublicKey& key) {
  return crypto::rsa_verify(key, encode_cdr_body(cdr.body), cdr.signature);
}

// --- CDA ----------------------------------------------------------------

// tlclint: codec(msg_cda_body, encode, version=kMessageWireVersion)
Bytes encode_cda_body(const CdaMessage& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::Cda));
  write_plan(w, body.plan);
  w.u8(static_cast<std::uint8_t>(body.sender));
  w.u64(body.seq);
  w.u64(body.nonce);
  w.u64(body.volume);
  w.blob(body.peer_cdr_wire);
  return w.take();
}

SignedCda sign_cda(const CdaMessage& body, const crypto::RsaPrivateKey& key) {
  return SignedCda{body, crypto::rsa_sign(key, encode_cda_body(body))};
}

// tlclint: codec(msg_signed_cda, encode, version=kMessageWireVersion)
Bytes encode_signed_cda(const SignedCda& cda) {
  ByteWriter w;
  w.blob(encode_cda_body(cda.body));
  w.blob(cda.signature);
  return w.take();
}

Expected<SignedCda> decode_signed_cda(const Bytes& wire) {
  // tlclint: codec(msg_signed_cda, decode, version=kMessageWireVersion)
  ByteReader outer(wire);
  const Bytes body = outer.blob();
  SignedCda cda;
  cda.signature = outer.blob();
  if (!outer.ok()) return Err("cda: " + outer.error());
  if (!outer.exhausted()) return Err("cda: trailing bytes");

  // tlclint: codec(msg_cda_body, decode, version=kMessageWireVersion)
  ByteReader r(body);
  check_type(r, MessageType::Cda);
  cda.body.plan = read_plan(r);
  cda.body.sender = read_role(r);
  cda.body.seq = r.u64();
  cda.body.nonce = r.u64();
  cda.body.volume = r.u64();
  cda.body.peer_cdr_wire = r.blob();
  if (!r.ok()) return Err("cda: " + r.error());
  if (!r.exhausted()) return Err("cda: trailing bytes in body");
  return cda;
}

Status verify_signed_cda(const SignedCda& cda,
                         const crypto::RsaPublicKey& key) {
  return crypto::rsa_verify(key, encode_cda_body(cda.body), cda.signature);
}

// --- PoC ----------------------------------------------------------------

// tlclint: codec(msg_poc_body, encode, version=kMessageWireVersion)
Bytes encode_poc_body(const PocMessage& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::Poc));
  write_plan(w, body.plan);
  w.u8(static_cast<std::uint8_t>(body.sender));
  w.u64(body.seq);
  w.u64(body.charged);
  w.blob(body.cda_wire);
  return w.take();
}

SignedPoc sign_poc(const PocMessage& body, const crypto::RsaPrivateKey& key,
                   std::uint64_t nonce_edge, std::uint64_t nonce_operator) {
  SignedPoc poc;
  poc.body = body;
  poc.signature = crypto::rsa_sign(key, encode_poc_body(body));
  poc.nonce_edge = nonce_edge;
  poc.nonce_operator = nonce_operator;
  return poc;
}

// tlclint: codec(msg_signed_poc, encode, version=kMessageWireVersion)
Bytes encode_signed_poc(const SignedPoc& poc) {
  ByteWriter w;
  w.blob(encode_poc_body(poc.body));
  w.blob(poc.signature);
  w.u64(poc.nonce_edge);
  w.u64(poc.nonce_operator);
  return w.take();
}

Expected<SignedPoc> decode_signed_poc(const Bytes& wire) {
  // tlclint: codec(msg_signed_poc, decode, version=kMessageWireVersion)
  ByteReader outer(wire);
  const Bytes body = outer.blob();
  SignedPoc poc;
  poc.signature = outer.blob();
  poc.nonce_edge = outer.u64();
  poc.nonce_operator = outer.u64();
  if (!outer.ok()) return Err("poc: " + outer.error());
  if (!outer.exhausted()) return Err("poc: trailing bytes");

  // tlclint: codec(msg_poc_body, decode, version=kMessageWireVersion)
  ByteReader r(body);
  check_type(r, MessageType::Poc);
  poc.body.plan = read_plan(r);
  poc.body.sender = read_role(r);
  poc.body.seq = r.u64();
  poc.body.charged = r.u64();
  poc.body.cda_wire = r.blob();
  if (!r.ok()) return Err("poc: " + r.error());
  if (!r.exhausted()) return Err("poc: trailing bytes in body");
  return poc;
}

Status verify_signed_poc(const SignedPoc& poc,
                         const crypto::RsaPublicKey& key) {
  return crypto::rsa_verify(key, encode_poc_body(poc.body), poc.signature);
}

}  // namespace tlc::core
