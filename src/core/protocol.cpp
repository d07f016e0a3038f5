#include "core/protocol.hpp"

#include <algorithm>

#include "charging/plan.hpp"
#include "util/logging.hpp"
#include "util/walltime.hpp"

// Sequence-number convention: seq carries the Algorithm-1 round number.
// A CDR claiming in round k has seq = k; the CDA that accepts a round-k
// pair has seq = k (hence the verifier's "se == so" check holds on any
// flow); the PoC finalizing round k has seq = k + 1.

namespace tlc::core {
namespace {

/// Per-message codec and the tag its rejection reasons start with.
template <typename Signed>
struct Codec;

template <>
struct Codec<SignedCdr> {
  static constexpr const char* kTag = "cdr";
  static constexpr auto decode = &decode_signed_cdr;
  static constexpr auto encode_body = &encode_cdr_body;
};

template <>
struct Codec<SignedCda> {
  static constexpr const char* kTag = "cda";
  static constexpr auto decode = &decode_signed_cda;
  static constexpr auto encode_body = &encode_cda_body;
};

template <>
struct Codec<SignedPoc> {
  static constexpr const char* kTag = "poc";
  static constexpr auto decode = &decode_signed_poc;
  static constexpr auto encode_body = &encode_poc_body;
};

}  // namespace

const char* endpoint_state_name(EndpointState state) {
  switch (state) {
    case EndpointState::Null:
      return "Null";
    case EndpointState::SentCdr:
      return "CDR";
    case EndpointState::SentCda:
      return "CDA";
    case EndpointState::Done:
      return "PoC";
    case EndpointState::Failed:
      return "Failed";
  }
  return "?";
}

ProtocolEndpoint::ProtocolEndpoint(EndpointConfig config, Strategy& strategy,
                                   Rng rng)
    : config_(std::move(config)), strategy_(strategy), rng_(rng) {
  // Endpoints sign/verify on every round: warm the keys' Montgomery
  // contexts up front (no-op when the keys came from rsa_generate or
  // deserialize, which already carry them).
  config_.own_private.precompute();
  config_.own_public.precompute();
  config_.peer_public.precompute();
}

RoundContext ProtocolEndpoint::make_context() const {
  return window_.context(config_.role, config_.view, claims_made_,
                         config_.plan.c);
}

Bytes ProtocolEndpoint::timed_sign(const Bytes& message) {
  const std::uint64_t start = util::monotonic_nanos();
  Bytes signature = crypto::rsa_sign(config_.own_private, message);
  record_crypto_nanos(util::monotonic_nanos() - start);
  return signature;
}

Status ProtocolEndpoint::timed_verify(const Bytes& message,
                                      const Bytes& signature) {
  const std::uint64_t start = util::monotonic_nanos();
  Status status = crypto::rsa_verify(config_.peer_public, message, signature);
  record_crypto_nanos(util::monotonic_nanos() - start);
  return status;
}

void ProtocolEndpoint::record_crypto_nanos(std::uint64_t elapsed) {
  crypto_seconds_ +=
      static_cast<double>(elapsed) * 1e-9 * config_.crypto_time_scale;
}

void ProtocolEndpoint::send_wire(const Bytes& wire) {
  bytes_sent_ += wire.size();
  ++messages_sent_;
  if (send_) send_(wire);
}

void ProtocolEndpoint::fail(const std::string& reason) {
  state_ = EndpointState::Failed;
  if (failure_reason_.empty()) failure_reason_ = reason;
  TLC_WARN("tlc-proto") << role_name(config_.role)
                        << " negotiation failed: " << reason;
}

Error ProtocolEndpoint::reject_tamper(const std::string& reason) {
  ++tamper_suspected_;
  if (!config_.tolerate_faults) fail(reason);
  return Err(reason);
}

bool ProtocolEndpoint::is_duplicate(const Bytes& wire) const {
  return std::find(processed_wires_.begin(), processed_wires_.end(), wire) !=
         processed_wires_.end();
}

void ProtocolEndpoint::mark_processed(const Bytes& wire) {
  // Bounded memory: old wires cannot recur on a drained channel, so
  // forgetting the oldest is safe.
  constexpr std::size_t kMaxRemembered = 128;
  if (processed_wires_.size() >= kMaxRemembered) {
    processed_wires_.erase(processed_wires_.begin());
  }
  processed_wires_.push_back(wire);
}

void ProtocolEndpoint::emit_cdr(std::uint64_t claim) {
  own_claim_ = claim;
  ++claims_made_;
  own_nonce_ = rng_.next_u64();

  SignedCdr cdr;
  cdr.body.plan = config_.plan;
  cdr.body.sender = config_.role;
  cdr.body.seq = static_cast<std::uint64_t>(current_round_);
  cdr.body.nonce = own_nonce_;
  cdr.body.volume = own_claim_;
  cdr.signature = timed_sign(encode_cdr_body(cdr.body));
  last_sent_cdr_wire_ = encode_signed_cdr(cdr);
  state_ = EndpointState::SentCdr;
  send_wire(last_sent_cdr_wire_);
}

void ProtocolEndpoint::emit_cda(const Bytes& peer_cdr_wire,
                                std::uint64_t peer_claim) {
  accepted_claim_ = peer_claim;
  own_nonce_ = rng_.next_u64();

  SignedCda cda;
  cda.body.plan = config_.plan;
  cda.body.sender = config_.role;
  cda.body.seq = static_cast<std::uint64_t>(current_round_);
  cda.body.nonce = own_nonce_;
  cda.body.volume = own_claim_;
  cda.body.peer_cdr_wire = peer_cdr_wire;
  cda.signature = timed_sign(encode_cda_body(cda.body));
  last_sent_cda_wire_ = encode_signed_cda(cda);
  state_ = EndpointState::SentCda;
  send_wire(last_sent_cda_wire_);
}

void ProtocolEndpoint::claim_round() {
  if (current_round_ >= config_.max_rounds) {
    fail("round cap reached");
    return;
  }
  emit_cdr(strategy_.claim(make_context()));
}

void ProtocolEndpoint::reclaim(std::uint64_t peer_claim) {
  const ClaimWindow opened = window_;
  if (window_.admits(peer_claim)) {
    window_.contract(own_claim_, peer_claim);
  } else {
    ++bound_violations_;
  }
  note_rejection(opened, own_claim_, peer_claim);
  ++current_round_;
  claim_round();
}

void ProtocolEndpoint::note_rejection(const ClaimWindow& opened,
                                      std::uint64_t own, std::uint64_t peer) {
  const std::pair claims{own, peer};
  stalled_ = strategy_.stationary() && window_ == opened &&
             rejected_claims_ == claims;
  rejected_claims_ = claims;
}

void ProtocolEndpoint::start() {
  current_round_ = 0;
  claim_round();
}

Status ProtocolEndpoint::receive(const Bytes& wire) {
  // Idempotent delivery: an exact duplicate of a message this endpoint
  // already acted on is acknowledged and dropped — it must neither
  // advance the state machine nor abort a finished negotiation.
  if (is_duplicate(wire)) {
    ++duplicates_ignored_;
    return Status::Ok();
  }
  if (state_ == EndpointState::Done || state_ == EndpointState::Failed) {
    return Err("endpoint is no longer negotiating");
  }
  auto type = peek_type(wire);
  if (!type) {
    return reject_tamper(type.error());
  }
  Status status = [&]() -> Status {
    switch (*type) {
      case MessageType::Cdr:
        return handle_cdr(wire);
      case MessageType::Cda:
        return handle_cda(wire);
      case MessageType::Poc:
        return handle_poc(wire);
    }
    return Err("unreachable");
  }();
  if (status) mark_processed(wire);
  return status;
}

template <typename Signed>
Expected<Signed> ProtocolEndpoint::open(const Bytes& wire) {
  auto message = Codec<Signed>::decode(wire);
  if (!message) return reject_tamper(message.error());
  if (message->body.sender != other_party(config_.role)) {
    return reject_tamper(std::string(Codec<Signed>::kTag) +
                         ": sender role mismatch");
  }
  if (auto s = timed_verify(Codec<Signed>::encode_body(message->body),
                            message->signature);
      !s) {
    return reject_tamper(s.error());
  }
  if (message->body.plan != config_.plan) {
    return reject_tamper(std::string(Codec<Signed>::kTag) +
                         ": data plan mismatch");
  }
  return message;
}

Status ProtocolEndpoint::handle_cdr(const Bytes& wire) {
  auto cdr = open<SignedCdr>(wire);
  if (!cdr) return Err(cdr.error());
  // The peer signs a u64 seq; compare it unnarrowed, or seq = 2^32
  // would pass for round 0.
  const std::uint64_t seq = cdr->body.seq;
  const auto current = static_cast<std::uint64_t>(current_round_);
  const std::uint64_t peer_claim = cdr->body.volume;

  if (state_ == EndpointState::SentCdr && seq == current) {
    // I already claimed this round and now hold the peer's same-round
    // claim. Normally that means the peer rejected mine (an accepting
    // peer sends a CDA) — but when both parties initiated the same
    // round simultaneously, nobody has decided anything yet. To keep
    // Fig 7 deadlock-free, exactly one side (the edge vendor, whose
    // state machine has the "recv CDR, send CDA" edge from the CDR
    // state) may answer with a CDA when it accepts; the operator always
    // treats the counter-CDR as a rejection and re-claims.
    if (window_.admits(peer_claim) &&
        config_.role == PartyRole::EdgeVendor &&
        strategy_.accept(make_context(), own_claim_, peer_claim)) {
      emit_cda(wire, peer_claim);
    } else {
      reclaim(peer_claim);
    }
    return Status::Ok();
  }

  if (seq < current) {
    return Err("cdr: stale round (replay?)");  // drop silently
  }

  if (state_ == EndpointState::SentCda) {
    // The peer answers my CDA with a new claim: it rejected the round I
    // accepted, and my window stays as it was.
    note_rejection(window_, own_claim_, accepted_claim_);
  }

  // A new round opened by the peer: form my claim and decide.
  if (seq >= static_cast<std::uint64_t>(config_.max_rounds)) {
    fail("round cap reached");
    return Err("round cap reached");
  }
  current_round_ = static_cast<int>(seq);
  if (!window_.admits(peer_claim)) {
    reclaim(peer_claim);  // implicit reject; do not honor the violating claim
    return Status::Ok();
  }

  const RoundContext ctx = make_context();
  const std::uint64_t my_claim = strategy_.claim(ctx);
  if (!strategy_.accept(ctx, my_claim, peer_claim)) {
    // Publish my same-round claim as the implicit rejection.
    const ClaimWindow opened = window_;
    window_.contract(my_claim, peer_claim);
    note_rejection(opened, my_claim, peer_claim);
    emit_cdr(my_claim);
    return Status::Ok();
  }
  // Accept: answer with a CDA echoing the peer's signed CDR.
  own_claim_ = my_claim;
  ++claims_made_;
  emit_cda(wire, peer_claim);
  return Status::Ok();
}

Status ProtocolEndpoint::handle_cda(const Bytes& wire) {
  if (state_ != EndpointState::SentCdr) {
    return Err("cda: unexpected in state " +
               std::string(endpoint_state_name(state_)));
  }
  auto cda = open<SignedCda>(wire);
  if (!cda) return Err(cda.error());
  if (cda->body.seq != static_cast<std::uint64_t>(current_round_)) {
    // Stale acceptance of an earlier round's CDR — happens legitimately
    // when both parties initiated and messages crossed; drop it.
    return Err("cda: round mismatch (stale or replay)");
  }
  if (cda->body.peer_cdr_wire != last_sent_cdr_wire_) {
    return reject_tamper("cda: echoed CDR does not match what we sent");
  }

  const std::uint64_t peer_claim = cda->body.volume;
  if (!window_.admits(peer_claim) ||
      !strategy_.accept(make_context(), own_claim_, peer_claim)) {
    reclaim(peer_claim);
    return Status::Ok();
  }

  // Both sides accepted the round: construct the PoC (lines 7-9).
  negotiated_ =
      charging::charged_volume(own_claim_, peer_claim, config_.plan.c);
  const bool edge = config_.role == PartyRole::EdgeVendor;
  SignedPoc poc;
  poc.body.plan = config_.plan;
  poc.body.sender = config_.role;
  poc.body.seq = static_cast<std::uint64_t>(current_round_) + 1;
  poc.body.charged = negotiated_;
  poc.body.cda_wire = wire;
  poc.signature = timed_sign(encode_poc_body(poc.body));
  poc.nonce_edge = edge ? own_nonce_ : cda->body.nonce;
  poc.nonce_operator = edge ? cda->body.nonce : own_nonce_;

  const Bytes poc_wire = encode_signed_poc(poc);
  poc_ = std::move(poc);
  last_poc_size_ = poc_wire.size();
  state_ = EndpointState::Done;
  send_wire(poc_wire);
  return Status::Ok();
}

Status ProtocolEndpoint::handle_poc(const Bytes& wire) {
  if (state_ != EndpointState::SentCda) {
    return Err("poc: unexpected in state " +
               std::string(endpoint_state_name(state_)));
  }
  auto poc = open<SignedPoc>(wire);
  if (!poc) return Err(poc.error());
  if (poc->body.cda_wire != last_sent_cda_wire_) {
    return reject_tamper("poc: embedded CDA does not match what we sent");
  }

  // Recompute x from the claims inside the nested messages and check
  // the constructor did not misreport it.
  auto inner_cda = decode_signed_cda(poc->body.cda_wire);
  if (!inner_cda) {
    return reject_tamper(inner_cda.error());
  }
  auto inner_cdr = decode_signed_cdr(inner_cda->body.peer_cdr_wire);
  if (!inner_cdr) {
    return reject_tamper(inner_cdr.error());
  }
  // The PoC's seq and clear-text nonces are what verify_poc checks
  // against the signed layers; the nonces sit outside the signature.
  // A PoC that would fail there must not finish the cycle.
  if (poc->body.seq != inner_cda->body.seq + 1) {
    return reject_tamper("poc: sequence number does not follow the CDA's");
  }
  const bool edge = config_.role == PartyRole::EdgeVendor;
  const std::uint64_t own_nonce = inner_cda->body.nonce;
  const std::uint64_t peer_nonce = inner_cdr->body.nonce;
  if (poc->nonce_edge != (edge ? own_nonce : peer_nonce) ||
      poc->nonce_operator != (edge ? peer_nonce : own_nonce)) {
    return reject_tamper("poc: clear-text nonces differ from the signed ones");
  }
  const std::uint64_t expected = charging::charged_volume(
      inner_cda->body.volume, inner_cdr->body.volume, config_.plan.c);
  if (expected != poc->body.charged) {
    return reject_tamper("poc: charged volume inconsistent with claims");
  }

  negotiated_ = poc->body.charged;
  poc_ = std::move(*poc);
  last_poc_size_ = wire.size();
  state_ = EndpointState::Done;
  return Status::Ok();
}

}  // namespace tlc::core
