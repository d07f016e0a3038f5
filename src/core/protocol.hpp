// The TLC negotiation protocol (Figure 7): message-driven state
// machines that realize Algorithm 1 with signed CDR/CDA/PoC messages.
//
// Either party may initiate. A party that accepts the peer's CDR
// answers with a CDA (echoing the signed CDR it accepts); the peer
// accepting the CDA constructs and returns the PoC. Any rejection is
// expressed implicitly by sending a fresh CDR, shrinking the party's
// ClaimWindow exactly as Algorithm 1 line 12 prescribes (negotiation.hpp
// sets out how this round shape differs from core::negotiate's).
//
// The endpoint also keeps the accounting the evaluation needs: rounds
// (Fig 16b), bytes and message counts (Fig 17 table), and wall-clock
// time spent in RSA operations scaled by the device profile (Fig 17
// CDFs).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "core/messages.hpp"
#include "core/negotiation.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"
#include "crypto/rsa.hpp"
#include "util/rng.hpp"

namespace tlc::core {

enum class EndpointState : std::uint8_t {
  Null,     // nothing sent yet
  SentCdr,  // awaiting the peer's CDA or counter-CDR
  SentCda,  // accepted peer's claim, awaiting PoC or counter-CDR
  Done,     // PoC constructed or received
  Failed,   // protocol violation or round cap
};

[[nodiscard]] const char* endpoint_state_name(EndpointState state);

struct EndpointConfig {
  PartyRole role = PartyRole::Operator;
  crypto::RsaPrivateKey own_private;
  crypto::RsaPublicKey own_public;
  crypto::RsaPublicKey peer_public;
  PlanRef plan;
  UsageView view;
  int max_rounds = 64;
  /// Multiplier applied to measured crypto time (device profiles,
  /// Fig 17: Pixel 2 XL is ~4.8x the Z840). The time itself comes from
  /// util::monotonic_nanos and never feeds settlement bytes.
  double crypto_time_scale = 1.0;
  /// Transport-hardened mode (§8): messages that fail decode, signature
  /// verification or cross-layer consistency are *dropped* (counted in
  /// tamper_suspected()) instead of aborting the negotiation — over a
  /// lossy link a corrupted copy must not kill a cycle a retransmission
  /// can still save. Protocol-fatal conditions (round cap) still abort.
  bool tolerate_faults = false;
};

class ProtocolEndpoint {
 public:
  using SendFn = std::function<void(const Bytes&)>;

  /// `strategy` must outlive the endpoint.
  ProtocolEndpoint(EndpointConfig config, Strategy& strategy, Rng rng);

  void set_send(SendFn send) { send_ = std::move(send); }

  /// Initiator entry point: claims and sends the first CDR.
  void start();

  /// Feeds one wire message from the peer. Returns an error Status on
  /// protocol violations (the endpoint transitions to Failed for
  /// unrecoverable ones).
  [[nodiscard]] Status receive(const Bytes& wire);

  [[nodiscard]] EndpointState state() const { return state_; }
  [[nodiscard]] bool done() const { return state_ == EndpointState::Done; }
  [[nodiscard]] bool failed() const { return state_ == EndpointState::Failed; }

  /// The agreed charge x (valid when done()).
  [[nodiscard]] std::uint64_t negotiated() const { return negotiated_; }
  /// The proof of charging (present when done(); both the constructor
  /// and the receiver hold a copy — §5.3.2 "locally store it").
  [[nodiscard]] const std::optional<SignedPoc>& poc() const { return poc_; }

  /// Claims this endpoint has issued (= negotiation rounds from this
  /// party's perspective; 1 for TLC-optimal).
  [[nodiscard]] int rounds() const { return claims_made_; }
  [[nodiscard]] int bound_violations() const { return bound_violations_; }

  /// Messages rejected as tampered/corrupt (bad decode, bad signature,
  /// inconsistent plan or mismatched echo). In tolerate_faults mode the
  /// endpoint drops them and keeps negotiating.
  [[nodiscard]] int tamper_suspected() const { return tamper_suspected_; }
  /// Exact duplicates of already-processed messages, ignored without
  /// advancing the state machine (idempotent receive).
  [[nodiscard]] int duplicates_ignored() const { return duplicates_ignored_; }
  /// True when this party's strategy is stationary and its latest
  /// rejected round repeated the one before it: the same own and peer
  /// claims, and a window the round left unchanged. Once both parties
  /// report it, every later round repeats too, up to the round cap.
  [[nodiscard]] bool stalled() const { return stalled_; }
  /// Reason recorded by the transition to Failed (empty otherwise).
  [[nodiscard]] const std::string& failure_reason() const {
    return failure_reason_;
  }

  // --- Fig 17 accounting ---
  [[nodiscard]] double crypto_seconds() const { return crypto_seconds_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] int messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::size_t last_cdr_size() const {
    return last_sent_cdr_wire_.size();
  }
  [[nodiscard]] std::size_t last_cda_size() const {
    return last_sent_cda_wire_.size();
  }
  [[nodiscard]] std::size_t last_poc_size() const { return last_poc_size_; }

 private:
  [[nodiscard]] RoundContext make_context() const;
  void send_wire(const Bytes& wire);
  /// Claims for the current round and sends the CDR, or fails the
  /// negotiation at the round cap.
  void claim_round();
  /// Implicit rejection of the peer's claim (Fig 7): a claim outside the
  /// window is counted as a violation and leaves the window as it is,
  /// a compliant one contracts it with my own claim (line 12). Either
  /// way the next round opens with a fresh claim.
  void reclaim(std::uint64_t peer_claim);
  /// The stall test, run on every rejected round, whichever party
  /// rejected it: `opened` is the window the round began with,
  /// `own`/`peer` the round's claims.
  void note_rejection(const ClaimWindow& opened, std::uint64_t own,
                      std::uint64_t peer);
  /// Signs and sends a CDR claiming `claim` in the current round.
  void emit_cdr(std::uint64_t claim);
  /// Signs and sends a CDA accepting the peer CDR `peer_cdr_wire`, which
  /// claims `peer_claim`, with my standing claim.
  void emit_cda(const Bytes& peer_cdr_wire, std::uint64_t peer_claim);
  /// Decodes a peer message and checks its sender role, signature and
  /// data plan; a message that fails is rejected as tampered.
  template <typename Signed>
  [[nodiscard]] Expected<Signed> open(const Bytes& wire);
  [[nodiscard]] Status handle_cdr(const Bytes& wire);
  [[nodiscard]] Status handle_cda(const Bytes& wire);
  [[nodiscard]] Status handle_poc(const Bytes& wire);
  void fail(const std::string& reason);
  /// Rejects a tampered/corrupt message: counts it, aborts in strict
  /// mode, merely drops it in tolerate_faults mode.
  [[nodiscard]] Error reject_tamper(const std::string& reason);
  [[nodiscard]] bool is_duplicate(const Bytes& wire) const;
  void mark_processed(const Bytes& wire);

  // Timed crypto wrappers (telemetry only; see crypto_time_scale).
  [[nodiscard]] Bytes timed_sign(const Bytes& message);
  [[nodiscard]] Status timed_verify(const Bytes& message,
                                    const Bytes& signature);
  void record_crypto_nanos(std::uint64_t elapsed);

  EndpointConfig config_;
  Strategy& strategy_;
  Rng rng_;
  SendFn send_;

  EndpointState state_ = EndpointState::Null;
  ClaimWindow window_;
  int current_round_ = 0;  // seq carries the round number on the wire
  std::uint64_t own_claim_ = 0;
  std::uint64_t own_nonce_ = 0;
  std::uint64_t accepted_claim_ = 0;  // the peer claim my last CDA accepted
  Bytes last_sent_cdr_wire_;
  Bytes last_sent_cda_wire_;
  std::uint64_t negotiated_ = 0;
  std::optional<SignedPoc> poc_;

  /// The latest rejected round's (own, peer) claims, for the stall test.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> rejected_claims_;
  bool stalled_ = false;

  int claims_made_ = 0;
  int bound_violations_ = 0;
  int tamper_suspected_ = 0;
  int duplicates_ignored_ = 0;
  std::string failure_reason_;
  /// Exact wires already accepted, newest last (bounded; duplicates of
  /// these are ignored rather than re-dispatched).
  std::vector<Bytes> processed_wires_;
  double crypto_seconds_ = 0.0;
  std::uint64_t bytes_sent_ = 0;
  int messages_sent_ = 0;
  std::size_t last_poc_size_ = 0;
};

}  // namespace tlc::core
