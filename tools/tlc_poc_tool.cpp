// tlc_poc_tool — command-line Proof-of-Charging utility.
//
//   tlc_poc_tool keygen <bits> <prefix>          write <prefix>.pub/.key
//   tlc_poc_tool inspect <poc-file>              decode and print a PoC
//   tlc_poc_tool verify <poc-file> <edge.pub> <op.pub>
//                 --t-start=S --t-end=S --c=C    run Algorithm 2
//   tlc_poc_tool demo <edge-prefix> <op-prefix> <out.poc>
//                 [--sent=B --received=B]        negotiate a sample PoC
//
// Key files hold the hex encoding of the library's key serialization;
// PoC files hold the raw encode_signed_poc bytes.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>

#include "core/protocol.hpp"
#include "core/verifier.hpp"
#include "crypto/rsa.hpp"
#include "util/serde.hpp"

using namespace tlc;

namespace {

Expected<Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Err("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) return Err("read failed for " + path);
  return data;
}

Status write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Err("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) return Err("write failed for " + path);
  return Status::Ok();
}

Expected<crypto::RsaPublicKey> load_public_key(const std::string& path) {
  auto hex_data = read_file(path);
  if (!hex_data) return Err(hex_data.error());
  std::string hex(hex_data->begin(), hex_data->end());
  while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r')) {
    hex.pop_back();
  }
  auto raw = from_hex(hex);
  if (!raw) return Err(path + ": " + raw.error());
  return crypto::RsaPublicKey::deserialize(*raw);
}

Expected<crypto::RsaKeyPair> load_keypair(const std::string& prefix) {
  auto pub = load_public_key(prefix + ".pub");
  if (!pub) return Err(pub.error());
  auto key_hex = read_file(prefix + ".key");
  if (!key_hex) return Err(key_hex.error());
  std::string hex(key_hex->begin(), key_hex->end());
  while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r')) {
    hex.pop_back();
  }
  auto raw = from_hex(hex);
  if (!raw) return Err(prefix + ".key: " + raw.error());
  // Private key file: blob(n) blob(d) blob(p) blob(q).
  ByteReader r(*raw);
  crypto::RsaKeyPair pair;
  pair.public_key = *pub;
  pair.private_key.n = crypto::BigUInt::from_bytes(r.blob());
  pair.private_key.d = crypto::BigUInt::from_bytes(r.blob());
  pair.private_key.p = crypto::BigUInt::from_bytes(r.blob());
  pair.private_key.q = crypto::BigUInt::from_bytes(r.blob());
  if (!r.ok()) return Err(prefix + ".key: malformed");
  const crypto::BigUInt one{1};
  pair.private_key.d_p = pair.private_key.d % (pair.private_key.p - one);
  pair.private_key.d_q = pair.private_key.d % (pair.private_key.q - one);
  auto q_inv = pair.private_key.q.mod_inverse(pair.private_key.p);
  if (!q_inv) return Err(prefix + ".key: bad p/q");
  pair.private_key.q_inv = *q_inv;
  return pair;
}

double arg_double(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtod(argv[i] + prefix.size(), nullptr);
    }
  }
  return fallback;
}

int cmd_keygen(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: keygen <bits> <prefix>\n");
    return 2;
  }
  const auto bits = static_cast<std::size_t>(std::strtoul(argv[2], nullptr, 10));
  const std::string prefix = argv[3];
  Rng rng(static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  const crypto::RsaKeyPair pair = crypto::rsa_generate(bits, rng);

  const std::string pub_hex = to_hex(pair.public_key.serialize()) + "\n";
  if (auto s = write_file(prefix + ".pub", bytes_of(pub_hex)); !s) {
    std::fprintf(stderr, "%s\n", s.error().c_str());
    return 1;
  }
  ByteWriter w;
  w.blob(pair.private_key.n.to_bytes());
  w.blob(pair.private_key.d.to_bytes());
  w.blob(pair.private_key.p.to_bytes());
  w.blob(pair.private_key.q.to_bytes());
  const std::string key_hex = to_hex(w.take()) + "\n";
  if (auto s = write_file(prefix + ".key", bytes_of(key_hex)); !s) {
    std::fprintf(stderr, "%s\n", s.error().c_str());
    return 1;
  }
  std::printf("wrote %s.pub and %s.key (%zu-bit modulus, fingerprint %s)\n",
              prefix.c_str(), prefix.c_str(), bits,
              pair.public_key.fingerprint_hex().c_str());
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: inspect <poc-file>\n");
    return 2;
  }
  auto data = read_file(argv[2]);
  if (!data) {
    std::fprintf(stderr, "%s\n", data.error().c_str());
    return 1;
  }
  auto poc = core::decode_signed_poc(*data);
  if (!poc) {
    std::fprintf(stderr, "not a PoC: %s\n", poc.error().c_str());
    return 1;
  }
  auto cda = core::decode_signed_cda(poc->body.cda_wire);
  std::printf("PoC (%zu bytes)\n", data->size());
  std::printf("  constructed by : %s\n",
              core::role_name(poc->body.sender));
  std::printf("  plan           : T=[%s, %s]  c=%.3f\n",
              format_time(poc->body.plan.t_start).c_str(),
              format_time(poc->body.plan.t_end).c_str(), poc->body.plan.c);
  std::printf("  charged x      : %llu bytes (%.3f MB)\n",
              static_cast<unsigned long long>(poc->body.charged),
              static_cast<double>(poc->body.charged) / 1e6);
  std::printf("  round          : %llu\n",
              static_cast<unsigned long long>(poc->body.seq));
  std::printf("  nonces         : ne=%016llx  no=%016llx\n",
              static_cast<unsigned long long>(poc->nonce_edge),
              static_cast<unsigned long long>(poc->nonce_operator));
  if (cda) {
    std::printf("  CDA from %s: claim %llu bytes\n",
                core::role_name(cda->body.sender),
                static_cast<unsigned long long>(cda->body.volume));
    auto cdr = core::decode_signed_cdr(cda->body.peer_cdr_wire);
    if (cdr) {
      std::printf("  CDR from %s: claim %llu bytes\n",
                  core::role_name(cdr->body.sender),
                  static_cast<unsigned long long>(cdr->body.volume));
    }
  }
  std::printf("  (signatures not checked; use `verify` with public keys)\n");
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: verify <poc-file> <edge.pub> <op.pub> "
                 "[--t-start=S --t-end=S --c=C]\n");
    return 2;
  }
  auto data = read_file(argv[2]);
  if (!data) {
    std::fprintf(stderr, "%s\n", data.error().c_str());
    return 1;
  }
  auto edge_key = load_public_key(argv[3]);
  auto op_key = load_public_key(argv[4]);
  if (!edge_key || !op_key) {
    std::fprintf(stderr, "%s\n",
                 (!edge_key ? edge_key.error() : op_key.error()).c_str());
    return 1;
  }

  // Default plan parameters come from the PoC itself unless pinned on
  // the command line (a real verifier pins them from the public plan).
  core::PlanRef plan;
  if (auto poc = core::decode_signed_poc(*data)) {
    plan = poc->body.plan;
  }
  plan.t_start = from_seconds(
      arg_double(argc, argv, "--t-start", to_seconds(plan.t_start)));
  plan.t_end =
      from_seconds(arg_double(argc, argv, "--t-end", to_seconds(plan.t_end)));
  plan.c = arg_double(argc, argv, "--c", plan.c);

  auto verified = core::verify_poc(
      core::VerificationRequest{*data, plan, *edge_key, *op_key});
  if (!verified) {
    std::printf("REJECTED: %s\n", verified.error().c_str());
    return 1;
  }
  std::printf("ACCEPTED: x=%llu bytes (xe=%llu, xo=%llu), built by %s\n",
              static_cast<unsigned long long>(verified->charged),
              static_cast<unsigned long long>(verified->edge_claim),
              static_cast<unsigned long long>(verified->operator_claim),
              core::role_name(verified->constructed_by));
  return 0;
}

int cmd_demo(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: demo <edge-prefix> <op-prefix> <out.poc> "
                 "[--sent=B --received=B]\n");
    return 2;
  }
  auto edge_kp = load_keypair(argv[2]);
  auto op_kp = load_keypair(argv[3]);
  if (!edge_kp || !op_kp) {
    std::fprintf(stderr, "%s\n",
                 (!edge_kp ? edge_kp.error() : op_kp.error()).c_str());
    return 1;
  }
  const auto sent = static_cast<std::uint64_t>(
      arg_double(argc, argv, "--sent", 778500000.0));
  const auto received = static_cast<std::uint64_t>(
      arg_double(argc, argv, "--received", 724000000.0));

  core::EndpointConfig op_config;
  op_config.role = core::PartyRole::Operator;
  op_config.own_private = op_kp->private_key;
  op_config.own_public = op_kp->public_key;
  op_config.peer_public = edge_kp->public_key;
  op_config.plan = core::PlanRef{0, kHour, 0.5};
  op_config.view = core::UsageView{sent, received};
  core::EndpointConfig edge_config = op_config;
  edge_config.role = core::PartyRole::EdgeVendor;
  edge_config.own_private = edge_kp->private_key;
  edge_config.own_public = edge_kp->public_key;
  edge_config.peer_public = op_kp->public_key;

  core::OptimalStrategy op_strategy;
  core::OptimalStrategy edge_strategy;
  core::ProtocolEndpoint op(op_config, op_strategy, Rng(1));
  core::ProtocolEndpoint edge(edge_config, edge_strategy, Rng(2));
  std::deque<std::pair<bool, Bytes>> wire;
  op.set_send([&](const Bytes& m) { wire.emplace_back(true, m); });
  edge.set_send([&](const Bytes& m) { wire.emplace_back(false, m); });
  op.start();
  while (!wire.empty()) {
    auto [to_edge, message] = wire.front();
    wire.pop_front();
    if (to_edge) {
      (void)edge.receive(message);
    } else {
      (void)op.receive(message);
    }
  }
  if (!op.done()) {
    std::fprintf(stderr, "negotiation failed\n");
    return 1;
  }
  const Bytes poc = core::encode_signed_poc(*op.poc());
  if (auto s = write_file(argv[4], poc); !s) {
    std::fprintf(stderr, "%s\n", s.error().c_str());
    return 1;
  }
  std::printf("negotiated x=%llu in %d round(s); PoC (%zu bytes) -> %s\n",
              static_cast<unsigned long long>(op.negotiated()), op.rounds(),
              poc.size(), argv[4]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: tlc_poc_tool <keygen|inspect|verify|demo> ...\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "keygen") return cmd_keygen(argc, argv);
  if (command == "inspect") return cmd_inspect(argc, argv);
  if (command == "verify") return cmd_verify(argc, argv);
  if (command == "demo") return cmd_demo(argc, argv);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
