// google-benchmark microbenchmarks for the primitives behind Fig 17:
// SHA-256, RSA-1024 sign/verify, message encode/decode, the full signed
// negotiation, and Algorithm 2 verification.
#include <benchmark/benchmark.h>

#include <deque>

#include "core/protocol.hpp"
#include "core/verifier.hpp"
#include "crypto/montgomery.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_batch.hpp"
#include "util/rng.hpp"

namespace {

using namespace tlc;
using namespace tlc::core;

const crypto::RsaKeyPair& edge_kp() {
  static const crypto::RsaKeyPair kp = [] {
    Rng rng(101);
    return crypto::rsa_generate(1024, rng);
  }();
  return kp;
}

const crypto::RsaKeyPair& op_kp() {
  static const crypto::RsaKeyPair kp = [] {
    Rng rng(102);
    return crypto::rsa_generate(1024, rng);
  }();
  return kp;
}

PlanRef plan() { return PlanRef{0, kHour, 0.5}; }

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// The batched front end under auto-dispatch (§16): N independent
// 64-byte messages per call — the Merkle leaf/node shape. Compare
// against BM_Sha256/64 for the multi-lane win.
void BM_Sha256Batch(benchmark::State& state) {
  Rng rng(2);
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) inputs.push_back(rng.bytes(64));
  std::vector<const std::uint8_t*> ptrs(count);
  std::vector<std::size_t> lens(count, 64);
  for (std::size_t i = 0; i < count; ++i) ptrs[i] = inputs[i].data();
  std::vector<std::uint8_t> out(count * 32);
  for (auto _ : state) {
    crypto::sha256_batch(ptrs.data(), lens.data(), count, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 64);
}
BENCHMARK(BM_Sha256Batch)->Arg(64)->Arg(1024);

/// Two random residues in Montgomery form for modulus `n`, plus its
/// context.
struct MontgomeryOperands {
  crypto::MontgomeryContext ctx;
  crypto::MontgomeryContext::Rep a;
  crypto::MontgomeryContext::Rep b;
};

MontgomeryOperands montgomery_operands(const crypto::BigUInt& n) {
  Rng rng(7);
  auto ctx = crypto::MontgomeryContext::create(n);
  auto a = ctx->to_mont(crypto::BigUInt::random_below(n, rng));
  auto b = ctx->to_mont(crypto::BigUInt::random_below(n, rng));
  return {std::move(*ctx), std::move(a), std::move(b)};
}

// The primitive under everything below: one Montgomery multiply. At
// 1024 bits it serves only verify (the public exponent 65537); signing
// runs its CRT halves at 512 bits, below.
void BM_MontgomeryMul1024(benchmark::State& state) {
  const MontgomeryOperands ops = montgomery_operands(op_kp().public_key.n);
  crypto::MontgomeryContext::Rep out;
  crypto::MontgomeryContext::Rep scratch;
  for (auto _ : state) {
    ops.ctx.mul(ops.a, ops.b, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MontgomeryMul1024);

// The width that carries RSA-1024 signing: the modulus of one CRT half
// (the 512-bit prime p), multiply and the dedicated square.
void BM_MontgomeryMul512(benchmark::State& state) {
  const MontgomeryOperands ops = montgomery_operands(op_kp().private_key.p);
  crypto::MontgomeryContext::Rep out;
  crypto::MontgomeryContext::Rep scratch;
  for (auto _ : state) {
    ops.ctx.mul(ops.a, ops.b, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MontgomeryMul512);

void BM_MontgomerySquare512(benchmark::State& state) {
  const MontgomeryOperands ops = montgomery_operands(op_kp().private_key.p);
  crypto::MontgomeryContext::Rep out;
  crypto::MontgomeryContext::Rep scratch;
  for (auto _ : state) {
    ops.ctx.square(ops.a, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MontgomerySquare512);

void BM_RsaSign1024(benchmark::State& state) {
  const Bytes message = bytes_of("charging record");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(op_kp().private_key, message));
  }
}
BENCHMARK(BM_RsaSign1024);

// RSA-512 keys (the hostile_lossy fleet's): CRT halves of 256 bits.
void BM_RsaSign512(benchmark::State& state) {
  static const crypto::RsaKeyPair kp = [] {
    Rng rng(103);
    return crypto::rsa_generate(512, rng);
  }();
  const Bytes message = bytes_of("charging record");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(kp.private_key, message));
  }
}
BENCHMARK(BM_RsaSign512);

void BM_RsaVerify1024(benchmark::State& state) {
  const Bytes message = bytes_of("charging record");
  const Bytes signature = rsa_sign(op_kp().private_key, message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rsa_verify(op_kp().public_key, message, signature));
  }
}
BENCHMARK(BM_RsaVerify1024);

void BM_CdrEncodeSign(benchmark::State& state) {
  CdrMessage body;
  body.plan = plan();
  body.sender = PartyRole::Operator;
  body.volume = 123456789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encode_signed_cdr(sign_cdr(body, op_kp().private_key)));
  }
}
BENCHMARK(BM_CdrEncodeSign);

Bytes negotiate_poc() {
  EndpointConfig op_config;
  op_config.role = PartyRole::Operator;
  op_config.own_private = op_kp().private_key;
  op_config.own_public = op_kp().public_key;
  op_config.peer_public = edge_kp().public_key;
  op_config.plan = plan();
  op_config.view = UsageView{100000000, 92000000};
  EndpointConfig edge_config = op_config;
  edge_config.role = PartyRole::EdgeVendor;
  edge_config.own_private = edge_kp().private_key;
  edge_config.own_public = edge_kp().public_key;
  edge_config.peer_public = op_kp().public_key;

  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  ProtocolEndpoint op(op_config, op_strategy, Rng(5));
  ProtocolEndpoint edge(edge_config, edge_strategy, Rng(6));
  std::deque<std::pair<bool, Bytes>> wire;
  op.set_send([&](const Bytes& m) { wire.emplace_back(true, m); });
  edge.set_send([&](const Bytes& m) { wire.emplace_back(false, m); });
  op.start();
  while (!wire.empty()) {
    auto [to_edge, m] = wire.front();
    wire.pop_front();
    if (to_edge) {
      (void)edge.receive(m);
    } else {
      (void)op.receive(m);
    }
  }
  return encode_signed_poc(*op.poc());
}

void BM_FullNegotiation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(negotiate_poc());
  }
}
BENCHMARK(BM_FullNegotiation);

void BM_VerifyPoc(benchmark::State& state) {
  const Bytes poc = negotiate_poc();
  const VerificationRequest request{poc, plan(), edge_kp().public_key,
                                    op_kp().public_key};
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_poc(request));
  }
  // The paper's scalability claim: ~230K verifications/hour on a Z840.
  state.counters["PoCs_per_hour"] = benchmark::Counter(
      3600.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_VerifyPoc);

void BM_Rsa1024KeyGen(benchmark::State& state) {
  std::uint64_t seed = 1000;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(crypto::rsa_generate(1024, rng));
  }
}
BENCHMARK(BM_Rsa1024KeyGen)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
