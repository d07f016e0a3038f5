#include "crypto/sha256_batch.hpp"

#include <atomic>
#include <cstring>

#include "crypto/sha256.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TLC_SHA256_X86 1
#endif

namespace tlc::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kIv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Builds the padded tail (remainder + 0x80 + zeros + 64-bit BE bit
/// length) into `tail` (128 bytes). Returns the tail block count (1 or
/// 2); the caller has already compressed the len/64 full blocks.
std::size_t build_tail(const std::uint8_t* data, std::size_t len,
                       std::uint8_t tail[128]) {
  const std::size_t rem = len % 64;
  std::memset(tail, 0, 128);
  // An empty message may arrive as a null pointer, which memcpy must
  // not be given even for zero bytes.
  if (rem != 0) std::memcpy(tail, data + (len - rem), rem);
  tail[rem] = 0x80;
  const std::size_t blocks = rem < 56 ? 1 : 2;
  const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
  std::uint8_t* length_bytes = tail + blocks * 64 - 8;
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  return blocks;
}

void store_digest_be(const std::uint32_t state[8], std::uint8_t* out) {
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

/// Reference path: the streaming class itself, so "scalar batch" is the
/// existing KAT-pinned implementation by construction.
void hash1_scalar(const std::uint8_t* data, std::size_t len,
                  std::uint8_t* out) {
  Sha256 h;
  h.update(data, len);
  const Bytes digest = h.finish();
  std::memcpy(out, digest.data(), kSha256DigestSize);
}

#ifdef TLC_SHA256_X86

// ---- SHA-NI single-message kernel -------------------------------------
//
// The standard ABEF/CDGH register arrangement for the x86 SHA
// extensions; message-schedule recurrence W[t] = msg2(msg1(W[t-16],
// W[t-12]) + W[t-7..t-4], W[t-4..t-1]) expressed with the alignr trick.

__attribute__((target("sha,sse4.1,ssse3"))) __m128i k4(int group) {
  return _mm_set_epi32(
      static_cast<int>(kK[static_cast<std::size_t>(group) * 4 + 3]),
      static_cast<int>(kK[static_cast<std::size_t>(group) * 4 + 2]),
      static_cast<int>(kK[static_cast<std::size_t>(group) * 4 + 1]),
      static_cast<int>(kK[static_cast<std::size_t>(group) * 4 + 0]));
}

__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks) {
  const __m128i kMask =
      _mm_set_epi64x(static_cast<long long>(0x0c0d0e0f08090a0bULL),
                     static_cast<long long>(0x0405060700010203ULL));

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  while (nblocks-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    __m128i m0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)), kMask);
    __m128i m1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kMask);
    __m128i m2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kMask);
    __m128i m3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kMask);

    __m128i msg = _mm_add_epi32(m0, k4(0));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msg = _mm_add_epi32(m1, k4(1));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msg = _mm_add_epi32(m2, k4(2));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msg = _mm_add_epi32(m3, k4(3));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

    for (int g = 4; g < 16; ++g) {
      const __m128i w = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1),
                        _mm_alignr_epi8(m3, m2, 4)),
          m3);
      msg = _mm_add_epi32(w, k4(g));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      state0 =
          _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
      m0 = m1;
      m1 = m2;
      m2 = m3;
      m3 = w;
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

void hash1_shani(const std::uint8_t* data, std::size_t len,
                 std::uint8_t* out) {
  std::uint32_t state[8];
  std::memcpy(state, kIv.data(), sizeof(state));
  compress_shani(state, data, len / 64);
  std::uint8_t tail[128];
  const std::size_t tail_blocks = build_tail(data, len, tail);
  compress_shani(state, tail, tail_blocks);
  store_digest_be(state, out);
}

// ---- AVX2 eight-way interleaved kernel --------------------------------
//
// Eight equal-length messages, one per 32-bit lane of the ymm register
// file; every SHA-256 round executes once for all eight lanes. State
// layout is word-major: state[w][lane] so each word row loads straight
// into one vector.

__attribute__((target("avx2"), always_inline)) inline __m256i rotr32(
    __m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

__attribute__((target("avx2"))) void compress_avx2_x8(
    std::uint32_t state[8][8], const std::uint8_t* const lanes[8],
    std::size_t nblocks) {
  // Per-word byte swap: big-endian message words to native lanes.
  const __m256i kSwap = _mm256_setr_epi8(
      3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,  //
      3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);

  __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[0]));
  __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[1]));
  __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[2]));
  __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[3]));
  __m256i e = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[4]));
  __m256i f = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[5]));
  __m256i g = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[6]));
  __m256i h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[7]));

  for (std::size_t block = 0; block < nblocks; ++block) {
    const std::size_t off = block * 64;
    __m256i w[16];
    for (int t = 0; t < 16; ++t) {
      std::uint32_t lane_words[8];
      for (int lane = 0; lane < 8; ++lane) {
        std::memcpy(&lane_words[lane],
                    lanes[lane] + off + static_cast<std::size_t>(4 * t), 4);
      }
      w[t] = _mm256_shuffle_epi8(
          _mm256_set_epi32(
              static_cast<int>(lane_words[7]), static_cast<int>(lane_words[6]),
              static_cast<int>(lane_words[5]), static_cast<int>(lane_words[4]),
              static_cast<int>(lane_words[3]), static_cast<int>(lane_words[2]),
              static_cast<int>(lane_words[1]), static_cast<int>(lane_words[0])),
          kSwap);
    }

    const __m256i a0 = a, b0 = b, c0 = c, d0 = d;
    const __m256i e0 = e, f0 = f, g0 = g, h0 = h;

    for (int t = 0; t < 64; ++t) {
      __m256i wt;
      if (t < 16) {
        wt = w[t];
      } else {
        const __m256i w15 = w[(t - 15) & 15];
        const __m256i w2 = w[(t - 2) & 15];
        const __m256i s0 = _mm256_xor_si256(
            _mm256_xor_si256(rotr32(w15, 7), rotr32(w15, 18)),
            _mm256_srli_epi32(w15, 3));
        const __m256i s1 = _mm256_xor_si256(
            _mm256_xor_si256(rotr32(w2, 17), rotr32(w2, 19)),
            _mm256_srli_epi32(w2, 10));
        wt = _mm256_add_epi32(
            _mm256_add_epi32(w[(t - 16) & 15], s0),
            _mm256_add_epi32(w[(t - 7) & 15], s1));
        w[t & 15] = wt;
      }
      const __m256i big_s1 = _mm256_xor_si256(
          _mm256_xor_si256(rotr32(e, 6), rotr32(e, 11)), rotr32(e, 25));
      const __m256i ch =
          _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
      const __m256i t1 = _mm256_add_epi32(
          _mm256_add_epi32(_mm256_add_epi32(h, big_s1), ch),
          _mm256_add_epi32(
              _mm256_set1_epi32(static_cast<int>(kK[static_cast<std::size_t>(t)])),
              wt));
      const __m256i big_s0 = _mm256_xor_si256(
          _mm256_xor_si256(rotr32(a, 2), rotr32(a, 13)), rotr32(a, 22));
      const __m256i maj = _mm256_xor_si256(
          _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
          _mm256_and_si256(b, c));
      const __m256i t2 = _mm256_add_epi32(big_s0, maj);
      h = g;
      g = f;
      f = e;
      e = _mm256_add_epi32(d, t1);
      d = c;
      c = b;
      b = a;
      a = _mm256_add_epi32(t1, t2);
    }

    a = _mm256_add_epi32(a, a0);
    b = _mm256_add_epi32(b, b0);
    c = _mm256_add_epi32(c, c0);
    d = _mm256_add_epi32(d, d0);
    e = _mm256_add_epi32(e, e0);
    f = _mm256_add_epi32(f, f0);
    g = _mm256_add_epi32(g, g0);
    h = _mm256_add_epi32(h, h0);
  }

  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[0]), a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[1]), b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[2]), c);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[3]), d);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[4]), e);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[5]), f);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[6]), g);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[7]), h);
}

/// Hashes eight equal-length messages through the wide kernel: full
/// blocks straight from the inputs, then every lane's (identically
/// shaped) padded tail.
void hash8_avx2(const std::uint8_t* const inputs[8], std::size_t len,
                std::uint8_t* out) {
  std::uint32_t state[8][8];
  for (std::size_t word = 0; word < 8; ++word) {
    for (std::size_t lane = 0; lane < 8; ++lane) {
      state[word][lane] = kIv[word];
    }
  }

  compress_avx2_x8(state, inputs, len / 64);

  std::uint8_t tails[8][128];
  const std::uint8_t* tail_ptrs[8];
  std::size_t tail_blocks = 0;
  for (int lane = 0; lane < 8; ++lane) {
    tail_blocks = build_tail(inputs[lane], len, tails[lane]);
    tail_ptrs[lane] = tails[lane];
  }
  compress_avx2_x8(state, tail_ptrs, tail_blocks);

  for (std::size_t lane = 0; lane < 8; ++lane) {
    std::uint32_t digest_words[8];
    for (std::size_t word = 0; word < 8; ++word) {
      digest_words[word] = state[word][lane];
    }
    store_digest_be(digest_words, out + 32 * lane);
  }
}

#endif  // TLC_SHA256_X86

bool kernel_available(Sha256Kernel kernel) {
  switch (kernel) {
    case Sha256Kernel::Scalar:
      return true;
#ifdef TLC_SHA256_X86
    case Sha256Kernel::ShaNi:
      __builtin_cpu_init();
      return __builtin_cpu_supports("sha") != 0 &&
             __builtin_cpu_supports("sse4.1") != 0 &&
             __builtin_cpu_supports("ssse3") != 0;
    case Sha256Kernel::Avx2x8:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") != 0;
#else
    case Sha256Kernel::ShaNi:
    case Sha256Kernel::Avx2x8:
      return false;
#endif
  }
  return false;
}

Sha256Kernel detect_kernel() {
  if (kernel_available(Sha256Kernel::Avx2x8)) return Sha256Kernel::Avx2x8;
  if (kernel_available(Sha256Kernel::ShaNi)) return Sha256Kernel::ShaNi;
  return Sha256Kernel::Scalar;
}

/// -1 = auto-dispatch; otherwise the forced kernel's enum value.
std::atomic<int> g_forced{-1};

Sha256Kernel active_kernel() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Sha256Kernel>(forced);
  static const Sha256Kernel detected = detect_kernel();
  return detected;
}

/// Best single-message path the active kernel allows. A forced kernel
/// is honoured strictly (forcing scalar must mean scalar everywhere);
/// auto-dispatched Avx2x8 sends stragglers through SHA-NI when the
/// host has it.
void hash1(Sha256Kernel kernel, bool forced, const std::uint8_t* data,
           std::size_t len, std::uint8_t* out) {
#ifdef TLC_SHA256_X86
  if (kernel == Sha256Kernel::ShaNi ||
      (!forced && kernel == Sha256Kernel::Avx2x8 &&
       kernel_available(Sha256Kernel::ShaNi))) {
    hash1_shani(data, len, out);
    return;
  }
#else
  (void)forced;
#endif
  (void)kernel;
  hash1_scalar(data, len, out);
}

}  // namespace

const char* sha256_kernel_name(Sha256Kernel kernel) {
  switch (kernel) {
    case Sha256Kernel::Scalar:
      return "scalar";
    case Sha256Kernel::ShaNi:
      return "sha-ni";
    case Sha256Kernel::Avx2x8:
      return "avx2-x8";
  }
  return "unknown";
}

Sha256Kernel sha256_batch_kernel() { return active_kernel(); }

bool sha256_kernel_available(Sha256Kernel kernel) {
  return kernel_available(kernel);
}

bool sha256_force_kernel(Sha256Kernel kernel) {
  if (!kernel_available(kernel)) return false;
  g_forced.store(static_cast<int>(kernel), std::memory_order_relaxed);
  return true;
}

void sha256_reset_kernel() {
  g_forced.store(-1, std::memory_order_relaxed);
}

void sha256_batch(const std::uint8_t* const* inputs, const std::size_t* lens,
                  std::size_t count, std::uint8_t* out) {
  const Sha256Kernel kernel = active_kernel();
  const bool forced = g_forced.load(std::memory_order_relaxed) >= 0;
  std::size_t i = 0;
#ifdef TLC_SHA256_X86
  if (kernel == Sha256Kernel::Avx2x8) {
    while (i + 8 <= count) {
      bool same = true;
      for (std::size_t lane = 1; lane < 8; ++lane) {
        same = same && lens[i + lane] == lens[i];
      }
      if (!same) {
        hash1(kernel, forced, inputs[i], lens[i], out + 32 * i);
        ++i;
        continue;
      }
      hash8_avx2(inputs + i, lens[i], out + 32 * i);
      i += 8;
    }
  }
#endif
  for (; i < count; ++i) {
    hash1(kernel, forced, inputs[i], lens[i], out + 32 * i);
  }
}

std::vector<Bytes> sha256_batch(const std::vector<Bytes>& inputs) {
  std::vector<const std::uint8_t*> ptrs(inputs.size());
  std::vector<std::size_t> lens(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ptrs[i] = inputs[i].data();
    lens[i] = inputs[i].size();
  }
  std::vector<std::uint8_t> flat(inputs.size() * kSha256DigestSize);
  sha256_batch(ptrs.data(), lens.data(), inputs.size(), flat.data());
  std::vector<Bytes> digests(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    digests[i].assign(flat.begin() + static_cast<std::ptrdiff_t>(
                                         i * kSha256DigestSize),
                      flat.begin() + static_cast<std::ptrdiff_t>(
                                         (i + 1) * kSha256DigestSize));
  }
  return digests;
}

}  // namespace tlc::crypto
