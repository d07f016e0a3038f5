#include "transport/gf256.hpp"

namespace tlc::transport::gf256 {
namespace {

struct Tables {
  // exp_ is doubled so mul via exp_[log a + log b] needs no mod 255.
  std::uint8_t exp_[512];
  std::uint8_t log_[256];
  std::uint8_t mul_[256][256];

  Tables() {
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp_[i] = static_cast<std::uint8_t>(x);
      exp_[i + 255] = static_cast<std::uint8_t>(x);
      log_[x] = static_cast<std::uint8_t>(i);
      x = static_cast<std::uint16_t>(x << 1);
      if ((x & 0x100) != 0) x ^= kPolynomial;
    }
    exp_[510] = exp_[0];
    exp_[511] = exp_[1];
    log_[0] = 0;  // never read on a valid path

    for (int a = 0; a < 256; ++a) {
      mul_[0][a] = 0;
      mul_[a][0] = 0;
    }
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        mul_[a][b] = exp_[log_[a] + log_[b]];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  return tables().mul_[a][b];
}

std::uint8_t inv(std::uint8_t a) {
  if (a == 0) return 0;
  const Tables& t = tables();
  return t.exp_[255 - t.log_[a]];
}

std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  if (b == 0) return 0;
  return mul(a, inv(b));
}

const std::uint8_t* mul_row(std::uint8_t c) { return tables().mul_[c]; }

void axpy(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
          std::uint8_t c) {
  if (c == 0) return;
  const std::uint8_t* row = mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void scale(std::uint8_t* dst, std::size_t n, std::uint8_t c) {
  const std::uint8_t* row = mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[dst[i]];
}

}  // namespace tlc::transport::gf256
