#include "support/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace minicon {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
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

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return std::rotr(x, n);
}

#if defined(__x86_64__)
// The same compression with the x86 SHA extensions. State lives in two
// registers in the order the instructions want (ABEF, CDGH); each loop
// step runs four rounds on one 4-word message schedule vector, deriving
// vector i >= 4 from vectors i-4..i-1 with sha256msg1/msg2.
__attribute__((target("sha,sse4.1"))) void blocks_sha_ni(
    detail::Sha256State& state, const std::uint8_t* data,
    std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);    // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& m = w[i & 3];
      if (i < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            byte_swap);
      } else {  // m holds vector i-4 here
        m = _mm_sha256msg1_epu32(m, w[(i - 3) & 3]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(w[(i - 1) & 3], w[(i - 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, w[(i - 1) & 3]);
      }
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(&kRoundConstants[4 * i])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);    // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);   // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}
#endif

using BlocksFn = void (*)(detail::Sha256State&, const std::uint8_t*,
                          std::size_t);

// The one dispatch point: decided on first use, fixed for the process.
BlocksFn blocks_fn() {
  static const BlocksFn fn = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
      return blocks_sha_ni;
    }
#endif
    return detail::sha256_blocks_portable;
  }();
  return fn;
}

}  // namespace

namespace detail {

void sha256_blocks_portable(Sha256State& state, const std::uint8_t* data,
                            std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[i * 4]} << 24) |
             (std::uint32_t{data[i * 4 + 1]} << 16) |
             (std::uint32_t{data[i * 4 + 2]} << 8) |
             std::uint32_t{data[i * 4 + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

void sha256_blocks(Sha256State& state, const std::uint8_t* data,
                   std::size_t blocks) {
  blocks_fn()(state, data, blocks);
}

const char* sha256_kernel_name() {
  return blocks_fn() == sha256_blocks_portable ? "portable" : "sha-ni";
}

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

// Whole blocks go to the kernel straight from the caller's buffer; only a
// partial head (topping up buffer_) or tail is copied.
void Sha256::update(const void* data, std::size_t len) {
  if (len == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    detail::sha256_blocks(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t blocks = len / buffer_.size();
  if (blocks > 0) {
    detail::sha256_blocks(state_, bytes, blocks);
    bytes += blocks * buffer_.size();
    len -= blocks * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), bytes, len);
    buffer_len_ = len;
  }
}

std::array<std::uint8_t, 32> Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros up to byte 56 of a block, then the bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    detail::sha256_blocks(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  detail::sha256_blocks(state_, buffer_.data(), 1);

  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::array<std::uint8_t, 32> Sha256::digest(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string Sha256::hex_digest(std::string_view data) {
  const auto d = digest(data);
  return to_hex(d.data(), d.size());
}

std::string Sha256::hex_chain(std::initializer_list<std::string_view> parts) {
  Sha256 h;
  for (const auto& p : parts) h.update(p);
  const auto d = h.finish();
  return to_hex(d.data(), d.size());
}

std::string to_hex(const std::uint8_t* data, std::size_t len) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

std::string oci_digest(std::string_view blob) {
  return "sha256:" + Sha256::hex_digest(blob);
}

}  // namespace minicon
