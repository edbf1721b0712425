// Self-contained SHA-256 (FIPS 180-4) for content-addressed image storage.
//
// The registry and layer store address blobs by "sha256:<hex>" digests like
// OCI registries do; no external crypto dependency is available offline, so
// we implement the compression function directly.
//
// Every digest in the system (snapshot Merkle nodes, chunk and blob digests,
// cache keys, COPY context hashes) goes through this one class, so the
// compression kernel runs at hardware speed where the CPU allows:
//   * update() compresses every whole 64-byte block straight from the
//     caller's buffer, many blocks per kernel call; only a partial head or
//     tail is staged in buffer_.
//   * The kernel is picked once per process by CPUID: x86-64 SHA extensions
//     (SHA-NI, with SSE4.1) when the CPU has them, else the portable rounds.
//     No build flag or setting selects it; the same binary runs everywhere
//     and both kernels produce bit-identical digests.
//   * On a 4-vCPU x86-64 KVM guest with SHA-NI (GCC 12, RelWithDebInfo),
//     a 1 MiB digest runs at about 1.18 GB/s. The byte-staged portable
//     implementation this replaced ran at about 173 MB/s there, and the
//     portable fallback kernel alone at 130-150 MB/s.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace minicon {

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  // Finalizes and returns the 32-byte digest. The object must be reset()
  // before reuse.
  std::array<std::uint8_t, 32> finish();

  // One-shot helpers.
  static std::array<std::uint8_t, 32> digest(std::string_view data);
  static std::string hex_digest(std::string_view data);

  // Digest of the parts as if concatenated, fed incrementally — same result
  // as hex_digest(a + b + ...) without materializing the throwaway string.
  static std::string hex_chain(std::initializer_list<std::string_view> parts);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

namespace detail {

using Sha256State = std::array<std::uint32_t, 8>;

// Compresses `blocks` consecutive 64-byte blocks at `data` (any alignment)
// into `state`. Exposed so tests can check the two kernels against each
// other; everything else goes through Sha256.
void sha256_blocks_portable(Sha256State& state, const std::uint8_t* data,
                            std::size_t blocks);
// The kernel Sha256 uses: SHA-NI when the CPU supports it, else portable.
void sha256_blocks(Sha256State& state, const std::uint8_t* data,
                   std::size_t blocks);
// "sha-ni" or "portable": which kernel sha256_blocks dispatches to.
const char* sha256_kernel_name();

}  // namespace detail

// Lowercase hex of arbitrary bytes.
std::string to_hex(const std::uint8_t* data, std::size_t len);

// "sha256:<hex>" digest string as used by the registry.
std::string oci_digest(std::string_view blob);

}  // namespace minicon
