// Unit tests for the support layer: SHA-256, paths, strings, transcript.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <vector>

#include "support/errno.hpp"
#include "support/result.hpp"
#include "support/path.hpp"
#include "support/sha256.hpp"
#include "support/strings.hpp"
#include "support/transcript.hpp"

namespace minicon {
namespace {

// --- SHA-256 (FIPS 180-4 test vectors) ----------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::hex_digest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hex_digest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(Sha256::hex_digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto digest = h.finish();
  EXPECT_EQ(to_hex(digest.data(), digest.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : data) h.update(&c, 1);
  const auto incremental = h.finish();
  EXPECT_EQ(to_hex(incremental.data(), incremental.size()),
            Sha256::hex_digest(data));
}

TEST(Sha256, OciDigestPrefix) {
  EXPECT_TRUE(oci_digest("x").starts_with("sha256:"));
  EXPECT_EQ(oci_digest("x").size(), 7 + 64);
}

// The NIST 448-bit and 896-bit messages, fed in uneven pieces so both the
// staged and the direct-from-caller block paths see them.
TEST(Sha256, NistLongVectorsIncremental) {
  const struct {
    std::string_view msg;
    const char* hex;
  } cases[] = {
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmn"
       "opjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Sha256::hex_digest(c.msg), c.hex);
    Sha256 h;
    h.update(c.msg.substr(0, 3));
    h.update(c.msg.substr(3));
    const auto d = h.finish();
    EXPECT_EQ(to_hex(d.data(), d.size()), c.hex);
  }
}

constexpr detail::Sha256State kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// FIPS 180-4 §5.1.1 padding of msg[0, len), written at `offset` into the
// returned buffer (the bytes before it are filler), independent of
// Sha256::finish.
std::vector<std::uint8_t> pad_message(const std::uint8_t* msg, std::size_t len,
                                      std::size_t offset) {
  const std::size_t padded = (len + 8) / 64 * 64 + 64;
  std::vector<std::uint8_t> buf(offset + padded, 0);
  std::copy(msg, msg + len, buf.begin() + static_cast<std::ptrdiff_t>(offset));
  buf[offset + len] = 0x80;
  const std::uint64_t bits = std::uint64_t{len} * 8;
  for (int i = 0; i < 8; ++i) {
    buf[buf.size() - 1 - static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return buf;
}

TEST(Sha256, DispatchedKernelIsShaNiWhenTheCpuHasIt) {
  RecordProperty("sha256_kernel", detail::sha256_kernel_name());
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    EXPECT_STREQ(detail::sha256_kernel_name(), "sha-ni");
    return;
  }
#endif
  EXPECT_STREQ(detail::sha256_kernel_name(), "portable");
}

// Both kernels, over every message length 0..1100 at an aligned and an
// unaligned address, reach the same state; Sha256 fed the same bytes in
// seeded random pieces produces the digest of that state.
TEST(Sha256, KernelsAgreeOnEveryLengthAndSplit) {
  std::mt19937 rng(20210521);
  std::vector<std::uint8_t> msg(1100);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    for (std::size_t offset : {0, 1}) {
      const auto buf = pad_message(msg.data(), len, offset);
      const std::uint8_t* at = buf.data() + offset;
      const std::size_t blocks = (buf.size() - offset) / 64;
      detail::Sha256State portable = kSha256Init;
      detail::Sha256State dispatched = kSha256Init;
      detail::sha256_blocks_portable(portable, at, blocks);
      detail::sha256_blocks(dispatched, at, blocks);
      ASSERT_EQ(portable, dispatched) << "len " << len << " offset " << offset;

      std::array<std::uint8_t, 32> expected;
      for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
          expected[i * 4 + j] =
              static_cast<std::uint8_t>(portable[i] >> (24 - 8 * j));
        }
      }
      // A short first piece leaves buffer_ partly full, so the second
      // piece (64 bytes or more when the message is long enough) tops it
      // up and then feeds whole blocks from the caller's buffer.
      Sha256 h;
      std::size_t pos = std::min(len, std::size_t{1} + rng() % 7);
      h.update(at, pos);
      std::size_t piece = 64 + rng() % 100;
      while (pos < len) {
        piece = std::min(piece, len - pos);
        h.update(at + pos, piece);
        pos += piece;
        piece = rng() % 150;
      }
      ASSERT_EQ(h.finish(), expected) << "len " << len << " offset " << offset;
    }
  }
}

// --- paths ---------------------------------------------------------------------

struct NormCase {
  const char* input;
  const char* expected;
};

class PathNormalize : public ::testing::TestWithParam<NormCase> {};

TEST_P(PathNormalize, Normalizes) {
  EXPECT_EQ(path_normalize(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PathNormalize,
    ::testing::Values(NormCase{"/", "/"}, NormCase{"//", "/"},
                      NormCase{"/a/b/c", "/a/b/c"}, NormCase{"/a//b", "/a/b"},
                      NormCase{"/a/./b", "/a/b"}, NormCase{"/a/../b", "/b"},
                      NormCase{"/..", "/"}, NormCase{"/a/b/..", "/a"},
                      NormCase{"a/b", "a/b"}, NormCase{"a/../..", ".."},
                      NormCase{"", "."}, NormCase{"./", "."},
                      NormCase{"/a/b/../../c", "/c"}));

TEST(Path, Components) {
  EXPECT_EQ(path_components("/a/b/c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(path_components("/"), std::vector<std::string>{});
  EXPECT_EQ(path_components("a/./b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(path_components("/a/../b"),
            (std::vector<std::string>{"a", "..", "b"}));
}

TEST(Path, JoinAbsoluteRhsWins) {
  EXPECT_EQ(path_join("/a", "/etc/passwd"), "/etc/passwd");
  EXPECT_EQ(path_join("/a", "b"), "/a/b");
  EXPECT_EQ(path_join("/a/", "b"), "/a/b");
  EXPECT_EQ(path_join("/a", ""), "/a");
}

TEST(Path, DirnameBasename) {
  EXPECT_EQ(path_dirname("/a/b/c"), "/a/b");
  EXPECT_EQ(path_dirname("/a"), "/");
  EXPECT_EQ(path_dirname("/"), "/");
  EXPECT_EQ(path_basename("/a/b/c"), "c");
  EXPECT_EQ(path_basename("/"), "/");
}

// Property: normalize is idempotent.
class PathIdempotent : public ::testing::TestWithParam<const char*> {};

TEST_P(PathIdempotent, NormalizeTwiceEqualsOnce) {
  const std::string once = path_normalize(GetParam());
  EXPECT_EQ(path_normalize(once), once);
}

INSTANTIATE_TEST_SUITE_P(Cases, PathIdempotent,
                         ::testing::Values("/a/b/../c//d/.", "a/../../b",
                                           "////x", "/a/./././b/..", ".."));

// --- strings --------------------------------------------------------------------

TEST(Strings, Split) {
  EXPECT_EQ(split("a:b:c", ':'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a::b", ':'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ':'), (std::vector<std::string>{""}));
}

TEST(Strings, SplitWs) {
  EXPECT_EQ(split_ws("  a\tb  c\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, ParseU32) {
  std::uint32_t v = 0;
  EXPECT_TRUE(parse_u32("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u32("4294967295", v));
  EXPECT_EQ(v, 4294967295u);
  EXPECT_FALSE(parse_u32("4294967296", v));
  EXPECT_FALSE(parse_u32("", v));
  EXPECT_FALSE(parse_u32("12a", v));
  EXPECT_FALSE(parse_u32("-1", v));
}

TEST(Strings, FormatOctal) {
  EXPECT_EQ(format_octal(0755, 4), "0755");
  EXPECT_EQ(format_octal(0, 4), "0000");
  EXPECT_EQ(format_octal(07777, 4), "7777");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(replace_all("aaa", "a", "aa"), "aaaaaa");
}

// --- errno ----------------------------------------------------------------------

TEST(Errno, ValuesMatchLinux) {
  EXPECT_EQ(err_value(Err::eperm), 1);
  EXPECT_EQ(err_value(Err::enoent), 2);
  EXPECT_EQ(err_value(Err::eacces), 13);
  EXPECT_EQ(err_value(Err::einval), 22);
  EXPECT_EQ(err_value(Err::enotsup), 95);
}

TEST(Errno, Messages) {
  EXPECT_EQ(err_message(Err::eperm), "Operation not permitted");
  EXPECT_EQ(err_message(Err::einval), "Invalid argument");
  EXPECT_EQ(err_name(Err::eloop), "ELOOP");
}

// --- transcript -------------------------------------------------------------------

TEST(Transcript, BlockSplitsLines) {
  Transcript t;
  t.block("a\nb\nc");
  EXPECT_EQ(t.lines().size(), 3u);
  t.block("d\n");
  EXPECT_EQ(t.lines().size(), 4u);
  EXPECT_TRUE(t.contains("b"));
  EXPECT_FALSE(t.contains("zzz"));
  EXPECT_EQ(t.count("a"), 1u);
  EXPECT_EQ(t.text(), "a\nb\nc\nd\n");
}

TEST(Transcript, PromptAndEcho) {
  Transcript t;
  std::string captured;
  t.set_echo([&](const std::string& l) { captured += l + ";"; });
  t.prompt("ls -l");
  EXPECT_EQ(captured, "$ ls -l;");
  EXPECT_TRUE(t.contains("$ ls -l"));
}

// --- Result -----------------------------------------------------------------------

Result<int> half(int x) {
  if (x % 2 != 0) return Err::einval;
  return x / 2;
}

TEST(Result, BasicFlow) {
  auto ok = half(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  auto bad = half(3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Err::einval);
  EXPECT_EQ(bad.value_or(-1), -1);
}

}  // namespace
}  // namespace minicon
