// Unit tests: fundamental types, error machinery, bit utilities, RNG,
// strict environment-variable parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "fzmod/common/bits.hh"
#include "fzmod/common/env.hh"
#include "fzmod/common/error.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/common/types.hh"

namespace fzmod {
namespace {

TEST(Dims3, LenAndRank) {
  EXPECT_EQ(dims3(10).len(), 10u);
  EXPECT_EQ(dims3(10).rank(), 1);
  EXPECT_EQ(dims3(4, 5).len(), 20u);
  EXPECT_EQ(dims3(4, 5).rank(), 2);
  EXPECT_EQ(dims3(4, 5, 6).len(), 120u);
  EXPECT_EQ(dims3(4, 5, 6).rank(), 3);
}

TEST(Dims3, LinearIndexing) {
  const dims3 d{7, 5, 3};
  EXPECT_EQ(d.at(0, 0, 0), 0u);
  EXPECT_EQ(d.at(1, 0, 0), 1u);
  EXPECT_EQ(d.at(0, 1, 0), 7u);
  EXPECT_EQ(d.at(0, 0, 1), 35u);
  EXPECT_EQ(d.at(6, 4, 2), d.len() - 1);
}

TEST(EbConfig, ResolveAbsolute) {
  eb_config eb{1e-3, eb_mode::abs};
  EXPECT_DOUBLE_EQ(eb.resolve(100.0), 1e-3);
  EXPECT_DOUBLE_EQ(eb.resolve(0.0), 1e-3);
}

TEST(EbConfig, ResolveRelative) {
  eb_config eb{1e-3, eb_mode::rel};
  EXPECT_DOUBLE_EQ(eb.resolve(100.0), 0.1);
  // Constant field degrades to the raw bound rather than zero.
  EXPECT_DOUBLE_EQ(eb.resolve(0.0), 1e-3);
}

TEST(Error, CarriesStatusAndMessage) {
  try {
    FZMOD_REQUIRE(false, status::corrupt_archive, "boom");
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Bits, ZigZagRoundTrip32) {
  for (const i32 v : {0, 1, -1, 2, -2, 100, -100, 2147483647, -2147483647}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  // Small magnitudes map to small codes.
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Bits, ZigZagRoundTrip64) {
  for (const i64 v : {i64{0}, i64{-1}, i64{1}, i64{1} << 40, -(i64{1} << 40),
                      INT64_MAX, INT64_MIN + 1}) {
    EXPECT_EQ(zigzag_decode64(zigzag_encode64(v)), v) << v;
  }
}

TEST(Bits, BitWidth) {
  EXPECT_EQ(bit_width_u32(0), 0u);
  EXPECT_EQ(bit_width_u32(1), 1u);
  EXPECT_EQ(bit_width_u32(2), 2u);
  EXPECT_EQ(bit_width_u32(255), 8u);
  EXPECT_EQ(bit_width_u32(256), 9u);
  EXPECT_EQ(bit_width_u32(0xffffffffu), 32u);
}

TEST(Bits, WriterReaderRoundTrip) {
  std::vector<u8> buf(128, 0);
  bit_writer bw(buf.data());
  bw.put(0b101, 3);
  bw.put(0xbeef, 16);
  bw.put(1, 1);
  bw.put(0x123456789aULL, 40);
  EXPECT_EQ(bw.bits_written(), 60u);

  bit_reader br(buf.data());
  EXPECT_EQ(br.get(3), 0b101u);
  EXPECT_EQ(br.get(16), 0xbeefu);
  EXPECT_EQ(br.get(1), 1u);
  EXPECT_EQ(br.get(40), 0x123456789aULL);
}

TEST(Bits, MsbWriterMatchesReservoirAndStaysInBounds) {
  // Random code lengths 1..24 (the Huffman cap), streams ending at every
  // bit phase: the reservoir must read back every code, the final byte
  // must be zero-padded, and no byte past ceil(bits/8) may be touched.
  rng r(5);
  for (u32 ncodes = 0; ncodes < 80; ++ncodes) {
    std::vector<std::pair<u32, u32>> codes(ncodes);
    u64 bits = 0;
    for (auto& [code, len] : codes) {
      len = 1 + static_cast<u32>(r.next_below(24));
      code = static_cast<u32>(r.next_u64()) & ((u32{1} << len) - 1);
      bits += len;
    }
    const u64 nbytes = (bits + 7) / 8;
    std::vector<u8> buf(nbytes + 16, 0xa5);
    msb_bit_writer w(buf.data());
    for (const auto& [code, len] : codes) w.put(code, len);
    w.flush();
    for (u64 i = nbytes; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], 0xa5) << "ncodes " << ncodes << " byte " << i;
    }
    if (bits % 8) {
      EXPECT_EQ(buf[nbytes - 1] & ((1u << (8 - bits % 8)) - 1), 0u);
    }
    std::fill(buf.begin() + static_cast<std::ptrdiff_t>(nbytes), buf.end(),
              0);
    msb_bit_reservoir br(buf.data());
    for (const auto& [code, len] : codes) {
      br.ensure(len);
      ASSERT_EQ(br.peek(len), code);
      br.consume(len);
    }
  }
}

TEST(Bits, ReaderPeekDoesNotConsume) {
  std::vector<u8> buf(64, 0);
  bit_writer bw(buf.data());
  bw.put(0x5a, 8);
  bit_reader br(buf.data());
  EXPECT_EQ(br.peek(8), 0x5au);
  EXPECT_EQ(br.position(), 0u);
  EXPECT_EQ(br.get(8), 0x5au);
  EXPECT_EQ(br.position(), 8u);
}

TEST(Env, ParseU64AcceptsOnlyStrictBase10) {
  EXPECT_EQ(common::parse_u64("0", "X"), 0u);
  EXPECT_EQ(common::parse_u64("123", "X"), 123u);
  EXPECT_EQ(common::parse_u64("18446744073709551615", "X"), ~u64{0});
  for (const char* bad :
       {"", "-1", "+5", "12x", " 12", "12 ", "0x10", "1.5", "four",
        "18446744073709551616", "99999999999999999999999"}) {
    try {
      (void)common::parse_u64(bad, "FZMOD_TEST_KNOB");
      FAIL() << "expected throw for '" << bad << "'";
    } catch (const error& e) {
      EXPECT_EQ(e.code(), status::invalid_argument);
      // The message names the knob so the user knows what to fix.
      EXPECT_NE(std::string(e.what()).find("FZMOD_TEST_KNOB"),
                std::string::npos);
    }
  }
}

TEST(Env, ParseU64PairIsStrictOnBothSides) {
  // Regression for the CLI `--range` parser: the old sscanf accepted
  // trailing garbage ("700,300junk"), extra fields ("1,2,3"), and
  // wrapped negative counts. Strict now.
  const auto [a, b] = common::parse_u64_pair("700,300", "--range");
  EXPECT_EQ(a, 700u);
  EXPECT_EQ(b, 300u);
  const auto [z0, z1] = common::parse_u64_pair("0,0", "--range");
  EXPECT_EQ(z0, 0u);
  EXPECT_EQ(z1, 0u);
  for (const char* bad : {"", ",", "700", "700,", ",300", "1,2,3",
                          "700;300", "700,300junk", "a,3", "5,-2",
                          " 7,2", "7, 2", "99999999999999999999999,1"}) {
    EXPECT_THROW((void)common::parse_u64_pair(bad, "--range"), error)
        << "accepted '" << bad << "'";
  }
}

TEST(Env, EnvU64FallsBackOnlyWhenUnsetOrEmpty) {
  unsetenv("FZMOD_TEST_KNOB");
  EXPECT_EQ(common::env_u64("FZMOD_TEST_KNOB", 42), 42u);
  setenv("FZMOD_TEST_KNOB", "", 1);
  EXPECT_EQ(common::env_u64("FZMOD_TEST_KNOB", 42), 42u);
  setenv("FZMOD_TEST_KNOB", "7", 1);
  EXPECT_EQ(common::env_u64("FZMOD_TEST_KNOB", 42), 7u);
  setenv("FZMOD_TEST_KNOB", "7seven", 1);
  EXPECT_THROW((void)common::env_u64("FZMOD_TEST_KNOB", 42), error);
  unsetenv("FZMOD_TEST_KNOB");
}

TEST(Rng, Deterministic) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformRange) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const f64 v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  rng r(13);
  f64 sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const f64 v = r.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Round, InlineLlrintMatchesLibm) {
  // The build compiles with -fno-math-errno, so std::llrint is one inline
  // cvtsd2si on x86-64. Calling libm's llrint through a volatile pointer
  // keeps the out-of-line version to compare against. Cases: ties (round
  // half to even), signed zero, the i32 edges the quantizers clamp near,
  // the largest doubles that still carry a fraction bit, out of range.
  long long (*volatile libm_llrint)(double) = &::llrint;
  const f64 p31 = 0x1.0p31, p52 = 0x1.0p52;
  const f64 cases[] = {0.5,       -0.5,       1.5,        -1.5,
                       2.5,       -2.5,       -0.0,       0.0,
                       p31 + 0.5, p31 - 0.5,  -p31 + 0.5, -p31 - 0.5,
                       p52 + 0.5, p52 - 0.5,  -p52 + 0.5, -p52 - 0.5,
                       0.49999999999999994,   -1e300,     1e300};
  for (const f64 v : cases) {
    EXPECT_EQ(std::llrint(v), libm_llrint(v)) << v;
  }
  EXPECT_EQ(std::llrint(0.5), 0);
  EXPECT_EQ(std::llrint(1.5), 2);
  EXPECT_EQ(std::llrint(-2.5), -2);
}

}  // namespace
}  // namespace fzmod
