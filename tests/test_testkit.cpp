// The property-testing harness itself: generator determinism, the
// check()/shrink contract (failing seed printed, rerun reproduces
// byte-for-byte, counterexamples minimal), the structure-aware mutator, and
// the committed seed corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>

#include "net/ipv4.hpp"
#include "testkit/testkit.hpp"

using namespace malnet;
using namespace malnet::testkit;

namespace {

// Fixed-seed config so these tests ignore MALNET_CHECK_SEED/MALNET_FUZZ_CASES
// overrides from the environment (they test the harness, not the decoders).
CheckConfig fixed_cfg(int cases) {
  CheckConfig cfg;
  cfg.cases = cases;
  cfg.env_overrides = false;
  return cfg;
}

}  // namespace

// --- Gen --------------------------------------------------------------------

TEST(Gen, SameSeedSameSequence) {
  const auto gen = byte_strings(0, 64);
  util::Rng a(7, 1), b(7, 1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(gen(a), gen(b));
}

TEST(Gen, DifferentStreamsDecorrelate) {
  const auto gen = byte_strings(16, 16);
  util::Rng a(7, 1), b(7, 3);
  int equal = 0;
  for (int i = 0; i < 20; ++i) {
    if (gen(a) == gen(b)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Gen, IntsStayInRange) {
  const auto gen = ints<int>(-5, 17);
  util::Rng rng(3, 1);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = gen(rng);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 23u);  // whole range hit
}

TEST(Gen, MapAndApplyCompose) {
  const auto ip = apply(
      [](std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) {
        return net::Ipv4{a, b, c, d};
      },
      any_byte(), any_byte(), any_byte(), any_byte());
  const auto rendered = ip.map([](net::Ipv4 v) { return net::to_string(v); });
  util::Rng rng(9, 1);
  const auto s = rendered(rng);
  EXPECT_TRUE(net::parse_ipv4(s).has_value()) << s;
}

TEST(Gen, WeightedRespectsZeroWeight) {
  const auto gen = weighted<int>({{1.0, 1}, {0.0, 2}, {3.0, 3}});
  util::Rng rng(11, 1);
  for (int i = 0; i < 200; ++i) EXPECT_NE(gen(rng), 2);
}

TEST(Gen, VectorsOfRespectsBounds) {
  const auto gen = vectors_of(ints<int>(0, 9), 2, 5);
  util::Rng rng(13, 1);
  for (int i = 0; i < 100; ++i) {
    const auto v = gen(rng);
    EXPECT_GE(v.size(), 2u);
    EXPECT_LE(v.size(), 5u);
  }
}

// --- check() ----------------------------------------------------------------

TEST(Check, PassingPropertyRunsAllCases) {
  const auto r = check(ints<int>(0, 100), [](int v) { return v <= 100; },
                       fixed_cfg(250));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.cases_run, 250);
  EXPECT_EQ(r.summary(), "");
}

TEST(Check, FailureReportsSeedAndCase) {
  auto cfg = fixed_cfg(500);
  cfg.seed = 42;
  cfg.name = "always-fails";
  const auto r = check(ints<int>(0, 1000), [](int) { return false; }, cfg);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(r.failing_case, 0);
  EXPECT_NE(r.summary().find("MALNET_CHECK_SEED=42"), std::string::npos);
  EXPECT_NE(r.summary().find("counterexample"), std::string::npos);
}

TEST(Check, RerunWithSameSeedReproducesByteForByte) {
  auto cfg = fixed_cfg(500);
  cfg.seed = 1234;
  const auto prop = [](const util::Bytes& v) { return v.size() < 48; };
  const auto a = check(byte_strings(0, 64), prop, cfg);
  const auto b = check(byte_strings(0, 64), prop, cfg);
  ASSERT_FALSE(a.ok);
  EXPECT_EQ(a.failing_case, b.failing_case);
  EXPECT_EQ(a.original, b.original);            // identical pre-shrink input
  EXPECT_EQ(a.counterexample, b.counterexample);  // identical shrink path
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(Check, ShrinksBytesToMinimalLength) {
  // Fails iff size >= 10: the minimal counterexample is 10 zero bytes.
  const auto r = check(byte_strings(0, 200),
                       [](const util::Bytes& v) { return v.size() < 10; },
                       fixed_cfg(200));
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.counterexample, "len=10 hex=00000000000000000000");
}

TEST(Check, ShrinksIntegerTowardZero) {
  const auto r = check(ints<std::uint32_t>(0, 1'000'000),
                       [](std::uint32_t v) { return v < 100; }, fixed_cfg(200));
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.counterexample, "100");
}

TEST(Check, PropertyExceptionIsCapturedNotPropagated) {
  const auto r = check(ints<int>(0, 10),
                       [](int v) -> bool {
                         if (v > 2) throw std::runtime_error("boom at " + std::to_string(v));
                         return true;
                       },
                       fixed_cfg(100));
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("threw: boom"), std::string::npos);
  // Shrinking drives the input down to the smallest still-throwing value.
  EXPECT_EQ(r.counterexample, "3");
}

TEST(Check, CheckEachCoversExplicitInputs) {
  const std::vector<util::Bytes> inputs = {{0x01}, {0x02, 0x03}, {}};
  const auto ok = check_each(inputs, [](util::BytesView) { return true; });
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.cases_run, 3);
  const auto bad =
      check_each(inputs, [](util::BytesView v) { return v.size() != 2; }, "pair");
  ASSERT_FALSE(bad.ok);
  EXPECT_EQ(bad.failing_case, 1);
  EXPECT_NE(bad.counterexample.find("0203"), std::string::npos);
}

// --- Mutator ----------------------------------------------------------------

TEST(Mutator, DeterministicGivenRngState) {
  const Mutator m;
  const auto input = util::from_hex("0010 00000078 01 01 cb007109 20 00");
  util::Rng a(5, 1), b(5, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.mutate(input, a), m.mutate(input, b));
}

TEST(Mutator, ProducesVariedMutants) {
  const Mutator m;
  const auto input = corpus_file("mirai_attack.bin");
  util::Rng rng(8, 1);
  // Keyed as strings: GCC 12 at -O3 reports a false -Wstringop-overread in
  // the vector<uint8_t> ordering a std::set<util::Bytes> would use.
  std::set<std::string> variants;
  for (int i = 0; i < 200; ++i) {
    const auto mutant = m.mutate(input, rng);
    variants.emplace(mutant.begin(), mutant.end());
  }
  EXPECT_GT(variants.size(), 100u);  // not stuck mutating one way
}

TEST(Mutator, TruncateShortens) {
  const Mutator m;
  const auto input = corpus_file("dns_response.bin");
  util::Rng rng(2, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(m.truncate(input, rng).size(), input.size());
  }
  EXPECT_TRUE(m.truncate({}, rng).empty());
}

TEST(Mutator, FindsTheMiraiLengthPrefix) {
  // encode_attack frames the body behind a u16 length prefix at offset 0.
  const auto wire = corpus_file("mirai_attack.bin");
  const auto fields = find_length_fields(wire);
  const bool found =
      std::any_of(fields.begin(), fields.end(), [&](const LengthField& f) {
        return f.offset == 0 && f.width == 2 && f.value == wire.size() - 2;
      });
  EXPECT_TRUE(found) << "length-prefix heuristic missed the lp16 frame";
}

TEST(Mutator, FindsThePcapInclLenField) {
  // Per-record incl_len sits 8 bytes into each pcap record header.
  const auto pcap = corpus_file("mini.pcap");
  const auto fields = find_length_fields(pcap);
  const bool found =
      std::any_of(fields.begin(), fields.end(), [&](const LengthField& f) {
        return f.offset == 24 + 8 && f.width == 4;
      });
  EXPECT_TRUE(found);
}

TEST(Mutator, CorruptLengthChangesOnlyAPlausibleField) {
  const Mutator m;
  const auto input = corpus_file("mirai_attack.bin");
  util::Rng rng(4, 1);
  for (int i = 0; i < 50; ++i) {
    const auto mutant = m.corrupt_length(input, rng);
    ASSERT_EQ(mutant.size(), input.size());
    EXPECT_NE(mutant, input);  // candidate values exclude the original
  }
}

// --- Corpus -----------------------------------------------------------------

TEST(Corpus, LoadsCommittedEntriesSorted) {
  const auto entries = load_default_corpus();
  ASSERT_GE(entries.size(), 15u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].name, entries[i].name);
  }
  for (const auto& e : entries) EXPECT_FALSE(e.data.empty()) << e.name;
}

TEST(Corpus, PrefixSelectionAndMissingPrefixThrow) {
  EXPECT_GE(corpus_inputs("mirai_").size(), 3u);
  EXPECT_GE(corpus_inputs("dns_").size(), 2u);
  EXPECT_THROW((void)corpus_inputs("no_such_prefix_"), std::runtime_error);
  EXPECT_THROW((void)load_corpus("/nonexistent/dir"), std::runtime_error);
}

TEST(Corpus, EnvOverrideWins) {
  ASSERT_EQ(setenv("MALNET_CORPUS_DIR", "/tmp/malnet-no-such-corpus", 1), 0);
  EXPECT_EQ(corpus_dir(), "/tmp/malnet-no-such-corpus");
  ASSERT_EQ(unsetenv("MALNET_CORPUS_DIR"), 0);
  EXPECT_NE(corpus_dir(), "/tmp/malnet-no-such-corpus");
}
