// CLI flag parser and PGM writer tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/cli.hpp"
#include "common/pgm.hpp"
#include "common/types.hpp"
#include "core/gridder.hpp"

namespace jigsaw {
namespace {

CliArgs parse(std::initializer_list<const char*> argv,
              std::vector<std::string> flags) {
  std::vector<const char*> v = {"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return CliArgs(static_cast<int>(v.size()), v.data(), flags);
}

TEST(Cli, ParsesSpaceSeparatedValues) {
  const auto a = parse({"--n", "128", "--engine", "slice-dice"},
                       {"n", "engine"});
  EXPECT_EQ(a.get_int("n", 0), 128);
  EXPECT_EQ(a.get("engine"), "slice-dice");
}

TEST(Cli, ParsesEqualsForm) {
  const auto a = parse({"--sigma=1.5", "--n=64"}, {"sigma", "n"});
  EXPECT_DOUBLE_EQ(a.get_double("sigma", 0), 1.5);
  EXPECT_EQ(a.get_int("n", 0), 64);
}

TEST(Cli, BooleanFlags) {
  const auto a = parse({"--3d", "--n", "32"}, {"3d", "n"});
  EXPECT_TRUE(a.has("3d"));
  EXPECT_FALSE(a.has("z-binned"));
  EXPECT_EQ(a.get_int("n", 0), 32);
}

TEST(Cli, BooleanFlagFollowedByFlag) {
  const auto a = parse({"--exact-weights", "--n", "16"},
                       {"exact-weights", "n"});
  EXPECT_TRUE(a.has("exact-weights"));
  EXPECT_EQ(a.get("exact-weights"), "");
  EXPECT_EQ(a.get_int("n", 0), 16);
}

TEST(Cli, PositionalArguments) {
  const auto a = parse({"recon", "--n", "8", "extra"}, {"n"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "recon");
  EXPECT_EQ(a.positional()[1], "extra");
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto a = parse({}, {"n"});
  EXPECT_EQ(a.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(a.get_double("n", 1.5), 1.5);
  EXPECT_EQ(a.get("n", "x"), "x");
}

TEST(Cli, RejectsUnknownFlag) {
  EXPECT_THROW(parse({"--bogus", "1"}, {"n"}), std::invalid_argument);
}

TEST(EngineParse, AcceptsEveryListedName) {
  using core::GridderKind;
  EXPECT_EQ(core::parse_gridder_kind("serial"), GridderKind::Serial);
  EXPECT_EQ(core::parse_gridder_kind("output-driven"),
            GridderKind::OutputDriven);
  EXPECT_EQ(core::parse_gridder_kind("binning"), GridderKind::Binning);
  EXPECT_EQ(core::parse_gridder_kind("slice-dice"), GridderKind::SliceDice);
  EXPECT_EQ(core::parse_gridder_kind("slice-and-dice"),
            GridderKind::SliceDice);
  EXPECT_EQ(core::parse_gridder_kind("jigsaw"), GridderKind::Jigsaw);
  EXPECT_EQ(core::parse_gridder_kind("sparse"), GridderKind::Sparse);
  EXPECT_EQ(core::parse_gridder_kind("sparse-matrix"), GridderKind::Sparse);
  EXPECT_EQ(core::parse_gridder_kind("float"), GridderKind::FloatSerial);
  EXPECT_EQ(core::parse_gridder_kind("serial-f32"), GridderKind::FloatSerial);
  EXPECT_EQ(core::parse_gridder_kind("auto"), GridderKind::Auto);
  EXPECT_EQ(core::parse_gridder_kind("tuned"), GridderKind::Auto);
}

TEST(EngineParse, UnknownNameThrowsWithOneLineDiagnostic) {
  // The retired vectorized twins' names are unknown engines too.
  for (const std::string name : {"bogus", "serial-simd", "binning-simd"}) {
    SCOPED_TRACE(name);
    try {
      core::parse_gridder_kind(name);
      ADD_FAILURE() << "must throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      // The jigsaw_cli contract: one line naming the bad engine AND listing
      // every valid name.
      EXPECT_NE(what.find("unknown engine '" + name + "', valid:"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(core::gridder_kind_names()), std::string::npos)
          << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << "must be one line";
    }
  }
}

TEST(EngineParse, ListedNamesRoundTripThroughParser) {
  // Every name advertised in the diagnostic must itself parse.
  const std::string names = core::gridder_kind_names();
  std::size_t start = 0;
  int count = 0;
  while (start < names.size()) {
    std::size_t end = names.find(", ", start);
    if (end == std::string::npos) end = names.size();
    const std::string name = names.substr(start, end - start);
    EXPECT_NO_THROW(core::parse_gridder_kind(name)) << name;
    ++count;
    start = end + 2;
  }
  EXPECT_EQ(count, 8);  // seven concrete engines + the "auto" sentinel
}

TEST(Pgm, WritesValidHeaderAndPayload) {
  std::vector<double> img = {0.0, 0.5, 1.0, 0.25};
  const std::string path = "test_pgm_out.pgm";
  ASSERT_TRUE(write_pgm(path, img, 2, 2));
  std::ifstream f(path, std::ios::binary);
  std::string magic;
  int w, h, maxval;
  f >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 2);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxval, 255);
  f.get();  // single whitespace after header
  unsigned char px[4];
  f.read(reinterpret_cast<char*>(px), 4);
  EXPECT_EQ(px[0], 0);    // min -> 0
  EXPECT_EQ(px[2], 255);  // max -> 255
  std::remove(path.c_str());
}

TEST(Pgm, ComplexOverloadUsesMagnitude) {
  std::vector<c64> img = {{3, 4}, {0, 0}};
  const std::string path = "test_pgm_c.pgm";
  ASSERT_TRUE(write_pgm(path, img, 2, 1));
  std::remove(path.c_str());
}

TEST(Pgm, ConstantImageDoesNotDivideByZero) {
  std::vector<double> img(9, 0.7);
  const std::string path = "test_pgm_const.pgm";
  ASSERT_TRUE(write_pgm(path, img, 3, 3));
  std::remove(path.c_str());
}

TEST(Pgm, RejectsGeometryMismatch) {
  std::vector<double> img(5, 0.0);
  EXPECT_FALSE(write_pgm("x.pgm", img, 2, 2));
  EXPECT_FALSE(write_pgm("x.pgm", img, 0, 5));
}

}  // namespace
}  // namespace jigsaw
