#include "eval/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fluxfp::eval {
namespace {

TEST(Config, ParseStreamBasics) {
  std::istringstream in(
      "nodes = 900\n"
      "radius=2.4\n"
      "  deployment =  grid  \n"
      "# full-line comment\n"
      "users = 3   # trailing comment\n"
      "\n");
  const Config cfg = Config::parse_stream(in);
  EXPECT_EQ(cfg.get_int("nodes", 0), 900);
  EXPECT_DOUBLE_EQ(cfg.get_double("radius", 0.0), 2.4);
  EXPECT_EQ(cfg.get_string("deployment"), "grid");
  EXPECT_EQ(cfg.get_int("users", 0), 3);
}

TEST(Config, LaterKeysOverride) {
  std::istringstream in("a = 1\na = 2\n");
  EXPECT_EQ(Config::parse_stream(in).get_int("a", 0), 2);
}

TEST(Config, ParseStreamRejectsMalformed) {
  std::istringstream missing_eq("novalue\n");
  EXPECT_THROW(Config::parse_stream(missing_eq), std::runtime_error);
  std::istringstream empty_key("= 3\n");
  EXPECT_THROW(Config::parse_stream(empty_key), std::runtime_error);
}

TEST(Config, TypedGettersFallbacksAndErrors) {
  std::istringstream in("x = abc\nn = 5\nf = 1.5\nb = yes\n");
  const Config cfg = Config::parse_stream(in);
  EXPECT_EQ(cfg.get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 2.5), 2.5);
  EXPECT_THROW(cfg.get_int("x", 0), std::runtime_error);
  EXPECT_THROW(cfg.get_double("x", 0.0), std::runtime_error);
  EXPECT_EQ(cfg.get_int("n", 0), 5);
  EXPECT_DOUBLE_EQ(cfg.get_double("n", 0.0), 5.0);
  EXPECT_EQ(cfg.get_string("b"), "yes");
}

TEST(Config, IntRejectsTrailingGarbage) {
  std::istringstream in("n = 5x\n");
  const Config cfg = Config::parse_stream(in);
  EXPECT_THROW(cfg.get_int("n", 0), std::runtime_error);
}

TEST(Config, ParseArgs) {
  // Note: a bare --flag greedily consumes a following non-option token as
  // its value, so boolean flags should use --flag=true or come last.
  const char* argv[] = {"prog",      "--nodes",  "900",
                        "--radius=2.4", "input.cfg", "--verbose"};
  const Config cfg = Config::parse_args(6, argv);
  EXPECT_EQ(cfg.get_int("nodes", 0), 900);
  EXPECT_DOUBLE_EQ(cfg.get_double("radius", 0.0), 2.4);
  EXPECT_EQ(cfg.get_string("verbose"), "true");
  ASSERT_EQ(cfg.positional().size(), 1u);
  EXPECT_EQ(cfg.positional()[0], "input.cfg");
}

TEST(Config, ParseArgsFlagAtEnd) {
  const char* argv[] = {"prog", "--quick"};
  const Config cfg = Config::parse_args(2, argv);
  EXPECT_EQ(cfg.get_string("quick"), "true");
}

TEST(Config, MergeOverrides) {
  std::istringstream base_in("a = 1\nb = 2\n");
  Config base = Config::parse_stream(base_in);
  std::istringstream over_in("b = 3\nc = 4\n");
  base.merge(Config::parse_stream(over_in));
  EXPECT_EQ(base.get_int("a", 0), 1);
  EXPECT_EQ(base.get_int("b", 0), 3);
  EXPECT_EQ(base.get_int("c", 0), 4);
}

TEST(Config, ParseFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fluxfp_config_test.cfg";
  {
    std::ofstream out(path);
    out << "nodes = 1200\nfraction = 0.1\n";
  }
  const Config cfg = Config::parse_file(path);
  EXPECT_EQ(cfg.get_int("nodes", 0), 1200);
  EXPECT_DOUBLE_EQ(cfg.get_double("fraction", 0.0), 0.1);
  std::remove(path.c_str());
}

TEST(Config, ParseFileMissingThrows) {
  EXPECT_THROW(Config::parse_file("/nonexistent/definitely_missing.cfg"),
               std::runtime_error);
}

}  // namespace
}  // namespace fluxfp::eval
