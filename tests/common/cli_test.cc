#include "common/cli.h"

#include <gtest/gtest.h>

namespace mwp {
namespace {

CommandLine Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CommandLine(static_cast<int>(argv.size()), argv.data());
}

TEST(CommandLineTest, EqualsSyntax) {
  auto cli = Parse({"--jobs=800", "--interarrival=260.5"});
  EXPECT_EQ(cli.GetInt("jobs", 0), 800);
  EXPECT_DOUBLE_EQ(cli.GetDouble("interarrival", 0.0), 260.5);
}

TEST(CommandLineTest, SpaceSyntax) {
  auto cli = Parse({"--jobs", "42"});
  EXPECT_EQ(cli.GetInt("jobs", 0), 42);
}

TEST(CommandLineTest, BooleanFlags) {
  auto cli = Parse({"--verbose", "--quiet=false"});
  EXPECT_TRUE(cli.GetBool("verbose", false));
  EXPECT_FALSE(cli.GetBool("quiet", true));
  EXPECT_TRUE(cli.GetBool("absent", true));
}

TEST(CommandLineTest, Defaults) {
  auto cli = Parse({});
  EXPECT_EQ(cli.GetString("name", "fallback"), "fallback");
  EXPECT_EQ(cli.GetInt("n", -1), -1);
  EXPECT_FALSE(cli.Has("anything"));
}

TEST(CommandLineTest, Positional) {
  auto cli = Parse({"first", "--flag=1", "second"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "first");
  EXPECT_EQ(cli.positional()[1], "second");
}

TEST(CommandLineTest, MalformedNumberThrows) {
  auto cli = Parse({"--n=abc"});
  EXPECT_THROW(cli.GetInt("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.GetDouble("n", 0.0), std::invalid_argument);
}

TEST(CommandLineTest, MalformedBoolThrows) {
  auto cli = Parse({"--b=maybe"});
  EXPECT_THROW(cli.GetBool("b", false), std::invalid_argument);
}

TEST(CommandLineTest, GetSeedParsesAndValidates) {
  EXPECT_EQ(Parse({"--seed=42"}).GetSeed(7), 42u);
  EXPECT_EQ(Parse({}).GetSeed(7), 7u);
  EXPECT_THROW(Parse({"--seed=-3"}).GetSeed(7), std::invalid_argument);
  EXPECT_THROW(Parse({"--seed=xyz"}).GetSeed(7), std::invalid_argument);
}

TEST(CommandLineTest, UnreadFlagsAreRejected) {
  // A flag that no Get* or Has call read, such as --job misspelt for
  // --jobs, is named in the error until something reads it.
  auto cli = Parse({"--jobs=12", "--csv", "--seed", "3", "--trace-out=t.jsonl",
                    "--job", "12", "--verbose"});
  EXPECT_EQ(cli.GetInt("jobs", 800), 12);
  EXPECT_TRUE(cli.GetBool("csv", false));
  EXPECT_EQ(cli.GetSeed(7), 3u);
  EXPECT_TRUE(cli.Has("trace-out"));
  EXPECT_EQ(cli.GetString("absent", "x"), "x");
  const auto error = [&cli]() -> std::string {
    try {
      cli.RejectUnknownFlags();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error(), "unknown flag(s): --job --verbose");
  EXPECT_TRUE(cli.GetBool("verbose", false));
  EXPECT_EQ(error(), "unknown flag(s): --job");
  EXPECT_EQ(cli.GetInt("job", 0), 12);
  EXPECT_EQ(error(), "");
  EXPECT_NO_THROW(Parse({"positional"}).RejectUnknownFlags());
}

}  // namespace
}  // namespace mwp
