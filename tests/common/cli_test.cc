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
  // The whole value must parse, not just a leading number.
  EXPECT_THROW(Parse({"--n=12x"}).GetInt("n", 0), std::invalid_argument);
  EXPECT_THROW(Parse({"--d=0.5abc"}).GetDouble("d", 0.0),
               std::invalid_argument);
}

TEST(CommandLineTest, FlagWithoutValueReadsOnlyAsBoolean) {
  // --trace-out is followed by another flag, --last by nothing: neither has
  // a value. GetBool reads them as true; the string and number getters
  // refuse them instead of reading the string "true".
  auto cli = Parse({"--trace-out", "--seed", "1", "--last"});
  EXPECT_TRUE(cli.Has("trace-out"));
  EXPECT_TRUE(cli.GetBool("trace-out", false));
  EXPECT_TRUE(cli.GetBool("last", false));
  EXPECT_EQ(cli.GetSeed(7), 1u);
  for (const char* name : {"trace-out", "last"}) {
    EXPECT_THROW(cli.GetString(name, ""), std::invalid_argument) << name;
    EXPECT_THROW(cli.GetInt(name, 0), std::invalid_argument) << name;
    EXPECT_THROW(cli.GetDouble(name, 0.0), std::invalid_argument) << name;
    EXPECT_THROW(cli.GetDoubleList(name, {}), std::invalid_argument) << name;
  }
  try {
    cli.GetString("trace-out", "");
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --trace-out expects a value");
  }
  // A value spelled out is still a value.
  EXPECT_EQ(Parse({"--name=true"}).GetString("name", ""), "true");
  EXPECT_EQ(Parse({"--name", "true"}).GetString("name", ""), "true");
}

TEST(CommandLineTest, DoubleListParsesEveryItemWhole) {
  EXPECT_EQ(Parse({"--l=100,50.5"}).GetDoubleList("l", {}),
            (std::vector<double>{100.0, 50.5}));
  EXPECT_EQ(Parse({"--l", "7"}).GetDoubleList("l", {}),
            (std::vector<double>{7.0}));
  EXPECT_EQ(Parse({}).GetDoubleList("l", {1.0, 2.0}),
            (std::vector<double>{1.0, 2.0}));
  // Each item follows GetDouble's rule; an empty item is malformed too.
  for (const char* bad : {"--l=100x", "--l=100,5o", "--l=100,,50", "--l=100,",
                          "--l=,100", "--l="}) {
    EXPECT_THROW(Parse({bad}).GetDoubleList("l", {}), std::invalid_argument)
        << bad;
  }
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
  EXPECT_THROW(Parse({"--seed=42z"}).GetSeed(7), std::invalid_argument);
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
