#include "util/cli.h"

#include <gtest/gtest.h>

namespace {

using ncsw::util::Cli;

Cli make_cli() {
  Cli cli("prog", "test program");
  cli.add_int("n", 10, "count");
  cli.add_double("rate", 1.5, "rate");
  cli.add_string("name", "foo", "a name");
  cli.add_bool("verbose", false, "chatty");
  return cli;
}

TEST(Cli, DefaultsApply) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 10);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.5);
  EXPECT_EQ(cli.get_string("name"), "foo");
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(Cli, EqualsSyntax) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n=42", "--rate=2.25", "--name=bar"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 2.25);
  EXPECT_EQ(cli.get_string("name"), "bar");
}

TEST(Cli, SpaceSyntax) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n", "7"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), 7);
}

TEST(Cli, BareBoolSetsTrue) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, BoolExplicitValues) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose=true"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));

  Cli cli2 = make_cli();
  const char* argv2[] = {"prog", "--verbose=0"};
  ASSERT_TRUE(cli2.parse(2, argv2));
  EXPECT_FALSE(cli2.get_bool("verbose"));
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(cli.parse(2, argv), std::runtime_error);
}

TEST(Cli, MalformedIntThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n=12x"};
  EXPECT_THROW(cli.parse(2, argv), std::runtime_error);
}

TEST(Cli, MalformedDoubleThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--rate=abc"};
  EXPECT_THROW(cli.parse(2, argv), std::runtime_error);
}

TEST(Cli, NonFiniteDoubleThrows) {
  for (const char* bad : {"--rate=nan", "--rate=NaN", "--rate=inf",
                          "--rate=-inf", "--rate=infinity", "--rate=1e999"}) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", bad};
    EXPECT_THROW(cli.parse(2, argv), std::runtime_error) << bad;
  }
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--rate=-1e300"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), -1e300);
}

TEST(Cli, MissingValueThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), std::runtime_error);
}

TEST(Cli, PositionalArgumentsCollected) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "one", "--n=3", "two"};
  ASSERT_TRUE(cli.parse(4, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "one");
  EXPECT_EQ(cli.positional()[1], "two");
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpTextListsFlags) {
  Cli cli = make_cli();
  const std::string h = cli.help();
  EXPECT_NE(h.find("--n"), std::string::npos);
  EXPECT_NE(h.find("--rate"), std::string::npos);
  EXPECT_NE(h.find("default: 10"), std::string::npos);
}

TEST(Cli, WrongTypeAccessThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW(cli.get_int("rate"), std::runtime_error);
  EXPECT_THROW(cli.get_bool("n"), std::runtime_error);
  EXPECT_THROW(cli.get_string("unregistered"), std::runtime_error);
}

}  // namespace
