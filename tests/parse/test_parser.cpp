#include "parse/parser.hpp"

#include <gtest/gtest.h>

#include "exprlang.hpp"

namespace mmx::parse {
namespace {

using test::ExprLang;

struct Parsed {
  SourceManager sm;
  DiagnosticEngine diags;
  ast::NodePtr root;
};

Parsed parseText(const grammar::Grammar& g, const std::string& text) {
  Parsed p;
  Parser parser(g);
  FileId f = p.sm.add("t.xc", text);
  p.root = parser.parse(p.sm, f, p.diags);
  return p;
}

TEST(Parser, SingleIdentifier) {
  ExprLang l;
  auto p = parseText(l.g, "x");
  ASSERT_TRUE(p.root);
  EXPECT_EQ(ast::toSexpr(p.root), "(e_t (t_f (f_id 'x')))");
}

TEST(Parser, PrecedenceViaGrammarStratification) {
  ExprLang l;
  auto p = parseText(l.g, "a + b * c");
  ASSERT_TRUE(p.root);
  EXPECT_EQ(ast::toSexpr(p.root),
            "(e_add (e_t (t_f (f_id 'a'))) '+' "
            "(t_mul (t_f (f_id 'b')) '*' (f_id 'c')))");
}

TEST(Parser, ParensOverridePrecedence) {
  ExprLang l;
  auto p = parseText(l.g, "(a + b) * c");
  ASSERT_TRUE(p.root);
  EXPECT_EQ(ast::toSexpr(p.root),
            "(e_t (t_mul (t_f (f_paren '(' (e_add (e_t (t_f (f_id 'a'))) '+' "
            "(t_f (f_id 'b'))) ')')) '*' (f_id 'c')))");
}

TEST(Parser, LeftAssociativity) {
  ExprLang l;
  auto p = parseText(l.g, "a + b + c");
  ASSERT_TRUE(p.root);
  // (a+b)+c, not a+(b+c)
  EXPECT_EQ(ast::toSexpr(p.root),
            "(e_add (e_add (e_t (t_f (f_id 'a'))) '+' (t_f (f_id 'b'))) '+' "
            "(t_f (f_id 'c')))");
}

TEST(Parser, SyntaxErrorReportsExpectedSet) {
  ExprLang l;
  auto p = parseText(l.g, "a + * b");
  EXPECT_FALSE(p.root);
  ASSERT_TRUE(p.diags.hasErrors());
  std::string msg = p.diags.all()[0].message;
  EXPECT_NE(msg.find("expected one of"), std::string::npos);
  EXPECT_NE(msg.find("id"), std::string::npos);
}

TEST(Parser, UnexpectedEofReported) {
  ExprLang l;
  auto p = parseText(l.g, "a +");
  EXPECT_FALSE(p.root);
  ASSERT_TRUE(p.diags.hasErrors());
  EXPECT_NE(p.diags.all()[0].message.find("unexpected end of input"),
            std::string::npos);
}

TEST(Parser, UnbalancedParenReported) {
  ExprLang l;
  auto p = parseText(l.g, "(a + b");
  EXPECT_FALSE(p.root);
  EXPECT_TRUE(p.diags.hasErrors());
}

TEST(Parser, NodeRangesCoverTheirText) {
  ExprLang l;
  auto p = parseText(l.g, "ab + cd");
  ASSERT_TRUE(p.root);
  EXPECT_EQ(p.sm.snippet(p.root->range), "ab + cd");
  // Left operand subtree covers "ab".
  EXPECT_EQ(p.sm.snippet(p.root->child(0)->range), "ab");
}

TEST(Parser, ParentPointersWired) {
  ExprLang l;
  auto p = parseText(l.g, "a * b");
  ASSERT_TRUE(p.root);
  EXPECT_EQ(p.root->child(0)->parent, p.root.get());
  EXPECT_EQ(p.root->child(0)->child(0)->parent, p.root->child(0).get());
  EXPECT_EQ(p.root->parent, nullptr);
}

TEST(Parser, FindHelpers) {
  ExprLang l;
  auto p = parseText(l.g, "a + b + c");
  ASSERT_TRUE(p.root);
  EXPECT_TRUE(ast::findFirst(p.root, "e_add"));
  EXPECT_EQ(ast::findAll(p.root, "f_id").size(), 3u);
  EXPECT_FALSE(ast::findFirst(p.root, "nonexistent"));
}

// Context-aware scanning through the full parser: a keyword of an
// "extension" is also usable as an identifier where the keyword isn't
// valid. Grammar: S -> 'loop' id | id. The word `loop` after `loop` must
// scan as id.
TEST(Parser, ContextAwareKeywordReuse) {
  grammar::Grammar g;
  g.addTerminal({"WS", "[ ]+", false, 0, true});
  auto tId = g.addTerminal({"id", "[a-z]+", false, 0, false});
  auto tLoop = g.addTerminal({"'loop'", "loop", true, 10, false});
  auto S = g.addNonterminal("S");
  using grammar::GSym;
  g.addProduction(S, {GSym::term(tLoop), GSym::term(tId)}, "s_loop", "ext");
  g.addProduction(S, {GSym::term(tId)}, "s_id", "host");
  g.setStart(S);
  g.computeNullable();

  // "loop loop": first `loop` is the keyword (state 0 allows both, keyword
  // precedence wins); second `loop` is scanned in a state where only id is
  // valid — context-aware scanning resolves it.
  auto p = parseText(g, "loop loop");
  ASSERT_TRUE(p.root) << p.diags.render(p.sm);
  EXPECT_EQ(ast::toSexpr(p.root), "(s_loop 'loop' 'loop')");
}

TEST(Parser, EmptyInputIsSyntaxError) {
  ExprLang l;
  auto p = parseText(l.g, "   ");
  EXPECT_FALSE(p.root);
  EXPECT_TRUE(p.diags.hasErrors());
}

} // namespace
} // namespace mmx::parse
