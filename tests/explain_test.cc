// The EXPLAIN surface: ParseStatement's EXPLAIN prefix, golden plan text
// (stable across engines, seeds, and repeated calls), strategy labels per
// mechanism, fingerprint semantics, and the JSON rendering.

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"

namespace ldp {
namespace {

Table SmallTable(uint64_t n = 2000, uint64_t seed = 77) {
  TableSpec spec;
  spec.dims.push_back(
      {"a", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kUniform, 1.0});
  spec.dims.push_back(
      {"b", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kZipf, 1.1});
  spec.measures.push_back({"m", 0.0, 5.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, seed).ValueOrDie();
}

std::unique_ptr<AnalyticsEngine> MakeEngine(
    const Table& table, MechanismKind kind = MechanismKind::kHio,
    uint64_t seed = 42) {
  EngineOptions options;
  options.mechanism = kind;
  options.params.epsilon = 2.0;
  options.params.hash_pool_size = 256;
  options.seed = seed;
  return AnalyticsEngine::Create(table, options).ValueOrDie();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string LineStartingWith(const std::string& text,
                             const std::string& prefix) {
  for (const auto& line : Lines(text)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

TEST(ParseStatementTest, ExplainPrefixSetsFlag) {
  const Table table = SmallTable();
  const auto plain =
      ParseStatement(table.schema(), "SELECT COUNT(*) FROM T WHERE a <= 5")
          .ValueOrDie();
  EXPECT_FALSE(plain.explain);

  const auto explained =
      ParseStatement(table.schema(),
                     "EXPLAIN SELECT COUNT(*) FROM T WHERE a <= 5")
          .ValueOrDie();
  EXPECT_TRUE(explained.explain);
  EXPECT_EQ(explained.query.ToString(table.schema()),
            plain.query.ToString(table.schema()));

  // Keywords are case-insensitive, like the rest of the grammar.
  EXPECT_TRUE(ParseStatement(table.schema(),
                             "explain select count(*) from T where a <= 5")
                  .ValueOrDie()
                  .explain);

  // EXPLAIN with nothing to explain is an error, not an empty query.
  EXPECT_FALSE(ParseStatement(table.schema(), "EXPLAIN").ok());
}

TEST(ExplainTest, GoldenTextForSimpleCount) {
  const Table table = SmallTable();
  const auto engine = MakeEngine(table);
  const std::string text =
      engine->ExplainSql("EXPLAIN SELECT COUNT(*) FROM T WHERE a IN [2, 9]")
          .ValueOrDie();

  // The exact lines a COUNT over one range plans to: a single weight
  // materialization, one estimate per IE term, one compose.
  EXPECT_EQ(LineStartingWith(text, "mechanism:"), "mechanism: HIO");
  EXPECT_EQ(LineStartingWith(text, "strategy:"),
            "strategy: direct-level-grid");
  EXPECT_EQ(LineStartingWith(text, "components:"), "components: COUNT");
  EXPECT_EQ(LineStartingWith(text, "ie_terms:"), "ie_terms: 1");
  EXPECT_EQ(LineStartingWith(text, "query_dims:"), "query_dims: 1");
  EXPECT_EQ(LineStartingWith(text, "epoch:"),
            "epoch: " + std::to_string(engine->mechanism().num_reports()));
  EXPECT_EQ(LineStartingWith(text, "  0:"),
            "  0: ExactFilter component=COUNT key=\"0||\"");
  const std::string estimate_line = LineStartingWith(text, "  1:");
  EXPECT_EQ(estimate_line.rfind(
                "  1: NodeEstimate component=COUNT term=0 weights=0 deps=[0]",
                0),
            0u)
      << estimate_line;
  EXPECT_EQ(LineStartingWith(text, "  2:"), "  2: AggregateCompose deps=[1]");

  // The fingerprint renders as exactly 16 hex digits.
  const std::string fp = LineStartingWith(text, "fingerprint:");
  ASSERT_EQ(fp.size(), std::string("fingerprint: ").size() + 16);
  for (size_t i = std::string("fingerprint: ").size(); i < fp.size(); ++i) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(fp[i]))) << fp;
  }
}

TEST(ExplainTest, TextIsStableAcrossEnginesAndCalls) {
  const Table table = SmallTable();
  const Query query =
      ParseQuery(table.schema(),
                 "SELECT AVG(m) FROM T WHERE a IN [2, 9] OR b IN [4, 12]")
          .ValueOrDie();
  const auto e1 = MakeEngine(table);
  const auto e2 = MakeEngine(table);
  const std::string t1 = e1->Explain(query).ValueOrDie();
  EXPECT_EQ(t1, e1->Explain(query).ValueOrDie());  // repeat: identical
  EXPECT_EQ(t1, e2->Explain(query).ValueOrDie());  // fresh engine: identical
  // All three entry points agree.
  const char* sql = "SELECT AVG(m) FROM T WHERE a IN [2, 9] OR b IN [4, 12]";
  EXPECT_EQ(t1, e1->ExplainSql(sql).ValueOrDie());
  EXPECT_EQ(t1, e1->ExplainSql(std::string("EXPLAIN ") + sql).ValueOrDie());
}

TEST(ExplainTest, FingerprintIdentifiesPlanStructure) {
  const Table table = SmallTable();
  const Query q1 =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a <= 5")
          .ValueOrDie();
  const Query q2 =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a <= 6")
          .ValueOrDie();

  // Different collection seeds produce different reports but the same plan
  // structure: fingerprints match (epoch is excluded from the checksum).
  const auto e1 = MakeEngine(table, MechanismKind::kHio, /*seed=*/1);
  const auto e2 = MakeEngine(table, MechanismKind::kHio, /*seed=*/2);
  const auto p1 = e1->PlanFor(q1).ValueOrDie();
  const auto p2 = e2->PlanFor(q1).ValueOrDie();
  EXPECT_EQ(p1->fingerprint, p2->fingerprint);
  EXPECT_NE(p1->fingerprint, 0u);

  // A structurally different query gets a different fingerprint.
  const auto p3 = e1->PlanFor(q2).ValueOrDie();
  EXPECT_NE(p1->fingerprint, p3->fingerprint);
}

TEST(ExplainTest, StrategyLabelsFollowTheMechanism) {
  const Table table = SmallTable();
  const Query query =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a <= 5")
          .ValueOrDie();
  EXPECT_EQ(LineStartingWith(
                MakeEngine(table, MechanismKind::kMg)->Explain(query)
                    .ValueOrDie(),
                "strategy:"),
            "strategy: mg-cell-stream");
  EXPECT_EQ(LineStartingWith(
                MakeEngine(table, MechanismKind::kSc)->Explain(query)
                    .ValueOrDie(),
                "strategy:"),
            "strategy: sc-dual-path");
  EXPECT_EQ(LineStartingWith(
                MakeEngine(table, MechanismKind::kHi)->Explain(query)
                    .ValueOrDie(),
                "strategy:"),
            "strategy: direct-level-grid");
}

TEST(ExplainTest, NewMechanismStrategyLabels) {
  const Table table = SmallTable();
  const Query query =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a <= 5")
          .ValueOrDie();
  EXPECT_EQ(LineStartingWith(
                MakeEngine(table, MechanismKind::kHdg)->Explain(query)
                    .ValueOrDie(),
                "strategy:"),
            "strategy: hdg-grid-combine");
  EXPECT_EQ(LineStartingWith(
                MakeEngine(table, MechanismKind::kCalm)->Explain(query)
                    .ValueOrDie(),
                "strategy:"),
            "strategy: calm-marginal-combine");
}

std::unique_ptr<AnalyticsEngine> MakeMultiEngine(
    const Table& table, std::vector<MechanismKind> kinds) {
  EngineOptions options;
  options.mechanisms = std::move(kinds);
  options.params.epsilon = 2.0;
  options.params.hash_pool_size = 256;
  return AnalyticsEngine::Create(table, options).ValueOrDie();
}

TEST(ExplainTest, MultiMechanismSurfacesCandidateScores) {
  // EXPLAIN is the proof that the mechanism choice is cost-model driven: the
  // chosen mechanism appears alongside every rejected candidate's variance
  // score, in registration order.
  const Table table = SmallTable();
  const auto engine =
      MakeMultiEngine(table, {MechanismKind::kHio, MechanismKind::kHdg});
  const std::string text =
      engine->ExplainSql("SELECT COUNT(*) FROM T WHERE a IN [2, 9]")
          .ValueOrDie();

  const std::string mech_line = LineStartingWith(text, "mechanism:");
  const std::string cand_line = LineStartingWith(text, "candidates:");
  ASSERT_FALSE(cand_line.empty()) << text;
  // Both registered kinds are scored, and the chosen one is among them.
  EXPECT_NE(cand_line.find(" HIO="), std::string::npos) << cand_line;
  EXPECT_NE(cand_line.find(" HDG="), std::string::npos) << cand_line;
  ASSERT_GT(mech_line.size(), std::string("mechanism: ").size());
  EXPECT_NE(cand_line.find(mech_line.substr(std::string("mechanism: ").size())),
            std::string::npos);

  // The rendering is stable and the JSON mirror carries the same scores.
  EXPECT_EQ(text,
            engine->ExplainSql("SELECT COUNT(*) FROM T WHERE a IN [2, 9]")
                .ValueOrDie());
  const Query query =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a IN [2, 9]")
          .ValueOrDie();
  const auto plan = engine->PlanFor(query).ValueOrDie();
  ASSERT_EQ(plan->candidates.size(), 2u);
  const std::string json = plan->ToJson(table.schema());
  EXPECT_NE(json.find("\"candidates\":[{\"mechanism\":\"HIO\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"mechanism\":\"HDG\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"feasible\":"), std::string::npos);
  EXPECT_NE(json.find("\"variance\":"), std::string::npos);
}

TEST(ExplainTest, SingleMechanismHasNoCandidatesLine) {
  // The forced choice is not rendered as a candidate list, so
  // single-mechanism goldens and fingerprints are unchanged by the
  // multi-mechanism feature.
  const Table table = SmallTable();
  const std::string text =
      MakeEngine(table)
          ->ExplainSql("SELECT COUNT(*) FROM T WHERE a IN [2, 9]")
          .ValueOrDie();
  EXPECT_EQ(LineStartingWith(text, "candidates:"), "");
  const std::string json =
      MakeEngine(table)
          ->PlanFor(ParseQuery(table.schema(),
                               "SELECT COUNT(*) FROM T WHERE a IN [2, 9]")
                        .ValueOrDie())
          .ValueOrDie()
          ->ToJson(table.schema());
  EXPECT_EQ(json.find("\"candidates\""), std::string::npos);
}

TEST(ExplainTest, JsonRenderingIsWellFormedAndConsistent) {
  const Table table = SmallTable();
  const auto engine = MakeEngine(table);
  const Query query =
      ParseQuery(table.schema(), "SELECT STDEV(m) FROM T WHERE a IN [2, 9]")
          .ValueOrDie();
  const auto plan = engine->PlanFor(query).ValueOrDie();
  const std::string json = plan->ToJson(table.schema());
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"strategy\":\"direct-level-grid\""), std::string::npos);
  EXPECT_NE(json.find("\"components\":[\"SUMSQ\",\"SUM\",\"COUNT\"]"),
            std::string::npos);
  int depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace ldp
