#include "src/dataset/update_stream.h"

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/dataset/registry.h"
#include "src/dataset/snapshot.h"
#include "src/graph/graph.h"
#include "src/la/dense_matrix.h"

namespace linbp {
namespace dataset {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ParseUpdateLineTest, ParsesEveryKind) {
  UpdateOp op;
  std::string error;

  ASSERT_TRUE(ParseUpdateLine("a 3 7 1.25", 0, &op, &error)) << error;
  EXPECT_EQ(op.kind, UpdateKind::kAddEdge);
  EXPECT_EQ(op.u, 3);
  EXPECT_EQ(op.v, 7);
  EXPECT_EQ(op.weight, 1.25);

  ASSERT_TRUE(ParseUpdateLine("d 10 2", 0, &op, &error)) << error;
  EXPECT_EQ(op.kind, UpdateKind::kDeleteEdge);
  EXPECT_EQ(op.u, 10);
  EXPECT_EQ(op.v, 2);

  ASSERT_TRUE(ParseUpdateLine("w 0 1 0.5", 0, &op, &error)) << error;
  EXPECT_EQ(op.kind, UpdateKind::kReweightEdge);
  EXPECT_EQ(op.weight, 0.5);

  ASSERT_TRUE(ParseUpdateLine("b 4 3 0.1 -0.05 -0.05", 3, &op, &error))
      << error;
  EXPECT_EQ(op.kind, UpdateKind::kBeliefUpdate);
  EXPECT_EQ(op.u, 4);
  EXPECT_EQ(op.residuals, (std::vector<double>{0.1, -0.05, -0.05}));
}

// The corruption matrix: every malformed line is an error return with a
// specific message — never an abort, never a partially parsed op.
TEST(ParseUpdateLineTest, RejectsMalformedLines) {
  struct Case {
    const char* line;
    std::int64_t expected_k;
    const char* expect;
  };
  const std::vector<Case> cases = {
      {"", 0, "empty update line"},
      {"   ", 0, "empty update line"},
      {"x 0 1 1.0", 0, "unknown update command"},
      {"add 0 1 1.0", 0, "unknown update command"},
      {"# comment", 0, "unknown update command"},
      {"a 0 1", 0, "fields"},
      {"a 0 1 1.0 extra", 0, "fields"},
      {"a zero 1 1.0", 0, "malformed node id"},
      {"a 0 1x 1.0", 0, "malformed node id"},
      {"a 0 1 fast", 0, "malformed weight token"},
      {"a 0 1 1.0q", 0, "malformed weight token"},
      {"a 0 1 1e999", 0, "non-finite weight"},
      {"a 0 1 nan", 0, "non-finite weight"},
      {"a 0 1 inf", 0, "non-finite weight"},
      {"d 0", 0, "fields"},
      {"d 0 1 1.0", 0, "fields"},
      {"w 0 1", 0, "fields"},
      {"w 0 1 -inf", 0, "non-finite weight"},
      {"b 2", 0, "expected 'b node k r_1 ... r_k'"},
      {"b 2 1 0.5", 0, "k >= 2"},
      {"b 2 two 0.1 -0.1", 0, "malformed node id or class count"},
      {"b 2 2 0.1", 0, "carries"},
      {"b 2 2 0.1 -0.1 0.0", 0, "carries"},
      {"b 2 2 0.1 nan", 0, "non-finite residual"},
      {"b 2 2 0.1 oops", 0, "malformed residual token"},
      // A class count that disagrees with the problem's k.
      {"b 2 3 0.1 -0.05 -0.05", 2, "problem has 2"},
  };
  for (const Case& c : cases) {
    UpdateOp op;
    std::string error;
    EXPECT_FALSE(ParseUpdateLine(c.line, c.expected_k, &op, &error))
        << "line '" << c.line << "' parsed";
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "line '" << c.line << "' gave: " << error;
  }
}

TEST(ParseUpdateLineTest, CommentPredicateMatchesReaderSkips) {
  EXPECT_TRUE(IsUpdateStreamComment(""));
  EXPECT_TRUE(IsUpdateStreamComment("   "));
  EXPECT_TRUE(IsUpdateStreamComment("# anything"));
  EXPECT_TRUE(IsUpdateStreamComment("  # indented"));
  EXPECT_FALSE(IsUpdateStreamComment("a 0 1 1.0"));
}

TEST(UpdateStreamIoTest, WriteReadRoundTripsExactly) {
  // Weights chosen to need all 17 digits.
  std::vector<UpdateOp> ops;
  ops.push_back({UpdateKind::kAddEdge, 0, 1, 1.0 / 3.0, {}});
  ops.push_back({UpdateKind::kDeleteEdge, 5, 2, 1.0, {}});
  ops.push_back({UpdateKind::kReweightEdge, 3, 4, 0.1 + 0.2, {}});
  ops.push_back(
      {UpdateKind::kBeliefUpdate, 7, 0, 1.0, {2.0 / 7.0, -1.0 / 7.0, -1.0 / 7.0}});

  const std::string path = TempPath("roundtrip_updates.txt");
  ASSERT_TRUE(WriteUpdateStream(ops, path));
  std::string error;
  const auto read = ReadUpdateStream(path, 3, &error);
  ASSERT_TRUE(read.has_value()) << error;
  ASSERT_EQ(read->size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ((*read)[i].kind, ops[i].kind) << i;
    EXPECT_EQ((*read)[i].u, ops[i].u) << i;
    EXPECT_EQ((*read)[i].v, ops[i].v) << i;
    if (ops[i].kind == UpdateKind::kAddEdge ||
        ops[i].kind == UpdateKind::kReweightEdge) {
      EXPECT_EQ((*read)[i].weight, ops[i].weight) << i;
    }
    EXPECT_EQ((*read)[i].residuals, ops[i].residuals) << i;
  }
  std::remove(path.c_str());
}

TEST(UpdateStreamIoTest, ReadReportsPathAndLineNumber) {
  const std::string path = TempPath("bad_updates.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# header\na 0 1 1.0\nd 0 oops\n", f);
    std::fclose(f);
  }
  std::string error;
  EXPECT_FALSE(ReadUpdateStream(path, 0, &error).has_value());
  EXPECT_NE(error.find(path + ":3:"), std::string::npos) << error;
  EXPECT_NE(error.find("malformed node id"), std::string::npos) << error;
  std::remove(path.c_str());

  error.clear();
  EXPECT_FALSE(
      ReadUpdateStream(TempPath("no_such_stream.txt"), 0, &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(UpdateStreamTraceTest, GeneratedTraceRepliesCleanlyOnTheProblem) {
  std::string error;
  const auto scenario =
      MakeScenario("sbm:n=120,k=3,deg=6,seed=9", &error);
  ASSERT_TRUE(scenario.has_value()) << error;

  UpdateTraceOptions options;
  options.num_ops = 50;
  options.seed = 4;
  const UpdateTrace trace = GenerateUpdateTrace(*scenario, options);
  EXPECT_EQ(static_cast<std::int64_t>(trace.ops.size()), options.num_ops);
  // Held-out edges keep the start graph a strict subset of the scenario's.
  EXPECT_LE(trace.start_edges.size(), scenario->graph.edges().size());

  // Every op must be valid at its position: the problem-level replay
  // applies the exact same validation as the warm states.
  std::vector<Edge> edges = trace.start_edges;
  DenseMatrix residuals = scenario->explicit_residuals;
  ASSERT_TRUE(ApplyUpdateOpsToProblem(trace.ops, scenario->graph.num_nodes(),
                                      &edges, &residuals, &error))
      << error;

  // Belief ops never grow the explicit set (the SBP parity invariant):
  // a nonzero residual row stays nonzero, a zero row stays zero.
  for (std::int64_t v = 0; v < scenario->graph.num_nodes(); ++v) {
    bool was_explicit = false;
    bool is_explicit = false;
    for (std::int64_t c = 0; c < residuals.cols(); ++c) {
      was_explicit |= scenario->explicit_residuals.At(v, c) != 0.0;
      is_explicit |= residuals.At(v, c) != 0.0;
    }
    EXPECT_EQ(was_explicit, is_explicit) << "node " << v;
  }

  // The trace round-trips through its own text format.
  const std::string path = TempPath("trace_updates.txt");
  ASSERT_TRUE(WriteUpdateStream(trace.ops, path));
  const auto read = ReadUpdateStream(path, scenario->k, &error);
  ASSERT_TRUE(read.has_value()) << error;
  ASSERT_EQ(read->size(), trace.ops.size());
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    EXPECT_EQ(FormatUpdateOp((*read)[i]), FormatUpdateOp(trace.ops[i])) << i;
  }
  std::remove(path.c_str());
}

TEST(UpdateStreamTraceTest, DeterministicForAFixedSeed) {
  std::string error;
  const auto scenario = MakeScenario("sbm:n=80,k=2,deg=5,seed=2", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  UpdateTraceOptions options;
  options.num_ops = 24;
  options.seed = 11;
  const UpdateTrace first = GenerateUpdateTrace(*scenario, options);
  const UpdateTrace second = GenerateUpdateTrace(*scenario, options);
  ASSERT_EQ(first.ops.size(), second.ops.size());
  for (std::size_t i = 0; i < first.ops.size(); ++i) {
    EXPECT_EQ(FormatUpdateOp(first.ops[i]), FormatUpdateOp(second.ops[i]));
  }
  options.seed = 12;
  const UpdateTrace other = GenerateUpdateTrace(*scenario, options);
  std::string a;
  std::string b;
  for (const UpdateOp& op : first.ops) a += FormatUpdateOp(op) + "\n";
  for (const UpdateOp& op : other.ops) b += FormatUpdateOp(op) + "\n";
  EXPECT_NE(a, b);
}

// A trace depends only on the scenario's graph and the seed, not on how
// the graph was built: a generated scenario and its snapshot round trip
// give the same start edges and the same ops.
TEST(UpdateStreamTraceTest, GeneratedSpecAndItsSnapshotGiveTheSameTrace) {
  for (const char* spec :
       {"sbm:n=120,k=3,deg=6,seed=9", "fraud:users=300,products=150,seed=3"}) {
    SCOPED_TRACE(spec);
    std::string error;
    const auto generated = MakeScenario(spec, &error);
    ASSERT_TRUE(generated.has_value()) << error;
    const std::string path = TempPath("trace_source.lbps");
    ASSERT_TRUE(SaveSnapshot(*generated, path, &error)) << error;
    const auto loaded = LoadSnapshot(path, &error);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.has_value()) << error;

    UpdateTraceOptions options;
    options.num_ops = 24;
    options.seed = 11;
    const UpdateTrace a = GenerateUpdateTrace(*generated, options);
    const UpdateTrace b = GenerateUpdateTrace(*loaded, options);
    ASSERT_EQ(a.start_edges.size(), b.start_edges.size());
    for (std::size_t i = 0; i < a.start_edges.size(); ++i) {
      EXPECT_EQ(a.start_edges[i].u, b.start_edges[i].u) << i;
      EXPECT_EQ(a.start_edges[i].v, b.start_edges[i].v) << i;
      EXPECT_EQ(a.start_edges[i].weight, b.start_edges[i].weight) << i;
    }
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
      EXPECT_EQ(FormatUpdateOp(a.ops[i]), FormatUpdateOp(b.ops[i])) << i;
    }
  }
}

}  // namespace
}  // namespace dataset
}  // namespace linbp
