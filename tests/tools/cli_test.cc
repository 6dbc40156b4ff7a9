#include "tools/cli_lib.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

#include "gtest/gtest.h"
#include "src/core/convergence.h"
#include "src/dataset/registry.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/la/matrix_io.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace cli {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

// A labeled path: node 0 says class 0, node 4 says class 1.
struct Fixture {
  std::string graph_path = TempPath("cli_graph.txt");
  std::string beliefs_path = TempPath("cli_beliefs.txt");
  Fixture() {
    WriteFile(graph_path, "0 1\n1 2\n2 3\n3 4\n");
    WriteFile(beliefs_path, "0 0 0.1\n0 1 -0.1\n4 0 -0.1\n4 1 0.1\n");
  }
};

TEST(ParseOptionsTest, RequiresGraphAndBeliefs) {
  std::string error;
  EXPECT_FALSE(ParseOptions({}, &error).has_value());
  EXPECT_NE(error.find("required"), std::string::npos);
  EXPECT_FALSE(ParseOptions({"--graph=g"}, &error).has_value());
}

TEST(ParseOptionsTest, RejectsUnknownFlagsAndMethods) {
  std::string error;
  EXPECT_FALSE(
      ParseOptions({"--graph=g", "--beliefs=b", "--bogus"}, &error)
          .has_value());
  EXPECT_NE(error.find("unknown argument"), std::string::npos);
  EXPECT_FALSE(ParseOptions({"--graph=g", "--beliefs=b",
                             "--method=magic"},
                            &error)
                   .has_value());
  EXPECT_NE(error.find("unknown method"), std::string::npos);
}

TEST(ParseOptionsTest, ParsesEverything) {
  std::string error;
  const auto options = ParseOptions(
      {"--graph=g", "--beliefs=b", "--coupling=auction", "--method=sbp",
       "--eps=0.01", "--k=3", "--output=o", "--report"},
      &error);
  ASSERT_TRUE(options.has_value()) << error;
  EXPECT_EQ(options->coupling, "auction");
  EXPECT_EQ(options->method, "sbp");
  EXPECT_EQ(options->eps, "0.01");
  EXPECT_EQ(options->k, 3);
  EXPECT_TRUE(options->report);
}

TEST(ParseOptionsTest, ParsesThreads) {
  std::string error;
  const auto options = ParseOptions(
      {"--graph=g", "--beliefs=b", "--threads=2"}, &error);
  ASSERT_TRUE(options.has_value()) << error;
  EXPECT_EQ(options->threads, 2);
  // Absent flag defers to the environment default.
  const auto defaulted = ParseOptions({"--graph=g", "--beliefs=b"}, &error);
  ASSERT_TRUE(defaulted.has_value()) << error;
  EXPECT_EQ(defaulted->threads, -1);
  for (const char* bad :
       {"--threads=-1", "--threads=abc", "--threads=4x", "--threads="}) {
    EXPECT_FALSE(ParseOptions({"--graph=g", "--beliefs=b", bad}, &error)
                     .has_value())
        << bad;
    EXPECT_NE(error.find("--threads"), std::string::npos) << bad;
  }
}

TEST(RunPipelineTest, ThreadedRunMatchesSerial) {
  const Fixture fixture;
  std::string serial_output;
  std::string threaded_output;
  std::string error;
  for (const std::string method : {"linbp", "sbp"}) {
    Options options;
    options.graph_path = fixture.graph_path;
    options.beliefs_path = fixture.beliefs_path;
    options.method = method;
    options.threads = 1;
    ASSERT_EQ(RunPipeline(options, &serial_output, &error), 0) << error;
    options.threads = 4;
    ASSERT_EQ(RunPipeline(options, &threaded_output, &error), 0) << error;
    EXPECT_EQ(threaded_output, serial_output) << method;
  }
}

TEST(RunPipelineTest, LabelsAPathWithEveryMethod) {
  const Fixture fixture;
  for (const std::string method : {"bp", "linbp", "linbp*", "sbp"}) {
    Options options;
    options.graph_path = fixture.graph_path;
    options.beliefs_path = fixture.beliefs_path;
    options.method = method;
    std::string output;
    std::string error;
    ASSERT_EQ(RunPipeline(options, &output, &error), 0)
        << method << ": " << error;
    // Expect 5 lines; nodes near 0 get class 0, near 4 get class 1.
    std::istringstream lines(output);
    std::string line;
    std::vector<std::string> rows;
    while (std::getline(lines, line)) rows.push_back(line);
    ASSERT_EQ(rows.size(), 5u) << method;
    EXPECT_EQ(rows[0], "0 0") << method;
    EXPECT_EQ(rows[1], "1 0") << method;
    EXPECT_EQ(rows[3], "3 1") << method;
    EXPECT_EQ(rows[4], "4 1") << method;
  }
}

TEST(RunPipelineTest, WritesOutputFile) {
  const Fixture fixture;
  Options options;
  options.graph_path = fixture.graph_path;
  options.beliefs_path = fixture.beliefs_path;
  options.output_path = TempPath("cli_labels.txt");
  std::string output;
  std::string error;
  ASSERT_EQ(RunPipeline(options, &output, &error), 0) << error;
  std::ifstream in(options.output_path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), output);
}

TEST(RunPipelineTest, CouplingFromFile) {
  const Fixture fixture;
  const std::string coupling_path = TempPath("cli_coupling.txt");
  WriteFile(coupling_path, "0.8 0.2\n0.2 0.8\n");
  Options options;
  options.graph_path = fixture.graph_path;
  options.beliefs_path = fixture.beliefs_path;
  options.coupling = coupling_path;
  std::string output;
  std::string error;
  EXPECT_EQ(RunPipeline(options, &output, &error), 0) << error;
}

TEST(RunPipelineTest, ResidualCouplingFromFile) {
  const Fixture fixture;
  const std::string coupling_path = TempPath("cli_residual.txt");
  WriteFile(coupling_path, "0.3 -0.3\n-0.3 0.3\n");
  Options options;
  options.graph_path = fixture.graph_path;
  options.beliefs_path = fixture.beliefs_path;
  options.coupling = coupling_path;
  std::string output;
  std::string error;
  EXPECT_EQ(RunPipeline(options, &output, &error), 0) << error;
}

TEST(RunPipelineTest, ExplicitEpsTooLargeDiverges) {
  const Fixture fixture;
  Options options;
  options.graph_path = fixture.graph_path;
  options.beliefs_path = fixture.beliefs_path;
  options.eps = "5.0";  // way past the threshold on a path
  std::string output;
  std::string error;
  EXPECT_EQ(RunPipeline(options, &output, &error), 2);
  EXPECT_NE(error.find("diverged"), std::string::npos);
}

TEST(RunPipelineTest, ReportsMissingInputs) {
  Options options;
  options.graph_path = TempPath("absent_graph.txt");
  options.beliefs_path = TempPath("absent_beliefs.txt");
  std::string output;
  std::string error;
  EXPECT_EQ(RunPipeline(options, &output, &error), 1);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(RunPipelineTest, KMismatchRejected) {
  const Fixture fixture;
  Options options;
  options.graph_path = fixture.graph_path;
  options.beliefs_path = fixture.beliefs_path;
  options.k = 5;  // homophily2 has k = 2
  std::string output;
  std::string error;
  EXPECT_EQ(RunPipeline(options, &output, &error), 1);
  EXPECT_NE(error.find("disagrees"), std::string::npos);
}

TEST(ParseOptionsTest, ScenarioAndFilesAreMutuallyExclusive) {
  std::string error;
  const auto options = ParseOptions({"--scenario=sbm:n=100"}, &error);
  ASSERT_TRUE(options.has_value()) << error;
  EXPECT_EQ(options->scenario, "sbm:n=100");
  EXPECT_FALSE(
      ParseOptions({"--scenario=sbm", "--graph=g", "--beliefs=b"}, &error)
          .has_value());
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos);
}

TEST(RunPipelineTest, ScenarioSpecRunsEndToEnd) {
  Options options;
  options.scenario = "sbm:n=200,k=3,deg=6,seed=2";
  for (const std::string method : {"linbp", "sbp"}) {
    options.method = method;
    std::string output;
    std::string error;
    ASSERT_EQ(RunPipeline(options, &output, &error), 0)
        << method << ": " << error;
    // One "v class..." line per node.
    EXPECT_EQ(std::count(output.begin(), output.end(), '\n'), 200) << method;
  }
}

TEST(RunPipelineTest, ScenarioErrorsPropagate) {
  Options options;
  options.scenario = "warp-drive";
  std::string output;
  std::string error;
  EXPECT_EQ(RunPipeline(options, &output, &error), 1);
  EXPECT_NE(error.find("unknown scenario"), std::string::npos);
}

TEST(RunPipelineTest, ScenarioCouplingOverrideMustMatchK) {
  Options options;
  options.scenario = "sbm:n=100,k=3,seed=2";
  options.coupling = "homophily2";  // k = 2 vs the scenario's 3
  std::string output;
  std::string error;
  EXPECT_EQ(RunPipeline(options, &output, &error), 1);
  EXPECT_NE(error.find("disagrees"), std::string::npos);
}

TEST(RunMainTest, ListShowsScenarios) {
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"list"}, &output, &error), 0) << error;
  for (const char* name : {"sbm", "rmat", "fraud", "dblp", "kronecker",
                           "file", "snap"}) {
    EXPECT_NE(output.find(name), std::string::npos) << name;
  }
}

TEST(RunMainTest, ConvertInfoAndSnapRoundTrip) {
  const std::string snapshot = TempPath("cli_convert.lbps");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"convert", "--scenario=fraud:users=60,products=30",
                     "--out=" + snapshot},
                    &output, &error),
            0)
      << error;
  EXPECT_NE(output.find("fraud"), std::string::npos);

  ASSERT_EQ(RunMain({"info", "--snapshot=" + snapshot}, &output, &error), 0)
      << error;
  EXPECT_NE(output.find("version:       6"), std::string::npos) << output;
  EXPECT_NE(output.find("shards:        1 (inline)"), std::string::npos)
      << output;
  EXPECT_NE(output.find("ground truth:  yes"), std::string::npos) << output;

  ASSERT_EQ(RunMain({"--scenario=snap:path=" + snapshot, "--method=sbp"},
                    &output, &error),
            0)
      << error;
  EXPECT_EQ(std::count(output.begin(), output.end(), '\n'), 90);
}

// A shard file grown past its manifest entry (here sparse, far beyond
// memory) is an error naming the file, found before the file is read —
// for the streamed solve and for the bulk `snap:` load.
TEST(RunMainTest, OversizedShardFileIsAnErrorNotACrash) {
  const std::string dir = TempPath("cli_oversized_shards");
  std::filesystem::remove_all(dir);
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"shard", "--scenario=sbm:n=200,k=2,seed=5",
                     "--out-dir=" + dir, "--shards=2", "--compress=f64"},
                    &output, &error),
            0)
      << error;
  const std::string shard = dir + "/shard-000001.lbpsd";
  const std::uintmax_t size = std::filesystem::file_size(shard);
  const std::uintmax_t grown = std::uintmax_t{1} << 40;
  std::filesystem::resize_file(shard, grown);
  const std::string expected = shard + ": oversized file (" +
                               std::to_string(grown) + " bytes, expected " +
                               std::to_string(size) + ")";
  const std::string scenario = "--scenario=snap:path=" + dir +
                               "/manifest.lbpm";
  for (const bool stream : {true, false}) {
    SCOPED_TRACE(stream ? "--stream" : "bulk load");
    std::vector<std::string> args = {scenario, "--method=linbp"};
    if (stream) args.push_back("--stream");
    error.clear();
    EXPECT_EQ(RunMain(args, &output, &error), 1);
    EXPECT_NE(error.find(expected), std::string::npos) << error;
  }
}

// A manifest grown past the size its header, strings and shard table
// imply — by one byte, or to 1 TiB (sparse) — fails before it is read,
// for `info`, the bulk `snap:` load and the streamed solve. A `.lbps`
// (a manifest with its shard inline) likewise.
TEST(RunMainTest, OversizedManifestOrSnapshotIsAnErrorNotACrash) {
  const std::string dir = TempPath("cli_oversized_manifest");
  std::filesystem::remove_all(dir);
  const std::string snapshot = TempPath("cli_oversized.lbps");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"shard", "--scenario=sbm:n=200,k=2,seed=5",
                     "--out-dir=" + dir, "--shards=2"},
                    &output, &error),
            0)
      << error;
  ASSERT_EQ(RunMain({"convert", "--scenario=sbm:n=200,k=2,seed=5",
                     "--out=" + snapshot},
                    &output, &error),
            0)
      << error;
  for (const std::string& path : {dir + "/manifest.lbpm", snapshot}) {
    const std::uintmax_t size = std::filesystem::file_size(path);
    for (const std::uintmax_t grown : {size + 1, std::uintmax_t{1} << 40}) {
      std::filesystem::resize_file(path, grown);
      const std::string expected = path + ": oversized file (" +
                                   std::to_string(grown) +
                                   " bytes, expected " +
                                   std::to_string(size) + ")";
      const std::vector<std::vector<std::string>> commands = {
          {"info", "--snapshot=" + path},
          {"--scenario=snap:path=" + path, "--method=linbp"},
          {"--stream", "--scenario=snap:path=" + path, "--method=linbp"}};
      for (const std::vector<std::string>& args : commands) {
        SCOPED_TRACE(path + " " + std::to_string(grown) + " " + args.front());
        error.clear();
        EXPECT_EQ(RunMain(args, &output, &error), 1);
        EXPECT_NE(error.find(expected), std::string::npos) << error;
      }
    }
  }
}

// A directory where a snapshot belongs is an error naming the path,
// not an allocation sized by whatever the OS reports for a directory.
TEST(RunMainTest, DirectoryInputIsAnErrorNotACrash) {
  const std::string dir = TempPath("cli_dir_input");
  std::filesystem::create_directories(dir);
  std::string output;
  std::string error;
  EXPECT_EQ(RunMain({"info", "--snapshot=" + dir}, &output, &error), 1);
  EXPECT_NE(error.find(dir + ": not a regular file"), std::string::npos)
      << error;
  error.clear();
  EXPECT_EQ(RunMain({"--scenario=snap:path=" + dir}, &output, &error), 1);
  EXPECT_NE(error.find(dir + ": not a regular file"), std::string::npos)
      << error;
}

TEST(RunMainTest, ConvertExportsTextFiles) {
  const std::string graph_path = TempPath("cli_export.edges");
  const std::string beliefs_path = TempPath("cli_export.beliefs");
  const std::string labels_path = TempPath("cli_export.labels");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"convert", "--scenario=sbm:n=100,k=2,seed=4",
                     "--out-graph=" + graph_path,
                     "--out-beliefs=" + beliefs_path,
                     "--out-labels=" + labels_path},
                    &output, &error),
            0)
      << error;
  // The exported text files form a runnable file: scenario.
  ASSERT_EQ(RunMain({"--scenario=file:graph=" + graph_path + ",beliefs=" +
                         beliefs_path + ",labels=" + labels_path,
                     "--method=sbp"},
                    &output, &error),
            0)
      << error;
  EXPECT_EQ(std::count(output.begin(), output.end(), '\n'), 100);
}

TEST(RunMainTest, ShardSubcommandRoundTripsThroughSnap) {
  const std::string dir = TempPath("cli_shards");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"shard", "--scenario=fraud:users=60,products=30",
                     "--out-dir=" + dir, "--shards=3", "--threads=2"},
                    &output, &error),
            0)
      << error;
  EXPECT_NE(output.find("3 shard(s)"), std::string::npos) << output;
  EXPECT_NE(output.find("manifest"), std::string::npos) << output;

  // `info` prints the shard table.
  const std::string manifest = dir + "/manifest.lbpm";
  ASSERT_EQ(RunMain({"info", "--snapshot=" + manifest}, &output, &error), 0)
      << error;
  EXPECT_NE(output.find("shards:        3 (beside the manifest)"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("shard 2: rows ["), std::string::npos) << output;

  // The manifest is a runnable snap: scenario producing the same labels
  // as the monolithic snapshot of the same spec.
  std::string sharded_labels;
  ASSERT_EQ(RunMain({"--scenario=snap:path=" + manifest, "--method=sbp"},
                    &sharded_labels, &error),
            0)
      << error;
  const std::string snapshot = TempPath("cli_shard_mono.lbps");
  ASSERT_EQ(RunMain({"convert", "--scenario=fraud:users=60,products=30",
                     "--out=" + snapshot},
                    &output, &error),
            0)
      << error;
  std::string mono_labels;
  ASSERT_EQ(RunMain({"--scenario=snap:path=" + snapshot, "--method=sbp"},
                    &mono_labels, &error),
            0)
      << error;
  EXPECT_EQ(sharded_labels, mono_labels);
}

TEST(RunMainTest, ConvertWritesShardedOutput) {
  const std::string dir = TempPath("cli_convert_shards");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"convert", "--scenario=sbm:n=100,k=2,seed=4",
                     "--out-shards=" + dir, "--shards=2"},
                    &output, &error),
            0)
      << error;
  EXPECT_NE(output.find("2 shards"), std::string::npos) << output;
  ASSERT_EQ(RunMain({"info", "--snapshot=" + dir + "/manifest.lbpm"},
                    &output, &error),
            0)
      << error;
  EXPECT_NE(output.find("nodes:         100"), std::string::npos) << output;
}

TEST(RunMainTest, StreamSolveMatchesInMemory) {
  const std::string dir = TempPath("cli_stream_shards");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"shard",
                     "--scenario=sbm:n=500,k=4,deg=8,seed=9",
                     "--out-dir=" + dir, "--shards=4"},
                    &output, &error),
            0)
      << error;
  const std::string manifest = dir + "/manifest.lbpm";

  // The streamed labels must equal the in-memory labels byte for byte,
  // for both LinBP variants and across thread counts.
  for (const std::string method : {"linbp", "linbp*"}) {
    std::string in_memory;
    ASSERT_EQ(RunMain({"--scenario=snap:path=" + manifest,
                       "--method=" + method},
                      &in_memory, &error),
              0)
        << error;
    for (const std::string threads : {"1", "4"}) {
      std::string streamed;
      ASSERT_EQ(RunMain({"--stream", "--scenario=snap:path=" + manifest,
                         "--method=" + method, "--threads=" + threads},
                        &streamed, &error),
                0)
          << error;
      EXPECT_EQ(streamed, in_memory)
          << "method=" << method << " threads=" << threads;
    }
  }
}

TEST(RunMainTest, StreamRejectsBadInputs) {
  std::string output;
  std::string error;
  // --stream needs a scenario spec...
  EXPECT_EQ(RunMain({"--stream", "--graph=g", "--beliefs=b"}, &output,
                    &error),
            1);
  EXPECT_NE(error.find("--stream requires"), std::string::npos) << error;
  // ...a streaming-capable method...
  EXPECT_EQ(RunMain({"--stream", "--scenario=snap:path=x",
                     "--method=sbp"},
                    &output, &error),
            1);
  EXPECT_NE(error.find("--stream supports"), std::string::npos) << error;
  // ...and a file of the snapshot layout.
  const std::string text = TempPath("cli_stream_text.txt");
  WriteFile(text, std::string(100, '\n'));
  EXPECT_EQ(RunMain({"--stream", "--scenario=snap:path=" + text}, &output,
                    &error),
            1);
  EXPECT_NE(error.find("not a LinBP shard manifest (bad magic)"),
            std::string::npos)
      << error;
  // Non-snap scenarios cannot stream.
  EXPECT_EQ(RunMain({"--stream", "--scenario=sbm:n=60,k=2"}, &output,
                    &error),
            1);
  EXPECT_NE(error.find("snap:path="), std::string::npos) << error;
}

// A `.lbps` written by `convert --out` streams: its shard is inline, and
// the labels equal the in-memory solve's at every thread count.
TEST(RunMainTest, StreamSolvesAnInlineSnapshot) {
  const std::string snapshot = TempPath("cli_stream_inline.lbps");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"convert", "--scenario=sbm:n=500,k=4,deg=8,seed=9",
                     "--out=" + snapshot},
                    &output, &error),
            0)
      << error;
  std::string in_memory;
  ASSERT_EQ(RunMain({"--scenario=snap:path=" + snapshot}, &in_memory,
                    &error),
            0)
      << error;
  for (const std::string threads : {"1", "4"}) {
    std::string streamed;
    ASSERT_EQ(RunMain({"--stream", "--scenario=snap:path=" + snapshot,
                       "--threads=" + threads},
                      &streamed, &error),
              0)
        << error;
    EXPECT_EQ(streamed, in_memory) << "threads=" << threads;
  }
}

TEST(RunMainTest, CompressedShardsStreamBitIdenticalLabels) {
  // convert --out-shards --compress -> --stream solve == monolithic
  // in-memory solve, for both v2 encodings, with and without the cache.
  std::string output;
  std::string error;
  const std::string spec = "sbm:n=500,k=4,deg=8,seed=9";
  std::string in_memory;
  ASSERT_EQ(RunMain({"--scenario=" + spec}, &in_memory, &error), 0) << error;

  for (const std::string compress : {"--compress", "--compress=f64"}) {
    const std::string dir =
        TempPath("cli_v2_shards_" + std::to_string(compress.size()));
    ASSERT_EQ(RunMain({"convert", "--scenario=" + spec,
                       "--out-shards=" + dir, "--shards=4", compress},
                      &output, &error),
              0)
        << error;
    const std::string manifest = dir + "/manifest.lbpm";
    for (const std::string budget : {"0", "100000000"}) {
      std::string streamed;
      ASSERT_EQ(RunMain({"--stream", "--scenario=snap:path=" + manifest,
                         "--threads=4", "--cache-budget=" + budget},
                        &streamed, &error),
                0)
          << error;
      EXPECT_EQ(streamed, in_memory)
          << compress << " cache-budget=" << budget;
    }
  }
}

TEST(RunMainTest, F32CompressedStreamMatchesItsBulkLoad) {
  // f32 shards lose one narrowing at write time, so the reference is the
  // in-memory solve of the SAME manifest (which widens the floats), not
  // of the original scenario.
  std::string output;
  std::string error;
  const std::string dir = TempPath("cli_v2f32_shards");
  ASSERT_EQ(RunMain({"shard", "--scenario=sbm:n=500,k=4,deg=8,seed=9",
                     "--out-dir=" + dir, "--shards=4", "--compress=f32"},
                    &output, &error),
            0)
      << error;
  const std::string manifest = dir + "/manifest.lbpm";
  std::string in_memory;
  ASSERT_EQ(RunMain({"--scenario=snap:path=" + manifest}, &in_memory,
                    &error),
            0)
      << error;
  std::string streamed;
  ASSERT_EQ(RunMain({"--stream", "--scenario=snap:path=" + manifest},
                    &streamed, &error),
            0)
      << error;
  EXPECT_EQ(streamed, in_memory);
}

TEST(RunMainTest, CompressFlagRejectsUnknownEncodings) {
  std::string output;
  std::string error;
  EXPECT_EQ(RunMain({"convert", "--scenario=sbm:n=60,k=2",
                     "--out-shards=" + TempPath("cli_badcomp"),
                     "--compress=f16"},
                    &output, &error),
            1);
  EXPECT_NE(error.find("--compress must be f64 or f32"), std::string::npos)
      << error;
}

TEST(RunMainTest, CacheBudgetValidation) {
  std::string output;
  std::string error;
  // Not a number.
  EXPECT_EQ(RunMain({"--stream", "--scenario=snap:path=x",
                     "--cache-budget=lots"},
                    &output, &error),
            1);
  EXPECT_NE(error.find("--cache-budget must be a byte count >= 0"),
            std::string::npos)
      << error;
  // Negative.
  EXPECT_EQ(RunMain({"--stream", "--scenario=snap:path=x",
                     "--cache-budget=-1"},
                    &output, &error),
            1);
  EXPECT_NE(error.find("--cache-budget must be a byte count >= 0"),
            std::string::npos)
      << error;
  // Without --stream the budget is meaningless.
  EXPECT_EQ(RunMain({"--scenario=sbm:n=60,k=2", "--cache-budget=1000"},
                    &output, &error),
            1);
  EXPECT_NE(error.find("--cache-budget requires --stream"),
            std::string::npos)
      << error;
}

// `info` names the value width: none for a unit-weight graph (every
// generated one), whose f64 and f32 shards are the same bytes, and f64 or
// f32 for a weighted one.
TEST(RunMainTest, InfoReportsValueWidthAndRatio) {
  std::string output;
  std::string error;
  std::vector<std::vector<char>> unit_files;
  for (const char* compress : {"f64", "f32"}) {
    const std::string dir = TempPath(std::string("cli_v2_info_") + compress);
    std::filesystem::remove_all(dir);
    ASSERT_EQ(RunMain({"shard", "--scenario=sbm:n=200,k=2,seed=5",
                       "--out-dir=" + dir, "--shards=2",
                       std::string("--compress=") + compress},
                      &output, &error),
              0)
        << error;
    ASSERT_EQ(RunMain({"info", "--snapshot=" + dir + "/manifest.lbpm"},
                      &output, &error),
              0)
        << error;
    EXPECT_NE(output.find("version:       6"), std::string::npos) << output;
    EXPECT_NE(output.find("values:        none (unit weights)"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("decoded;"), std::string::npos) << output;
    EXPECT_NE(output.find("encoded on disk, ratio"), std::string::npos)
        << output;
    for (const char* name :
         {"manifest.lbpm", "shard-000000.lbpsd", "shard-000001.lbpsd"}) {
      unit_files.push_back(linbp::testing::ReadBytes(dir + "/" + name));
    }
  }
  // --compress=f32 writes the f64 bytes for a unit-weight graph.
  ASSERT_EQ(unit_files.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(unit_files[i], unit_files[i + 3]) << "file " << i;
  }

  // The same graph with weights derived from the endpoints, as a file:
  // scenario: each width names itself.
  const std::string graph_path = TempPath("cli_info_weighted.edges");
  const std::string beliefs_path = TempPath("cli_info_weighted.beliefs");
  ASSERT_EQ(RunMain({"convert", "--scenario=sbm:n=200,k=2,seed=5",
                     "--out-graph=" + graph_path,
                     "--out-beliefs=" + beliefs_path},
                    &output, &error),
            0)
      << error;
  std::ifstream edges(graph_path);
  std::ostringstream weighted;
  for (std::string line; std::getline(edges, line);) {
    std::istringstream fields(line);
    std::int64_t u = 0;
    std::int64_t v = 0;
    if (line.empty() || line[0] == '#' || !(fields >> u >> v)) {
      weighted << line << '\n';  // the header keeps the node count
      continue;
    }
    weighted << u << ' ' << v << ' ' << 0.5 + ((u + 2 * v) % 7) / 8.0
             << '\n';
  }
  edges.close();
  WriteFile(graph_path, weighted.str());
  for (const char* compress : {"f64", "f32"}) {
    const std::string dir =
        TempPath(std::string("cli_v2_info_weighted_") + compress);
    std::filesystem::remove_all(dir);
    ASSERT_EQ(RunMain({"shard",
                       "--scenario=file:graph=" + graph_path +
                           ",beliefs=" + beliefs_path,
                       "--out-dir=" + dir, "--shards=2",
                       std::string("--compress=") + compress},
                      &output, &error),
              0)
        << error;
    ASSERT_EQ(RunMain({"info", "--snapshot=" + dir + "/manifest.lbpm"},
                      &output, &error),
              0)
        << error;
    EXPECT_NE(output.find(std::string("values:        ") + compress + "\n"),
              std::string::npos)
        << output;
  }
}

TEST(RunMainTest, InfoReportsShardPayloadBytes) {
  const std::string dir = TempPath("cli_payload_shards");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"shard", "--scenario=sbm:n=200,k=2,seed=5",
                     "--out-dir=" + dir, "--shards=2"},
                    &output, &error),
            0)
      << error;
  ASSERT_EQ(RunMain({"info", "--snapshot=" + dir + "/manifest.lbpm"},
                    &output, &error),
            0)
      << error;
  EXPECT_NE(output.find("payload bytes"), std::string::npos) << output;
  EXPECT_NE(output.find("(all shards, decoded;"), std::string::npos)
      << output;
}

TEST(RunMainTest, SubcommandErrors) {
  std::string output;
  std::string error;
  EXPECT_EQ(RunMain({"convert", "--scenario=sbm"}, &output, &error), 1);
  EXPECT_NE(error.find("pick at least one"), std::string::npos);
  EXPECT_EQ(RunMain({"convert", "--out=x"}, &output, &error), 1);
  EXPECT_NE(error.find("--scenario is required"), std::string::npos);
  EXPECT_EQ(RunMain({"info"}, &output, &error), 1);
  EXPECT_NE(error.find("--snapshot is required"), std::string::npos);
  EXPECT_EQ(RunMain({"info", "--bogus=1"}, &output, &error), 1);
  EXPECT_EQ(RunMain({"list", "extra"}, &output, &error), 1);
  EXPECT_EQ(RunMain({"shard", "--scenario=sbm"}, &output, &error), 1);
  EXPECT_NE(error.find("--out-dir"), std::string::npos);
  EXPECT_EQ(RunMain({"shard", "--scenario=sbm", "--out-dir=/tmp/x",
                     "--shards=0"},
                    &output, &error),
            1);
  EXPECT_NE(error.find("--shards"), std::string::npos);
  // Exporting labels from a truthless scenario fails cleanly.
  EXPECT_EQ(RunMain({"convert", "--scenario=kronecker:g=1",
                     "--out-labels=" + TempPath("cli_no_truth.labels")},
                    &output, &error),
            1);
  EXPECT_NE(error.find("no ground truth"), std::string::npos);
}

TEST(RunPipelineTest, HeterophilyFlipsTheMiddle) {
  const Fixture fixture;
  Options options;
  options.graph_path = fixture.graph_path;
  options.beliefs_path = fixture.beliefs_path;
  options.coupling = "heterophily2";
  options.method = "sbp";
  std::string output;
  std::string error;
  ASSERT_EQ(RunPipeline(options, &output, &error), 0) << error;
  std::istringstream lines(output);
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  // Node 1 is adjacent to the class-0 seed: heterophily flips it.
  EXPECT_EQ(rows[1], "1 1");
}

TEST(RunServeTest, AnswersQueriesAndAppliesUpdates) {
  ServeOptions options;
  options.scenario = "sbm:n=60,k=3,deg=5,seed=4";
  std::istringstream in(
      "stats\n"
      "# a comment between commands\n"
      "q 0 5\n"
      "a 0 59 1.0\n"
      "d 0 59\n"
      "labels\n"
      "quit\n");
  std::ostringstream out;
  std::string error;
  ASSERT_EQ(RunServe(options, in, out, &error), 0) << error;

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  // stats + 2 query labels + 2 update acks + 60 labels.
  ASSERT_EQ(rows.size(), 65u) << out.str();
  EXPECT_NE(rows[0].find("nodes=60"), std::string::npos) << rows[0];
  EXPECT_NE(rows[0].find("converged=1"), std::string::npos) << rows[0];
  EXPECT_EQ(rows[1].rfind("0 ", 0), 0u) << rows[1];
  EXPECT_EQ(rows[2].rfind("5 ", 0), 0u) << rows[2];
  EXPECT_EQ(rows[3].rfind("ok sweeps=", 0), 0u) << rows[3];
  EXPECT_EQ(rows[4].rfind("ok sweeps=", 0), 0u) << rows[4];
  // Adding then deleting edge (0, 59) restores the initial labels.
  EXPECT_EQ(rows[5], rows[1]);
}

TEST(RunServeTest, HostileLinesGetErrorRepliesAndTouchNothing) {
  ServeOptions options;
  options.scenario = "sbm:n=40,k=2,deg=4,seed=6";
  // Every line between the two stats probes is invalid in its own way:
  // grammar, range, semantics, numerics, and unknown commands.
  const std::vector<std::string> hostile = {
      "a 0 0 1.0",            // self-loop
      "a 0 99 1.0",           // endpoint out of range
      "a 0 1 nan",            // non-finite weight
      "a 0 1",                // missing field
      "d 7 8",                // edge that does not exist
      "w 7 8 2.0",            // reweight of a missing edge
      "b 0 3 0.1 0.0 -0.1",   // wrong class count (k=2)
      "b 99 2 0.1 -0.1",      // node out of range
      "b 0 2 0.1 oops",       // malformed residual
      "q 99",                 // query out of range
      "q zero",               // malformed query id
      "labels now",           // labels takes no arguments
      "frobnicate 1 2",       // unknown command
  };
  std::string script = "stats\n";
  for (const std::string& line : hostile) script += line + "\n";
  script += "stats\nquit\n";
  std::istringstream in(script);
  std::ostringstream out;
  std::string error;
  ASSERT_EQ(RunServe(options, in, out, &error), 0) << error;

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  ASSERT_EQ(rows.size(), hostile.size() + 2) << out.str();
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(rows[i + 1].rfind("error: ", 0), 0u)
        << "'" << hostile[i] << "' got: " << rows[i + 1];
  }
  // The state never moved: the stats lines bracket the abuse unchanged.
  EXPECT_EQ(rows.front(), rows.back());
}

TEST(RunServeTest, DivergentEpsFailsSetupCleanly) {
  ServeOptions options;
  options.scenario = "sbm:n=30,k=2,deg=4,seed=8";
  options.eps = "25.0";
  std::istringstream in("stats\n");
  std::ostringstream out;
  std::string error;
  EXPECT_EQ(RunServe(options, in, out, &error), 1);
  // The divergence early-abort usually fires first with its diagnostic
  // message; hitting max_iterations without converging is also valid.
  EXPECT_TRUE(error.find("diverging") != std::string::npos ||
              error.find("did not converge") != std::string::npos)
      << error;
}

// The in-process version of the CI round-trip: trace a scenario, feed
// the stream through serve warm, and demand byte-identical labels to a
// cold pipeline run on the final snapshot at the same eps.
TEST(RunServeTest, TraceThenServeMatchesColdSolve) {
  const std::string dir = TempPath("cli_trace_roundtrip");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"trace", "--scenario=sbm:n=80,k=3,deg=5,seed=12",
                     "--ops=30", "--seed=3", "--out-dir=" + dir},
                    &output, &error),
            0)
      << error;
  EXPECT_NE(output.find("30 ops"), std::string::npos) << output;

  std::ifstream eps_in(dir + "/eps.txt");
  std::string eps;
  ASSERT_TRUE(std::getline(eps_in, eps));

  std::ifstream updates(dir + "/updates.txt");
  std::stringstream script;
  script << updates.rdbuf();
  script << "labels\n";

  ServeOptions serve;
  serve.scenario = "snap:path=" + dir + "/start.lbps";
  serve.eps = eps;
  std::ostringstream served;
  ASSERT_EQ(RunServe(serve, script, served, &error), 0) << error;

  // Split the serve output into update acks and label lines.
  std::istringstream lines(served.str());
  std::string line;
  std::string warm_labels;
  int acks = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("ok sweeps=", 0) == 0) {
      ++acks;
    } else {
      ASSERT_NE(line.rfind("error: ", 0), 0u) << line;
      warm_labels += line + "\n";
    }
  }
  EXPECT_EQ(acks, 30);

  Options cold;
  cold.scenario = "snap:path=" + dir + "/final.lbps";
  cold.eps = eps;
  std::string cold_labels;
  ASSERT_EQ(RunPipeline(cold, &cold_labels, &error), 0) << error;
  EXPECT_EQ(warm_labels, cold_labels);
}

TEST(LowRamWarningTest, UnknownAvailableNeverWarns) {
  // 0 from util::AvailableMemoryBytes means "unknown", not "no memory":
  // the warning must stay silent then, no matter how large the payload.
  EXPECT_FALSE(LowRamWarning(std::int64_t{1} << 60, 0));
  EXPECT_FALSE(LowRamWarning(0, 0));
  EXPECT_TRUE(LowRamWarning(10, 5));
  EXPECT_FALSE(LowRamWarning(5, 10));
  EXPECT_FALSE(LowRamWarning(5, 5));
}

TEST(RunServeTest, StatsReportsLatencyTelemetry) {
  ServeOptions options;
  options.scenario = "sbm:n=40,k=2,deg=4,seed=6";
  std::istringstream in(
      "a 0 39 1.0\n"
      "q 0\n"
      "stats\n"
      "quit\n");
  std::ostringstream out;
  std::string error;
  ASSERT_EQ(RunServe(options, in, out, &error), 0) << error;
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  ASSERT_EQ(rows.size(), 3u) << out.str();
  const std::string& stats = rows[2];
  // One successful update and one successful query; stats stays ONE line
  // and carries their counts plus latency percentiles.
  EXPECT_NE(stats.find(" updates=1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" queries=1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find("update_p50_ms="), std::string::npos) << stats;
  EXPECT_NE(stats.find("update_p95_ms="), std::string::npos) << stats;
  EXPECT_NE(stats.find("query_p50_ms="), std::string::npos) << stats;
  EXPECT_NE(stats.find("query_p95_ms="), std::string::npos) << stats;
  // serve solves on the segmented Gauss-Seidel schedule, and says so.
  EXPECT_NE(stats.find(" schedule=segmented_gauss_seidel "),
            std::string::npos)
      << stats;
}

// `stats` prints rho(M) computed when it asks: the cold estimate of the
// unedited graph, the same after a belief update, and the cold estimate
// of the edited graph after an edge edit.
TEST(RunServeTest, StatsSpectralRadiusIsTheColdEstimateOfTheCurrentGraph) {
  const std::string spec = "sbm:n=60,k=3,deg=5,seed=4";
  ServeOptions options;
  options.scenario = spec;
  options.eps = "0.05";
  std::istringstream in(
      "stats\n"
      "b 3 3 0.1 -0.05 -0.05\n"
      "stats\n"
      "a 0 59 1.0\n"
      "stats\n"
      "quit\n");
  std::ostringstream out;
  std::string error;
  ASSERT_EQ(RunServe(options, in, out, &error), 0) << error;
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> spectral;
  while (std::getline(lines, line)) {
    const std::size_t at = line.find(" spectral_radius=");
    if (at == std::string::npos) continue;
    const std::size_t begin = at + std::string(" spectral_radius=").size();
    spectral.push_back(line.substr(begin, line.find(' ', begin) - begin));
  }
  ASSERT_EQ(spectral.size(), 3u) << out.str();

  auto scenario = dataset::MakeScenario(spec, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const DenseMatrix hhat = scenario->Coupling().ScaledResidual(0.05);
  auto printed = [&](const Graph& graph) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.6g",
                  LinBpOperatorSpectralRadius(graph, hhat,
                                              LinBpVariant::kLinBp));
    return std::string(text);
  };
  std::vector<Edge> edges = scenario->graph.edges();
  edges.push_back({0, 59, 1.0});
  const std::string unedited = printed(scenario->graph);
  const std::string edited = printed(Graph(60, edges));
  EXPECT_NE(unedited, edited);
  EXPECT_EQ(spectral[0], unedited);
  EXPECT_EQ(spectral[1], unedited);
  EXPECT_EQ(spectral[2], edited);
}

// Structural check over a Prometheus text-exposition dump: every line is
// a comment or a `name{labels} value` sample, every sample's base name
// was announced by exactly one preceding # TYPE line, and histogram
// samples only use the _bucket/_sum/_count suffixes.
void ExpectValidPrometheusText(const std::string& text) {
  const std::regex type_re(
      "# TYPE ([a-zA-Z_][a-zA-Z0-9_]*) (counter|gauge|histogram)");
  const std::regex sample_re(
      "([a-zA-Z_][a-zA-Z0-9_]*)"
      "(\\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
      "(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\\})?"
      " -?[0-9]+(\\.[0-9]+)?([eE][-+]?[0-9]+)?");
  std::map<std::string, std::string> typed;  // name -> kind
  std::istringstream lines(text);
  std::string line;
  std::smatch match;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      ASSERT_TRUE(std::regex_match(line, match, type_re)) << line;
      EXPECT_EQ(typed.count(match[1]), 0u)
          << "duplicate # TYPE for " << match[1];
      typed[match[1]] = match[2];
      continue;
    }
    ASSERT_TRUE(std::regex_match(line, match, sample_re)) << line;
    ++samples;
    std::string name = match[1];
    if (typed.count(name) != 0) {
      EXPECT_NE(typed[name], "histogram")
          << "bare sample for histogram " << name << ": " << line;
      continue;
    }
    // Histogram samples: strip the expansion suffix.
    bool found = false;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string tail = suffix;
      if (name.size() > tail.size() &&
          name.compare(name.size() - tail.size(), tail.size(), tail) == 0) {
        const std::string base = name.substr(0, name.size() - tail.size());
        if (typed.count(base) != 0 && typed[base] == "histogram") {
          found = true;
          break;
        }
      }
    }
    EXPECT_TRUE(found) << "sample without # TYPE: " << line;
  }
  EXPECT_GT(samples, 0u);
}

TEST(RunServeTest, MetricsCommandEmitsValidPrometheusText) {
  ServeOptions options;
  options.scenario = "sbm:n=40,k=2,deg=4,seed=6";
  std::istringstream in(
      "metrics now\n"
      "a 0 39 1.0\n"
      "q 0\n"
      "metrics\n"
      "quit\n");
  std::ostringstream out;
  std::string error;
  ASSERT_EQ(RunServe(options, in, out, &error), 0) << error;
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  ASSERT_GE(rows.size(), 4u) << out.str();
  EXPECT_EQ(rows[0], "error: metrics takes no arguments");
  EXPECT_EQ(rows[1].rfind("ok sweeps=", 0), 0u) << rows[1];
  // Everything after the query reply is the exposition dump.
  std::string text;
  for (std::size_t i = 3; i < rows.size(); ++i) text += rows[i] + "\n";
  ExpectValidPrometheusText(text);
  EXPECT_NE(text.find("serve_updates_total{kind=\"add\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE serve_update_seconds histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_queries_total"), std::string::npos) << text;
  EXPECT_NE(text.find("linbp_sweeps_total"), std::string::npos) << text;
}

TEST(RunMainTest, MetricsOutWritesReportWithoutChangingLabels) {
  const std::string dir = TempPath("cli_metrics_shards");
  std::string output;
  std::string error;
  ASSERT_EQ(RunMain({"shard", "--scenario=sbm:n=300,k=3,deg=6,seed=5",
                     "--out-dir=" + dir, "--shards=4"},
                    &output, &error),
            0)
      << error;
  const std::string manifest = dir + "/manifest.lbpm";

  std::string plain;
  ASSERT_EQ(RunMain({"--stream", "--scenario=snap:path=" + manifest},
                    &plain, &error),
            0)
      << error;

  const std::string report_path = TempPath("cli_metrics_report.json");
  std::string instrumented;
  ASSERT_EQ(RunMain({"--stream", "--scenario=snap:path=" + manifest,
                     "--quiet", "--metrics-out=" + report_path},
                    &instrumented, &error),
            0)
      << error;
  // The flags are observability-only: label output stays byte-stable.
  EXPECT_EQ(instrumented, plain);

  std::ifstream report_in(report_path);
  std::stringstream report;
  report << report_in.rdbuf();
  const std::string json = report.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  // Registry + span tree, with the streamed-solve series populated:
  // per-sweep spans, prefetch-stall time, and stream byte counters.
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("linbp_sweep"), std::string::npos);
  EXPECT_NE(json.find("linbp_sweep_seconds"), std::string::npos);
  EXPECT_NE(json.find("pipeline_prefetch_stall_seconds"),
            std::string::npos);
  EXPECT_NE(json.find("shard_stream_bytes_read_total"), std::string::npos);
  EXPECT_NE(json.find("shard_stream_csr_bytes_total"), std::string::npos);
  // The convergence report names the sweep schedule, in the same words
  // on each linbp_sweep series sample and on each sweep span: so at
  // least twice.
  const std::string schedule = "\"schedule\":\"segmented_gauss_seidel\"}";
  const std::size_t first = json.find(schedule);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(json.find(schedule, first + 1), std::string::npos);

  // A bad path fails loudly, not silently.
  EXPECT_EQ(RunMain({"--stream", "--scenario=snap:path=" + manifest,
                     "--metrics-out=/nonexistent-dir/report.json"},
                    &output, &error),
            1);
  EXPECT_NE(error.find("metrics report"), std::string::npos) << error;
}

}  // namespace
}  // namespace cli
}  // namespace linbp
