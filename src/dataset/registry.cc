#include "src/dataset/registry.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "src/dataset/snapshot.h"
#include "src/dataset/workloads.h"
#include "src/graph/beliefs.h"
#include "src/graph/dblp.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/util/check.h"

namespace linbp {
namespace dataset {
namespace {

struct Entry {
  ScenarioInfo info;
  ScenarioFactory factory;
};

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, Entry>& Registry() {
  static std::map<std::string, Entry> registry;
  return registry;
}

// Synthetic generators build int32-indexed CSR graphs in memory; far
// larger requests are almost certainly spec typos.
constexpr std::int64_t kMaxSyntheticNodes = 50'000'000;

// Shared validation of the seeding knobs every synthetic factory takes.
bool ValidateSeeding(double labeled, double belief, double strength,
                     const char* name, std::string* error) {
  if (labeled < 0.0 || labeled > 1.0) {
    *error = std::string(name) + ": labeled must be in [0, 1]";
    return false;
  }
  if (!(belief > 0.0) || belief > 1.0) {
    *error = std::string(name) + ": belief must be in (0, 1]";
    return false;
  }
  if (!(strength > 0.0) || !std::isfinite(strength)) {
    *error = std::string(name) + ": strength must be positive";
    return false;
  }
  return true;
}

// ---- Built-in factories -------------------------------------------------

std::optional<Scenario> MakeSbm(ScenarioParams& params,
                                const exec::ExecContext& /*ctx*/,
                                std::string* error) {
  const std::int64_t n = params.Int("n", 3000);
  const std::int64_t k = params.Int("k", 3);
  const double deg = params.Double("deg", 8.0);
  const std::string mode = params.Str("mode", "homophily");
  const bool homophily = mode == "homophily";
  if (!homophily && mode != "heterophily") {
    *error = "sbm: mode must be homophily or heterophily, got '" + mode + "'";
    return std::nullopt;
  }
  // In the homophily regime edges stay inside a class; in the heterophily
  // regime they cross classes — matching the sign of the coupling below.
  const double mix = params.Double("mix", homophily ? 0.85 : 0.05);
  const double strength =
      params.Double("strength", 0.5 / static_cast<double>(k));
  const double labeled = params.Double("labeled", 0.05);
  const double belief = params.Double("belief", 0.5);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(params.Int("seed", 1));
  if (n < 2 * k || k < 2) {
    *error = "sbm: requires k >= 2 and n >= 2k";
    return std::nullopt;
  }
  if (mix < 0.0 || mix > 1.0) {
    *error = "sbm: mix must be in [0, 1]";
    return std::nullopt;
  }
  if (n > kMaxSyntheticNodes) {
    *error = "sbm: n exceeds the synthetic-generator cap";
    return std::nullopt;
  }
  if (!(deg > 0.0) || deg > 1e4) {
    *error = "sbm: deg must be in (0, 1e4]";
    return std::nullopt;
  }
  if (!ValidateSeeding(labeled, belief, strength, "sbm", error)) {
    return std::nullopt;
  }
  LabeledGraph lg = SbmGraph(n, k, deg, mix, seed);
  Scenario scenario;
  scenario.graph = std::move(lg.graph);
  scenario.k = k;
  scenario.coupling_residual =
      homophily ? UniformHomophilyCoupling(k, strength).residual()
                : UniformHeterophilyResidual(k, strength);
  scenario.ground_truth = std::move(lg.labels);
  RevealGroundTruth(labeled, belief, seed + 1, &scenario);
  return scenario;
}

std::optional<Scenario> MakeRmat(ScenarioParams& params,
                                const exec::ExecContext& /*ctx*/,
                                std::string* error) {
  const std::int64_t scale = params.Int("scale", 11);
  const double ef = params.Double("ef", 8.0);
  const std::int64_t k = params.Int("k", 3);
  const double a = params.Double("a", 0.57);
  const double b = params.Double("b", 0.19);
  const double c = params.Double("c", 0.19);
  const double strength =
      params.Double("strength", 0.5 / static_cast<double>(k));
  const double labeled = params.Double("labeled", 0.05);
  const double belief = params.Double("belief", 0.5);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(params.Int("seed", 1));
  if (scale < 1 || scale > 30) {
    *error = "rmat: scale must be in [1, 30]";
    return std::nullopt;
  }
  if (k < 2) {
    *error = "rmat: requires k >= 2";
    return std::nullopt;
  }
  if (!(a > 0.0) || b < 0.0 || c < 0.0 || a + b + c >= 1.0) {
    *error = "rmat: quadrant probabilities need a > 0, b, c >= 0, "
             "a + b + c < 1";
    return std::nullopt;
  }
  if (!(ef > 0.0) || ef > 1e4) {
    *error = "rmat: ef must be in (0, 1e4]";
    return std::nullopt;
  }
  if (!ValidateSeeding(labeled, belief, strength, "rmat", error)) {
    return std::nullopt;
  }
  LabeledGraph lg = RmatGraph(static_cast<int>(scale), ef, k, a, b, c, seed);
  Scenario scenario;
  scenario.graph = std::move(lg.graph);
  scenario.k = k;
  scenario.coupling_residual = UniformHomophilyCoupling(k, strength).residual();
  scenario.ground_truth = std::move(lg.labels);
  RevealGroundTruth(labeled, belief, seed + 1, &scenario);
  return scenario;
}

std::optional<Scenario> MakeFraud(ScenarioParams& params,
                                const exec::ExecContext& /*ctx*/,
                                std::string* error) {
  const std::int64_t users = params.Int("users", 800);
  const std::int64_t products = params.Int("products", 400);
  const double fraud = params.Double("fraud", 0.15);
  const double shill = params.Double("shill", 0.10);
  const double reviews = params.Double("reviews", 5.0);
  const double camouflage = params.Double("camouflage", 0.1);
  const double labeled = params.Double("labeled", 0.15);
  const double belief = params.Double("belief", 0.3);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(params.Int("seed", 7));
  if (users < 2 || products < 2) {
    *error = "fraud: requires users >= 2 and products >= 2";
    return std::nullopt;
  }
  if (fraud <= 0.0 || fraud >= 1.0 || shill <= 0.0 || shill >= 1.0) {
    *error = "fraud: fraud and shill fractions must be in (0, 1)";
    return std::nullopt;
  }
  if (users > kMaxSyntheticNodes || products > kMaxSyntheticNodes) {
    *error = "fraud: node counts exceed the synthetic-generator cap";
    return std::nullopt;
  }
  if (!(reviews > 0.0) || reviews > 1e4) {
    *error = "fraud: reviews must be in (0, 1e4]";
    return std::nullopt;
  }
  if (camouflage < 0.0 || camouflage > 1.0) {
    *error = "fraud: camouflage must be in [0, 1]";
    return std::nullopt;
  }
  if (!ValidateSeeding(labeled, belief, /*strength=*/1.0, "fraud", error)) {
    return std::nullopt;
  }
  LabeledGraph lg = FraudBipartiteGraph(users, products, fraud, shill,
                                        reviews, camouflage, seed);
  Scenario scenario;
  scenario.graph = std::move(lg.graph);
  scenario.k = 3;
  scenario.coupling_residual = AuctionCoupling().residual();
  scenario.ground_truth = std::move(lg.labels);
  RevealGroundTruth(labeled, belief, seed + 1, &scenario);
  return scenario;
}

std::optional<Scenario> MakeDblp(ScenarioParams& params,
                                const exec::ExecContext& /*ctx*/,
                                std::string* error) {
  DblpConfig config;
  // Defaults are test/bench sized; pass the full counts for paper scale.
  config.num_papers = params.Int("papers", 1200);
  config.num_authors = params.Int("authors", 1300);
  config.num_conferences = params.Int("conferences", 12);
  config.num_terms = params.Int("terms", 600);
  config.labeled_fraction = params.Double("labeled", 0.104);
  config.seed = static_cast<std::uint64_t>(params.Int("seed", 42));
  const double belief = params.Double("belief", 0.5);
  if (config.num_papers < 1 || config.num_authors < 1 ||
      config.num_conferences < 1 || config.num_terms < 1) {
    *error = "dblp: all node counts must be >= 1";
    return std::nullopt;
  }
  const std::int64_t total = config.num_papers + config.num_authors +
                             config.num_conferences + config.num_terms;
  if (total > kMaxSyntheticNodes) {
    *error = "dblp: node counts exceed the synthetic-generator cap";
    return std::nullopt;
  }
  // Only papers, authors, and conferences can carry labels; a fraction
  // demanding more would spin the generator's sampling loop forever.
  const std::int64_t labelable =
      config.num_papers + config.num_authors + config.num_conferences;
  if (config.labeled_fraction < 0.0 ||
      std::llround(config.labeled_fraction * static_cast<double>(total)) >
          labelable) {
    *error = "dblp: labeled fraction exceeds the labelable "
             "papers+authors+conferences share";
    return std::nullopt;
  }
  if (!(belief > 0.0) || belief > 1.0) {
    *error = "dblp: belief must be in (0, 1]";
    return std::nullopt;
  }
  DblpGraph dblp = MakeSyntheticDblp(config);
  Scenario scenario;
  scenario.k = dblp.num_classes;
  scenario.coupling_residual = DblpCoupling().residual();
  scenario.ground_truth = std::move(dblp.node_class);
  scenario.explicit_residuals =
      DenseMatrix(dblp.graph.num_nodes(), scenario.k);
  for (const std::int64_t v : dblp.labeled_nodes) {
    const int cls = scenario.ground_truth[v];
    if (cls < 0) continue;
    const std::vector<double> row =
        ExplicitResidualForClass(scenario.k, cls, belief);
    for (std::int64_t c = 0; c < scenario.k; ++c) {
      scenario.explicit_residuals.At(v, c) = row[c];
    }
    scenario.explicit_nodes.push_back(v);
  }
  scenario.graph = std::move(dblp.graph);
  return scenario;
}

std::optional<Scenario> MakeKronecker(ScenarioParams& params,
                                const exec::ExecContext& /*ctx*/,
                                std::string* error) {
  const std::int64_t g = params.Int("g", 2);
  const double labeled = params.Double("labeled", 0.05);
  const std::int64_t extra_digits = params.Int("extra-digits", 0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(params.Int("seed", 1));
  if (g < 1 || g > 9) {
    *error = "kronecker: g must be a paper graph index in [1, 9]";
    return std::nullopt;
  }
  if (labeled < 0.0 || labeled > 1.0) {
    *error = "kronecker: labeled must be in [0, 1]";
    return std::nullopt;
  }
  if (extra_digits < 0 || extra_digits > 10) {
    *error = "kronecker: extra-digits must be in [0, 10]";
    return std::nullopt;
  }
  Scenario scenario;
  scenario.graph = KroneckerPowerGraph(KroneckerPowerForPaperIndex(
      static_cast<int>(g)));
  scenario.k = 3;
  scenario.coupling_residual = KroneckerExperimentCoupling().residual();
  const std::int64_t n = scenario.graph.num_nodes();
  const std::int64_t num_explicit = std::max<std::int64_t>(
      1, std::llround(labeled * static_cast<double>(n)));
  SeededBeliefs seeds = SeedPaperBeliefs(n, scenario.k, num_explicit, seed,
                                         static_cast<int>(extra_digits));
  scenario.explicit_residuals = std::move(seeds.residuals);
  scenario.explicit_nodes = std::move(seeds.explicit_nodes);
  // The paper's synthetic experiment has no planted truth: quality is
  // measured as agreement between methods.
  return scenario;
}

std::optional<Scenario> MakeFile(ScenarioParams& params,
                                const exec::ExecContext& /*ctx*/,
                                std::string* error) {
  const std::string graph_path = params.Str("graph", "");
  const std::string beliefs_path = params.Str("beliefs", "");
  const std::string labels_path = params.Str("labels", "");
  const std::string coupling_spec = params.Str("coupling", "homophily2");
  const std::int64_t k_param = params.Int("k", 0);
  const std::int64_t hint = params.Int("hint", 0);
  if (graph_path.empty() || beliefs_path.empty()) {
    *error = "file: requires graph=PATH and beliefs=PATH";
    return std::nullopt;
  }
  const auto coupling = ResolveCouplingSpec(coupling_spec, error);
  if (!coupling.has_value()) return std::nullopt;
  if (k_param > 0 && k_param != coupling->k()) {
    *error = "file: k disagrees with the coupling matrix size";
    return std::nullopt;
  }
  auto graph = ReadEdgeList(graph_path, error, hint);
  if (!graph.has_value()) return std::nullopt;
  auto beliefs =
      ReadBeliefs(beliefs_path, graph->num_nodes(), coupling->k(), error);
  if (!beliefs.has_value()) return std::nullopt;
  Scenario scenario;
  scenario.k = coupling->k();
  scenario.coupling_residual = coupling->residual();
  scenario.explicit_residuals = std::move(beliefs->residuals);
  scenario.explicit_nodes = std::move(beliefs->explicit_nodes);
  if (!labels_path.empty()) {
    auto labels =
        ReadLabels(labels_path, graph->num_nodes(), scenario.k, error);
    if (!labels.has_value()) return std::nullopt;
    scenario.ground_truth = std::move(*labels);
  }
  scenario.graph = std::move(*graph);
  return scenario;
}

std::optional<Scenario> MakeSnap(ScenarioParams& params,
                                const exec::ExecContext& ctx,
                                std::string* error) {
  const std::string path = params.Str("path", "");
  if (path.empty()) {
    *error = "snap: requires path=FILE";
    return std::nullopt;
  }
  // A `.lbps` and a shard directory's manifest are one layout.
  return LoadSnapshot(path, error, ctx);
}

void EnsureBuiltinsLocked() {
  static bool registered = false;
  if (registered) return;
  registered = true;
  auto add = [](const char* name, const char* description,
                const char* params_help, ScenarioFactory factory) {
    Registry()[name] = Entry{{name, description, params_help},
                             std::move(factory)};
  };
  add("sbm",
      "planted-partition stochastic block model (homophily or heterophily)",
      "n=3000,k=3,deg=8,mode=homophily,mix=<by mode>,strength=0.5/k,"
      "labeled=0.05,belief=0.5,seed=1",
      MakeSbm);
  add("rmat", "power-law R-MAT graph with BFS-Voronoi planted labels",
      "scale=11,ef=8,k=3,a=0.57,b=0.19,c=0.19,strength=0.5/k,labeled=0.05,"
      "belief=0.5,seed=1",
      MakeRmat);
  add("fraud",
      "bipartite reviewer/product fraud network (auction coupling roles)",
      "users=800,products=400,fraud=0.15,shill=0.1,reviews=5,"
      "camouflage=0.1,labeled=0.15,belief=0.3,seed=7",
      MakeFraud);
  add("dblp", "synthetic DBLP heterogeneous network (4 classes)",
      "papers=1200,authors=1300,conferences=12,terms=600,labeled=0.104,"
      "belief=0.5,seed=42",
      MakeDblp);
  add("kronecker",
      "the paper's Fig. 6a Kronecker family with Sect. 7 seeding",
      "g=2,labeled=0.05,extra-digits=0,seed=1", MakeKronecker);
  add("file", "edge list + beliefs (+ optional labels) from text files",
      "graph=PATH,beliefs=PATH,labels=,coupling=homophily2,k=0,hint=0",
      MakeFile);
  add("snap",
      "binary graph snapshot or shard manifest (src/dataset/snapshot.h, "
      "shard.h)",
      "path=FILE", MakeSnap);
}

}  // namespace

void RegisterScenario(const ScenarioInfo& info, ScenarioFactory factory) {
  LINBP_CHECK(!info.name.empty());
  std::lock_guard<std::mutex> lock(RegistryMutex());
  EnsureBuiltinsLocked();
  Registry()[info.name] = Entry{info, std::move(factory)};
}

std::vector<ScenarioInfo> ListScenarios() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  EnsureBuiltinsLocked();
  std::vector<ScenarioInfo> infos;
  infos.reserve(Registry().size());
  for (const auto& [name, entry] : Registry()) infos.push_back(entry.info);
  return infos;
}

std::optional<Scenario> MakeScenario(const std::string& spec,
                                     std::string* error,
                                     const exec::ExecContext& ctx) {
  LINBP_CHECK(error != nullptr);
  error->clear();
  auto parsed = ParseScenarioSpec(spec, error);
  if (!parsed.has_value()) return std::nullopt;
  ScenarioFactory factory;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    EnsureBuiltinsLocked();
    const auto it = Registry().find(parsed->name);
    if (it == Registry().end()) {
      std::string known;
      for (const auto& [name, entry] : Registry()) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      *error = "unknown scenario '" + parsed->name + "' (known: " + known +
               ")";
      return std::nullopt;
    }
    factory = it->second.factory;
  }
  auto scenario = factory(parsed->params, ctx, error);
  if (!scenario.has_value()) {
    if (error->empty()) *error = parsed->name + ": scenario build failed";
    return std::nullopt;
  }
  if (!parsed->params.value_error().empty()) {
    *error = parsed->name + ": " + parsed->params.value_error();
    return std::nullopt;
  }
  const std::vector<std::string> unknown = parsed->params.UnconsumedKeys();
  if (!unknown.empty()) {
    *error = "unknown parameter '" + unknown.front() + "' for scenario '" +
             parsed->name + "'";
    return std::nullopt;
  }
  if (scenario->name.empty()) scenario->name = parsed->name;
  if (scenario->spec.empty()) scenario->spec = spec;
  return scenario;
}

}  // namespace dataset
}  // namespace linbp
