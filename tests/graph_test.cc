#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <set>
#include <string>

#include "common/random.h"
#include "datagen/entity_resolution.h"
#include "datagen/itemcompare.h"
#include "datagen/scalability.h"
#include "datagen/yahooqa.h"
#include "graph/ppr.h"
#include "graph/similarity_graph.h"
#include "graph/sparse_matrix.h"
#include "obs/metrics.h"
#include "text/tokenizer.h"

namespace icrowd {
namespace {

// ---------------------------------------------------------- SparseMatrix --

TEST(SparseMatrixTest, BuildsFromTriplets) {
  SparseMatrix m(3, {{0, 1, 2.0}, {1, 0, 2.0}, {2, 2, 5.0}});
  EXPECT_EQ(m.n(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(2, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(SparseMatrixTest, MergesDuplicateEntries) {
  SparseMatrix m(2, {{0, 1, 1.5}, {0, 1, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 4.0);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  SparseMatrix m(3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}, {2, 0, 4.0}});
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = m.Multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 1.0 * 1.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0 * 2.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0 * 1.0);
}

TEST(SparseMatrixTest, RowSumAndEmptyRows) {
  SparseMatrix m(3, {{0, 1, 2.0}, {0, 2, 3.0}});
  EXPECT_DOUBLE_EQ(m.RowSum(0), 5.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 0.0);
  EXPECT_DOUBLE_EQ(m.RowSum(2), 0.0);
}

TEST(SparseMatrixTest, SymmetricNormalizationFormula) {
  // Path graph 0-1-2 with unit weights. D = diag(1, 2, 1).
  SparseMatrix s(3, {{0, 1, 1.0},
                     {1, 0, 1.0},
                     {1, 2, 1.0},
                     {2, 1, 1.0}});
  SparseMatrix n = s.SymmetricNormalized();
  EXPECT_NEAR(n.At(0, 1), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(n.At(1, 0), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(n.At(1, 2), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(SparseMatrixTest, NormalizationHandlesIsolatedRows) {
  SparseMatrix s(3, {{0, 1, 1.0}, {1, 0, 1.0}});  // node 2 isolated
  SparseMatrix n = s.SymmetricNormalized();
  EXPECT_DOUBLE_EQ(n.RowSum(2), 0.0);
  EXPECT_NEAR(n.At(0, 1), 1.0, 1e-12);
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix m(4, {});
  EXPECT_EQ(m.nnz(), 0u);
  std::vector<double> y = m.Multiply({1, 2, 3, 4});
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ------------------------------------------------------- SimilarityGraph --

Dataset SmallTextDataset() {
  Dataset ds("small");
  for (const char* text :
       {"iphone 4 wifi 32gb", "iphone 4 wifi 16gb", "iphone four case",
        "ipod touch wifi", "ipod nano headphone", "ipod touch 32gb"}) {
    Microtask t;
    t.text = text;
    t.ground_truth = kYes;
    ds.AddTask(std::move(t));
  }
  return ds;
}

TEST(SimilarityGraphTest, JaccardBuildRespectsThreshold) {
  Dataset ds = SmallTextDataset();
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kJaccard;
  options.threshold = 0.5;
  auto graph = SimilarityGraph::Build(ds, options);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), ds.size());
  // t0-t1 share 3 of 5 tokens -> 0.6 edge; t0-t4 share none.
  EXPECT_GT(graph->Weight(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(graph->Weight(0, 4), 0.0);
  for (size_t u = 0; u < graph->num_nodes(); ++u) {
    for (const auto& e : graph->Neighbors(u)) {
      EXPECT_GE(e.weight, options.threshold);
    }
  }
}

TEST(SimilarityGraphTest, JaccardBuildMatchesStringJaccardReference) {
  // The interned-id build must reproduce, edge for edge and bit for bit,
  // the graph a per-pair set-of-strings Jaccard yields.
  auto dataset = GenerateEntityResolution();
  ASSERT_TRUE(dataset.ok());
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kJaccard;
  options.threshold = 0.5;
  auto built = SimilarityGraph::Build(*dataset, options);
  ASSERT_TRUE(built.ok());

  Tokenizer tokenizer;
  std::vector<std::set<std::string>> tokens;
  for (const Microtask& task : dataset->tasks()) {
    std::vector<std::string> words = tokenizer.Tokenize(task.text);
    tokens.emplace_back(words.begin(), words.end());
  }
  SimilarityGraph reference = SimilarityGraph::BuildFromFunction(
      dataset->size(),
      [&](size_t i, size_t j) {
        size_t shared = 0;
        for (const std::string& t : tokens[i]) shared += tokens[j].count(t);
        size_t uni = tokens[i].size() + tokens[j].size() - shared;
        if (uni == 0) return 0.0;
        return static_cast<double>(shared) / static_cast<double>(uni);
      },
      options.threshold);

  ASSERT_GT(reference.num_edges(), 0u);
  ASSERT_EQ(built->num_nodes(), reference.num_nodes());
  EXPECT_EQ(built->num_edges(), reference.num_edges());
  for (size_t u = 0; u < reference.num_nodes(); ++u) {
    const auto& got = built->Neighbors(u);
    const auto& want = reference.Neighbors(u);
    ASSERT_EQ(got.size(), want.size()) << "node " << u;
    for (size_t e = 0; e < want.size(); ++e) {
      EXPECT_EQ(got[e].neighbor, want[e].neighbor) << "node " << u;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[e].weight),
                std::bit_cast<uint64_t>(want[e].weight))
          << "edge " << u << "-" << want[e].neighbor;
    }
  }
}

TEST(SimilarityGraphTest, GraphIsSymmetric) {
  Dataset ds = SmallTextDataset();
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kJaccard;
  options.threshold = 0.2;
  auto graph = SimilarityGraph::Build(ds, options);
  ASSERT_TRUE(graph.ok());
  for (size_t u = 0; u < graph->num_nodes(); ++u) {
    for (const auto& e : graph->Neighbors(u)) {
      EXPECT_DOUBLE_EQ(graph->Weight(e.neighbor, u), e.weight);
    }
  }
}

TEST(SimilarityGraphTest, EmptyDatasetRejected) {
  Dataset empty("empty");
  EXPECT_FALSE(SimilarityGraph::Build(empty, {}).ok());
  EXPECT_FALSE(SimilarityGraph::BuildFromTexts({}, {}).ok());
}

TEST(SimilarityGraphTest, EuclideanRequiresFeatures) {
  Dataset ds = SmallTextDataset();
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kEuclidean;
  EXPECT_FALSE(SimilarityGraph::Build(ds, options).ok());
}

TEST(SimilarityGraphTest, EuclideanBuildOnPoiFeatures) {
  Dataset ds("poi");
  // Two clusters of points-of-interest (§3.3.2).
  for (auto [x, y] : std::initializer_list<std::pair<double, double>>{
           {0.0, 0.0}, {0.1, 0.0}, {0.0, 0.1}, {5.0, 5.0}, {5.1, 5.0}}) {
    Microtask t;
    t.text = "poi";
    t.features = {x, y};
    t.ground_truth = kYes;
    ds.AddTask(std::move(t));
  }
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kEuclidean;
  options.threshold = 0.9;
  auto graph = SimilarityGraph::Build(ds, options);
  ASSERT_TRUE(graph.ok());
  EXPECT_GT(graph->Weight(0, 1), 0.0);
  EXPECT_GT(graph->Weight(3, 4), 0.0);
  EXPECT_DOUBLE_EQ(graph->Weight(0, 3), 0.0);  // across clusters
  int components = 0;
  graph->ConnectedComponents(&components);
  EXPECT_EQ(components, 2);
}

TEST(SimilarityGraphTest, ConnectedComponentsOnDisjointCliques) {
  SimilarityGraph g = SimilarityGraph::FromEdges(
      6, {{0, 1, 1.0}, {1, 2, 1.0}, {3, 4, 1.0}});
  int components = 0;
  std::vector<int> labels = g.ConnectedComponents(&components);
  EXPECT_EQ(components, 3);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[5], labels[0]);
}

TEST(SimilarityGraphTest, MaxNeighborsCapsDegreeButKeepsSymmetry) {
  // Build a dense graph and cap neighbors.
  auto graph = SimilarityGraph::BuildFromFunction(
      20, [](size_t, size_t) { return 0.9; }, 0.5, /*max_neighbors=*/3);
  for (size_t u = 0; u < graph.num_nodes(); ++u) {
    for (const auto& e : graph.Neighbors(u)) {
      EXPECT_GT(graph.Weight(e.neighbor, u), 0.0);
    }
  }
  // Average degree must be far below the dense 19.
  EXPECT_LT(graph.AverageDegree(), 8.0);
}

TEST(SimilarityGraphTest, FromEdgesIgnoresSelfLoops) {
  SimilarityGraph g =
      SimilarityGraph::FromEdges(3, {{0, 0, 1.0}, {0, 1, 0.7}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(SimilarityGraphTest, AdjacencyMatrixMatchesWeights) {
  SimilarityGraph g =
      SimilarityGraph::FromEdges(3, {{0, 1, 0.5}, {1, 2, 0.25}});
  SparseMatrix m = g.AdjacencyMatrix();
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.25);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 0.0);
}

TEST(SimilarityGraphTest, MeasureNames) {
  EXPECT_STREQ(SimilarityMeasureName(SimilarityMeasure::kJaccard), "Jaccard");
  EXPECT_STREQ(SimilarityMeasureName(SimilarityMeasure::kCosineTopic),
               "Cos(topic)");
}

// ------------------------------------------------------------------- PPR --

SimilarityGraph TwoClusterGraph() {
  // Two triangles joined by nothing: clusters {0,1,2} and {3,4,5}.
  return SimilarityGraph::FromEdges(6, {{0, 1, 1.0},
                                        {1, 2, 1.0},
                                        {0, 2, 1.0},
                                        {3, 4, 1.0},
                                        {4, 5, 1.0},
                                        {3, 5, 1.0}});
}

TEST(PprTest, RejectsBadOptions) {
  SimilarityGraph g = TwoClusterGraph();
  PprOptions options;
  options.alpha = 0.0;
  EXPECT_FALSE(PprEngine::Precompute(g, options).ok());
  options = PprOptions();
  options.max_iterations = 0;
  EXPECT_FALSE(PprEngine::Precompute(g, options).ok());
  EXPECT_FALSE(
      PprEngine::Precompute(SimilarityGraph::FromEdges(0, {}), {}).ok());
}

TEST(PprTest, SeedVectorContainsSeedWithRestartMass) {
  SimilarityGraph g = TwoClusterGraph();
  PprOptions options;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    const SparseEntries& seed = engine->SeedVector(i);
    auto it = std::find_if(seed.begin(), seed.end(), [&](const auto& e) {
      return e.first == static_cast<int32_t>(i);
    });
    ASSERT_NE(it, seed.end());
    // Self mass at least the restart probability alpha/(1+alpha).
    EXPECT_GE(it->second, options.alpha / (1.0 + options.alpha) - 1e-9);
  }
}

TEST(PprTest, MassStaysWithinCluster) {
  SimilarityGraph g = TwoClusterGraph();
  auto engine = PprEngine::Precompute(g, {});
  ASSERT_TRUE(engine.ok());
  for (const auto& [task, mass] : engine->SeedVector(0)) {
    EXPECT_LT(task, 3);  // nothing leaks into the other cluster
    EXPECT_GT(mass, 0.0);
  }
}

TEST(PprTest, SeedSolutionSatisfiesFixedPointEquation) {
  // Lemma 1/2: the converged p solves p = c S'p + (1-c) q.
  SimilarityGraph g = TwoClusterGraph();
  PprOptions options;
  options.tolerance = 1e-14;
  options.prune_epsilon = 0.0;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  SparseMatrix s_prime = g.NormalizedAdjacency();
  const double c = 1.0 / (1.0 + options.alpha);
  const double restart = options.alpha / (1.0 + options.alpha);
  std::vector<double> p(g.num_nodes(), 0.0);
  for (const auto& [t, v] : engine->SeedVector(0)) p[t] = v;
  std::vector<double> sp = s_prime.Multiply(p);
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    double expected = c * sp[i] + restart * (i == 0 ? 1.0 : 0.0);
    EXPECT_NEAR(p[i], expected, 1e-10);
  }
}

TEST(PprTest, LinearityLemma3) {
  // Lemma 3: Estimate(q) == Σ q_i · p_{t_i} == direct solve of Eq. (4).
  SimilarityGraph g = TwoClusterGraph();
  PprOptions options;
  options.tolerance = 1e-14;
  options.prune_epsilon = 0.0;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  SparseEntries observed = {{0, 1.0}, {2, 0.0}, {4, 0.7}};
  std::vector<double> via_linearity = engine->EstimateFromObserved(observed);
  std::vector<double> q(g.num_nodes(), 0.0);
  q[0] = 1.0;
  q[2] = 0.0;
  q[4] = 0.7;
  std::vector<double> direct = engine->SolveIteratively(q);
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_NEAR(via_linearity[i], direct[i], 1e-9) << "task " << i;
  }
}

TEST(PprTest, SparseEstimateMatchesDense) {
  SimilarityGraph g = TwoClusterGraph();
  auto engine = PprEngine::Precompute(g, {});
  ASSERT_TRUE(engine.ok());
  SparseEntries observed = {{1, 0.8}, {5, 0.4}};
  std::vector<double> dense = engine->EstimateFromObserved(observed);
  SparseEntries sparse = engine->EstimateSparseFromObserved(observed);
  std::vector<double> reconstructed(g.num_nodes(), 0.0);
  for (const auto& [t, v] : sparse) reconstructed[t] = v;
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_NEAR(dense[i], reconstructed[i], 1e-12);
  }
}

TEST(PprTest, IsolatedSeedKeepsOnlyRestartMass) {
  SimilarityGraph g = SimilarityGraph::FromEdges(3, {{0, 1, 1.0}});
  PprOptions options;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  const SparseEntries& seed = engine->SeedVector(2);
  ASSERT_EQ(seed.size(), 1u);
  EXPECT_EQ(seed[0].first, 2);
  EXPECT_NEAR(seed[0].second, options.alpha / (1.0 + options.alpha), 1e-9);
}

TEST(PprTest, LargerAlphaConcentratesMassOnSeed) {
  SimilarityGraph g = TwoClusterGraph();
  PprOptions small_alpha;
  small_alpha.alpha = 0.2;
  PprOptions big_alpha;
  big_alpha.alpha = 5.0;
  auto a = PprEngine::Precompute(g, small_alpha);
  auto b = PprEngine::Precompute(g, big_alpha);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto self_mass = [](const SparseEntries& seed, int32_t node) {
    for (const auto& [t, v] : seed) {
      if (t == node) return v;
    }
    return 0.0;
  };
  double total_a = 0.0, total_b = 0.0;
  for (const auto& [_, v] : a->SeedVector(0)) total_a += v;
  for (const auto& [_, v] : b->SeedVector(0)) total_b += v;
  EXPECT_GT(self_mass(b->SeedVector(0), 0) / total_b,
            self_mass(a->SeedVector(0), 0) / total_a);
}

class PprRandomGraphTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PprRandomGraphTest, LinearityHoldsOnRandomGraphs) {
  size_t n = GetParam();
  SimilarityGraph g = GenerateRandomBoundedGraph(n, 6, /*seed=*/n);
  PprOptions options;
  options.tolerance = 1e-13;
  options.prune_epsilon = 0.0;
  auto engine = PprEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());
  Rng rng(n);
  SparseEntries observed;
  std::vector<double> q(n, 0.0);
  for (size_t i = 0; i < n; i += 3) {
    double v = rng.Uniform();
    observed.emplace_back(static_cast<int32_t>(i), v);
    q[i] = v;
  }
  std::vector<double> via_linearity = engine->EstimateFromObserved(observed);
  std::vector<double> direct = engine->SolveIteratively(q);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(via_linearity[i], direct[i], 1e-7);
  }
  // The sparse path is the same Lemma 3 sum with zero entries skipped:
  // densified, it must agree with both the dense path and the direct solve.
  SparseEntries sparse = engine->EstimateSparseFromObserved(observed);
  std::vector<double> densified(n, 0.0);
  for (const auto& [t, v] : sparse) {
    ASSERT_GE(t, 0);
    ASSERT_LT(static_cast<size_t>(t), n);
    densified[t] = v;
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(densified[i], via_linearity[i], 1e-12) << "task " << i;
    EXPECT_NEAR(densified[i], direct[i], 1e-7) << "task " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PprRandomGraphTest,
                         ::testing::Values(10, 40, 120));

// ------------------------------------------------- lane-blocked precompute --

// The per-seed sparse scatter the lane-blocked kernel replaced, kept as the
// oracle: one seed at a time, one dense scratch array, the support in
// discovery order. Returns the seed vector and its sweep count.
std::pair<SparseEntries, int> ReferenceSeed(const SparseMatrix& s_prime,
                                            const PprOptions& options,
                                            size_t seed) {
  const double c = 1.0 / (1.0 + options.alpha);
  const double restart = options.alpha / (1.0 + options.alpha);
  std::vector<double> current(s_prime.n(), 0.0);
  std::vector<double> next(s_prime.n(), 0.0);
  std::vector<int32_t> support = {static_cast<int32_t>(seed)};
  std::vector<int32_t> next_support;
  current[seed] = 1.0;
  const std::vector<size_t>& row_ptr = s_prime.row_ptr();
  int iterations = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++iterations;
    for (int32_t u : support) {
      double scaled = c * current[u];
      for (size_t idx = row_ptr[u]; idx < row_ptr[u + 1]; ++idx) {
        int32_t v = s_prime.cols()[idx];
        if (next[v] == 0.0) next_support.push_back(v);
        next[v] += scaled * s_prime.values()[idx];
      }
    }
    if (next[seed] == 0.0) next_support.push_back(static_cast<int32_t>(seed));
    next[seed] += restart;
    double diff = 0.0;
    for (int32_t v : next_support) {
      if (next[v] < options.prune_epsilon) next[v] = 0.0;
      diff += std::abs(next[v] - current[v]);
    }
    for (int32_t u : support) {
      if (next[u] == 0.0) diff += current[u];
      current[u] = 0.0;
    }
    support.clear();
    for (int32_t v : next_support) {
      if (next[v] > 0.0) {
        current[v] = next[v];
        support.push_back(v);
      }
      next[v] = 0.0;
    }
    next_support.clear();
    if (diff < options.tolerance) break;
  }
  std::sort(support.begin(), support.end());
  SparseEntries out;
  for (int32_t v : support) out.emplace_back(v, current[v]);
  return {out, iterations};
}

uint64_t SolveIterations() {
  return obs::MetricsRegistry::Global().CounterValue(
      "icrowd.ppr.solve_iterations");
}

// Every seed vector has the reference's support, each value within 1e-12
// relative of the reference's, and every lane ran the reference's number
// of sweeps.
void ExpectMatchesPerSeedReference(const SimilarityGraph& graph,
                                   const PprOptions& options) {
  const uint64_t iterations_before = SolveIterations();
  auto engine = PprEngine::Precompute(graph, options);
  ASSERT_TRUE(engine.ok());
  const uint64_t lane_iterations = SolveIterations() - iterations_before;
  SparseMatrix s_prime = graph.NormalizedAdjacency();
  uint64_t reference_iterations = 0;
  for (size_t i = 0; i < graph.num_nodes(); ++i) {
    auto [expected, iterations] = ReferenceSeed(s_prime, options, i);
    reference_iterations += static_cast<uint64_t>(iterations);
    const SparseEntries& got = engine->SeedVector(i);
    ASSERT_EQ(got.size(), expected.size()) << "seed " << i;
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k].first, expected[k].first) << "seed " << i;
      EXPECT_NEAR(got[k].second, expected[k].second,
                  1e-12 * std::abs(expected[k].second))
          << "seed " << i << " task " << got[k].first;
    }
  }
  EXPECT_EQ(lane_iterations, reference_iterations);
}

SimilarityGraph JaccardEntityGraph(size_t tasks_per_family) {
  EntityResolutionOptions data;
  data.tasks_per_family = tasks_per_family;
  auto dataset = GenerateEntityResolution(data);
  EXPECT_TRUE(dataset.ok());
  GraphBuildOptions options;
  options.measure = SimilarityMeasure::kJaccard;
  options.threshold = 0.2;
  return SimilarityGraph::Build(*dataset, options).MoveValueOrDie();
}

PprOptions BoundedOptions() {
  PprOptions options;
  options.prune_epsilon = 1e-4;
  options.tolerance = 1e-6;
  return options;
}

class PprLaneJaccardTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PprLaneJaccardTest, EntityGraphMatchesPerSeedReference) {
  // 36, 360 and 1000 tasks: 9, 90 and 250 per family.
  ExpectMatchesPerSeedReference(JaccardEntityGraph(GetParam() / 4), {});
}

INSTANTIATE_TEST_SUITE_P(Tasks, PprLaneJaccardTest,
                         ::testing::Values(36, 360, 1000));

TEST(PprLaneKernelTest, YahooQaAndItemCompareGraphsMatchPerSeedReference) {
  for (auto dataset : {GenerateYahooQa(), GenerateItemCompare()}) {
    ASSERT_TRUE(dataset.ok());
    auto graph = SimilarityGraph::Build(*dataset, GraphBuildOptions());
    ASSERT_TRUE(graph.ok());
    ExpectMatchesPerSeedReference(*graph, {});
  }
}

TEST(PprLaneKernelTest, RandomBoundedGraphMatchesPerSeedReference) {
  SimilarityGraph graph = GenerateRandomBoundedGraph(1500, 12, /*seed=*/3);
  ExpectMatchesPerSeedReference(graph, BoundedOptions());
  PprOptions one_sweep = BoundedOptions();
  one_sweep.max_iterations = 1;
  ExpectMatchesPerSeedReference(graph, one_sweep);
}

TEST(PprLaneKernelTest, BitIdenticalAcrossThreadCounts) {
  for (const SimilarityGraph& graph :
       {JaccardEntityGraph(90), GenerateRandomBoundedGraph(1500, 12, 3)}) {
    std::vector<SparseEntries> first;
    for (size_t threads : {1, 2, 8}) {
      PprOptions options;
      options.num_threads = threads;
      auto engine = PprEngine::Precompute(graph, options);
      ASSERT_TRUE(engine.ok());
      for (size_t i = 0; i < graph.num_nodes(); ++i) {
        if (threads == 1) {
          first.push_back(engine->SeedVector(i));
        } else {
          ASSERT_EQ(engine->SeedVector(i), first[i])
              << "seed " << i << " at " << threads << " threads";
        }
      }
    }
  }
}

TEST(PprTest, PairedEstimateIsTwoSingleEstimatesBitwise) {
  SimilarityGraph graph = JaccardEntityGraph(9);
  auto engine = PprEngine::Precompute(graph, {});
  ASSERT_TRUE(engine.ok());
  // Zero coefficients in either sum, both, and neither.
  std::vector<PairedObservation> observed = {
      {0, 0.5, 1.0}, {3, 0.0, 0.25}, {7, 0.0, 0.0}, {12, 0.9, 0.8},
      {20, 0.3, 0.0}, {35, 1.0, 1.0}};
  SparseEntries a_only;
  SparseEntries b_only;
  for (const PairedObservation& o : observed) {
    a_only.emplace_back(o.task, o.a);
    b_only.emplace_back(o.task, o.b);
  }
  std::vector<double> a;
  std::vector<double> b;
  engine->EstimatePairFromObserved(observed, &a, &b);
  EXPECT_EQ(a, engine->EstimateFromObserved(a_only));
  EXPECT_EQ(b, engine->EstimateFromObserved(b_only));
}

}  // namespace
}  // namespace icrowd
