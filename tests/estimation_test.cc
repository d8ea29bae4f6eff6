#include <gtest/gtest.h>

#include <cmath>

#include "common/binary_io.h"
#include "common/math_util.h"
#include "estimation/accuracy_estimator.h"
#include "estimation/observed_accuracy.h"
#include "graph/similarity_graph.h"
#include "model/campaign_state.h"
#include "model/dataset.h"

namespace icrowd {
namespace {

Dataset ClusteredDataset() {
  // Six tasks in two domains; ids 0-2 = "alpha", 3-5 = "beta".
  Dataset ds("clustered");
  for (int i = 0; i < 6; ++i) {
    Microtask t;
    t.text = "task";
    t.domain = i < 3 ? "alpha" : "beta";
    t.ground_truth = kYes;
    ds.AddTask(std::move(t));
  }
  return ds;
}

SimilarityGraph TwoTriangles() {
  return SimilarityGraph::FromEdges(6, {{0, 1, 1.0},
                                        {1, 2, 1.0},
                                        {0, 2, 1.0},
                                        {3, 4, 1.0},
                                        {4, 5, 1.0},
                                        {3, 5, 1.0}});
}

// ------------------------------------------------------ ObservedAccuracy --

TEST(ObservedAccuracyTest, AgreementWithStrongCoworkersIsHigh) {
  // Worker 0 agrees with a consensus backed by two accurate co-workers.
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kNo, 2.0}};
  auto accuracy = [](WorkerId, TaskId) { return 0.9; };
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  // P(consensus correct) = p^2(1-p) / (p^2(1-p) + (1-p)^2 p) = p = 0.9.
  EXPECT_NEAR(q, 0.9, 1e-9);
}

TEST(ObservedAccuracyTest, DisagreementIsComplement) {
  std::vector<AnswerRecord> answers = {
      {0, 0, kNo, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kYes, 2.0}};
  auto accuracy = [](WorkerId, TaskId) { return 0.9; };
  double agree = ObservedAccuracyOnConsensusTask(1, answers, kYes, accuracy);
  double disagree =
      ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  EXPECT_NEAR(agree + disagree, 1.0, 1e-9);
  EXPECT_LT(disagree, 0.5);
}

TEST(ObservedAccuracyTest, UnanimousConsensusGivesHighConfidence) {
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kYes, 2.0}};
  auto accuracy = [](WorkerId, TaskId) { return 0.8; };
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  // Unanimity from three 0.8 workers: strongly correct.
  EXPECT_GT(q, 0.95);
}

TEST(ObservedAccuracyTest, WeakCoworkersGiveUncertainGrade) {
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kYes, 1.0}, {0, 2, kNo, 2.0}};
  auto accuracy = [](WorkerId, TaskId) { return 0.51; };
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  EXPECT_NEAR(q, 0.51, 0.02);  // barely better than a coin flip
}

TEST(ObservedAccuracyTest, MatchesPaperEquation5Form) {
  // Heterogeneous accuracies; verify against a direct Eq. (5) evaluation.
  std::vector<AnswerRecord> answers = {
      {0, 0, kYes, 0.0}, {0, 1, kNo, 1.0}, {0, 2, kYes, 2.0}};
  auto accuracy = [](WorkerId w, TaskId) {
    return w == 0 ? 0.8 : (w == 1 ? 0.6 : 0.7);
  };
  // W1 = {0, 2} (match consensus kYes), W2 = {1}.
  double p1 = 0.8 * 0.7, p1_bar = 0.2 * 0.3;
  double p2 = 0.6, p2_bar = 0.4;
  double expected = (p1 * p2_bar) / (p1 * p2_bar + p1_bar * p2);
  double q = ObservedAccuracyOnConsensusTask(0, answers, kYes, accuracy);
  EXPECT_NEAR(q, expected, 1e-9);
}

TEST(ComputeObservedTest, QualificationUsesGroundTruthExactly) {
  Dataset ds = ClusteredDataset();
  CampaignState state(ds.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.MarkQualification(3);
  state.ForceComplete(0, kYes);
  state.ForceComplete(3, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.MarkAssigned(3, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());  // correct
  ASSERT_TRUE(state.RecordAnswer({3, w, kNo, 1.0}).ok());   // wrong
  auto observed = ComputeObservedAccuracies(
      w, state, ds, {0, 3}, [](WorkerId, TaskId) { return 0.7; });
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].first, 0);
  EXPECT_DOUBLE_EQ(observed[0].second, 1.0);
  EXPECT_EQ(observed[1].first, 3);
  EXPECT_DOUBLE_EQ(observed[1].second, 0.0);
}

TEST(ComputeObservedTest, SkipsUncompletedTasks) {
  Dataset ds = ClusteredDataset();
  CampaignState state(ds.size(), 3);
  WorkerId w = state.RegisterWorker();
  ASSERT_TRUE(state.MarkAssigned(1, w).ok());
  ASSERT_TRUE(state.RecordAnswer({1, w, kYes, 0.0}).ok());
  // One answer of three: not globally completed with k = 3... except the
  // (k+1)/2 = 2 rule; a single vote is insufficient.
  auto observed = ComputeObservedAccuracies(
      w, state, ds, {}, [](WorkerId, TaskId) { return 0.7; });
  EXPECT_TRUE(observed.empty());
}

// ----------------------------------------------------- AccuracyEstimator --

class AccuracyEstimatorTest : public ::testing::Test {
 protected:
  AccuracyEstimatorTest()
      : dataset_(ClusteredDataset()), graph_(TwoTriangles()) {}

  AccuracyEstimator MakeEstimator(AccuracyEstimatorOptions options = {}) {
    auto est = AccuracyEstimator::Create(graph_, options);
    EXPECT_TRUE(est.ok());
    return est.MoveValueOrDie();
  }

  Dataset dataset_;
  SimilarityGraph graph_;
};

TEST_F(AccuracyEstimatorTest, CreateValidatesOptions) {
  AccuracyEstimatorOptions options;
  options.default_accuracy = 1.5;
  EXPECT_FALSE(AccuracyEstimator::Create(graph_, options).ok());
  options = AccuracyEstimatorOptions();
  options.prior_strength = -1.0;
  EXPECT_FALSE(AccuracyEstimator::Create(graph_, options).ok());
}

TEST_F(AccuracyEstimatorTest, UnregisteredWorkerFallsBackToDefault) {
  AccuracyEstimatorOptions options;
  options.default_accuracy = 0.62;
  AccuracyEstimator est = MakeEstimator(options);
  EXPECT_FALSE(est.IsRegistered(0));
  EXPECT_DOUBLE_EQ(est.Accuracy(0, 1), 0.62);
  EXPECT_DOUBLE_EQ(est.FallbackAccuracy(0), 0.62);
  EXPECT_TRUE(est.Observed(0).empty());
}

TEST_F(AccuracyEstimatorTest, RegisteredWorkerUsesWarmupBeforeData) {
  AccuracyEstimator est = MakeEstimator();
  est.RegisterWorker(0, 0.8);
  EXPECT_TRUE(est.IsRegistered(0));
  EXPECT_DOUBLE_EQ(est.Accuracy(0, 3), 0.8);
}

TEST_F(AccuracyEstimatorTest, PropagatesQualificationSignalWithinCluster) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0, 3});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.MarkQualification(3);
  state.ForceComplete(0, kYes);
  state.ForceComplete(3, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.MarkAssigned(3, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());  // alpha: right
  ASSERT_TRUE(state.RecordAnswer({3, w, kNo, 1.0}).ok());   // beta: wrong
  est.RegisterWorker(w, 0.5);
  est.Refresh(w, state, dataset_);
  // Unseen alpha tasks (1, 2) must rank above unseen beta tasks (4, 5).
  EXPECT_GT(est.Accuracy(w, 1), est.Accuracy(w, 4));
  EXPECT_GT(est.Accuracy(w, 2), est.Accuracy(w, 5));
  EXPECT_GT(est.Accuracy(w, 1), 0.5);
  EXPECT_LT(est.Accuracy(w, 4), 0.5);
}

TEST_F(AccuracyEstimatorTest, ObservedVectorExposed) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.ForceComplete(0, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());
  est.RegisterWorker(w, 0.5);
  est.Refresh(w, state, dataset_);
  ASSERT_EQ(est.Observed(w).size(), 1u);
  EXPECT_DOUBLE_EQ(est.Observed(w)[0].second, 1.0);
}

TEST_F(AccuracyEstimatorTest, UncertaintyDropsWithObservations) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0, 1});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  // Maximal uncertainty before any estimate.
  EXPECT_NEAR(est.Uncertainty(w, 2), 1.0 / 12.0, 1e-12);
  for (TaskId t : {0, 1}) {
    state.MarkQualification(t);
    state.ForceComplete(t, kYes);
    ASSERT_TRUE(state.MarkAssigned(t, w).ok());
    ASSERT_TRUE(state.RecordAnswer({t, w, kYes, 0.0}).ok());
  }
  est.RegisterWorker(w, 0.5);
  est.Refresh(w, state, dataset_);
  // Task 2 is adjacent to both observations: uncertainty must shrink.
  EXPECT_LT(est.Uncertainty(w, 2), 1.0 / 12.0);
  // Far cluster stays maximally uncertain.
  EXPECT_GT(est.Uncertainty(w, 4), est.Uncertainty(w, 2));
}

TEST_F(AccuracyEstimatorTest, RawScoresMatchLinearity) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.ForceComplete(0, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());
  est.RegisterWorker(w, 0.5);
  est.Refresh(w, state, dataset_);
  std::vector<double> raw = est.RawScores(w);
  std::vector<double> expected = est.engine().EstimateFromObserved({{0, 1.0}});
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(raw[i], expected[i], 1e-12);
  }
}

TEST_F(AccuracyEstimatorTest, RefreshUnregisteredWorkerAutoRegisters) {
  AccuracyEstimator est = MakeEstimator();
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  est.Refresh(w, state, dataset_);  // no observations yet
  EXPECT_TRUE(est.IsRegistered(w));
}

TEST_F(AccuracyEstimatorTest, EstimatesStayInProbabilityRange) {
  AccuracyEstimator est = MakeEstimator();
  est.SetQualificationTasks({0, 1, 2});
  CampaignState state(dataset_.size(), 3);
  WorkerId w = state.RegisterWorker();
  for (TaskId t : {0, 1, 2}) {
    state.MarkQualification(t);
    state.ForceComplete(t, kYes);
    ASSERT_TRUE(state.MarkAssigned(t, w).ok());
    ASSERT_TRUE(state.RecordAnswer({t, w, kYes, 0.0}).ok());
  }
  est.RegisterWorker(w, 1.0);  // perfect warm-up
  est.Refresh(w, state, dataset_);
  for (TaskId t = 0; t < static_cast<TaskId>(dataset_.size()); ++t) {
    double p = est.Accuracy(w, t);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

// Accuracy() is one load from a row materialised when the model changes.
// The oracle below recomputes the class comment's calibration from the
// model's inputs — numerator and mass rebuilt from Observed() exactly as a
// refresh builds them, and FallbackAccuracy() — so every (worker, task)
// pair can be compared bitwise.
double CalibrationOracle(const AccuracyEstimator& est,
                         const AccuracyEstimatorOptions& options,
                         WorkerId w, TaskId t, bool has_estimate) {
  if (!est.IsRegistered(w)) return options.default_accuracy;
  double fallback = est.FallbackAccuracy(w);
  if (!has_estimate) return fallback;
  SparseEntries weighted;
  SparseEntries mask;
  for (const auto& [task, q] : est.Observed(w)) {
    double confidence = std::abs(2.0 * q - 1.0);
    weighted.emplace_back(task, q * confidence);
    mask.emplace_back(task, confidence);
  }
  std::vector<double> numerator = est.engine().EstimateFromObserved(weighted);
  std::vector<double> mass = est.engine().EstimateFromObserved(mask);
  if (mass[t] <= options.min_mass) return fallback;
  double alpha = est.engine().alpha();
  double prior_mass = options.prior_strength * (alpha / (1.0 + alpha));
  double p = (numerator[t] + prior_mass * fallback) / (mass[t] + prior_mass);
  return ClampProbability(p, 0.02);
}

// Workers 0-2 answer qualification task 0 (gold) and consensus task 4
// (a 2-1 split, so Eq. (5) grades are fractional); worker 3 registers with
// no answers; worker 4 is never registered.
class EstimatorRowTest : public AccuracyEstimatorTest {
 protected:
  EstimatorRowTest() : state_(dataset_.size(), 3) {
    for (int i = 0; i < 5; ++i) state_.RegisterWorker();
    state_.MarkQualification(0);
    state_.ForceComplete(0, kYes);
    const Label answers[] = {kYes, kNo, kYes};
    for (WorkerId w = 0; w < 3; ++w) {
      EXPECT_TRUE(state_.MarkAssigned(0, w).ok());
      EXPECT_TRUE(state_.RecordAnswer({0, w, answers[w], 0.0}).ok());
      EXPECT_TRUE(state_.MarkAssigned(4, w).ok());
      EXPECT_TRUE(state_.RecordAnswer({4, w, answers[2 - w], 1.0}).ok());
    }
    EXPECT_TRUE(state_.IsCompleted(4));
  }

  AccuracyEstimator Refreshed() {
    AccuracyEstimator est = MakeEstimator(options_);
    est.SetQualificationTasks({0});
    est.RegisterWorker(0, 0.7);
    est.RegisterWorker(1, 0.55);
    est.RegisterWorker(2, 0.9);
    est.RegisterWorker(3, 0.65);
    est.RefreshMany({0, 1, 2}, state_, dataset_, nullptr);
    return est;
  }

  void ExpectRowsMatchOracle(const AccuracyEstimator& est,
                             const std::vector<bool>& has_estimate) {
    for (WorkerId w = 0; w < 5; ++w) {
      const double* row = est.AccuracyRow(w);
      for (TaskId t = 0; t < static_cast<TaskId>(dataset_.size()); ++t) {
        double expected =
            CalibrationOracle(est, options_, w, t, has_estimate[w]);
        // EXPECT_EQ on doubles is exact: the row must be bit-identical.
        EXPECT_EQ(est.Accuracy(w, t), expected) << "w=" << w << " t=" << t;
        EXPECT_EQ(row[t], expected) << "w=" << w << " t=" << t;
      }
    }
  }

  AccuracyEstimatorOptions options_;
  CampaignState state_;
};

TEST_F(EstimatorRowTest, RowsEqualCalibrationAfterRefresh) {
  AccuracyEstimator est = Refreshed();
  ASSERT_FALSE(est.Observed(1).empty());
  ExpectRowsMatchOracle(est, {true, true, true, false, false});
}

TEST_F(EstimatorRowTest, RowsEqualCalibrationAfterRestore) {
  AccuracyEstimator est = Refreshed();
  BinaryWriter writer;
  est.SerializeState(&writer);
  AccuracyEstimator restored = MakeEstimator(options_);
  BinaryReader reader(writer.data());
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  ExpectRowsMatchOracle(restored, {true, true, true, false, false});
  for (WorkerId w = 0; w < 5; ++w) {
    for (TaskId t = 0; t < static_cast<TaskId>(dataset_.size()); ++t) {
      EXPECT_EQ(restored.Accuracy(w, t), est.Accuracy(w, t));
    }
  }
}

TEST_F(EstimatorRowTest, SnapshotServesPreRefreshRows) {
  AccuracyEstimator est = Refreshed();
  std::vector<double> before;
  for (WorkerId w = 0; w < 5; ++w) {
    for (TaskId t = 0; t < static_cast<TaskId>(dataset_.size()); ++t) {
      before.push_back(CalibrationOracle(est, options_, w, t, w < 3));
    }
  }
  AccuracyFn snapshot = est.SnapshotAccuracyFn({0, 2, 4});
  // Re-grade against a different co-worker view: the live rows change, the
  // snapshot's frozen workers must not.
  est.Refresh(0, state_, dataset_, [](WorkerId, TaskId) { return 0.95; });
  est.Refresh(2, state_, dataset_, [](WorkerId, TaskId) { return 0.6; });
  size_t i = 0;
  for (WorkerId w = 0; w < 5; ++w) {
    for (TaskId t = 0; t < static_cast<TaskId>(dataset_.size()); ++t, ++i) {
      EXPECT_EQ(snapshot(w, t), before[i]) << "w=" << w << " t=" << t;
    }
  }
  ExpectRowsMatchOracle(est, {true, true, true, false, false});
}

TEST_F(EstimatorRowTest, ReRegisteringRecalibratesTheRow) {
  AccuracyEstimator est = Refreshed();
  double old_fallback = est.FallbackAccuracy(1);
  // RegisterWorker resets the fallback but keeps the propagated estimate,
  // so every task's calibration moves with the new fallback.
  est.RegisterWorker(1, 0.95);
  ASSERT_NE(est.FallbackAccuracy(1), old_fallback);
  ExpectRowsMatchOracle(est, {true, true, true, false, false});
}

class PriorStrengthTest : public ::testing::TestWithParam<double> {};

TEST_P(PriorStrengthTest, StrongerPriorPullsTowardFallback) {
  Dataset ds = ClusteredDataset();
  SimilarityGraph graph = TwoTriangles();
  AccuracyEstimatorOptions options;
  options.prior_strength = GetParam();
  auto est = AccuracyEstimator::Create(graph, options);
  ASSERT_TRUE(est.ok());
  est->SetQualificationTasks({0});
  CampaignState state(ds.size(), 3);
  WorkerId w = state.RegisterWorker();
  state.MarkQualification(0);
  state.ForceComplete(0, kYes);
  ASSERT_TRUE(state.MarkAssigned(0, w).ok());
  ASSERT_TRUE(state.RecordAnswer({0, w, kYes, 0.0}).ok());
  est->RegisterWorker(w, 0.5);
  est->Refresh(w, state, ds);
  double p = est->Accuracy(w, 1);
  // Always between the fallback and the observed 1.0 signal.
  EXPECT_GT(p, est->FallbackAccuracy(w) - 1e-9);
  EXPECT_LT(p, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Priors, PriorStrengthTest,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0));

}  // namespace
}  // namespace icrowd
