#include "graph/ppr.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

/// Seeds one block solves together: one sweep loads each live S' row once
/// and applies it to every lane (DESIGN.md §17).
constexpr size_t kLanes = 8;
static_assert(kLanes <= 8, "a row's live lanes are one uint8_t mask");
/// Sweeps a block runs before its fill is first checked: by then each
/// lane's support has grown past its seed's immediate neighbourhood.
constexpr int kFillCheckSweep = 3;

/// Calls fn(l) for each set bit l of `bits`, lowest first.
template <typename Fn>
void ForEachLane(unsigned bits, Fn&& fn) {
  for (; bits != 0; bits &= bits - 1) {
    fn(static_cast<size_t>(std::countr_zero(bits)));
  }
}

/// One iterate of a block of width W: its live rows, W values per row
/// (lane l of row r at r * W + l; `vals` only grows, and its first
/// rows.size() * W entries are the iterate's), a task -> row map that reads
/// -1 for every task not live in it, and, once the iterate is pruned, the
/// lanes nonzero on each row.
template <size_t W>
struct Iterate {
  std::vector<int32_t> rows;
  std::vector<double> vals;
  std::vector<uint8_t> lanes;
  std::vector<int32_t> slot;

  /// The row of `task`, appending a zero row if it is not live yet.
  size_t RowOf(size_t task) {
    int32_t at = slot[task];
    if (at < 0) {
      at = static_cast<int32_t>(rows.size());
      slot[task] = at;
      rows.push_back(static_cast<int32_t>(task));
      const size_t end = rows.size() * W;
      if (vals.size() < end) vals.resize(std::max(end, 2 * vals.size()));
      std::fill_n(&vals[end - W], W, 0.0);
    }
    return static_cast<size_t>(at);
  }

  void Clear() {
    for (int32_t u : rows) slot[u] = -1;
    rows.clear();
    lanes.clear();
  }

  void Swap(Iterate& other) {
    rows.swap(other.rows);
    vals.swap(other.vals);
    lanes.swap(other.lanes);
    slot.swap(other.slot);
  }
};

/// One thread's current and next iterate for blocks of width W, reused
/// across blocks and engines, and the next-iterate offsets of the S' row
/// being scattered.
template <size_t W>
struct LaneScratch {
  Iterate<W> cur;
  Iterate<W> next;
  std::vector<size_t> targets;
};

template <size_t W>
LaneScratch<W>& ScratchFor(size_t n) {
  thread_local LaneScratch<W> scratch;
  if (scratch.cur.slot.size() < n) {
    scratch.cur.slot.resize(n, -1);
    scratch.next.slot.resize(n, -1);
  }
  return scratch;
}

/// A block's current iterate, handed to one of its halves when it splits.
struct SplitSource {
  const std::vector<int32_t>& rows;
  const std::vector<double>& vals;
  const std::vector<uint8_t>& lanes;
  size_t width;
  size_t lane_offset;
};

/// Sparse power iteration of Eq. (4), p <- c * S'p + restart * e_seed, for
/// up to W seeds at once. Every lane keeps its own restart, ε-prune, L1
/// convergence test and sweep count, exactly as a lone seed would; a lane
/// that converges is written out and zeroed, so it freezes while the rest
/// of its block runs on.
class LaneSolver {
 public:
  LaneSolver(const SparseMatrix& s_prime, const PprOptions& options,
             std::vector<SparseEntries>* seeds)
      : s_prime_(s_prime),
        options_(options),
        c_(1.0 / (1.0 + options.alpha)),
        restart_(options.alpha / (1.0 + options.alpha)),
        seeds_(*seeds) {}

  /// Solves seed `first + l` for each set bit l of `active`. A fresh block
  /// starts every lane from e_seed; a half of a split block starts from
  /// its parent's iterate after `sweep` sweeps.
  template <size_t W>
  void Solve(size_t first, unsigned active, int sweep,
             const SplitSource* source) {
    LaneScratch<W>& s = ScratchFor<W>(s_prime_.n());
    if (source == nullptr) {
      ForEachLane(active, [&](size_t l) {
        const size_t r = s.cur.RowOf(first + l);
        s.cur.vals[r * W + l] = 1.0;
        s.cur.lanes.push_back(static_cast<uint8_t>(1u << l));
      });
    } else {
      for (size_t r = 0; r < source->rows.size(); ++r) {
        const unsigned lanes =
            (source->lanes[r] >> source->lane_offset) & ((1u << W) - 1);
        if (lanes == 0) continue;
        const size_t at =
            s.cur.RowOf(static_cast<size_t>(source->rows[r]));
        const double* x =
            &source->vals[r * source->width + source->lane_offset];
        std::copy(x, x + W, &s.cur.vals[at * W]);
        s.cur.lanes.push_back(static_cast<uint8_t>(lanes));
      }
    }
    while (active != 0 && sweep < options_.max_iterations) {
      ++sweep;
      Scatter(&s);
      ForEachLane(active, [&](size_t l) {
        s.next.vals[s.next.RowOf(first + l) * W + l] += restart_;
      });
      // Prune tiny entries and accumulate each lane's L1 change over the
      // rows it reached this sweep, then over the rows it left. All masses
      // are positive, so a lane is zero on a row before pruning exactly
      // when it did not reach the row.
      double diff[W] = {};
      size_t nnz[W] = {};
      s.next.lanes.resize(s.next.rows.size());
      for (size_t j = 0; j < s.next.rows.size(); ++j) {
        const int32_t prev = s.cur.slot[s.next.rows[j]];
        unsigned kept = 0;
        double* x = &s.next.vals[j * W];
        for (size_t l = 0; l < W; ++l) {
          if (x[l] == 0.0) continue;
          if (x[l] < options_.prune_epsilon) x[l] = 0.0;
          if (x[l] != 0.0) {
            kept |= 1u << l;
            ++nnz[l];
          }
          const double old =
              prev < 0 ? 0.0 : s.cur.vals[static_cast<size_t>(prev) * W + l];
          diff[l] += std::abs(x[l] - old);
        }
        s.next.lanes[j] = static_cast<uint8_t>(kept);
      }
      for (size_t r = 0; r < s.cur.rows.size(); ++r) {
        const int32_t at = s.next.slot[s.cur.rows[r]];
        const unsigned still =
            at < 0 ? 0u : s.next.lanes[static_cast<size_t>(at)];
        const unsigned gone = s.cur.lanes[r] & ~still;
        if (gone == 0) continue;
        ForEachLane(gone,
                    [&](size_t l) { diff[l] += s.cur.vals[r * W + l]; });
      }
      unsigned done = 0;
      ForEachLane(active, [&](size_t l) {
        if (sweep == options_.max_iterations ||
            diff[l] < options_.tolerance) {
          done |= 1u << l;
        }
      });
      if (done != 0) Freeze(&s.next, first, done, nnz, sweep);
      active &= ~done;
      Advance(&s);
      if constexpr (W > 1) {
        // Lanes pay off only where seeds share rows. A block whose lanes
        // fill at most half of its slab splits into halves, which carry
        // on from this iterate.
        size_t filled = 0;
        ForEachLane(active, [&](size_t l) { filled += nnz[l]; });
        if (active != 0 && sweep >= kFillCheckSweep &&
            2 * filled <= s.cur.rows.size() * W) {
          constexpr size_t kHalf = W / 2;
          const unsigned low = active & ((1u << kHalf) - 1);
          const unsigned high = active >> kHalf;
          if (low != 0) {
            const SplitSource half{s.cur.rows, s.cur.vals, s.cur.lanes, W, 0};
            Solve<kHalf>(first, low, sweep, &half);
          }
          if (high != 0) {
            const SplitSource half{s.cur.rows, s.cur.vals, s.cur.lanes, W,
                                   kHalf};
            Solve<kHalf>(first + kHalf, high, sweep, &half);
          }
          break;
        }
      }
    }
    s.cur.Clear();
  }

 private:
  /// next += c * S' cur: each live row is scattered along its S' row (S'
  /// is symmetric) into all its lanes at once. A row with one live lane
  /// takes the scalar path; elsewhere the zero lanes add exact zeros.
  /// Leaves next's lane masks stale until the sweep prunes it.
  template <size_t W>
  void Scatter(LaneScratch<W>* s) const {
    const std::vector<size_t>& row_ptr = s_prime_.row_ptr();
    const std::vector<int32_t>& cols = s_prime_.cols();
    const std::vector<double>& weights = s_prime_.values();
    const Iterate<W>& cur = s->cur;
    Iterate<W>& next = s->next;
    for (size_t r = 0; r < cur.rows.size(); ++r) {
      const size_t u = static_cast<size_t>(cur.rows[r]);
      const size_t begin = row_ptr[u];
      const size_t end = row_ptr[u + 1];
      const double* x = &cur.vals[r * W];
      const uint8_t lanes = cur.lanes[r];
      if ((lanes & (lanes - 1)) == 0) {
        const size_t l = static_cast<size_t>(std::countr_zero(lanes));
        const double scaled = c_ * x[l];
        for (size_t idx = begin; idx < end; ++idx) {
          const size_t at = next.RowOf(static_cast<size_t>(cols[idx]));
          next.vals[at * W + l] += scaled * weights[idx];
        }
        continue;
      }
      // Find (or add) every target row first, so the accumulation runs
      // over a buffer that no longer moves, W lanes at a time.
      s->targets.resize(end - begin);
      for (size_t idx = begin; idx < end; ++idx) {
        s->targets[idx - begin] =
            next.RowOf(static_cast<size_t>(cols[idx])) * W;
      }
      double scaled[W];
      for (size_t l = 0; l < W; ++l) scaled[l] = c_ * x[l];
      double* vals = next.vals.data();
      for (size_t idx = begin; idx < end; ++idx) {
        double* dst = vals + s->targets[idx - begin];
        const double w = weights[idx];
        double acc[W];
        std::memcpy(acc, dst, sizeof acc);
        for (size_t l = 0; l < W; ++l) acc[l] += scaled[l] * w;
        std::memcpy(dst, acc, sizeof acc);
      }
    }
  }

  /// Writes each `done` lane of `it` out as its seed's vector, sorted by
  /// task id and reserved to its `nnz` entries, and zeroes the lane.
  template <size_t W>
  void Freeze(Iterate<W>* it, size_t first, unsigned done, const size_t* nnz,
              int sweeps) {
    auto& registry = obs::MetricsRegistry::Global();
    static const obs::Counter seeds_solved = registry.GetCounter(
        "icrowd.ppr.seeds_solved",
        {true, "Algorithm 1 seed vectors solved (one per task)"});
    static const obs::Counter solve_iterations = registry.GetCounter(
        "icrowd.ppr.solve_iterations",
        {true, "power-iteration steps summed over all seeds"});
    static const obs::Histogram seed_support = registry.GetHistogram(
        "icrowd.ppr.seed_support", obs::ExponentialBuckets(1, 4, 8),
        {true, "nonzero entries per converged seed vector"});
    ForEachLane(done, [&](size_t l) { seeds_[first + l].reserve(nnz[l]); });
    for (size_t j = 0; j < it->rows.size(); ++j) {
      ForEachLane(it->lanes[j] & done, [&](size_t l) {
        seeds_[first + l].emplace_back(it->rows[j], it->vals[j * W + l]);
        it->vals[j * W + l] = 0.0;
      });
      it->lanes[j] = static_cast<uint8_t>(it->lanes[j] & ~done);
    }
    ForEachLane(done, [&](size_t l) {
      SparseEntries& out = seeds_[first + l];
      std::sort(out.begin(), out.end());
      seeds_solved.Increment();
      solve_iterations.Increment(static_cast<uint64_t>(sweeps));
      seed_support.Observe(static_cast<double>(out.size()));
    });
  }

  /// Makes the next iterate the current one, without the rows no live
  /// lane holds any more.
  template <size_t W>
  static void Advance(LaneScratch<W>* s) {
    s->cur.Clear();
    Iterate<W>& next = s->next;
    size_t kept = 0;
    for (size_t j = 0; j < next.rows.size(); ++j) {
      const int32_t v = next.rows[j];
      if (next.lanes[j] == 0) {
        next.slot[v] = -1;
        continue;
      }
      next.slot[v] = static_cast<int32_t>(kept);
      next.rows[kept] = v;
      next.lanes[kept] = next.lanes[j];
      std::copy(&next.vals[j * W], &next.vals[j * W] + W,
                &next.vals[kept * W]);
      ++kept;
    }
    next.rows.resize(kept);
    next.lanes.resize(kept);
    s->cur.Swap(s->next);
  }

  const SparseMatrix& s_prime_;
  const PprOptions& options_;
  const double c_;        // graph weight
  const double restart_;  // α/(1+α)
  std::vector<SparseEntries>& seeds_;
};

}  // namespace

Result<PprEngine> PprEngine::Precompute(const SimilarityGraph& graph,
                                        const PprOptions& options) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot precompute PPR on empty graph");
  }
  if (options.alpha <= 0.0) {
    return Status::InvalidArgument("PPR alpha must be > 0");
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("PPR max_iterations must be >= 1");
  }
  PprEngine engine(graph.NormalizedAdjacency(), options);
  const size_t n = graph.num_nodes();
  engine.seeds_.resize(n);
  ICROWD_TRACE_SCOPE("ppr.precompute");
  LaneSolver solver(engine.s_prime_, engine.options_, &engine.seeds_);
  // Blocks are fixed runs of consecutive seed ids, so every seed's vector
  // is the same at any thread count.
  ThreadPool::ParallelFor(
      (n + kLanes - 1) / kLanes, options.num_threads, [&](size_t block) {
        const size_t first = block * kLanes;
        const size_t lanes = std::min(kLanes, n - first);
        solver.Solve<kLanes>(first, (1u << lanes) - 1, 0, nullptr);
      });
  return engine;
}

namespace {

struct EstimateCounters {
  obs::Counter estimates;
  obs::Counter terms;
};

const EstimateCounters& GetEstimateCounters() {
  auto& registry = obs::MetricsRegistry::Global();
  static const EstimateCounters counters{
      registry.GetCounter(
          "icrowd.ppr.estimates",
          {true, "dense Lemma 3 passes over seed vectors (a fused pair of "
                 "sums counts once)"}),
      registry.GetCounter(
          "icrowd.ppr.estimate_terms",
          {true, "seed-vector entries read across all dense passes"})};
  return counters;
}

}  // namespace

std::vector<double> PprEngine::EstimateFromObserved(
    const SparseEntries& observed) const {
  const EstimateCounters& counters = GetEstimateCounters();
  counters.estimates.Increment();
  std::vector<double> estimate(num_tasks(), 0.0);
  uint64_t terms = 0;
  for (const auto& [task, q] : observed) {
    if (q == 0.0) continue;
    terms += seeds_[task].size();
    for (const auto& [j, v] : seeds_[task]) {
      estimate[j] += q * v;
    }
  }
  counters.terms.Increment(terms);
  return estimate;
}

void PprEngine::EstimatePairFromObserved(
    const std::vector<PairedObservation>& observed, std::vector<double>* a,
    std::vector<double>* b) const {
  const EstimateCounters& counters = GetEstimateCounters();
  counters.estimates.Increment();
  a->assign(num_tasks(), 0.0);
  b->assign(num_tasks(), 0.0);
  double* out_a = a->data();
  double* out_b = b->data();
  uint64_t terms = 0;
  for (const PairedObservation& o : observed) {
    const bool use_a = o.a != 0.0;
    const bool use_b = o.b != 0.0;
    if (!use_a && !use_b) continue;
    const SparseEntries& seed = seeds_[o.task];
    terms += seed.size();
    for (const auto& [j, v] : seed) {
      if (use_a) out_a[j] += o.a * v;
      if (use_b) out_b[j] += o.b * v;
    }
  }
  counters.terms.Increment(terms);
}

SparseEntries PprEngine::EstimateSparseFromObserved(
    const SparseEntries& observed) const {
  std::unordered_map<int32_t, double> acc;
  for (const auto& [task, q] : observed) {
    if (q == 0.0) continue;
    for (const auto& [j, v] : seeds_[task]) {
      acc[j] += q * v;
    }
  }
  SparseEntries out(acc.begin(), acc.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> PprEngine::SolveIteratively(
    const std::vector<double>& q) const {
  const double c = 1.0 / (1.0 + options_.alpha);
  const double restart = options_.alpha / (1.0 + options_.alpha);
  std::vector<double> p = q;
  std::vector<double> sp;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    s_prime_.MultiplyInto(p, &sp);
    double diff = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
      double next = c * sp[i] + restart * q[i];
      diff += std::abs(next - p[i]);
      p[i] = next;
    }
    if (diff < options_.tolerance) break;
  }
  return p;
}

}  // namespace icrowd
