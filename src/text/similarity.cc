#include "text/similarity.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/math_util.h"
#include "text/vocabulary.h"

namespace icrowd {

namespace {

/// |a ∩ b| / |a ∪ b| for sorted, duplicate-free ranges.
template <typename T>
double SortedSetJaccard(const std::vector<T>& a, const std::vector<T>& b) {
  size_t intersection = 0;
  for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++intersection;
      ++i;
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - intersection;
  if (uni == 0) return 0.0;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

template <typename T>
std::vector<T> SortedUnique(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

}  // namespace

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  return SortedSetJaccard(SortedUnique(a), SortedUnique(b));
}

std::vector<std::vector<int32_t>> InternTokenSets(
    const std::vector<std::string>& texts, const Tokenizer& tokenizer) {
  Vocabulary vocabulary;
  std::vector<std::vector<int32_t>> sets(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    std::vector<int32_t> ids;
    for (const std::string& token : tokenizer.Tokenize(texts[i])) {
      ids.push_back(vocabulary.GetOrAdd(token));
    }
    sets[i] = SortedUnique(std::move(ids));
  }
  return sets;
}

double JaccardOfSortedIds(const std::vector<int32_t>& a,
                          const std::vector<int32_t>& b) {
  return SortedSetJaccard(a, b);
}

double JaccardSimilarity(const std::string& a, const std::string& b,
                         const Tokenizer& tokenizer) {
  return JaccardSimilarity(tokenizer.Tokenize(a), tokenizer.Tokenize(b));
}

size_t EditDistance(const std::string& a, const std::string& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // Rolling single-row DP.
  std::vector<size_t> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t next_diag = row[j];
      size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
      diag = next_diag;
    }
  }
  return row[m];
}

double EditSimilarity(const std::string& a, const std::string& b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 -
         static_cast<double>(EditDistance(a, b)) /
             static_cast<double>(max_len);
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double EuclideanSimilarity(const std::vector<double>& a,
                           const std::vector<double>& b,
                           double max_distance) {
  assert(max_distance > 0.0);
  return Clamp(1.0 - EuclideanDistance(a, b) / max_distance, 0.0, 1.0);
}

}  // namespace icrowd
