#ifndef ICROWD_TEXT_SIMILARITY_H_
#define ICROWD_TEXT_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/tokenizer.h"

namespace icrowd {

/// Jaccard similarity of two token multisets treated as sets:
/// |intersection| / |union| (§3.3 option 1; drives the Figure 3 example).
/// Sorts and de-duplicates copies of both sides, then runs the same merge
/// as JaccardOfSortedIds. 0 when both sides are empty.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// Tokenizes each text once and interns its tokens into ids shared across
/// `texts`: one sorted, duplicate-free id list per text, the input
/// JaccardOfSortedIds takes.
std::vector<std::vector<int32_t>> InternTokenSets(
    const std::vector<std::string>& texts, const Tokenizer& tokenizer);

/// Jaccard over two InternTokenSets lists: one linear merge. Counts the
/// same intersection and union as the string overload on the same tokens,
/// so the result is bit-identical to it.
double JaccardOfSortedIds(const std::vector<int32_t>& a,
                          const std::vector<int32_t>& b);

/// Jaccard over raw texts: tokenizes both sides first.
double JaccardSimilarity(const std::string& a, const std::string& b,
                         const Tokenizer& tokenizer);

/// Levenshtein edit distance between two strings (§3.3 mentions edit
/// distance as an alternative textual measure).
size_t EditDistance(const std::string& a, const std::string& b);

/// Edit distance normalized into a [0, 1] similarity:
/// 1 - dist / max(len(a), len(b)); 1.0 for two empty strings.
double EditSimilarity(const std::string& a, const std::string& b);

/// §3.3 option 2: similarity for feature-vector microtasks (POIs, images):
/// 1 - dist(a, b) / max_distance, clamped to [0, 1]. `max_distance` is the
/// paper's tau_d (the max pairwise distance in the task set); must be > 0.
double EuclideanSimilarity(const std::vector<double>& a,
                           const std::vector<double>& b,
                           double max_distance);

/// Plain Euclidean distance between equal-length feature vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace icrowd

#endif  // ICROWD_TEXT_SIMILARITY_H_
