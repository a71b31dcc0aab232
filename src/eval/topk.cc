#include "eval/topk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/check.h"

namespace delrec::eval {
namespace {

// One packed sort key per score: the high 32 bits grow as the score falls,
// the low 32 bits are the position, so ascending keys are descending scores
// with ties toward the smaller position — TopK's order as one integer
// compare instead of an indirect comparator. The float's bits are mapped to
// an order-preserving unsigned integer (flip every bit of a negative, the
// sign bit of a positive) and inverted. −0 is folded onto +0 first, since
// the comparator calls them equal, and every NaN gets the largest high
// word, so NaNs rank after −inf in position order.
uint64_t DescendingKey(float score, int64_t position) {
  uint32_t bits = 0;
  std::memcpy(&bits, &score, sizeof bits);
  if (bits == 0x80000000u) bits = 0;
  const uint32_t ascending =
      (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
  const uint32_t descending = std::isnan(score) ? 0xFFFFFFFFu : ~ascending;
  return (uint64_t{descending} << 32) | static_cast<uint64_t>(position);
}

}  // namespace

std::vector<int64_t> TopK(const std::vector<float>& scores, int64_t k) {
  const int64_t n = static_cast<int64_t>(scores.size());
  DELREC_CHECK_LE(n, int64_t{1} << 32) << "positions must fit a key's low word";
  k = std::clamp<int64_t>(k, 0, n);
  std::vector<uint64_t> keys(n);
  for (int64_t i = 0; i < n; ++i) keys[i] = DescendingKey(scores[i], i);
  if (k == n) {
    std::sort(keys.begin(), keys.end());
  } else {
    std::partial_sort(keys.begin(), keys.begin() + k, keys.end());
  }
  std::vector<int64_t> order(k);
  for (int64_t i = 0; i < k; ++i) {
    order[i] = static_cast<int64_t>(keys[i] & 0xFFFFFFFFu);
  }
  return order;
}

std::vector<int64_t> TopKByIds(const std::vector<float>& scores,
                               const std::vector<int64_t>& item_ids,
                               int64_t k) {
  DELREC_CHECK_EQ(scores.size(), item_ids.size());
  std::vector<int64_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min<int64_t>(k, static_cast<int64_t>(order.size()));
  k = std::max<int64_t>(k, 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](int64_t a, int64_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return item_ids[a] < item_ids[b];
                    });
  order.resize(k);
  return order;
}

}  // namespace delrec::eval
