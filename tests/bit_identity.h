// Bitwise float comparison for the bit-identity contract tests. EXPECT_EQ on
// floats, and on vectors of them, counts −0 equal to +0 and no NaN equal to
// anything, so it can neither see a zero change sign nor accept the same NaN
// twice; BitIdentical compares the bytes.
#ifndef DELREC_TESTS_BIT_IDENTITY_H_
#define DELREC_TESTS_BIT_IDENTITY_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace delrec {

inline ::testing::AssertionResult BitIdentical(
    const std::vector<float>& actual, const std::vector<float>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << actual.size() << " floats, expected " << expected.size();
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (std::memcmp(&actual[i], &expected[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "float " << i << " is " << actual[i] << " (0x" << std::hex
             << std::bit_cast<uint32_t>(actual[i]) << "), expected "
             << expected[i] << " (0x" << std::bit_cast<uint32_t>(expected[i])
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult BitIdentical(
    const std::vector<std::vector<float>>& actual,
    const std::vector<std::vector<float>>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << actual.size() << " rows, expected " << expected.size();
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    const ::testing::AssertionResult row = BitIdentical(actual[i], expected[i]);
    if (!row) {
      return ::testing::AssertionFailure() << "row " << i << ": "
                                           << row.message();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace delrec

#endif  // DELREC_TESTS_BIT_IDENTITY_H_
