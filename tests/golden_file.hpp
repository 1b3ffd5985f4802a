// Golden-file comparison shared by the tests that pin rendered output.
//
// A test renders its subject to text, one record per line, and compares
// it with a checked-in file under tests/golden/. The first differing line
// is reported instead of the whole blob. Running the test binary with
// SCL_UPDATE_GOLDEN=1 rewrites the file from the current output instead
// of comparing (review the diff before committing it).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/strings.hpp"

namespace scl::testing_support {

inline void expect_matches_golden(const std::string& path,
                                  const std::string& actual) {
  if (const char* update = std::getenv("SCL_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string expected = golden.str();
  if (actual == expected) return;
  const std::vector<std::string> want = split(expected, '\n');
  const std::vector<std::string> got = split(actual, '\n');
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    ASSERT_EQ(got[i], want[i]) << path << " line " << i + 1 << " differs";
  }
  FAIL() << "output has " << got.size() << " lines, " << path << " has "
         << want.size();
}

}  // namespace scl::testing_support
