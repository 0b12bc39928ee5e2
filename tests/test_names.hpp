// Name parts for parameterized test cases. gtest names a parameter it
// cannot print by the parameter's raw object bytes, struct padding
// included, so such names changed from build to build. Suites over enums
// and structs name their cases from these parts instead, e.g.
// "SliceAndDice_KaiserBessel_W6_S2_lut32".
#pragma once

#include <cctype>
#include <cstdio>
#include <string>

namespace jigsaw::test_names {

/// A library display name as a test name part: "slice-and-dice" ->
/// "SliceAndDice" (gtest allows only [A-Za-z0-9_]).
inline std::string camel(const std::string& name) {
  std::string out;
  bool upper = true;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (!std::isalnum(u)) {
      upper = true;
      continue;
    }
    out += upper ? static_cast<char>(std::toupper(u)) : c;
    upper = false;
  }
  return out;
}

/// Kernel width and oversampling: "W6_S2", "W8_S1p25".
inline std::string width_sigma(int width, double sigma) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "W%d_S%g", width, sigma);
  std::string out(buf);
  for (char& c : out) {
    if (c == '.') c = 'p';
  }
  return out;
}

}  // namespace jigsaw::test_names
