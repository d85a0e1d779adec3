// Deterministic pseudo-random test pages shared by the streaming and
// index-step suites.

#ifndef XQIB_TESTS_RANDOM_PAGE_H_
#define XQIB_TESTS_RANDOM_PAGE_H_

#include <cstdint>
#include <string>

namespace xqib {

// Nested sections with repeated element names at several depths, so
// paths produce duplicates, out-of-order raw axis output, and
// ancestor/descendant overlap.
inline std::string RandomPage(uint32_t seed, int sections) {
  uint32_t state = seed;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;  // numerical-recipes LCG
    return (state >> 16) & 0x7fff;
  };
  std::string xml = "<page>";
  for (int s = 0; s < sections; ++s) {
    xml += "<sec id=\"s" + std::to_string(s) + "\">";
    int items = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < items; ++i) {
      int v = static_cast<int>(next() % 100);
      xml += "<item v=\"" + std::to_string(v) + "\">";
      if (next() % 3 == 0) {
        xml += "<item v=\"" + std::to_string(v + 100) + "\"><leaf/></item>";
      }
      xml += "<leaf/></item>";
    }
    if (next() % 2 == 0) xml += "<note>n" + std::to_string(s) + "</note>";
    xml += "</sec>";
  }
  xml += "</page>";
  return xml;
}

}  // namespace xqib

#endif  // XQIB_TESTS_RANDOM_PAGE_H_
