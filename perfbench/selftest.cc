// Tests of the benchmark's own machinery: generated scripts are a pure
// function of the seed, the percentile reporter follows the
// ten-samples-beyond rule, the samplers match their stated means, and
// the oracle accepts what it should and rejects what it should not.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.h"

namespace perfbench {
namespace {

std::string CartScriptText(uint64_t seed) {
  CartInputs in = MakeCartInputs(seed, 150.0, 5.0);
  std::string text = in.products_xml + "\n";
  for (const Shopper& s : in.shoppers) text += FormatShopper(s);
  return text;
}

std::string ClosedScriptText(ClickStream::Kind kind, uint64_t seed) {
  std::vector<std::string> universe = MashupPlaces(500);
  ZipfSampler zipf(universe.size(), kZipfExponent);
  std::string text;
  for (size_t client = 0; client < 4; ++client) {
    ClickStream stream(kind, seed, client, &universe, &zipf);
    for (int k = 0; k < 5; ++k) text += FormatClicks(stream.NextBatch()) + "--\n";
  }
  return text;
}

TEST(Scripts, SameSeedGivesByteIdenticalScripts) {
  EXPECT_EQ(CartScriptText(7), CartScriptText(7));
  EXPECT_NE(CartScriptText(7), CartScriptText(8));
  for (auto kind : {ClickStream::Kind::kReference, ClickStream::Kind::kMashup}) {
    EXPECT_EQ(ClosedScriptText(kind, 7), ClosedScriptText(kind, 7));
    EXPECT_NE(ClosedScriptText(kind, 7), ClosedScriptText(kind, 8));
  }
}

TEST(Scripts, ClientsDrawIndependentStreams) {
  std::vector<std::string> universe = MashupPlaces(500);
  ZipfSampler zipf(universe.size(), kZipfExponent);
  ClickStream a(ClickStream::Kind::kMashup, 1, 0, &universe, &zipf);
  ClickStream b(ClickStream::Kind::kMashup, 1, 1, &universe, &zipf);
  EXPECT_NE(FormatClicks(a.NextBatch()), FormatClicks(b.NextBatch()));
}

TEST(Percentile, ReportsOnlyWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  // Nearest rank ceil(0.99 * 999) = 990 leaves 9 samples beyond.
  EXPECT_FALSE(Percentile(v, 99).has_value());
  v.push_back(1000);
  // ceil(0.99 * 1000) = 990 leaves exactly 10 beyond.
  ASSERT_TRUE(Percentile(v, 99).has_value());
  EXPECT_EQ(*Percentile(v, 99), 990);
  EXPECT_EQ(*Percentile(v, 50), 500);
  EXPECT_FALSE(Percentile(std::vector<double>(19, 1.0), 50).has_value());
  EXPECT_TRUE(Percentile(std::vector<double>(20, 1.0), 50).has_value());
  EXPECT_FALSE(Percentile({}, 50).has_value());
}

TEST(Samplers, ExponentialMatchesItsMean) {
  Rng rng(42);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.010);
  EXPECT_NEAR(sum / n, 0.010, 0.010 * 0.01);
}

TEST(Samplers, PoissonArrivalsMatchTheRate) {
  CartInputs in = MakeCartInputs(42, 150.0, 60.0);
  // 9000 expected arrivals; a Poisson count's sd is sqrt(9000) ~ 95.
  EXPECT_NEAR(static_cast<double>(in.shoppers.size()), 9000.0, 400.0);
  for (size_t i = 1; i < in.shoppers.size(); ++i) {
    ASSERT_LE(in.shoppers[i - 1].arrival_s, in.shoppers[i].arrival_s);
  }
}

TEST(Samplers, ZipfMatchesItsMeanRank) {
  ZipfSampler zipf(4000, kZipfExponent);
  Rng rng(42);
  const int n = 400000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(zipf.Sample(rng));
  EXPECT_NEAR(sum / n, zipf.MeanRank(), zipf.MeanRank() * 0.02);
  // Rank 0 of a Zipf(1) over 4000 items has probability 1/H(4000).
  double h = 0;
  for (int k = 1; k <= 4000; ++k) h += 1.0 / k;
  Rng again(7);
  int top = 0;
  for (int i = 0; i < n; ++i) top += zipf.Sample(again) == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(top) / n, 1.0 / h, 0.005);
}

TEST(Places, AreDistinctUrlSafeNames) {
  std::vector<std::string> places = MashupPlaces(kMashupPlaces);
  std::vector<std::string> sorted = places;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const std::string& p : places) {
    for (char c : p) ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
  }
}

TEST(Oracle, CartIsTheReverseClickOrder) {
  std::vector<Click> clicks = {{"a1", ""}, {"b2", ""}, {"a1", ""}};
  std::string dom =
      "<html><body><div id=\"shoppingcart\"><p>a1</p><p>b2</p><p>a1</p>"
      "</div></body></html>";
  EXPECT_EQ(CheckCart(dom, clicks), "");
  EXPECT_NE(CheckCart(dom, {{"b2", ""}, {"a1", ""}}), "");
  EXPECT_NE(CheckCart("<html/>", clicks), "");
  EXPECT_NE(CheckCart("<html", clicks), "");
}

TEST(Oracle, ReferenceViewMatchesTheCorpus) {
  ReferenceOracle oracle;
  ASSERT_TRUE(oracle.Load(
      "<corpus><journal><article id=\"a-0\"><title>T0</title><references>"
      "<ref year=\"1990\"/><ref year=\"1991\"/></references></article>"
      "<article id=\"a-1\"><title>T1</title><references/></article>"
      "</journal></corpus>"));
  EXPECT_EQ(oracle.article_ids(), (std::vector<std::string>{"a-0", "a-1"}));
  std::string view =
      "<html><body><div id=\"view\"><div><h1 id=\"title\">T0</h1>"
      "<p id=\"nrefs\">2</p></div></div></body></html>";
  EXPECT_EQ(oracle.Check(view, "a-0"), "");
  EXPECT_NE(oracle.Check(view, "a-1"), "");
  EXPECT_NE(oracle.Check(view, "a-9"), "");
}

TEST(Oracle, MashupShowsAllThreeSourcesAndTheMap) {
  const std::string place = "Kalo3";
  std::string cams;
  // The expected rendering, rebuilt the way the page renders it.
  std::string weather = WeatherXml(place);
  size_t s = weather.find("<summary>") + 9;
  std::string summary = weather.substr(s, weather.find("</summary>") - s);
  std::string about = AboutXml(place);
  size_t a = about.find("<population>") + 12;
  std::string population = about.substr(a, about.find("</population>") - a);
  std::string webcams = WebcamsXml(place);
  for (size_t at = webcams.find("url=\""); at != std::string::npos;
       at = webcams.find("url=\"", at + 1)) {
    size_t end = webcams.find('"', at + 5);
    cams += "<li>" + webcams.substr(at + 5, end - at - 5) + "</li>";
  }
  std::string dom = "<html><body><div id=\"map\">Map of " + place +
                    "</div><div id=\"weather\"><p>" + summary +
                    "</p></div><div id=\"webcams\"><ul>" + cams +
                    "</ul></div><div id=\"about\"><p>" + population +
                    "</p></div></body></html>";
  EXPECT_EQ(CheckMashup(dom, place), "");
  EXPECT_NE(CheckMashup(dom, "Other1"), "");
}

}  // namespace
}  // namespace perfbench
