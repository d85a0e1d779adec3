// Machinery of the page-server benchmark that does not touch the server:
// seeded samplers, the percentile reporter, the generated inputs of the
// three workloads, and the correctness oracle. The oracle computes every
// expected output from the generated inputs with the xml module alone
// (parse + DOM walk); it never runs the XQuery engine.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: tiny, seedable, and identical on every platform (the
// <random> distributions are implementation-defined, so the samplers
// below do their own transforms).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();                       // [0, 1)
  double Exponential(double mean);        // Poisson inter-arrival times
  int Between(int lo, int hi);            // inclusive

 private:
  uint64_t state_;
};

// Derives an independent stream seed from a run seed and a label.
uint64_t StreamSeed(uint64_t seed, const std::string& label, uint64_t index);

// Ranks 0..n-1 with P(rank k) proportional to 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(Rng& rng) const;
  double MeanRank() const;  // analytic expectation of Sample()

 private:
  std::vector<double> cdf_;
  double mean_rank_ = 0;
};

// Nearest-rank percentile over `samples`, reported only when at least
// `kMinBeyond` samples lie above the percentile's rank.
constexpr size_t kMinBeyond = 10;
std::optional<double> Percentile(std::vector<double> samples, double p);

struct Click {
  std::string target;  // element id the event is addressed to
  std::string value;   // event value payload
};

// ---------------------------------------------------------------- cart

struct Product {
  std::string id;
  int price = 0;
};

struct Shopper {
  double arrival_s = 0;             // offset from the schedule start
  std::vector<Click> clicks;        // Buy clicks, in order
  std::vector<double> think_s;      // before each click, then checkout
};

struct CartInputs {
  std::vector<Product> products;
  std::string products_xml;         // served at kProductsUrl
  std::vector<Shopper> shoppers;    // sorted by arrival
};

constexpr const char* kProductsUrl = "http://shop.example.com/products.xml";
constexpr const char* kCartPageUrl = "http://shop.example.com/cart.xhtml";

// Poisson arrivals at `rate_per_s` over [0, horizon_s).
CartInputs MakeCartInputs(uint64_t seed, double rate_per_s, double horizon_s);

// ----------------------------------------------------- closed-loop clients

// One closed-loop client's endless click stream, cut into batches, one
// session each. Batch k of client c is a pure function of (seed,
// workload, c, k).
class ClickStream {
 public:
  enum class Kind { kReference, kMashup };
  ClickStream(Kind kind, uint64_t seed, size_t client,
              const std::vector<std::string>* universe,
              const ZipfSampler* zipf);
  std::vector<Click> NextBatch();

 private:
  Kind kind_;
  Rng rng_;
  const std::vector<std::string>* universe_;
  const ZipfSampler* zipf_;
};

// Clicks per session. A session's memory and per-event cost grow with
// every event it handles, so sessions end: otherwise every number would
// depend on how long the run lasted.
constexpr int kBatchMin = 20;
constexpr int kBatchMax = 60;

// Article ids of the reference corpus are its click universe.
constexpr const char* kReferencePageUrl =
    "http://elsevier.example.com/client.xhtml";

// The fixed list of places the mash-up searches for (rank order is the
// Zipf popularity order).
std::vector<std::string> MashupPlaces(size_t n);
constexpr size_t kMashupPlaces = 4000;
constexpr double kZipfExponent = 1.0;

// The mash-up's REST sources (backend handlers), as functions of the
// search term: the benchmark registers them and the oracle reuses them.
std::string WeatherXml(const std::string& place);
std::string WebcamsXml(const std::string& place);
std::string AboutXml(const std::string& place);
struct MashupSource {
  const char* prefix;  // handler prefix; the query is "?q=<term>"
  std::string (*render)(const std::string& place);
};
extern const MashupSource kMashupSources[3];

// Renders generated scripts as text (the byte-identity check).
std::string FormatClicks(const std::vector<Click>& clicks);
std::string FormatShopper(const Shopper& shopper);

// ---------------------------------------------------------------- oracle

// Each Check* parses `dom` (a serialized session DOM) and compares what
// it shows with what the generated inputs imply. Returns "" on a match,
// otherwise a one-line description of the first difference.
std::string CheckCart(const std::string& dom,
                      const std::vector<Click>& clicks);

// Expected reference view, per article id, from the corpus document.
class ReferenceOracle {
 public:
  // Fails (returns false) when `corpus_xml` does not parse.
  bool Load(const std::string& corpus_xml);
  const std::vector<std::string>& article_ids() const { return ids_; }
  std::string Check(const std::string& dom, const std::string& article_id) const;

 private:
  struct ArticleView {
    std::string title;
    size_t refs = 0;
  };
  std::vector<std::string> ids_;
  std::vector<ArticleView> views_;
};

std::string CheckMashup(const std::string& dom, const std::string& place);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
