#include "common.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>

#include "xml/dom.h"
#include "xml/xml_parser.h"

namespace perfbench {

namespace xml = xqib::xml;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Exponential(double mean) {
  return -std::log1p(-Uniform()) * mean;
}

int Rng::Between(int lo, int hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(Next() % span);
}

uint64_t StreamSeed(uint64_t seed, const std::string& label, uint64_t index) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : label) h = (h ^ c) * 1099511628211ull;
  Rng mix(seed ^ h ^ (index * 0x9e3779b97f4a7c15ull));
  return mix.Next();
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  double weighted = 0;
  for (size_t k = 0; k < n; ++k) {
    double w = 1.0 / std::pow(static_cast<double>(k + 1), s);
    total += w;
    weighted += w * static_cast<double>(k);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  if (!cdf_.empty()) cdf_.back() = 1.0;
  mean_rank_ = total > 0 ? weighted / total : 0;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.Uniform();
  return static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                             cdf_.begin());
}

double ZipfSampler::MeanRank() const { return mean_rank_; }

std::optional<double> Percentile(std::vector<double> samples, double p) {
  size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (p < 100.0 && n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

// ---------------------------------------------------------------- cart

namespace {

// Mean Buy clicks and think time of a shopper (README.md, "cart").
constexpr int kClicksMin = 1;
constexpr int kClicksMax = 12;
constexpr double kThinkMeanS = 0.010;
// Catalogue size. Every event scans the product list, so a size drawn
// from the seed would make the cost per event vary with the seed; the
// seed picks only the ids and prices.
constexpr int kProducts = 18;

}  // namespace

CartInputs MakeCartInputs(uint64_t seed, double rate_per_s, double horizon_s) {
  CartInputs in;
  Rng catalog(StreamSeed(seed, "cart.catalog", 0));
  std::ostringstream catalog_xml;
  catalog_xml << "<products>";
  for (int k = 0; k < kProducts; ++k) {
    Product p;
    p.id = "sku" + std::to_string(k) + "x" + std::to_string(catalog.Between(100, 999));
    p.price = catalog.Between(1, 2000);
    catalog_xml << "<product><name>" << p.id << "</name><price>" << p.price
        << "</price></product>";
    in.products.push_back(std::move(p));
  }
  catalog_xml << "</products>";
  in.products_xml = catalog_xml.str();

  Rng arrivals(StreamSeed(seed, "cart.arrivals", 0));
  double t = arrivals.Exponential(1.0 / rate_per_s);
  for (size_t i = 0; t < horizon_s; ++i) {
    Rng script(StreamSeed(seed, "cart.shopper", i));
    Shopper s;
    s.arrival_s = t;
    int clicks = script.Between(kClicksMin, kClicksMax);
    for (int c = 0; c < clicks; ++c) {
      const Product& p = in.products[static_cast<size_t>(
          script.Between(0, static_cast<int>(in.products.size()) - 1))];
      s.clicks.push_back(Click{p.id, ""});
      s.think_s.push_back(script.Exponential(kThinkMeanS));
    }
    s.think_s.push_back(script.Exponential(kThinkMeanS));  // to checkout
    in.shoppers.push_back(std::move(s));
    t += arrivals.Exponential(1.0 / rate_per_s);
  }
  return in;
}

// ----------------------------------------------------- closed-loop clients

ClickStream::ClickStream(Kind kind, uint64_t seed, size_t client,
                         const std::vector<std::string>* universe,
                         const ZipfSampler* zipf)
    : kind_(kind),
      rng_(StreamSeed(seed, kind == Kind::kReference ? "reference" : "mashup",
                      client)),
      universe_(universe),
      zipf_(zipf) {}

std::vector<Click> ClickStream::NextBatch() {
  int n = rng_.Between(kBatchMin, kBatchMax);
  std::vector<Click> clicks;
  clicks.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::string& item = (*universe_)[zipf_->Sample(rng_)];
    if (kind_ == Kind::kReference) {
      clicks.push_back(Click{"link-" + item, ""});
    } else {
      clicks.push_back(Click{"searchbtn", item});
    }
  }
  return clicks;
}

std::vector<std::string> MashupPlaces(size_t n) {
  static const char* kSyllables[] = {"ka", "lo", "mi", "ne", "ra", "su",
                                     "to", "vi", "ba", "de", "fu", "gi",
                                     "ho", "ju", "pe", "zu"};
  std::vector<std::string> places;
  places.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string name;
    size_t v = i;
    do {
      name += kSyllables[v % 16];
      v /= 16;
    } while (v > 0);
    name += std::to_string(i % 7);  // keeps short names distinct too
    name[0] = static_cast<char>(name[0] - 'a' + 'A');
    places.push_back(std::move(name));
  }
  return places;
}

namespace {

uint64_t PlaceHash(const std::string& place) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : place) h = (h ^ c) * 1099511628211ull;
  return h;
}

}  // namespace

std::string WeatherXml(const std::string& place) {
  static const char* kSky[] = {"sunny", "cloudy", "rain", "snow", "fog"};
  uint64_t h = PlaceHash(place);
  return "<weather city=\"" + place + "\"><summary>" + place + ": " +
         kSky[h % 5] + ", " + std::to_string(static_cast<int>(h % 41) - 10) +
         " C</summary><wind>" + std::to_string((h >> 8) % 90) +
         " km/h</wind></weather>";
}

std::string WebcamsXml(const std::string& place) {
  static const char* kSides[] = {"north", "south", "east", "west"};
  size_t n = 1 + (PlaceHash(place) >> 16) % 4;
  std::string out = "<cams>";
  for (size_t i = 0; i < n; ++i) {
    out += "<cam url=\"http://cams.example.com/" + place + "/" + kSides[i] +
           "\"/>";
  }
  return out + "</cams>";
}

std::string AboutXml(const std::string& place) {
  return "<about name=\"" + place + "\"><population>" +
         std::to_string(1000 + (PlaceHash(place) >> 24) % 2000000) +
         "</population></about>";
}

const MashupSource kMashupSources[3] = {
    {"http://weather.example.com/api", WeatherXml},
    {"http://webcams.example.com/api", WebcamsXml},
    {"http://about.example.com/api", AboutXml},
};

std::string FormatClicks(const std::vector<Click>& clicks) {
  std::string out;
  for (const Click& c : clicks) out += c.target + "|" + c.value + "\n";
  return out;
}

std::string FormatShopper(const Shopper& shopper) {
  std::ostringstream out;
  out.precision(17);
  out << "arrive " << shopper.arrival_s << "\n";
  for (double t : shopper.think_s) out << "think " << t << "\n";
  return out.str() + FormatClicks(shopper.clicks);
}

// ---------------------------------------------------------------- oracle

namespace {

const xml::Node* FindById(const xml::Node* node, const std::string& id) {
  if (node->is_element()) {
    const xml::Node* attr = node->FindAttribute("id");
    if (attr != nullptr && attr->value() == id) return node;
  }
  for (const xml::Node* child : node->children()) {
    if (const xml::Node* hit = FindById(child, id)) return hit;
  }
  return nullptr;
}

void CollectElements(const xml::Node* node, const std::string& local,
                     std::vector<const xml::Node*>* out) {
  for (const xml::Node* child : node->children()) {
    if (child->is_element() && child->name().local() == local) {
      out->push_back(child);
    }
    CollectElements(child, local, out);
  }
}

std::vector<std::string> Texts(const xml::Node* node, const std::string& local) {
  std::vector<const xml::Node*> elems;
  CollectElements(node, local, &elems);
  std::vector<std::string> out;
  for (const xml::Node* e : elems) out.push_back(e->StringValue());
  return out;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : ",") + p;
  return out;
}

// Parses `xml_text` and hands its document to `check`; parse failures
// are mismatches too.
std::string WithDocument(
    const std::string& xml_text,
    const std::function<std::string(const xml::Node*)>& check) {
  auto doc = xml::ParseDocument(xml_text);
  if (!doc.ok()) return "unparsable DOM: " + doc.status().ToString();
  return check((*doc)->root());
}

std::string Expect(const std::string& what, const std::string& want,
                   const std::string& got) {
  return want == got ? "" : what + ": want '" + want + "' got '" + got + "'";
}

}  // namespace

std::string CheckCart(const std::string& dom, const std::vector<Click>& clicks) {
  return WithDocument(dom, [&](const xml::Node* root) -> std::string {
    const xml::Node* cart = FindById(root, "shoppingcart");
    if (cart == nullptr) return "no #shoppingcart";
    std::vector<std::string> want;
    for (auto it = clicks.rbegin(); it != clicks.rend(); ++it) {
      want.push_back(it->target);
    }
    return Expect("cart", Join(want), Join(Texts(cart, "p")));
  });
}

bool ReferenceOracle::Load(const std::string& corpus_xml) {
  auto doc = xml::ParseDocument(corpus_xml);
  if (!doc.ok()) return false;
  std::vector<const xml::Node*> articles;
  CollectElements((*doc)->root(), "article", &articles);
  for (const xml::Node* a : articles) {
    ArticleView view;
    std::vector<const xml::Node*> refs;
    for (const xml::Node* child : a->children()) {
      if (!child->is_element()) continue;
      if (child->name().local() == "title") view.title = child->StringValue();
      if (child->name().local() == "references") {
        CollectElements(child, "ref", &refs);
      }
    }
    view.refs = refs.size();
    ids_.push_back(a->GetAttributeValue("id"));
    views_.push_back(std::move(view));
  }
  return !ids_.empty();
}

std::string ReferenceOracle::Check(const std::string& dom,
                                   const std::string& article_id) const {
  auto it = std::find(ids_.begin(), ids_.end(), article_id);
  if (it == ids_.end()) return "unknown article " + article_id;
  const ArticleView& want = views_[static_cast<size_t>(it - ids_.begin())];
  return WithDocument(dom, [&](const xml::Node* root) -> std::string {
    const xml::Node* title = FindById(root, "title");
    const xml::Node* nrefs = FindById(root, "nrefs");
    if (title == nullptr || nrefs == nullptr) return "no #title/#nrefs";
    std::string diff = Expect("title", want.title, title->StringValue());
    if (diff.empty()) {
      diff = Expect("nrefs", std::to_string(want.refs), nrefs->StringValue());
    }
    return diff;
  });
}

std::string CheckMashup(const std::string& dom, const std::string& place) {
  auto source_texts = [](const std::string& body, const std::string& local,
                         const std::string& attr) {
    std::vector<std::string> out;
    auto doc = xml::ParseDocument(body);
    if (!doc.ok()) return out;
    std::vector<const xml::Node*> elems;
    CollectElements((*doc)->root(), local, &elems);
    for (const xml::Node* e : elems) {
      out.push_back(attr.empty() ? e->StringValue() : e->GetAttributeValue(attr));
    }
    return out;
  };
  std::string want_weather = Join(source_texts(WeatherXml(place), "summary", ""));
  std::string want_cams = Join(source_texts(WebcamsXml(place), "cam", "url"));
  std::string want_about =
      Join(source_texts(AboutXml(place), "population", ""));
  return WithDocument(dom, [&](const xml::Node* root) -> std::string {
    const xml::Node* map = FindById(root, "map");
    const xml::Node* weather = FindById(root, "weather");
    const xml::Node* cams = FindById(root, "webcams");
    const xml::Node* about = FindById(root, "about");
    if (!map || !weather || !cams || !about) return "mash-up divs missing";
    std::string diff = Expect("map", "Map of " + place, map->StringValue());
    if (diff.empty()) {
      diff = Expect("weather", want_weather, Join(Texts(weather, "p")));
    }
    if (diff.empty()) diff = Expect("webcams", want_cams, Join(Texts(cams, "li")));
    if (diff.empty()) diff = Expect("about", want_about, Join(Texts(about, "p")));
    return diff;
  });
}

}  // namespace perfbench
