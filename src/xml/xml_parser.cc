#include "xml/xml_parser.h"

#include <cassert>
#include <unordered_map>
#include <vector>

#include "base/strings.h"

namespace xqib::xml {

namespace {

Status ParseError(std::string_view message, size_t pos) {
  return Status::Error(
      "FODC0006", std::string(message) + " at offset " + std::to_string(pos));
}

// In-scope namespace bindings, one map per open element (copy-on-push is
// fine: documents rarely nest namespace declarations deeply).
using NsBindings = std::unordered_map<std::string, std::string>;

class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options)
      : in_(input), options_(options) {}

  // Parses a whole document into `doc`.
  Status ParseDocumentInto(Document* doc) {
    SkipBom();
    XQ_RETURN_NOT_OK(SkipMisc(doc->root()));
    if (!AtElementStart()) {
      return ParseError("expected document element", pos_);
    }
    NsBindings ns;
    ns["xml"] = std::string(kXmlNamespace);
    XQ_RETURN_NOT_OK(ParseElement(doc->root(), ns));
    XQ_RETURN_NOT_OK(SkipMisc(doc->root()));
    if (pos_ != in_.size()) {
      return ParseError("content after document element", pos_);
    }
    return Status();
  }

  // Parses mixed content (text + elements) until end of input.
  Status ParseFragment(Node* parent) {
    NsBindings ns;
    ns["xml"] = std::string(kXmlNamespace);
    return ParseContent(parent, ns, /*in_fragment=*/true);
  }

 private:
  bool Eof() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool LookingAt(std::string_view s) const {
    return in_.size() - pos_ >= s.size() && in_.substr(pos_, s.size()) == s;
  }
  void SkipBom() {
    if (LookingAt("\xEF\xBB\xBF")) pos_ += 3;
  }
  void SkipWhitespace() {
    while (!Eof() && IsXmlWhitespace(Peek())) ++pos_;
  }
  bool AtElementStart() const {
    return pos_ < in_.size() && in_[pos_] == '<' && pos_ + 1 < in_.size() &&
           IsNameStartChar(in_[pos_ + 1]);
  }

  // Skips XML decl, doctype, comments, PIs, whitespace at document level.
  Status SkipMisc(Node* doc_root) {
    while (!Eof()) {
      SkipWhitespace();
      if (LookingAt("<?xml")) {
        size_t end = in_.find("?>", pos_);
        if (end == std::string_view::npos) {
          return ParseError("unterminated XML declaration", pos_);
        }
        pos_ = end + 2;
      } else if (LookingAt("<!DOCTYPE") || LookingAt("<!doctype")) {
        // Skip to matching '>' (no internal subset support needed for
        // XHTML doctypes).
        int depth = 0;
        while (!Eof()) {
          char c = in_[pos_++];
          if (c == '[') ++depth;
          if (c == ']') --depth;
          if (c == '>' && depth == 0) break;
        }
      } else if (LookingAt("<!--")) {
        XQ_RETURN_NOT_OK(ParseComment(doc_root));
      } else if (LookingAt("<?")) {
        XQ_RETURN_NOT_OK(ParsePI(doc_root));
      } else {
        break;
      }
    }
    return Status();
  }

  Status ParseName(std::string* out) {
    size_t start = pos_;
    if (Eof() || !IsNameStartChar(Peek())) {
      return ParseError("expected name", pos_);
    }
    while (!Eof() && (IsNameChar(Peek()) || Peek() == ':')) ++pos_;
    *out = std::string(in_.substr(start, pos_ - start));
    return Status();
  }

  // Splits "p:local" and resolves against bindings. For attributes,
  // unprefixed names are in no namespace (is_attribute=true).
  Result<QName> ResolveQName(const std::string& raw, const NsBindings& ns,
                             bool is_attribute) {
    size_t colon = raw.find(':');
    if (colon == std::string::npos) {
      if (is_attribute) return QName("", "", raw);
      auto it = ns.find("");
      return QName(it == ns.end() ? "" : it->second, "", raw);
    }
    std::string prefix = raw.substr(0, colon);
    std::string local = raw.substr(colon + 1);
    auto it = ns.find(prefix);
    if (it == ns.end()) {
      return ParseError("undeclared namespace prefix '" + prefix + "'", pos_);
    }
    return QName(it->second, prefix, local);
  }

  Status ParseComment(Node* parent) {
    pos_ += 4;  // "<!--"
    size_t end = in_.find("-->", pos_);
    if (end == std::string_view::npos) {
      return ParseError("unterminated comment", pos_);
    }
    Node* c = parent->document()->CreateComment(
        std::string(in_.substr(pos_, end - pos_)));
    parent->AppendChild(c);
    pos_ = end + 3;
    return Status();
  }

  Status ParsePI(Node* parent) {
    pos_ += 2;  // "<?"
    std::string target;
    XQ_RETURN_NOT_OK(ParseName(&target));
    size_t end = in_.find("?>", pos_);
    if (end == std::string_view::npos) {
      return ParseError("unterminated processing instruction", pos_);
    }
    std::string data(TrimWhitespace(in_.substr(pos_, end - pos_)));
    Node* pi = parent->document()->CreateProcessingInstruction(
        std::move(target), std::move(data));
    parent->AppendChild(pi);
    pos_ = end + 2;
    return Status();
  }

  Status ParseCData(Node* parent) {
    pos_ += 9;  // "<![CDATA["
    size_t end = in_.find("]]>", pos_);
    if (end == std::string_view::npos) {
      return ParseError("unterminated CDATA section", pos_);
    }
    Node* t = parent->document()->CreateText(
        std::string(in_.substr(pos_, end - pos_)));
    parent->AppendChild(t);
    pos_ = end + 3;
    return Status();
  }

  Status ParseAttributes(NsBindings* ns,
                         std::vector<std::pair<std::string, std::string>>*
                             pending_attrs) {
    while (true) {
      SkipWhitespace();
      if (Eof()) return ParseError("unterminated start tag", pos_);
      if (Peek() == '>' || Peek() == '/') return Status();
      std::string raw_name;
      XQ_RETURN_NOT_OK(ParseName(&raw_name));
      SkipWhitespace();
      if (Eof() || Peek() != '=') {
        return ParseError("expected '=' after attribute name", pos_);
      }
      ++pos_;
      SkipWhitespace();
      if (Eof() || (Peek() != '"' && Peek() != '\'')) {
        return ParseError("expected quoted attribute value", pos_);
      }
      char quote = Peek();
      ++pos_;
      size_t end = in_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return ParseError("unterminated attribute value", pos_);
      }
      XQ_ASSIGN_OR_RETURN(std::string value,
                          DecodeEntities(in_.substr(pos_, end - pos_)));
      pos_ = end + 1;

      if (raw_name == "xmlns") {
        (*ns)[""] = value;
      } else if (StartsWith(raw_name, "xmlns:")) {
        (*ns)[raw_name.substr(6)] = value;
      } else {
        pending_attrs->emplace_back(std::move(raw_name), std::move(value));
      }
    }
  }

  Status ParseElement(Node* parent, const NsBindings& outer_ns) {
    assert(Peek() == '<');
    ++pos_;
    std::string raw_name;
    XQ_RETURN_NOT_OK(ParseName(&raw_name));

    NsBindings ns = outer_ns;
    std::vector<std::pair<std::string, std::string>> pending_attrs;
    Node* element = parent->document()->CreateElement(QName());
    XQ_RETURN_NOT_OK(ParseAttributes(&ns, &pending_attrs));

    if (options_.ie_tag_folding) raw_name = FoldTagName(raw_name);
    XQ_ASSIGN_OR_RETURN(QName name, ResolveQName(raw_name, ns, false));
    element->Rename(name);
    for (auto& [attr_raw, attr_value] : pending_attrs) {
      XQ_ASSIGN_OR_RETURN(QName attr_name, ResolveQName(attr_raw, ns, true));
      element->SetAttribute(attr_name, std::move(attr_value));
    }
    parent->AppendChild(element);

    if (Peek() == '/') {
      ++pos_;
      if (Eof() || Peek() != '>') return ParseError("expected '>'", pos_);
      ++pos_;
      return Status();
    }
    assert(Peek() == '>');
    ++pos_;

    // Browser rule: <script> and <style> content is raw text, never
    // markup (pages embed XQuery/JavaScript with '<' freely).
    if (AsciiEqualsIgnoreCase(raw_name, "script") ||
        AsciiEqualsIgnoreCase(raw_name, "style")) {
      return ParseRawTextElement(element, raw_name);
    }

    XQ_RETURN_NOT_OK(ParseContent(element, ns, /*in_fragment=*/false));

    // End tag.
    if (!LookingAt("</")) return ParseError("expected end tag", pos_);
    pos_ += 2;
    std::string end_name;
    XQ_RETURN_NOT_OK(ParseName(&end_name));
    if (options_.ie_tag_folding) end_name = FoldTagName(end_name);
    if (end_name != raw_name) {
      return ParseError("mismatched end tag </" + end_name + "> for <" +
                            raw_name + ">",
                        pos_);
    }
    SkipWhitespace();
    if (Eof() || Peek() != '>') return ParseError("expected '>'", pos_);
    ++pos_;
    return Status();
  }

  // Scans raw content up to the matching end tag (case-insensitive) and
  // stores it as one text node. A wrapping <![CDATA[ ... ]]> (the XHTML
  // idiom for scripts) is stripped.
  Status ParseRawTextElement(Node* element, const std::string& raw_name) {
    std::string close = "</" + AsciiToLower(raw_name);
    size_t end = std::string_view::npos;
    for (size_t i = pos_; i + close.size() <= in_.size(); ++i) {
      if (AsciiEqualsIgnoreCase(in_.substr(i, close.size()), close)) {
        end = i;
        break;
      }
    }
    if (end == std::string_view::npos) {
      return ParseError("unterminated <" + raw_name + "> element", pos_);
    }
    std::string_view content = in_.substr(pos_, end - pos_);
    std::string_view trimmed = TrimWhitespace(content);
    if (StartsWith(trimmed, "<![CDATA[") && EndsWith(trimmed, "]]>")) {
      content = trimmed.substr(9, trimmed.size() - 12);
    }
    if (!TrimWhitespace(content).empty()) {
      element->AppendChild(
          element->document()->CreateText(std::string(content)));
    }
    pos_ = end + close.size();
    SkipWhitespace();
    if (Eof() || Peek() != '>') return ParseError("expected '>'", pos_);
    ++pos_;
    return Status();
  }

  Status ParseContent(Node* parent, const NsBindings& ns, bool in_fragment) {
    std::string text;
    auto flush_text = [&]() -> Status {
      if (text.empty()) return Status();
      bool ws_only = TrimWhitespace(text).empty();
      if (!ws_only || options_.keep_whitespace_text) {
        XQ_ASSIGN_OR_RETURN(std::string decoded, DecodeEntities(text));
        parent->AppendChild(parent->document()->CreateText(std::move(decoded)));
      }
      text.clear();
      return Status();
    };

    while (!Eof()) {
      if (Peek() == '<') {
        if (LookingAt("</")) {
          if (in_fragment) {
            return ParseError("unexpected end tag in fragment", pos_);
          }
          XQ_RETURN_NOT_OK(flush_text());
          return Status();
        }
        XQ_RETURN_NOT_OK(flush_text());
        if (LookingAt("<!--")) {
          XQ_RETURN_NOT_OK(ParseComment(parent));
        } else if (LookingAt("<![CDATA[")) {
          XQ_RETURN_NOT_OK(ParseCData(parent));
        } else if (LookingAt("<?")) {
          XQ_RETURN_NOT_OK(ParsePI(parent));
        } else if (AtElementStart()) {
          if (++depth_ > kMaxElementDepth) {
            return ParseError("elements nested deeper than " +
                                  std::to_string(kMaxElementDepth) +
                                  " levels",
                              pos_);
          }
          XQ_RETURN_NOT_OK(ParseElement(parent, ns));
          --depth_;
        } else {
          return ParseError("malformed markup", pos_);
        }
      } else {
        text.push_back(Peek());
        ++pos_;
      }
    }
    XQ_RETURN_NOT_OK(flush_text());
    if (!in_fragment) return ParseError("unexpected end of input", pos_);
    return Status();
  }

  // IE folding: only names without a prefix and without multi-byte chars
  // are folded (namespaced content such as SVG is untouched by IE too).
  std::string FoldTagName(const std::string& raw) const {
    if (raw.find(':') != std::string::npos) return raw;
    return AsciiToUpper(raw);
  }

  std::string_view in_;
  const ParseOptions& options_;
  size_t pos_ = 0;
  int depth_ = 0;  // open elements below the top level (ParseContent)
};

}  // namespace

Result<std::string> DecodeEntities(std::string_view text) {
  if (text.find('&') == std::string_view::npos) return std::string(text);
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out.push_back(text[i++]);
      continue;
    }
    size_t semi = text.find(';', i);
    if (semi == std::string_view::npos) {
      return ParseError("unterminated entity reference", i);
    }
    std::string_view ent = text.substr(i + 1, semi - i - 1);
    if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      uint32_t cp = 0;
      bool ok = ent.size() > 1;
      if (ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X')) {
        for (char c : ent.substr(2)) {
          if (c >= '0' && c <= '9') cp = cp * 16 + (c - '0');
          else if (c >= 'a' && c <= 'f') cp = cp * 16 + (c - 'a' + 10);
          else if (c >= 'A' && c <= 'F') cp = cp * 16 + (c - 'A' + 10);
          else { ok = false; break; }
        }
      } else {
        for (char c : ent.substr(1)) {
          if (c >= '0' && c <= '9') cp = cp * 10 + (c - '0');
          else { ok = false; break; }
        }
      }
      if (!ok) return ParseError("bad character reference", i);
      AppendUtf8(cp, &out);
    } else {
      return ParseError("unknown entity '&" + std::string(ent) + ";'", i);
    }
    i = semi + 1;
  }
  return out;
}

Result<std::unique_ptr<Document>> ParseDocument(std::string_view input,
                                                const ParseOptions& options) {
  auto doc = std::make_unique<Document>();
  doc->set_uri(options.document_uri);
  Parser parser(input, options);
  XQ_RETURN_NOT_OK(parser.ParseDocumentInto(doc.get()));
  return doc;
}

Result<std::unique_ptr<Document>> ParseDocument(std::string_view input) {
  return ParseDocument(input, ParseOptions());
}

Status ParseFragmentInto(std::string_view input, Node* parent,
                         const ParseOptions& options) {
  Parser parser(input, options);
  return parser.ParseFragment(parent);
}

}  // namespace xqib::xml
