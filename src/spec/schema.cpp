#include "spec/schema.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

namespace scn::spec {
namespace {

/// Shortest decimal that reparses to exactly the same double (tries
/// precision 15, 16, 17 — 17 always round-trips IEEE binary64).
std::string format_double(double v) {
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Ticks rendered in ns. to_ns is exact enough that from_ns(to_ns(t)) == t
/// for every |t| < 2^52 ps (~52 days), far beyond any experiment here; the
/// decimal itself round-trips via format_double.
std::string format_tick(sim::Tick t) { return format_double(sim::to_ns(t)); }

std::vector<std::string_view> words(std::string_view s) {
  std::vector<std::string_view> out;
  while (!(s = trim(s)).empty()) {
    std::size_t n = 0;
    while (n < s.size() && !std::isspace(static_cast<unsigned char>(s[n]))) ++n;
    out.push_back(s.substr(0, n));
    s.remove_prefix(n);
  }
  return out;
}

template <class Words, class Fmt>
std::string join(const Words& ws, Fmt fmt) {
  std::string out;
  for (const auto& w : ws) {
    if (!out.empty()) out += " ";
    out += fmt(w);
  }
  return out;
}

double number(const Document& doc, const Entry& e, std::string_view text) {
  const auto d = to_finite(text);
  if (!d) {
    doc.fail(e.line, "bad number '" + std::string(text) + "' for key '" + std::string(e.key) +
                         "' (want a finite decimal)");
  }
  return *d;
}

sim::Tick tick(const Document& doc, const Entry& e, std::string_view text) {
  const double ns = number(doc, e, text);
  if (!(std::fabs(ns) < kMaxTickNs)) {
    doc.fail(e.line, "'" + std::string(text) + "' ns for key '" + std::string(e.key) +
                         "' does not fit in a sim::Tick");
  }
  return sim::from_ns(ns);
}

template <class T>
T integer(const Document& doc, const Entry& e) {
  constexpr long long lo = std::numeric_limits<T>::min();
  constexpr long long hi = std::numeric_limits<T>::max();
  const std::string str(e.value);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(str.c_str(), &end, 10);
  if (end == str.c_str() || end != str.c_str() + str.size() || errno == ERANGE) {
    doc.fail(e.line, "bad integer '" + str + "' for key '" + std::string(e.key) + "'");
  }
  if (lo == 0 && v < 0) doc.fail(e.line, "key '" + std::string(e.key) + "' must be non-negative");
  if (v < lo || v > hi) {
    doc.fail(e.line, "integer '" + str + "' out of range for key '" + std::string(e.key) + "'");
  }
  return static_cast<T>(v);
}

}  // namespace

// ---- text ------------------------------------------------------------------

std::optional<double> to_finite(std::string_view text) {
  const std::string str(text);
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(str.c_str(), &end);
  if (end == str.c_str() || end != str.c_str() + str.size() || errno == ERANGE ||
      !std::isfinite(d)) {
    return std::nullopt;
  }
  return d;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

const Section* Document::find(std::string_view name) const {
  for (const Section& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void Document::fail(int line, const std::string& msg) const {
  throw Error(source + ":" + std::to_string(line) + ": " + msg);
}

Document tokenize(std::string_view text, std::string source) {
  Document doc{std::move(source), 0, {}};
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        trim(text.substr(pos, eol == std::string_view::npos ? eol : eol - pos));
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    const int n = ++doc.lines;
    if (line.empty() || line.front() == '#') continue;

    if (line.front() == '[') {
      if (line.back() != ']') doc.fail(n, "unterminated section header");
      const std::string_view name = trim(line.substr(1, line.size() - 2));
      if (doc.find(name) != nullptr) {
        doc.fail(n, "duplicate section [" + std::string(name) + "]");
      }
      doc.sections.push_back({name, n, {}});
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      doc.fail(n, "expected 'key = value' or '[section]', got '" + std::string(line) + "'");
    }
    const std::string_view key = trim(line.substr(0, eq));
    if (doc.sections.empty()) {
      doc.fail(n, "key '" + std::string(key) + "' before any [section] header");
    }
    Section& section = doc.sections.back();
    for (const Entry& e : section.entries) {
      if (e.key == key) {
        doc.fail(n, "duplicate key '" + std::string(key) + "' in section [" +
                        std::string(section.name) + "]");
      }
    }
    section.entries.push_back({key, trim(line.substr(eq + 1)), n});
  }
  return doc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error(path + ": cannot open spec file");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

void throw_if_invalid(const std::vector<std::string>& problems, const std::string& context,
                      const char* kind) {
  if (problems.empty()) return;
  std::string msg = context + ": invalid " + kind + " parameters:";
  for (const auto& p : problems) {
    msg += "\n  ";
    msg += p;
  }
  throw Error(msg);
}

// ---- values ----------------------------------------------------------------

void assign(Slot slot, const Document& doc, const Entry& e) {
  std::visit(
      [&](auto* v) {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          *v = std::string(e.value);
        } else if constexpr (std::is_same_v<T, int> || std::is_same_v<T, std::uint32_t>) {
          *v = integer<T>(doc, e);
        } else if constexpr (std::is_same_v<T, double>) {
          *v = number(doc, e, e.value);
        } else if constexpr (std::is_same_v<T, bool>) {
          if (e.value == "true" || e.value == "1") {
            *v = true;
          } else if (e.value == "false" || e.value == "0") {
            *v = false;
          } else {
            doc.fail(e.line, "bad bool '" + std::string(e.value) + "' for key '" +
                                 std::string(e.key) + "' (use true/false)");
          }
        } else if constexpr (std::is_same_v<T, sim::Tick>) {
          *v = tick(doc, e, e.value);
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          v->clear();
          for (const auto w : words(e.value)) v->emplace_back(w);
        } else {  // std::array<sim::Tick, N>
          const auto ws = words(e.value);
          if (ws.size() != v->size()) {
            doc.fail(e.line, "key '" + std::string(e.key) + "' needs exactly " +
                                 std::to_string(v->size()) + " ns values, got " +
                                 std::to_string(ws.size()));
          }
          for (std::size_t k = 0; k < ws.size(); ++k) (*v)[k] = tick(doc, e, ws[k]);
        }
      },
      slot);
}

std::string format(Slot slot) {
  return std::visit(
      [](auto* v) -> std::string {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return *v;
        } else if constexpr (std::is_same_v<T, bool>) {
          return *v ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          return format_double(*v);
        } else if constexpr (std::is_same_v<T, sim::Tick>) {
          return format_tick(*v);
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          return join(*v, [](const std::string& w) { return w; });
        } else if constexpr (std::is_same_v<T, std::array<sim::Tick, 4>>) {
          return join(*v, format_tick);
        } else {  // int, std::uint32_t
          return std::to_string(*v);
        }
      },
      slot);
}

}  // namespace scn::spec
