// The one schema engine behind every spec file kind (`.scn` platform files,
// `.scnc` cluster files). The text format is `[section]` headers,
// `key = value` lines and full-line `#` comments.
//
// tokenize() splits a text into sections once and enforces the rules all
// sections share: no key before the first header, no repeated section, no
// repeated key within a section. A Schema<P> is one table of Field<P> rows
// binding [section] keys to typed storage in P; from the table alone it reads
// a Document into P, dumps P as canonical text and diffs two Ps.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/time.hpp"

namespace scn::spec {

/// Thrown on malformed spec text, unknown platform names, unreadable files
/// and semantic validation failures. Messages start with the source name and
/// carry file:line context where a source location exists.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Largest |ns| a tick value may have: from_ns(ns) must fit in a signed
/// 64-bit picosecond count (~106 days).
inline constexpr double kMaxTickNs = 9.2e15;

// ---- text ------------------------------------------------------------------

/// One `key = value` line.
struct Entry {
  std::string_view key;
  std::string_view value;
  int line;
};

/// One `[name]` section with its entries in file order.
struct Section {
  std::string_view name;
  int line;
  std::vector<Entry> entries;
};

/// A spec text split into sections. The views point into the tokenized
/// text, which must outlive the Document.
struct Document {
  std::string source;  ///< names the origin in diagnostics, e.g. a file path
  int lines = 0;       ///< line count; end-of-text diagnostics point here
  std::vector<Section> sections;

  [[nodiscard]] const Section* find(std::string_view name) const;

  /// Throws "source:line: msg".
  [[noreturn]] void fail(int line, const std::string& msg) const;

  /// Throws "unknown section [x]" at the first section `known(x)` rejects.
  template <class Known>
  void check_sections(Known known) const {
    for (const Section& s : sections) {
      if (!known(s.name)) fail(s.line, "unknown section [" + std::string(s.name) + "]");
    }
  }
};

/// Split spec text into sections. Throws spec::Error on malformed lines and
/// repeated sections or keys.
[[nodiscard]] Document tokenize(std::string_view text, std::string source);

/// Whole-file read. Throws "<path>: cannot open spec file".
[[nodiscard]] std::string read_file(const std::string& path);

/// The directory part of `path` ("" for a bare file name): where relative
/// paths inside a spec file are anchored.
[[nodiscard]] std::string dir_of(const std::string& path);

/// `s` without leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// `text` as a finite double; nullopt when it is not entirely a number, is
/// out of double range or is nan/inf.
[[nodiscard]] std::optional<double> to_finite(std::string_view text);

/// Throws "<context>: invalid <kind> parameters:" followed by one indented
/// line per problem; no-op when `problems` is empty.
void throw_if_invalid(const std::vector<std::string>& problems, const std::string& context,
                      const char* kind);

// ---- fields ----------------------------------------------------------------

/// Where one field's value lives; the alternative selects how it is parsed
/// and printed.
using Slot = std::variant<std::string*, int*, std::uint32_t*, double*, bool*, sim::Tick*,
                          std::array<sim::Tick, 4>*, std::vector<std::string>*>;

/// Parse `e.value` into `slot`. Throws spec::Error with `doc`'s file:line on
/// malformed, non-finite or out-of-range values.
void assign(Slot slot, const Document& doc, const Entry& e);
/// Canonical text of a value: dump -> assign is the identity (doubles and
/// ticks round-trip bit-identically), so equal text means an equal value.
[[nodiscard]] std::string format(Slot slot);

template <class P>
struct Field {
  const char* section;
  const char* key;
  const char* doc;  ///< comment dump() writes above the key ("" for none)
  bool required;    ///< a spec text must set it
  Slot (*slot)(P&);
};

template <class M>
struct MemberOf;
template <class C, class T>
struct MemberOf<T C::*> {
  using type = C;
};

/// Field accessor for a plain data member: `at<&Params::name>`.
template <auto Member>
Slot at(typename MemberOf<decltype(Member)>::type& p) {
  return &(p.*Member);
}

// ---- schema ----------------------------------------------------------------

template <class P>
struct Schema {
  std::vector<Field<P>> fields;  ///< canonical (dump) order, grouped by section

  [[nodiscard]] bool owns(std::string_view section) const {
    for (const auto& f : fields) {
      if (section == f.section) return true;
    }
    return false;
  }

  /// Assign every entry of this schema's sections onto `p`, leaving other
  /// sections to their own schemas. Throws spec::Error on unknown keys, bad
  /// values and missing required keys.
  void read(const Document& doc, P& p) const {
    std::vector<bool> seen(fields.size(), false);
    std::size_t next = 0;  // entries usually follow table order: resume there
    for (const Section& s : doc.sections) {
      if (!owns(s.name)) continue;
      for (const Entry& e : s.entries) {
        std::size_t i = 0;
        for (; i < fields.size(); ++i) {
          const auto& f = fields[(next + i) % fields.size()];
          if (e.key == f.key && s.name == f.section) break;
        }
        if (i == fields.size()) {
          doc.fail(e.line, "unknown key '" + std::string(e.key) + "' in section [" +
                               std::string(s.name) + "]");
        }
        const std::size_t idx = (next + i) % fields.size();
        assign(fields[idx].slot(p), doc, e);
        seen[idx] = true;
        next = idx + 1;
      }
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].required && !seen[i]) {
        doc.fail(doc.lines, std::string("missing required key '") + fields[i].key +
                                "' in section [" + fields[i].section + "]");
      }
    }
  }

  /// Canonical text: one `[section]` block per section, blank-line
  /// separated, each key preceded by its doc comment.
  [[nodiscard]] std::string dump(const P& p) const {
    std::string out;
    const char* section = nullptr;
    for (const auto& f : fields) {
      if (section == nullptr || std::strcmp(section, f.section) != 0) {
        if (section != nullptr) out += "\n";
        section = f.section;
        out += "[";
        out += section;
        out += "]\n";
      }
      if (f.doc[0] != '\0') {
        out += "# ";
        out += f.doc;
        out += "\n";
      }
      out += f.key;
      out += " = ";
      out += format(f.slot(storage(p)));
      out += "\n";
    }
    return out;
  }

  /// One "[section] key: a != b" line per differing field; empty means
  /// field-equal (bit-level for doubles).
  [[nodiscard]] std::vector<std::string> diff(const P& a, const P& b) const {
    std::vector<std::string> out;
    for (const auto& f : fields) {
      const std::string va = format(f.slot(storage(a)));
      const std::string vb = format(f.slot(storage(b)));
      if (va != vb) {
        out.push_back(std::string("[") + f.section + "] " + f.key + ": " + va + " != " + vb);
      }
    }
    return out;
  }

  // Accessors locate storage and never write through it, so reading via
  // them from a const P is sound.
  static P& storage(const P& p) { return const_cast<P&>(p); }
};

}  // namespace scn::spec
