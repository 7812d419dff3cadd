// Lexer for rcf-analyze: turns a C++ source into the token stream the
// structural parser and checks consume.  Comments and preprocessor lines
// are stripped (waiver comments are harvested first), string/char literals
// survive as single tokens so identifier scans can never match inside
// them, and the multi-character operators the checks pattern-match on
// (::, ->, +=, ...) are fused into one token each.
#include <array>
#include <cctype>
#include <cstddef>
#include <string_view>
#include <utility>
#include <vector>

#include "analyze.hpp"

namespace rcf::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Records `// rcf-analyze: allow(check)` waivers found in comment text.
void harvest_allows(std::string_view comment, int line, SourceFile& out) {
  constexpr std::string_view marker = "rcf-analyze: allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(marker, pos)) != std::string_view::npos) {
    pos += marker.size();
    const std::size_t close = comment.find(')', pos);
    if (close == std::string_view::npos) {
      break;
    }
    out.allows[line].insert(std::string(comment.substr(pos, close - pos)));
    pos = close + 1;
  }
}

/// Multi-character operators fused into single tokens, longest first.
constexpr std::array<std::string_view, 21> kFusedOps = {
    "<<=", ">>=", "->*", "...", "::", "->", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "==", "!=", "<=", ">=", "&&", "||", "++"};

}  // namespace

SourceFile lex_source(std::string path, std::string_view text) {
  SourceFile out;
  out.path = std::move(path);

  // Split raw lines for excerpts.
  std::size_t line_start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      out.lines.emplace_back(text.substr(line_start, i - line_start));
      line_start = i + 1;
    }
  }

  int line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  const auto bump_lines = [&](std::string_view span) {
    for (const char c : span) {
      line += c == '\n' ? 1 : 0;
    }
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t end = text.find('\n', i);
      if (end == std::string_view::npos) {
        end = n;
      }
      harvest_allows(text.substr(i, end - i), line, out);
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      std::size_t end = text.find("*/", i + 2);
      if (end == std::string_view::npos) {
        end = n;
      } else {
        end += 2;
      }
      harvest_allows(text.substr(i, end - i), line, out);
      bump_lines(text.substr(i, end - i));
      i = end;
      continue;
    }
    // Preprocessor directive: skip to end of line, honoring continuations.
    // Only when '#' begins a line (tokens so far on this line == none with
    // this line number) -- in practice '#' appears nowhere else in C++.
    if (c == '#') {
      std::size_t j = i;
      while (j < n) {
        if (text[j] == '\n') {
          // Backslash continuation?
          std::size_t back = j;
          while (back > i && (text[back - 1] == '\r')) {
            --back;
          }
          if (back > i && text[back - 1] == '\\') {
            ++line;
            ++j;
            continue;
          }
          break;
        }
        ++j;
      }
      i = j;
      continue;
    }
    // Raw strings: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      std::size_t open = text.find('(', i + 2);
      if (open != std::string_view::npos && open - (i + 2) <= 16) {
        const std::string_view delim = text.substr(i + 2, open - (i + 2));
        std::string closer = ")";
        closer += delim;
        closer += '"';
        std::size_t end = text.find(closer, open + 1);
        end = end == std::string_view::npos ? n : end + closer.size();
        out.toks.push_back({Token::Kind::kString,
                            std::string(text.substr(i, end - i)), line});
        bump_lines(text.substr(i, end - i));
        i = end;
        continue;
      }
    }
    // String / char literals (prefixes like u8, L handled by the ident
    // branch falling through only when followed by a quote is absent --
    // a prefixed literal lexes as ident + literal, which is harmless).
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && text[j] != c) {
        j += text[j] == '\\' ? std::size_t{2} : std::size_t{1};
      }
      j = j < n ? j + 1 : n;
      out.toks.push_back(
          {c == '"' ? Token::Kind::kString : Token::Kind::kChar,
           std::string(text.substr(i, j - i)), line});
      bump_lines(text.substr(i, j - i));
      i = j;
      continue;
    }
    // Identifiers / keywords.
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(text[j])) {
        ++j;
      }
      out.toks.push_back(
          {Token::Kind::kIdent, std::string(text.substr(i, j - i)), line});
      i = j;
      continue;
    }
    // Numbers (pp-number: digits, letters, dots, exponent signs).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])) != 0)) {
      std::size_t j = i + 1;
      while (j < n) {
        const char d = text[j];
        if (ident_char(d) || d == '.') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                    text[j - 1] == 'p' || text[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      out.toks.push_back(
          {Token::Kind::kNumber, std::string(text.substr(i, j - i)), line});
      i = j;
      continue;
    }
    // Fused operators, longest match first.
    bool fused = false;
    for (const std::string_view op : kFusedOps) {
      if (text.substr(i, op.size()) == op) {
        out.toks.push_back({Token::Kind::kPunct, std::string(op), line});
        i += op.size();
        fused = true;
        break;
      }
    }
    if (fused) {
      continue;
    }
    // `--` is fused separately from the list so `->` wins above.
    if (c == '-' && i + 1 < n && text[i + 1] == '-') {
      out.toks.push_back({Token::Kind::kPunct, "--", line});
      i += 2;
      continue;
    }
    out.toks.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }

  // Bracket matching for ()[]{}.
  out.match.assign(out.toks.size(), static_cast<std::size_t>(-1));
  std::vector<std::size_t> stack;
  for (std::size_t t = 0; t < out.toks.size(); ++t) {
    const std::string& s = out.toks[t].text;
    if (s == "(" || s == "[" || s == "{") {
      stack.push_back(t);
    } else if (s == ")" || s == "]" || s == "}") {
      if (stack.empty()) {
        out.balanced = false;
        continue;
      }
      const std::string& open = out.toks[stack.back()].text;
      const bool ok = (s == ")" && open == "(") || (s == "]" && open == "[") ||
                      (s == "}" && open == "{");
      if (!ok) {
        out.balanced = false;
        stack.pop_back();
        continue;
      }
      out.match[stack.back()] = t;
      out.match[t] = stack.back();
      stack.pop_back();
    }
  }
  if (!stack.empty()) {
    out.balanced = false;
  }
  return out;
}

}  // namespace rcf::analyze
