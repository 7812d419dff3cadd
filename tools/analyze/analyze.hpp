// rcf-analyze: compile-time SPMD collective-matching, determinism, and
// handle-lifecycle analyzer.
//
// The runtime verification layer (src/check) proves the SPMD contracts on
// the paths a test happens to execute; this tool proves the mechanically
// checkable slices of the same contracts over *all* paths, before the code
// ever runs.  Four project-specific checks (see DESIGN.md "Static
// analysis"):
//
//   collective-divergence      a Communicator collective issued under
//                              control flow conditioned on rank() or a
//                              rank-derived value desynchronizes the SPMD
//                              schedule (MPI-Checker-style matching).
//   nondeterministic-reduction float arithmetic, unordered-container
//                              iteration, or accumulation into shared state
//                              inside exec::parallel_for / Pool::run bodies
//                              violates the pool's bit-identity contract;
//                              float arithmetic in the src/la, src/sparse
//                              and src/dist reductions, or unordered
//                              iteration in those kernels or the src/obs and
//                              tools/ metric paths, breaks bitwise replay.
//   handle-leak                a posted CommHandle (iallreduce_*) must be
//                              waited on every path, including early
//                              returns and throw sites; an abandoned handle
//                              stalls ThreadComm quiescence.
//   telemetry-discipline       TelemetryRing and the ungated
//                              telemetry_emit are owned by src/obs;
//                              direct use elsewhere, naked
//                              std::thread outside exec/dist, and ambient
//                              RNG / wall-clock seeding outside src/common
//                              break the ownership and replay contracts.
//
// Frontend: a self-contained C++ lexer + structural parser ("micro-AST":
// function bodies, statement trees, brace/paren matching) rather than
// LibTooling -- the supported toolchain image ships llvm-dev without the
// clang AST headers, and the checks only need project-idiom facts.  The
// check layer consumes the frontend-neutral SourceFile/Function/Stmt facts
// below, so a LibTooling frontend can replace the micro-parser wholesale on
// hosts that have clang dev headers without touching the checks.
//
// A line opts out with a trailing `// rcf-analyze: allow(<check>)` comment
// (counted and reported, so waivers stay visible); whole findings can
// be suppressed by the annotated baseline file tools/analyze-baseline.json
// with zero tolerance for *new* findings.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace rcf::analyze {

// ---------------------------------------------------------------------------
// Lexing.

struct Token {
  enum class Kind { kIdent, kPunct, kNumber, kString, kChar };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

/// One lexed translation unit (or header, analyzed standalone).
struct SourceFile {
  std::string path;  ///< repo-relative, POSIX separators (drives check scope)
  std::vector<Token> toks;
  /// For toks[i] an opening (closing) bracket of ()[]{}: index of its
  /// match; SIZE_MAX when unmatched.
  std::vector<std::size_t> match;
  std::vector<std::string> lines;  ///< raw source lines, for excerpts
  /// line -> checks waived on that line via `// rcf-analyze: allow(...)`.
  std::map<int, std::set<std::string>> allows;
  bool balanced = true;  ///< false when brackets never matched up
};

/// Lexes `text` (comments and preprocessor lines stripped, strings kept as
/// single tokens, multi-char operators fused) and computes bracket matches.
[[nodiscard]] SourceFile lex_source(std::string path, std::string_view text);

// ---------------------------------------------------------------------------
// Structure ("micro-AST").

/// One statement inside a function body.  Token ranges are [begin, end)
/// indices into SourceFile::toks.
struct Stmt {
  enum class Kind { kBlock, kIf, kLoop, kSwitch, kReturn, kThrow, kTry, kExpr };
  Kind kind = Kind::kExpr;
  std::size_t begin = 0, end = 0;
  std::size_t cond_begin = 0, cond_end = 0;  ///< if/loop/switch condition
  /// kBlock: the statements; kIf: [then, else?]; kLoop/kSwitch: [body];
  /// kTry: [block, handler...].
  std::vector<Stmt> children;
};

struct Function {
  std::string name;
  int line = 0;
  std::size_t body_begin = 0, body_end = 0;  ///< tokens inside the braces
  Stmt body;                                 ///< Kind::kBlock
};

/// All function definitions (free, member, constructor) found at namespace
/// or class scope, each with its parsed statement tree.  Degrades to an
/// empty list on files the micro-parser cannot structure (the flat check
/// slices still run).
[[nodiscard]] std::vector<Function> parse_functions(const SourceFile& src);

// ---------------------------------------------------------------------------
// Checks.

struct CheckInfo {
  const char* name;
  const char* summary;
};

/// The four registered checks, in report order.
[[nodiscard]] const std::vector<CheckInfo>& check_registry();

struct Finding {
  std::string check;
  std::string file;
  int line = 0;
  std::string message;
  std::string excerpt;    ///< trimmed source line (baseline match key)
  bool waived = false;    ///< inline rcf-analyze: allow(...)
  bool baselined = false; ///< matched a suppression-file entry
};

/// True when the finding still demands action (not waived, not baselined).
[[nodiscard]] inline bool active(const Finding& f) {
  return !f.waived && !f.baselined;
}

/// Runs every check in `only` (empty = all) over one lexed + parsed file.
/// Path-based scoping uses src.path; pass `scope_as` to analyze a file as
/// if it lived under another repo prefix (the fixture corpus under
/// tests/analyze/ uses this to exercise src/-scoped checks).
void run_checks(const SourceFile& src, const std::vector<Function>& fns,
                const std::set<std::string>& only, std::string_view scope_as,
                std::vector<Finding>& out);

/// Convenience: lex + parse + run all checks on an in-memory source.
[[nodiscard]] std::vector<Finding> analyze_text(std::string path,
                                                std::string_view text,
                                                std::string_view scope_as = {});

// ---------------------------------------------------------------------------
// Baseline (annotated suppression file).

struct Baseline {
  struct Entry {
    std::string check;
    std::string file;
    std::string excerpt;
    std::string note;
    bool used = false;
  };
  std::vector<Entry> entries;
};

/// Parses tools/analyze-baseline.json.  Returns false (with `err` set) on
/// unreadable or malformed input; a missing file is *not* an error and
/// yields an empty baseline.
[[nodiscard]] bool load_baseline(const std::string& path, Baseline& out,
                                 std::string& err);

/// Marks findings that match a baseline entry (check + file + excerpt) as
/// baselined and flags the entries used.  New findings stay active: the
/// baseline is zero-tolerance for anything it does not already name.
void apply_baseline(Baseline& baseline, std::vector<Finding>& findings);

/// Serializes the *active* findings as a baseline document (the
/// --write-baseline round-trip; every entry carries a needs-review note).
[[nodiscard]] std::string render_baseline(const std::vector<Finding>& findings);

// ---------------------------------------------------------------------------
// Reports.

/// SARIF 2.1.0 document over all findings (waived/baselined results are
/// included as suppressed so dashboards can show the full picture).
[[nodiscard]] std::string render_sarif(const std::vector<Finding>& findings);

/// Human-readable report; returns the number of active findings.
std::size_t render_text(const std::vector<Finding>& findings,
                        const Baseline& baseline, std::string& out);

}  // namespace rcf::analyze
