// rcf-analyze check suite: drives the analyzer library over the seeded
// fixture corpus in tests/analyze/ and asserts an exact correspondence
// between `// BAD(<check>)` markers and emitted findings -- every marked
// line fires, nothing unmarked fires, and the known-good twins stay
// silent.  Also covers the inline-waiver path, the suppression-baseline
// round-trip, and SARIF well-formedness (via the repo's own JSON parser).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "common/json.hpp"

#ifndef RCF_ANALYZE_FIXTURE_DIR
#error "RCF_ANALYZE_FIXTURE_DIR must point at tests/analyze"
#endif

namespace {

using rcf::analyze::Baseline;
using rcf::analyze::Finding;

std::string fixture_path(const std::string& name) {
  return std::string(RCF_ANALYZE_FIXTURE_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// line -> expected check name, from `// BAD(<check>)` markers.
std::map<int, std::string> expected_findings(const std::string& text) {
  std::map<int, std::string> out;
  int line = 1;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string_view l(text.data() + pos, eol - pos);
    const std::size_t mark = l.find("// BAD(");
    if (mark != std::string_view::npos) {
      const std::size_t close = l.find(')', mark);
      if (close != std::string_view::npos) {
        out[line] = std::string(l.substr(mark + 7, close - mark - 7));
      }
    }
    pos = eol + 1;
    ++line;
  }
  return out;
}

struct FixtureCase {
  const char* file;
  const char* scope_as;  ///< repo prefix the checks scope the fixture under
};

/// Analyzes one fixture and asserts marker <-> finding correspondence.
/// Waived findings are excluded on both sides (good fixtures use waivers
/// to exercise that path without becoming "bad").
void check_fixture(const FixtureCase& c) {
  SCOPED_TRACE(c.file);
  const std::string text = slurp(fixture_path(c.file));
  const auto expected = expected_findings(text);
  const std::vector<Finding> findings =
      rcf::analyze::analyze_text(c.file, text, c.scope_as);

  std::map<int, std::set<std::string>> got;
  for (const Finding& f : findings) {
    EXPECT_FALSE(f.baselined) << "no baseline was applied";
    if (!f.waived) {
      got[f.line].insert(f.check);
    }
  }
  for (const auto& [line, check] : expected) {
    EXPECT_TRUE(got.count(line) != 0 && got[line].count(check) != 0)
        << "marked line " << line << " did not produce a '" << check
        << "' finding";
  }
  for (const auto& [line, checks] : got) {
    for (const std::string& check : checks) {
      const auto it = expected.find(line);
      EXPECT_TRUE(it != expected.end() && it->second == check)
          << "unmarked finding [" << check << "] at " << c.file << ":"
          << line;
    }
  }
}

TEST(Analyze, CollectiveDivergenceFiresOnSeededBad) {
  check_fixture({"divergence_bad.cpp", "src/core/fixture.cpp"});
}

TEST(Analyze, CollectiveDivergenceSilentOnKnownGood) {
  check_fixture({"divergence_good.cpp", "src/core/fixture.cpp"});
}

TEST(Analyze, NondeterministicReductionFiresOnSeededBad) {
  check_fixture({"reduction_bad.cpp", "src/la/fixture_kernel.cpp"});
}

TEST(Analyze, NondeterministicReductionSilentOnKnownGood) {
  check_fixture({"reduction_good.cpp", "src/la/fixture_kernel_ok.cpp"});
}

/// line -> the rule a nondeterministic-reduction marker names after the
/// check ("float", "unordered" or "shared").
std::map<int, std::string> reduction_rules(const std::string& text) {
  const std::string marker = "// BAD(nondeterministic-reduction) ";
  std::map<int, std::string> out;
  std::istringstream in(text);
  std::string l;
  for (int line = 1; std::getline(in, l); ++line) {
    const std::size_t at = l.find(marker);
    if (at != std::string::npos) {
      out[line] = l.substr(at + marker.size());
    }
  }
  return out;
}

TEST(Analyze, NondeterministicReductionWholeFileScopes) {
  // The whole-file rules follow their contracts: float arithmetic in
  // src/dist/ as in the kernels, unordered iteration in src/obs/ and
  // tools/; shared accumulators in parallel bodies fire in every scope.
  const std::string text = slurp(fixture_path("reduction_bad.cpp"));
  const auto rules = reduction_rules(text);
  const std::pair<const char*, std::set<std::string>> scopes[] = {
      {"src/dist/fixture.cpp", {"float", "shared"}},
      {"src/obs/fixture.cpp", {"unordered", "shared"}},
      {"tools/fixture.cpp", {"unordered", "shared"}},
  };
  for (const auto& [scope, fire] : scopes) {
    SCOPED_TRACE(scope);
    std::set<int> got;
    for (const Finding& f :
         rcf::analyze::analyze_text("reduction_bad.cpp", text, scope)) {
      if (f.check == "nondeterministic-reduction") {
        got.insert(f.line);
      }
    }
    for (const auto& [line, rule] : rules) {
      EXPECT_EQ(got.count(line) != 0, fire.count(rule) != 0)
          << "line " << line << " (" << rule << ")";
    }
    for (const int line : got) {
      EXPECT_TRUE(rules.count(line) != 0) << "unmarked finding at " << line;
    }
  }
  for (const char* scope : {"src/dist/fixture_ok.cpp", "src/obs/fixture_ok.cpp",
                            "tools/fixture_ok.cpp"}) {
    check_fixture({"reduction_good.cpp", scope});
  }
}

TEST(Analyze, HandleLeakFiresOnSeededBad) {
  check_fixture({"handle_bad.cpp", "src/core/fixture.cpp"});
}

TEST(Analyze, HandleLeakSilentOnKnownGood) {
  check_fixture({"handle_good.cpp", "src/core/fixture.cpp"});
}

TEST(Analyze, TelemetryDisciplineFiresOnSeededBad) {
  check_fixture({"telemetry_bad.cpp", "src/core/fixture.cpp"});
}

TEST(Analyze, TelemetryDisciplineSilentOnKnownGood) {
  check_fixture({"telemetry_good.cpp", "src/core/fixture.cpp"});
}

TEST(Analyze, ScopingGatesTheChecks) {
  const std::string text = slurp(fixture_path("divergence_bad.cpp"));
  // Under src/dist/ the divergence check must not run: the backends are
  // legitimately rank-conditional inside the collective implementations.
  const auto findings =
      rcf::analyze::analyze_text("divergence_bad.cpp", text,
                                 "src/dist/fixture.cpp");
  for (const Finding& f : findings) {
    EXPECT_NE(f.check, "collective-divergence");
  }
}

TEST(Analyze, InlineWaiverIsCountedNotActive) {
  const std::string text = slurp(fixture_path("telemetry_good.cpp"));
  const auto findings = rcf::analyze::analyze_text(
      "telemetry_good.cpp", text, "src/core/fixture.cpp");
  std::size_t waived = 0;
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.waived) << "active finding in known-good fixture at line "
                          << f.line;
    waived += f.waived ? 1 : 0;
  }
  EXPECT_EQ(waived, 1u) << "the std::thread waiver line must still be seen";
}

TEST(Analyze, BaselineRoundTrips) {
  const std::string text = slurp(fixture_path("handle_bad.cpp"));
  auto findings = rcf::analyze::analyze_text("handle_bad.cpp", text,
                                             "src/core/fixture.cpp");
  ASSERT_FALSE(findings.empty());

  // Serialize the active findings as a baseline, reload it, and apply it
  // to a fresh run: everything must now be suppressed, nothing stale.
  const std::string doc = rcf::analyze::render_baseline(findings);
  // render_baseline stamps NEEDS-REVIEW notes, which load_baseline accepts
  // (a note is required, its content is for humans).
  Baseline baseline;
  std::string err;
  const std::string tmp = ::testing::TempDir() + "analyze-baseline.json";
  {
    std::ofstream out(tmp);
    out << doc;
  }
  ASSERT_TRUE(rcf::analyze::load_baseline(tmp, baseline, err)) << err;
  // Entries are deduplicated by (check, file, excerpt), so there are at
  // most as many as there are active findings -- and at least one.
  ASSERT_FALSE(baseline.entries.empty());
  ASSERT_LE(baseline.entries.size(),
            static_cast<std::size_t>(
                std::count_if(findings.begin(), findings.end(),
                              rcf::analyze::active)));

  auto rerun = rcf::analyze::analyze_text("handle_bad.cpp", text,
                                          "src/core/fixture.cpp");
  rcf::analyze::apply_baseline(baseline, rerun);
  for (const Finding& f : rerun) {
    EXPECT_FALSE(rcf::analyze::active(f))
        << "finding at line " << f.line << " escaped its baseline entry";
  }
  for (const Baseline::Entry& e : baseline.entries) {
    EXPECT_TRUE(e.used) << "stale baseline entry for " << e.file;
  }
}

TEST(Analyze, BaselineIsZeroToleranceForNewFindings) {
  const std::string text = slurp(fixture_path("handle_bad.cpp"));
  auto findings = rcf::analyze::analyze_text("handle_bad.cpp", text,
                                             "src/core/fixture.cpp");
  ASSERT_GE(findings.size(), 2u);

  // A baseline naming only the first finding must leave the rest active.
  Baseline baseline;
  Baseline::Entry e;
  e.check = findings[0].check;
  e.file = findings[0].file;
  e.excerpt = findings[0].excerpt;
  e.note = "fixture";
  baseline.entries.push_back(e);
  rcf::analyze::apply_baseline(baseline, findings);
  EXPECT_TRUE(findings[0].baselined);
  std::size_t still_active = 0;
  for (const Finding& f : findings) {
    still_active += rcf::analyze::active(f) ? 1u : 0u;
  }
  EXPECT_GT(still_active, 0u);
}

TEST(Analyze, MissingBaselineFileIsEmptyNotError) {
  Baseline baseline;
  std::string err;
  EXPECT_TRUE(rcf::analyze::load_baseline(
      ::testing::TempDir() + "does-not-exist.json", baseline, err));
  EXPECT_TRUE(baseline.entries.empty());
}

TEST(Analyze, MalformedBaselineIsRejectedWithContext) {
  const std::string tmp = ::testing::TempDir() + "bad-baseline.json";
  {
    std::ofstream out(tmp);
    out << "{\"suppressions\": [{\"check\": \"handle-leak\", "
           "\"file\": \"x.cpp\"}]}";  // no note
  }
  Baseline baseline;
  std::string err;
  EXPECT_FALSE(rcf::analyze::load_baseline(tmp, baseline, err));
  EXPECT_NE(err.find("note"), std::string::npos);
}

TEST(Analyze, SarifIsWellFormed) {
  const std::string text = slurp(fixture_path("telemetry_bad.cpp"));
  const auto findings = rcf::analyze::analyze_text(
      "telemetry_bad.cpp", text, "src/core/fixture.cpp");
  ASSERT_FALSE(findings.empty());
  const std::string sarif = rcf::analyze::render_sarif(findings);
  const auto doc = rcf::parse_json(sarif);
  ASSERT_TRUE(doc.has_value()) << "SARIF output is not valid JSON";
  EXPECT_EQ(doc->string_or("version", ""), "2.1.0");
  const rcf::JsonValue* runs = doc->find("runs");
  ASSERT_TRUE(runs != nullptr && runs->is_array() && runs->array.size() == 1);
  const rcf::JsonValue* results = runs->array[0].find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  EXPECT_EQ(results->array.size(), findings.size());
  for (const rcf::JsonValue& r : results->array) {
    EXPECT_FALSE(r.string_or("ruleId", "").empty());
    const rcf::JsonValue* locs = r.find("locations");
    ASSERT_TRUE(locs != nullptr && locs->is_array() && !locs->array.empty());
  }
}

TEST(Analyze, RegistryNamesTheFourChecks) {
  std::set<std::string> names;
  for (const auto& c : rcf::analyze::check_registry()) {
    names.insert(c.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{
                       "collective-divergence", "nondeterministic-reduction",
                       "handle-leak", "telemetry-discipline"}));
}

TEST(Analyze, LexerSurvivesHostileInput) {
  // Unbalanced brackets, raw strings, and preprocessor continuations must
  // not crash or wedge the frontend; flat checks still run.
  const char* hostile =
      "#define X(a) \\\n  (a))\n"
      "const char* s = R\"(rand() \" unbalanced })\";\n"
      "void f( { if ( ;\n";
  const auto findings =
      rcf::analyze::analyze_text("hostile.cpp", hostile, "src/core/x.cpp");
  for (const Finding& f : findings) {
    // rand() inside the raw string must NOT fire.
    EXPECT_EQ(f.check, "");
  }
  const auto src = rcf::analyze::lex_source("hostile.cpp", hostile);
  EXPECT_FALSE(src.balanced);
  EXPECT_TRUE(rcf::analyze::parse_functions(src).empty());
}

}  // namespace
