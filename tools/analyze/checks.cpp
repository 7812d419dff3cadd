// The four rcf-analyze checks.  Each consumes the frontend-neutral facts
// (token stream + statement trees) and path-scopes itself the way the
// contracts are scoped:
//
//   collective-divergence      src/, tools/, bench/, examples/ minus
//                              src/dist/ (the backends implement the
//                              collectives and are legitimately
//                              rank-conditional inside).
//   nondeterministic-reduction src/, tools/ (parallel-body slices
//                              anywhere; whole-file float in src/la,
//                              src/sparse, src/dist; whole-file unordered
//                              iteration in src/la, src/sparse, src/obs,
//                              tools/).
//   handle-leak                src/, tools/, bench/, examples/ (tests
//                              deliberately exercise abandon semantics).
//   telemetry-discipline       threads: src/ minus exec+dist; RNG: src/
//                              minus common, plus tests/ + tools/; rings:
//                              src/ minus obs.
#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze.hpp"

namespace rcf::analyze {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool starts(std::string_view path, std::string_view prefix) {
  return path.substr(0, prefix.size()) == prefix;
}

bool in_any(const std::string& s, std::initializer_list<const char*> set) {
  return std::any_of(set.begin(), set.end(),
                     [&](const char* x) { return s == x; });
}

/// Communicator entry points (including every decorator: CheckedComm,
/// RetryingComm, FaultyComm override the same virtuals) plus the wrappers
/// that perform collectives internally.
bool is_collective_name(const std::string& s) {
  return in_any(s, {"allreduce_sum", "allreduce_max", "allreduce_sum_scalar",
                    "allreduce_max_scalar", "iallreduce_sum",
                    "iallreduce_max", "broadcast", "allgather", "barrier"});
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return std::string(s.substr(b, e - b));
}

struct Ctx {
  const SourceFile& src;
  std::string_view scope;  ///< effective path for scoping rules
  std::vector<Finding>& out;

  [[nodiscard]] const Token& tok(std::size_t i) const { return src.toks[i]; }
  [[nodiscard]] std::size_t size() const { return src.toks.size(); }

  void emit(const char* check, int line, std::string msg) {
    Finding f;
    f.check = check;
    f.file = src.path;
    f.line = line;
    f.message = std::move(msg);
    if (line >= 1 && static_cast<std::size_t>(line) <= src.lines.size()) {
      f.excerpt = trim(src.lines[static_cast<std::size_t>(line) - 1]);
    }
    const auto it = src.allows.find(line);
    f.waived = it != src.allows.end() && it->second.count(check) != 0;
    out.push_back(std::move(f));
  }
};

// ---------------------------------------------------------------------------
// collective-divergence.

struct DivergenceCheck {
  Ctx& ctx;
  std::set<std::string> taint;  ///< idents derived from rank()

  /// `rank` immediately followed by `()` -- a rank() call through any
  /// receiver (comm.rank(), group.rank(), bare rank()).
  [[nodiscard]] bool rank_call_at(std::size_t i) const {
    return ctx.tok(i).kind == Token::Kind::kIdent &&
           ctx.tok(i).text == "rank" && i + 2 < ctx.size() &&
           ctx.tok(i + 1).text == "(" && ctx.tok(i + 2).text == ")";
  }

  [[nodiscard]] bool range_tainted(std::size_t b, std::size_t e) const {
    for (std::size_t i = b; i < e; ++i) {
      if (rank_call_at(i)) {
        return true;
      }
      if (ctx.tok(i).kind == Token::Kind::kIdent &&
          taint.count(ctx.tok(i).text) != 0) {
        return true;
      }
    }
    return false;
  }

  /// Propagates taint through `lhs = ...rank-derived...` assignments and
  /// initializations inside the function (two fixpoint passes cover the
  /// chains that occur in practice).
  void collect_taint(const Stmt& s) {
    gather(s);
    gather(s);
  }

  void gather(const Stmt& s) {  // NOLINT(misc-no-recursion)
    if (s.kind == Stmt::Kind::kExpr) {
      assign_scan(s.begin, s.end);
    }
    if (s.cond_end > s.cond_begin) {
      assign_scan(s.cond_begin, s.cond_end);  // for-init clauses
    }
    for (const Stmt& c : s.children) {
      gather(c);
    }
  }

  void assign_scan(std::size_t b, std::size_t e) {
    int depth = 0;
    for (std::size_t i = b; i < e; ++i) {
      const std::string& t = ctx.tok(i).text;
      if (t == "(" || t == "[" || t == "{") {
        ++depth;
      } else if (t == ")" || t == "]" || t == "}") {
        --depth;
      } else if (t == "=" && depth == 0 && i > b &&
                 ctx.tok(i - 1).kind == Token::Kind::kIdent) {
        if (range_tainted(i + 1, e)) {
          taint.insert(ctx.tok(i - 1).text);
        }
      }
    }
  }

  void flag_collectives(std::size_t b, std::size_t e, int div_line) {
    for (std::size_t i = b; i < e; ++i) {
      if (ctx.tok(i).kind == Token::Kind::kIdent &&
          is_collective_name(ctx.tok(i).text) && i + 1 < e &&
          ctx.tok(i + 1).text == "(") {
        ctx.emit("collective-divergence", ctx.tok(i).line,
                 "collective '" + ctx.tok(i).text +
                     "' reachable only under rank-divergent control flow "
                     "(condition at line " +
                     std::to_string(div_line) +
                     "): every rank must issue the same collective "
                     "schedule or the SPMD rendezvous deadlocks");
      }
    }
  }

  void walk(const Stmt& s, bool diverged, int div_line) {  // NOLINT(misc-no-recursion)
    switch (s.kind) {
      case Stmt::Kind::kIf:
      case Stmt::Kind::kLoop:
      case Stmt::Kind::kSwitch: {
        bool d = diverged;
        int dl = div_line;
        if (!d && s.cond_end > s.cond_begin &&
            range_tainted(s.cond_begin, s.cond_end)) {
          d = true;
          dl = ctx.tok(s.cond_begin).line;
        }
        for (const Stmt& c : s.children) {
          walk(c, d, dl);
        }
        break;
      }
      case Stmt::Kind::kBlock:
      case Stmt::Kind::kTry:
        for (const Stmt& c : s.children) {
          walk(c, diverged, div_line);
        }
        break;
      case Stmt::Kind::kReturn:
      case Stmt::Kind::kThrow:
      case Stmt::Kind::kExpr:
        if (diverged) {
          flag_collectives(s.begin, s.end, div_line);
        } else {
          ternary_scan(s.begin, s.end);
        }
        break;
    }
  }

  /// `cond ? a : b` with a rank-tainted cond and a collective in a branch.
  void ternary_scan(std::size_t b, std::size_t e) {
    int depth = 0;
    for (std::size_t i = b; i < e; ++i) {
      const std::string& t = ctx.tok(i).text;
      if (t == "(" || t == "[" || t == "{") {
        ++depth;
      } else if (t == ")" || t == "]" || t == "}") {
        --depth;
      } else if (t == "?" && depth == 0) {
        if (range_tainted(b, i)) {
          flag_collectives(i + 1, e, ctx.tok(i).line);
        }
        return;
      }
    }
  }

  void run(const std::vector<Function>& fns) {
    for (const Function& fn : fns) {
      taint.clear();
      collect_taint(fn.body);
      walk(fn.body, false, 0);
    }
  }
};

// ---------------------------------------------------------------------------
// nondeterministic-reduction.

struct ReductionCheck {
  Ctx& ctx;
  std::set<std::string> unordered_vars;

  void collect_unordered_vars() {
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      if (ctx.tok(i).kind != Token::Kind::kIdent ||
          !in_any(ctx.tok(i).text,
                  {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"})) {
        continue;
      }
      std::size_t j = i + 1;
      if (j < ctx.size() && ctx.tok(j).text == "<") {
        int depth = 1;
        ++j;
        std::size_t guard = 0;
        while (j < ctx.size() && depth > 0 && guard++ < 200) {
          if (ctx.tok(j).text == "<") {
            ++depth;
          } else if (ctx.tok(j).text == ">") {
            --depth;
          } else if (ctx.tok(j).text == ";" || ctx.tok(j).text == "{") {
            break;  // `a < b` comparison, not template args
          }
          ++j;
        }
      }
      while (j < ctx.size() && (ctx.tok(j).text == "&" ||
                                ctx.tok(j).text == "*" ||
                                ctx.tok(j).text == "const")) {
        ++j;  // `const unordered_map<K, V>& name`
      }
      if (j < ctx.size() && ctx.tok(j).kind == Token::Kind::kIdent) {
        unordered_vars.insert(ctx.tok(j).text);
      }
    }
  }

  void scan_region(std::size_t b, std::size_t e, const char* where,
                   const std::set<std::string>* locals, bool floats = true,
                   bool unordered = true) {
    for (std::size_t i = b; i < e; ++i) {
      const Token& t = ctx.tok(i);
      if (t.kind != Token::Kind::kIdent) {
        // Shared-state accumulation: `x += ...` (or ++/--) where x is not
        // declared inside the parallel body and not an indexed write into
        // a partitioned output range.
        if (locals != nullptr &&
            in_any(t.text, {"+=", "-=", "*=", "/=", "&=", "|=", "^=", "<<=",
                            ">>=", "++", "--"}) &&
            i > b) {
          const Token& prev = ctx.tok(i - 1);
          if (prev.kind == Token::Kind::kIdent) {
            // Resolve `a.b.c += ...` to the base object `a`.
            std::size_t base = i - 1;
            while (base >= b + 2 && (ctx.tok(base - 1).text == "." ||
                                     ctx.tok(base - 1).text == "->") &&
                   ctx.tok(base - 2).kind == Token::Kind::kIdent) {
              base -= 2;
            }
            const std::string& name = ctx.tok(base).text;
            if (locals->count(name) == 0) {
              ctx.emit("nondeterministic-reduction", t.line,
                       "accumulation into shared '" + name + "' inside " +
                           where +
                           ": reductions must partition the *output* range "
                           "(bit-identity across pool widths) -- a shared "
                           "accumulator reassociates with the pool width");
            }
          }
        }
        continue;
      }
      if (floats && t.text == "float") {
        ctx.emit("nondeterministic-reduction", t.line,
                 std::string("float arithmetic in ") + where +
                     ": the bitwise replay contract is stated over double; "
                     "float accumulation changes summation error with "
                     "blocking/width");
      }
      if (unordered && unordered_vars.count(t.text) != 0) {
        // Iteration: range-for `: var` or `var.begin()`.
        const bool range_for = i > b && ctx.tok(i - 1).text == ":";
        const bool begin_call = i + 3 < e && ctx.tok(i + 1).text == "." &&
                                ctx.tok(i + 2).text == "begin" &&
                                ctx.tok(i + 3).text == "(";
        if (range_for || begin_call) {
          ctx.emit("nondeterministic-reduction", t.line,
                   "iteration over unordered container '" + t.text +
                       "' in " + where +
                       ": visit order is hash/libc++-dependent, so any "
                       "floating-point reduction over it is not "
                       "replayable -- iterate a sorted view instead");
        }
      }
    }
  }

  /// Extracts lambda bodies inside a parallel dispatch call's argument
  /// range and scans each with its locals (captures-by-value included as
  /// shared: the pool shares one closure object across threads).
  void scan_parallel_call(std::size_t args_begin, std::size_t args_end,
                          const char* where) {
    for (std::size_t i = args_begin; i < args_end; ++i) {
      if (ctx.tok(i).text != "[") {
        continue;
      }
      const std::size_t close_capture = ctx.src.match[i];
      if (close_capture == kNone || close_capture >= args_end) {
        continue;
      }
      std::size_t j = close_capture + 1;
      std::set<std::string> locals;
      if (j < args_end && ctx.tok(j).text == "(") {
        const std::size_t close_params = ctx.src.match[j];
        if (close_params == kNone || close_params >= args_end) {
          continue;
        }
        // Parameter names: the identifier right before ',' or ')'.
        for (std::size_t p = j + 1; p <= close_params; ++p) {
          if ((ctx.tok(p).text == "," || p == close_params) && p > j + 1 &&
              ctx.tok(p - 1).kind == Token::Kind::kIdent) {
            locals.insert(ctx.tok(p - 1).text);
          }
        }
        j = close_params + 1;
      }
      while (j < args_end && (in_any(ctx.tok(j).text,
                                     {"mutable", "noexcept", "->"}) ||
                              ctx.tok(j).kind == Token::Kind::kIdent ||
                              ctx.tok(j).text == "::" ||
                              ctx.tok(j).text == "&" ||
                              ctx.tok(j).text == "*")) {
        ++j;  // specifiers / trailing return type
      }
      if (j >= args_end || ctx.tok(j).text != "{") {
        continue;
      }
      const std::size_t body_end = ctx.src.match[j];
      if (body_end == kNone || body_end > args_end) {
        continue;
      }
      collect_body_locals(j + 1, body_end, locals);
      scan_region(j + 1, body_end, where, &locals);
      i = body_end;
    }
  }

  void collect_body_locals(std::size_t b, std::size_t e,
                           std::set<std::string>& locals) {
    for (std::size_t i = b + 1; i < e; ++i) {
      if (ctx.tok(i).kind != Token::Kind::kIdent) {
        continue;
      }
      const Token& prev = ctx.tok(i - 1);
      const bool after_type =
          prev.kind == Token::Kind::kIdent &&
          in_any(prev.text, {"auto", "double", "int", "long", "unsigned",
                             "short", "bool", "char", "size_t", "ptrdiff_t",
                             "int8_t", "int16_t", "int32_t", "int64_t",
                             "uint8_t", "uint16_t", "uint32_t", "uint64_t",
                             // la::simd vector type: a body-local V4 is a
                             // fixed-order intra-block accumulator (lanes
                             // combine only through hsum), which the
                             // determinism contract allows.
                             "V4", "Range"});
      const bool after_ref = prev.text == "&" || prev.text == "*";
      if ((after_type || after_ref) && i + 1 < e &&
          in_any(ctx.tok(i + 1).text, {"=", ";", "{", "("})) {
        locals.insert(ctx.tok(i).text);
      }
    }
  }

  void run() {
    collect_unordered_vars();
    // Whole-file rules, scoped like the contracts they guard: reductions
    // are specified over double in the kernels and the collective
    // backends, and folds over hash order do not replay in the kernels or
    // the metric/report paths.
    const std::string_view p = ctx.scope;
    const bool kernel = starts(p, "src/la/") || starts(p, "src/sparse/");
    const bool backend = starts(p, "src/dist/");
    const bool report = starts(p, "src/obs/") || starts(p, "tools/");
    if (kernel || backend || report) {
      scan_region(0, ctx.size(),
                  kernel    ? "a reduction-kernel file (src/la, src/sparse)"
                  : backend ? "a collective backend (src/dist)"
                            : "a metric/report path (src/obs, tools)",
                  nullptr, kernel || backend, kernel || report);
    }
    // Parallel dispatch bodies anywhere in scope: exec::parallel_for and
    // Pool::run (receiver named *pool*).
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      if (ctx.tok(i).kind != Token::Kind::kIdent) {
        continue;
      }
      bool dispatch = false;
      if (ctx.tok(i).text == "parallel_for" && i + 1 < ctx.size() &&
          ctx.tok(i + 1).text == "(") {
        dispatch = true;
      } else if (ctx.tok(i).text == "run" && i + 1 < ctx.size() &&
                 ctx.tok(i + 1).text == "(" && i >= 2 &&
                 (ctx.tok(i - 1).text == "." || ctx.tok(i - 1).text == "->") &&
                 ctx.tok(i - 2).kind == Token::Kind::kIdent &&
                 ctx.tok(i - 2).text.find("pool") != std::string::npos) {
        dispatch = true;
      }
      if (!dispatch) {
        continue;
      }
      const std::size_t close = ctx.src.match[i + 1];
      if (close == kNone) {
        continue;
      }
      scan_parallel_call(i + 2, close, "an exec parallel body");
      i = close;
    }
  }
};

// ---------------------------------------------------------------------------
// handle-leak.

struct HandleCheck {
  Ctx& ctx;

  struct FnState {
    std::set<std::string> containers;         ///< declared handle containers
    std::set<std::string> posted_containers;  ///< with at least one post
    std::set<std::string> satisfied_containers;
    std::map<std::string, int> pending;  ///< scalar handle -> post line
  };

  [[nodiscard]] bool is_post_name(const std::string& s) const {
    return s == "iallreduce_sum" || s == "iallreduce_max";
  }

  /// The start of the receiver chain `a.b.iallreduce_sum` ending at `i`.
  [[nodiscard]] std::size_t chain_start(std::size_t i, std::size_t b) const {
    std::size_t s = i;
    while (s >= b + 2 && (ctx.tok(s - 1).text == "." ||
                          ctx.tok(s - 1).text == "->") &&
           ctx.tok(s - 2).kind == Token::Kind::kIdent) {
      s -= 2;
    }
    return s;
  }

  void declare_handles(std::size_t b, std::size_t e, FnState& st) {
    for (std::size_t i = b; i < e; ++i) {
      if (ctx.tok(i).text != "CommHandle") {
        continue;
      }
      if (i + 1 >= e) {
        continue;
      }
      if (ctx.tok(i + 1).kind == Token::Kind::kIdent) {
        // scalar decl: registered lazily at post time (a declared-but-
        // never-posted handle is inert).
        continue;
      }
      if (ctx.tok(i + 1).text == ">") {
        std::size_t j = i + 2;
        while (j < e && ctx.tok(j).text == ">") {
          ++j;
        }
        if (j < e && ctx.tok(j).kind == Token::Kind::kIdent) {
          st.containers.insert(ctx.tok(j).text);
        }
      }
    }
  }

  void process_expr(std::size_t b, std::size_t e, FnState& st) {
    for (std::size_t i = b; i < e; ++i) {
      const Token& t = ctx.tok(i);
      if (t.kind != Token::Kind::kIdent) {
        continue;
      }
      // X.wait( / X[..].wait( clears.
      if (i + 2 < e && ctx.tok(i + 1).text == "." &&
          ctx.tok(i + 2).text == "wait") {
        st.pending.erase(t.text);
        if (st.containers.count(t.text) != 0) {
          st.satisfied_containers.insert(t.text);
        }
        continue;
      }
      if (i + 1 < e && ctx.tok(i + 1).text == "[") {
        const std::size_t close = ctx.src.match[i + 1];
        if (close != kNone && close + 2 < e &&
            ctx.tok(close + 1).text == "." &&
            ctx.tok(close + 2).text == "wait") {
          st.satisfied_containers.insert(t.text);
          continue;
        }
      }
      // std::move(X) consumes.
      if (t.text == "move" && i + 3 < e && ctx.tok(i + 1).text == "(" &&
          ctx.tok(i + 2).kind == Token::Kind::kIdent &&
          ctx.tok(i + 3).text == ")") {
        st.pending.erase(ctx.tok(i + 2).text);
        st.satisfied_containers.insert(ctx.tok(i + 2).text);
        continue;
      }
      // f(X) / f(..., X, ...) consumes (Communicator::wait(handle), helper
      // takes ownership); range-for over a container counts as visiting it.
      if (st.pending.count(t.text) != 0 && i > b &&
          (ctx.tok(i - 1).text == "(" || ctx.tok(i - 1).text == ",") &&
          i + 1 < e &&
          (ctx.tok(i + 1).text == ")" || ctx.tok(i + 1).text == ",")) {
        st.pending.erase(t.text);
        continue;
      }
      if (st.containers.count(t.text) != 0 && i > b &&
          (ctx.tok(i - 1).text == ":" || ctx.tok(i - 1).text == "(" ||
           ctx.tok(i - 1).text == ",")) {
        st.satisfied_containers.insert(t.text);
      }
      // Posts.
      if (is_post_name(t.text) && i + 1 < e && ctx.tok(i + 1).text == "(") {
        resolve_post(i, b, st);
      }
      // Reassignment of a pending scalar without an intervening wait.
      if (st.pending.count(t.text) != 0 && i + 1 < e &&
          ctx.tok(i + 1).text == "=") {
        bool rhs_posts = false;
        bool rhs_inert = false;
        for (std::size_t j = i + 2; j < e; ++j) {
          if (is_post_name(ctx.tok(j).text)) {
            rhs_posts = true;
            break;
          }
          if (ctx.tok(j).text == "CommHandle") {
            rhs_inert = true;
          }
        }
        if (rhs_posts) {
          ctx.emit("handle-leak", t.line,
                   "'" + t.text +
                       "' reposted while its previous collective (posted at "
                       "line " +
                       std::to_string(st.pending[t.text]) +
                       ") was never waited: the first result is abandoned "
                       "and ThreadComm quiescence can stall on it");
          // fall through: resolve_post re-arms pending at the new line.
        } else if (rhs_inert) {
          ctx.emit("handle-leak", t.line,
                   "'" + t.text +
                       "' reset to an inert CommHandle without wait() "
                       "(posted at line " +
                       std::to_string(st.pending[t.text]) +
                       "): the posted collective's completion is abandoned");
          st.pending.erase(t.text);
        }
      }
    }
  }

  void resolve_post(std::size_t i, std::size_t b, FnState& st) {
    if (ctx.tok(b).text == "return") {
      return;  // ownership transfers to the caller (either ternary arm)
    }
    const std::size_t start = chain_start(i, b);
    // Walk backward from the receiver chain to the expression's consumer,
    // skipping balanced groups and ternary/operand tokens, so
    // `h = cond ? a.iallreduce_sum(..) : b.iallreduce_sum(..)` resolves to
    // the assignment target and `f(comm.iallreduce_sum(..))` to the call.
    std::size_t j = start;
    while (j > b) {
      const Token& t = ctx.tok(j - 1);
      if (t.text == ")" || t.text == "]" || t.text == "}") {
        const std::size_t open = ctx.src.match[j - 1];
        if (open == kNone || open < b) {
          break;
        }
        j = open;
        continue;
      }
      if (t.text == "=") {
        const Token& target = ctx.tok(j - 2);
        if (j >= b + 2 && target.text == "]") {
          // handles[slot] = ...: container post.
          const std::size_t open = ctx.src.match[j - 2];
          if (open != kNone && open > b &&
              ctx.tok(open - 1).kind == Token::Kind::kIdent) {
            const std::string& name = ctx.tok(open - 1).text;
            st.containers.insert(name);
            st.posted_containers.insert(name);
          }
        } else if (j >= b + 2 && target.kind == Token::Kind::kIdent) {
          st.pending[target.text] = ctx.tok(i).line;
        }
        return;
      }
      if (t.text == "(" || t.text == ",") {
        // Consumed by an enclosing call.  push_back/emplace_back onto a
        // container counts as a container post.
        if (t.text == "(" && j >= b + 2 &&
            ctx.tok(j - 2).kind == Token::Kind::kIdent &&
            in_any(ctx.tok(j - 2).text, {"push_back", "emplace_back"})) {
          const std::size_t recv = chain_start(j - 2, b);
          if (ctx.tok(recv).kind == Token::Kind::kIdent) {
            st.containers.insert(ctx.tok(recv).text);
            st.posted_containers.insert(ctx.tok(recv).text);
          }
        }
        return;  // some callee owns the handle now
      }
      if (t.text == "return") {
        return;  // a nested lambda returns the handle to its caller
      }
      if (t.text == ";" || t.text == "{") {
        break;
      }
      --j;  // operands, `?`, `:`, operators: keep walking out
    }
    // Nothing consumes the handle: discarded outright.
    ctx.emit("handle-leak", ctx.tok(i).line,
             "result of '" + ctx.tok(i).text +
                 "' discarded: hold the CommHandle and wait() it (or use "
                 "the blocking form)");
  }

  [[nodiscard]] bool mentions(std::size_t b, std::size_t e,
                              const std::string& name) const {
    for (std::size_t i = b; i < e; ++i) {
      if (ctx.tok(i).kind == Token::Kind::kIdent && ctx.tok(i).text == name) {
        return true;
      }
    }
    return false;
  }

  void exit_check(const Stmt& s, FnState& st, const char* what) {
    for (const auto& [name, line] : st.pending) {
      if (mentions(s.begin, s.end, name)) {
        continue;  // `return h;` hands the handle to the caller
      }
      ctx.emit("handle-leak", ctx.tok(s.begin).line,
               std::string(what) + " while '" + name +
                   "' (posted at line " + std::to_string(line) +
                   ") is still in flight: wait() it on every path or the "
                   "endpoint never quiesces");
    }
    st.pending.clear();
  }

  void merge(FnState& into, const FnState& other) {
    for (const auto& [name, line] : other.pending) {
      into.pending.emplace(name, line);
    }
    into.containers.insert(other.containers.begin(), other.containers.end());
    into.posted_containers.insert(other.posted_containers.begin(),
                                  other.posted_containers.end());
    into.satisfied_containers.insert(other.satisfied_containers.begin(),
                                     other.satisfied_containers.end());
  }

  void walk(const Stmt& s, FnState& st) {  // NOLINT(misc-no-recursion)
    switch (s.kind) {
      case Stmt::Kind::kExpr:
        process_expr(s.begin, s.end, st);
        break;
      case Stmt::Kind::kReturn:
        process_expr(s.begin, s.end, st);
        exit_check(s, st, "early return");
        break;
      case Stmt::Kind::kThrow:
        exit_check(s, st, "throw");
        break;
      case Stmt::Kind::kIf: {
        if (s.cond_end > s.cond_begin) {
          process_expr(s.cond_begin, s.cond_end, st);
        }
        FnState then_st = st;
        if (!s.children.empty()) {
          walk(s.children[0], then_st);
        }
        FnState else_st = st;
        if (s.children.size() > 1) {
          walk(s.children[1], else_st);
        }
        st = FnState{};
        merge(st, then_st);
        merge(st, else_st);
        break;
      }
      case Stmt::Kind::kLoop:
      case Stmt::Kind::kSwitch: {
        if (s.cond_end > s.cond_begin) {
          process_expr(s.cond_begin, s.cond_end, st);
        }
        FnState body_st = st;
        for (const Stmt& c : s.children) {
          walk(c, body_st);
        }
        merge(st, body_st);
        break;
      }
      case Stmt::Kind::kBlock:
        for (const Stmt& c : s.children) {
          walk(c, st);
        }
        break;
      case Stmt::Kind::kTry: {
        FnState merged;
        for (const Stmt& c : s.children) {
          FnState branch = st;
          walk(c, branch);
          merge(merged, branch);
        }
        st = std::move(merged);
        break;
      }
    }
  }

  void run(const std::vector<Function>& fns) {
    for (const Function& fn : fns) {
      FnState st;
      declare_handles(fn.body_begin, fn.body_end, st);
      walk(fn.body, st);
      const int close_line = fn.body_end < ctx.size()
                                 ? ctx.tok(fn.body_end).line
                                 : fn.line;
      for (const auto& [name, line] : st.pending) {
        ctx.emit("handle-leak", close_line,
                 "'" + name + "' (posted at line " + std::to_string(line) +
                     ") may leave '" + fn.name +
                     "' without a wait() on some path");
      }
      for (const std::string& c : st.posted_containers) {
        if (st.satisfied_containers.count(c) == 0) {
          ctx.emit("handle-leak", close_line,
                   "handle container '" + c + "' is posted into in '" +
                       fn.name +
                       "' but never waited (no element wait(), range-for, "
                       "or hand-off)");
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// telemetry-discipline.

struct TelemetryCheck {
  Ctx& ctx;

  void run() {
    const std::string_view p = ctx.scope;
    const bool thread_scope = starts(p, "src/") && !starts(p, "src/exec/") &&
                              !starts(p, "src/dist/");
    const bool rng_scope =
        (starts(p, "src/") && !starts(p, "src/common/")) ||
        starts(p, "tests/") || starts(p, "tools/");
    const bool ring_scope = starts(p, "src/") && !starts(p, "src/obs/");
    if (!thread_scope && !rng_scope && !ring_scope) {
      return;
    }
    const std::size_t n = ctx.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Token& t = ctx.tok(i);
      if (t.kind != Token::Kind::kIdent) {
        continue;
      }
      const bool std_qualified =
          i >= 2 && ctx.tok(i - 1).text == "::" && ctx.tok(i - 2).text == "std";
      if (thread_scope && std_qualified &&
          (t.text == "thread" || t.text == "jthread")) {
        ctx.emit("telemetry-discipline", t.line,
                 "naked std::" + t.text +
                     " outside src/exec + src/dist: thread lifecycles "
                     "belong to exec::Pool / dist::ThreadGroup so "
                     "rendezvous poisoning and quiescence can reach them");
      }
      if (rng_scope) {
        if (std_qualified &&
            in_any(t.text, {"mt19937", "mt19937_64", "minstd_rand",
                            "minstd_rand0", "random_device",
                            "default_random_engine"})) {
          ctx.emit("telemetry-discipline", t.line,
                   "ambient randomness (std::" + t.text +
                       ") outside src/common: all randomness must flow "
                       "through the counter-based rcf::Rng so runs replay "
                       "from a seed");
        }
        if ((t.text == "rand" || t.text == "srand") && i + 1 < n &&
            ctx.tok(i + 1).text == "(") {
          const bool member_access =
              i >= 1 && (ctx.tok(i - 1).text == "." ||
                         ctx.tok(i - 1).text == "->" ||
                         (ctx.tok(i - 1).text == "::" && !std_qualified));
          if (!member_access) {
            ctx.emit("telemetry-discipline", t.line,
                     "ambient randomness (" + t.text +
                         "()) outside src/common: use the counter-based "
                         "rcf::Rng (src/common/rng.hpp)");
          }
        }
        if (t.text == "time" && i + 3 < n && ctx.tok(i + 1).text == "(" &&
            in_any(ctx.tok(i + 2).text, {"nullptr", "NULL", "0"}) &&
            ctx.tok(i + 3).text == ")") {
          ctx.emit("telemetry-discipline", t.line,
                   "wall-clock seeding (time(" + ctx.tok(i + 2).text +
                       ")) breaks seeded replay; derive seeds from the "
                       "run configuration");
        }
      }
      if (ring_scope && (t.text == "TelemetryRing" ||
                         t.text == "telemetry_emit")) {
        ctx.emit("telemetry-discipline", t.line,
                 "'" + t.text +
                     "' used outside src/obs: the rings are owned by the "
                     "obs layer; emit through TraceScope, timed_phase or "
                     "obs::telemetry_publish() (the gated entry points)");
      }
    }
  }
};

}  // namespace

const std::vector<CheckInfo>& check_registry() {
  static const std::vector<CheckInfo> kChecks = {
      {"collective-divergence",
       "collective call sites reachable under rank-divergent control flow"},
      {"nondeterministic-reduction",
       "float / unordered-iteration / shared-accumulator hazards in "
       "reduction kernels and exec parallel bodies"},
      {"handle-leak",
       "posted CommHandles that are not waited on every path"},
      {"telemetry-discipline",
       "TelemetryRing ownership, naked std::thread, and ambient-RNG "
       "layering violations"},
  };
  return kChecks;
}

void run_checks(const SourceFile& src, const std::vector<Function>& fns,
                const std::set<std::string>& only, std::string_view scope_as,
                std::vector<Finding>& out) {
  Ctx ctx{src, scope_as.empty() ? std::string_view(src.path) : scope_as, out};
  const auto enabled = [&](const char* name) {
    return only.empty() || only.count(name) != 0;
  };
  const std::string_view p = ctx.scope;
  const bool solver_side = (starts(p, "src/") && !starts(p, "src/dist/")) ||
                           starts(p, "tools/") || starts(p, "bench/") ||
                           starts(p, "examples/");
  if (enabled("collective-divergence") && solver_side) {
    DivergenceCheck div{ctx, {}};
    div.run(fns);
  }
  if (enabled("nondeterministic-reduction") &&
      (starts(p, "src/") || starts(p, "tools/"))) {
    ReductionCheck red{ctx, {}};
    red.run();
  }
  if (enabled("handle-leak") &&
      (starts(p, "src/") || starts(p, "tools/") || starts(p, "bench/") ||
       starts(p, "examples/"))) {
    HandleCheck{ctx}.run(fns);
  }
  if (enabled("telemetry-discipline")) {
    TelemetryCheck{ctx}.run();
  }
}

std::vector<Finding> analyze_text(std::string path, std::string_view text,
                                  std::string_view scope_as) {
  const SourceFile src = lex_source(std::move(path), text);
  const std::vector<Function> fns = parse_functions(src);
  std::vector<Finding> out;
  run_checks(src, fns, {}, scope_as, out);
  return out;
}

}  // namespace rcf::analyze
