/**
 * @file
 * The built-in rule set. Each rule scans the shared lexed views
 * (lexer.h) and emits violations through the analyzer's sink; nothing
 * here re-implements comment or literal stripping.
 *
 * Per-file exemptions are part of a rule's contract (documented in
 * DESIGN.md §11): util/check.h may use assert/abort (it implements
 * TETRI_CHECK), util/mutex.h may touch std::mutex (it wraps it),
 * util/rounding.h may call llround (it IS the rounding rule), and
 * util/ + sim/ may read the wall clock (WallTimer and the event loop
 * live there).
 */
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace tetri::lint {

namespace {

/** Find ident-boundary occurrences of @p token in @p text. */
std::vector<std::size_t>
FindToken(const std::string& text, const std::string& token)
{
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    if (pos == 0 || !IsIdentChar(text[pos - 1])) hits.push_back(pos);
    pos += token.size();
  }
  return hits;
}

// ---------------------------------------------------------------------
// header-guard
// ---------------------------------------------------------------------

std::string
GuardMacroFor(const std::string& rel)
{
  // trace/sink.h -> TETRI_TRACE_SINK_H
  std::string macro = "TETRI_" + rel;
  const auto dot = macro.rfind('.');
  if (dot != std::string::npos) macro.resize(dot);
  macro += "_H";
  for (char& c : macro) {
    c = c == '/' || c == '.' || c == '-'
            ? '_'
            : static_cast<char>(
                  std::toupper(static_cast<unsigned char>(c)));
  }
  return macro;
}

void
CheckHeaderGuard(const SourceFile& f, const Emit& emit)
{
  const std::string macro = GuardMacroFor(f.rel);
  const std::string ifndef = "#ifndef " + macro;
  const std::string define = "#define " + macro;
  const std::string endif = "#endif  // " + macro;
  const auto& lines = f.lines;
  int ifndef_line = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("#ifndef", 0) == 0) {
      ifndef_line = static_cast<int>(i) + 1;
      if (lines[i] != ifndef) {
        emit(f.display, ifndef_line,
             "header guard must be '" + ifndef + "', got '" + lines[i] +
                 "'");
        return;
      }
      if (i + 1 >= lines.size() || lines[i + 1] != define) {
        emit(f.display, ifndef_line + 1,
             "'" + ifndef + "' must be followed by '" + define + "'");
      }
      break;
    }
  }
  if (ifndef_line == 0) {
    emit(f.display, 1, "missing header guard '" + ifndef + "'");
    return;
  }
  for (std::size_t i = lines.size(); i > 0; --i) {
    if (lines[i - 1].empty()) continue;
    if (lines[i - 1] != endif) {
      emit(f.display, static_cast<int>(i),
           "header must close with '" + endif + "'");
    }
    return;
  }
}

// ---------------------------------------------------------------------
// include (resolution + no climbing)
// ---------------------------------------------------------------------

void
CheckIncludes(const SourceFile& f,
              const std::set<std::string>& known_rel, const Emit& emit)
{
  for (std::size_t i = 0; i < f.code_lines.size(); ++i) {
    const std::string& line = f.code_lines[i];
    if (line.rfind("#include", 0) != 0) continue;
    const int lineno = static_cast<int>(i) + 1;
    const auto open = line.find_first_of("\"<", 8);
    if (open == std::string::npos) continue;
    const char close_ch = line[open] == '"' ? '"' : '>';
    const auto close = line.find(close_ch, open + 1);
    if (close == std::string::npos) continue;
    const std::string target = line.substr(open + 1, close - open - 1);
    if (target.find("../") != std::string::npos) {
      emit(f.display, lineno,
           "relative include '" + target +
               "' climbs directories; include from the src/ root");
      continue;
    }
    if (close_ch == '"' && !known_rel.contains(target)) {
      emit(f.display, lineno,
           "quoted include '" + target +
               "' does not resolve under src/");
    }
  }
}

// ---------------------------------------------------------------------
// include-cycle
// ---------------------------------------------------------------------

/** Quoted include targets of @p f that are headers in @p known. */
std::vector<std::string>
HeaderDeps(const SourceFile& f, const std::set<std::string>& known)
{
  std::vector<std::string> deps;
  for (const std::string& line : f.code_lines) {
    if (line.rfind("#include \"", 0) != 0) continue;
    const auto close = line.find('"', 10);
    if (close == std::string::npos) continue;
    const std::string target = line.substr(10, close - 10);
    if (known.contains(target)) deps.push_back(target);
  }
  return deps;
}

int
IncludeLineOf(const SourceFile& f, const std::string& target)
{
  const std::string needle = "#include \"" + target + "\"";
  for (std::size_t i = 0; i < f.code_lines.size(); ++i) {
    if (f.code_lines[i].rfind(needle, 0) == 0) {
      return static_cast<int>(i) + 1;
    }
  }
  return 1;
}

void
CheckIncludeCycles(const std::vector<SourceFile>& files,
                   const Emit& emit)
{
  std::set<std::string> headers;
  std::map<std::string, const SourceFile*> by_rel;
  for (const SourceFile& f : files) {
    if (!f.is_header) continue;
    headers.insert(f.rel);
    by_rel[f.rel] = &f;
  }
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [rel, f] : by_rel) {
    adj[rel] = HeaderDeps(*f, headers);
  }

  // Iterative three-colour DFS; each distinct cycle is reported once,
  // canonicalized by rotating its smallest member to the front.
  std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;

  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        colour[node] = 1;
        stack.push_back(node);
        for (const std::string& dep : adj[node]) {
          if (colour[dep] == 2) continue;
          if (colour[dep] == 1) {
            auto begin =
                std::find(stack.begin(), stack.end(), dep);
            std::vector<std::string> cycle(begin, stack.end());
            auto smallest =
                std::min_element(cycle.begin(), cycle.end());
            std::rotate(cycle.begin(), smallest, cycle.end());
            std::string key;
            std::string pretty;
            for (const std::string& member : cycle) {
              key += member + "|";
              pretty += member + " -> ";
            }
            pretty += cycle.front();
            if (reported.insert(key).second) {
              emit("src/" + node, IncludeLineOf(*by_rel[node], dep),
                   "header include cycle: " + pretty);
            }
            continue;
          }
          visit(dep);
        }
        stack.pop_back();
        colour[node] = 2;
      };
  for (const auto& [rel, f] : by_rel) {
    if (colour[rel] == 0) visit(rel);
  }
}

// ---------------------------------------------------------------------
// banned-token
// ---------------------------------------------------------------------

void
CheckBannedTokens(const SourceFile& f, const Emit& emit)
{
  struct Ban {
    const char* token;
    const char* why;
    bool allowed_in_check_header;
  };
  static const Ban kBans[] = {
      {"assert(", "use TETRI_CHECK instead of naked assert()", true},
      {"abort(", "use TETRI_CHECK/Panic instead of naked abort()",
       true},
      {"rand(", "use util/rng.h for reproducible randomness", false},
      {"srand(", "use util/rng.h for reproducible randomness", false},
      {"random_device", "use util/rng.h with an explicit seed", false},
      {"time(nullptr", "wall-clock seeds break reproducibility",
       false},
      {"time(NULL", "wall-clock seeds break reproducibility", false},
  };
  const bool is_check_header = f.rel == "util/check.h";
  for (const Ban& ban : kBans) {
    if (ban.allowed_in_check_header && is_check_header) continue;
    for (std::size_t pos : FindToken(f.code, ban.token)) {
      emit(f.display, LineOf(f.code, pos),
           std::string("banned token '") + ban.token + "': " +
               ban.why);
    }
  }
}

// ---------------------------------------------------------------------
// message-discipline
// ---------------------------------------------------------------------

void
CheckMessageDiscipline(const SourceFile& f, const Emit& emit)
{
  if (f.rel == "util/check.h") return;  // defines the macros
  static const char* kMacros[] = {"TETRI_CHECK_MSG(", "TETRI_FATAL("};
  const std::string& code = f.no_comments;
  for (const char* macro : kMacros) {
    for (std::size_t pos : FindToken(code, macro)) {
      // Walk to the matching close paren, collecting string literals.
      std::size_t i = pos + std::string(macro).size();
      int depth = 1;
      bool in_string = false;
      std::string literal;
      while (i < code.size() && depth > 0) {
        const char c = code[i];
        if (in_string) {
          if (c == '\\' && i + 1 < code.size()) {
            literal += c;
            literal += code[i + 1];
            ++i;
          } else if (c == '"') {
            in_string = false;
            if (literal.empty()) {
              emit(f.display, LineOf(code, i),
                   std::string(macro) + "...) has an empty message "
                                        "literal");
            } else if (literal.back() == '.' ||
                       (literal.size() >= 2 &&
                        literal.compare(literal.size() - 2, 2,
                                        "\\n") == 0)) {
              emit(f.display, LineOf(code, i),
                   std::string(macro) +
                       "...) message must not end in '.' or a newline "
                       "(the macro adds its own framing)");
            }
          } else {
            literal += c;
          }
        } else if (c == '"') {
          in_string = true;
          literal.clear();
        } else if (c == '(') {
          ++depth;
        } else if (c == ')') {
          --depth;
        }
        ++i;
      }
    }
  }
}

// ---------------------------------------------------------------------
// whitespace
// ---------------------------------------------------------------------

void
CheckWhitespace(const SourceFile& f, const Emit& emit)
{
  constexpr std::size_t kMaxColumns = 100;
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const std::string& line = f.lines[i];
    const int lineno = static_cast<int>(i) + 1;
    if (line.find('\t') != std::string::npos) {
      emit(f.display, lineno, "tab character; indent with spaces");
    }
    if (!line.empty() &&
        std::isspace(static_cast<unsigned char>(line.back())) != 0) {
      emit(f.display, lineno, "trailing whitespace");
    }
    if (line.size() > kMaxColumns) {
      emit(f.display, lineno, "line exceeds 100 columns");
    }
  }
}

// ---------------------------------------------------------------------
// mutex-annotation
// ---------------------------------------------------------------------

/** Identifiers referenced inside any TETRI_* annotation argument list
 * ("TETRI_GUARDED_BY(mu_)" -> "mu_"). */
std::set<std::string>
AnnotationReferences(const std::string& code)
{
  std::set<std::string> refs;
  static const char* kAnnotations[] = {
      "TETRI_GUARDED_BY(",   "TETRI_PT_GUARDED_BY(",
      "TETRI_REQUIRES(",     "TETRI_ACQUIRE(",
      "TETRI_RELEASE(",      "TETRI_TRY_ACQUIRE(",
      "TETRI_EXCLUDES(",     "TETRI_ASSERT_CAPABILITY(",
      "TETRI_RETURN_CAPABILITY(",
  };
  for (const char* macro : kAnnotations) {
    for (std::size_t pos : FindToken(code, macro)) {
      std::size_t i = pos + std::string(macro).size();
      int depth = 1;
      std::string ident;
      while (i < code.size() && depth > 0) {
        const char c = code[i];
        if (IsIdentChar(c)) {
          ident += c;
        } else {
          if (!ident.empty()) refs.insert(ident);
          ident.clear();
          if (c == '(') ++depth;
          if (c == ')') --depth;
        }
        ++i;
      }
    }
  }
  return refs;
}

void
CheckMutexAnnotation(const SourceFile& f, const Emit& emit)
{
  if (f.rel == "util/mutex.h") return;  // wraps the raw primitives

  // (a) Raw standard-library lock primitives are invisible to
  // -Wthread-safety; only the annotated wrappers may be used.
  static const char* kRawPrimitives[] = {
      "std::mutex",          "std::timed_mutex",
      "std::recursive_mutex", "std::shared_mutex",
      "std::condition_variable", "std::condition_variable_any",
      "std::lock_guard",     "std::unique_lock",
      "std::scoped_lock",    "std::shared_lock",
  };
  for (const char* token : kRawPrimitives) {
    const std::size_t len = std::string(token).size();
    for (std::size_t pos : FindToken(f.code, token)) {
      // Right boundary: "std::condition_variable" must not also fire
      // on "std::condition_variable_any".
      if (pos + len < f.code.size() && IsIdentChar(f.code[pos + len])) {
        continue;
      }
      emit(f.display, LineOf(f.code, pos),
           std::string("raw '") + token +
               "' is invisible to -Wthread-safety; use util::Mutex / "
               "util::MutexLock / util::CondVar (util/mutex.h)");
    }
  }

  for (std::size_t i = 0; i < f.code_lines.size(); ++i) {
    const std::string& line = f.code_lines[i];
    if (line.rfind("#include <mutex>", 0) == 0 ||
        line.rfind("#include <condition_variable>", 0) == 0) {
      emit(f.display, static_cast<int>(i) + 1,
           "include the annotated wrappers (util/mutex.h) instead of "
           "the raw standard lock headers");
    }
  }

  // (b) Every Mutex member must be named by at least one TETRI_*
  // annotation in the same file — a mutex nothing is annotated
  // against protects nothing the analysis can check.
  const std::set<std::string> refs = AnnotationReferences(f.code);
  for (std::size_t i = 0; i < f.code_lines.size(); ++i) {
    const std::string& line = f.code_lines[i];
    std::size_t pos = line.find("Mutex ");
    while (pos != std::string::npos) {
      const bool boundary = pos == 0 || !IsIdentChar(line[pos - 1]);
      std::size_t j = pos + 6;
      std::string name;
      while (j < line.size() && IsIdentChar(line[j])) {
        name += line[j];
        ++j;
      }
      const bool member_decl =
          boundary && j < line.size() && line[j] == ';' &&
          !name.empty() && name.back() == '_';
      if (member_decl && !refs.contains(name)) {
        emit(f.display, static_cast<int>(i) + 1,
             "mutex member '" + name +
                 "' is never referenced by a TETRI_GUARDED_BY / "
                 "TETRI_REQUIRES annotation; annotate what it "
                 "protects");
      }
      pos = line.find("Mutex ", pos + 1);
    }
  }
}

// ---------------------------------------------------------------------
// rounding
// ---------------------------------------------------------------------

/**
 * True if @p expr contains a binary arithmetic operator. `->` is
 * member access, and a `-` at the start of the expression or right
 * after '(' ',' '<' or another operator is unary — neither computes a
 * new quantity, so neither counts.
 */
bool
HasBinaryArithmetic(const std::string& expr)
{
  auto prev_nonspace = [&](std::size_t i) -> char {
    while (i > 0) {
      --i;
      if (!std::isspace(static_cast<unsigned char>(expr[i]))) {
        return expr[i];
      }
    }
    return '\0';
  };
  for (std::size_t i = 0; i < expr.size(); ++i) {
    const char c = expr[i];
    if (c == '*' || c == '/' || c == '+') return true;
    if (c == '-') {
      if (i + 1 < expr.size() && expr[i + 1] == '>') {
        ++i;  // member access
        continue;
      }
      const char prev = prev_nonspace(i);
      if (prev == '\0' || prev == '(' || prev == ',' || prev == '<' ||
          prev == '*' || prev == '/' || prev == '+' || prev == '-') {
        continue;  // unary minus
      }
      return true;
    }
  }
  return false;
}

void
CheckRounding(const SourceFile& f, const Emit& emit)
{
  if (f.rel == "util/rounding.h") return;  // the one rounding site
  static const char* kRoundCalls[] = {"round(", "lround(",
                                      "llround("};
  for (const char* token : kRoundCalls) {
    for (std::size_t pos : FindToken(f.code, token)) {
      emit(f.display, LineOf(f.code, pos),
           std::string("raw '") + token +
               "...)' on a time quantity; convert through "
               "util::RoundUs (util/rounding.h) so every duration is "
               "rounded exactly once");
    }
  }
  // floor/ceil are legitimate on step counts; on a line that also
  // mentions TimeUs they are almost certainly truncating a duration —
  // the drift the one-rounding-rule exists to prevent.
  static const char* kFloorCalls[] = {"floor(", "ceil("};
  for (const char* token : kFloorCalls) {
    for (std::size_t pos : FindToken(f.code, token)) {
      const int lineno = LineOf(f.code, pos);
      const std::string& line =
          f.code_lines[static_cast<std::size_t>(lineno - 1)];
      if (line.find("TimeUs") != std::string::npos) {
        emit(f.display, lineno,
             std::string("'") + token +
                 "...)' truncates a TimeUs quantity; use "
                 "util::RoundUs (util/rounding.h), the one rounding "
                 "rule");
      }
    }
  }
  // static_cast<TimeUs>(a * b) truncates a *computed* duration — the
  // exact bug class util::RoundUs exists for (half-away-from-zero,
  // exactly once). Plain casts of an already-integral value carry no
  // fractional part and stay legal; the heuristic is the presence of
  // binary arithmetic inside the cast argument.
  const std::string kCast = "static_cast<TimeUs>(";
  for (std::size_t pos : FindToken(f.code, "static_cast")) {
    if (f.code.compare(pos, kCast.size(), kCast) != 0) continue;
    const std::size_t open = pos + kCast.size() - 1;
    std::size_t end = open;
    int depth = 0;
    for (; end < f.code.size(); ++end) {
      if (f.code[end] == '(') ++depth;
      if (f.code[end] == ')' && --depth == 0) break;
    }
    if (end >= f.code.size()) continue;  // unbalanced; not ours to judge
    const std::string arg = f.code.substr(open + 1, end - open - 1);
    if (HasBinaryArithmetic(arg)) {
      emit(f.display, LineOf(f.code, pos),
           "'static_cast<TimeUs>(...)' truncates an arithmetic "
           "expression; convert through util::RoundUs "
           "(util/rounding.h) so the duration is rounded exactly "
           "once");
    }
  }
}

// ---------------------------------------------------------------------
// wallclock
// ---------------------------------------------------------------------

void
CheckWallclock(const SourceFile& f, const Emit& emit)
{
  const bool allowed = f.rel.rfind("util/", 0) == 0 ||
                       f.rel.rfind("sim/", 0) == 0;
  if (allowed) return;
  static const char* kClockTokens[] = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  for (const char* token : kClockTokens) {
    for (std::size_t pos : FindToken(f.code, token)) {
      emit(f.display, LineOf(f.code, pos),
           std::string("'std::chrono::") + token +
               "' outside src/util and src/sim; scheduling logic "
               "runs on virtual time — measure host time through "
               "util::WallTimer (util/wallclock.h)");
    }
  }
  // A TSC read is host time too. FindToken matches prefixes, so a hit
  // must also end at an identifier boundary: `__rdtsc` is not the
  // prefix of a `__rdtscp` call.
  static const char* kTscTokens[] = {"__rdtsc", "__rdtscp",
                                     "__builtin_ia32_rdtsc"};
  for (const char* token : kTscTokens) {
    const std::size_t len = std::string(token).size();
    for (std::size_t pos : FindToken(f.code, token)) {
      if (pos + len < f.code.size() && IsIdentChar(f.code[pos + len])) {
        continue;
      }
      emit(f.display, LineOf(f.code, pos),
           std::string("'") + token +
               "' outside src/util and src/sim; a time-stamp counter "
               "read is host time — measure through "
               "util::CycleStopwatch (util/wallclock.h)");
    }
  }
  for (std::size_t i = 0; i < f.code_lines.size(); ++i) {
    if (f.code_lines[i].rfind("#include <chrono>", 0) == 0) {
      emit(f.display, static_cast<int>(i) + 1,
           "#include <chrono> outside src/util and src/sim; host "
           "time flows through util::WallTimer (util/wallclock.h)");
    }
  }
}

// ---------------------------------------------------------------------
// thread-discipline
// ---------------------------------------------------------------------

void
CheckThreadDiscipline(const SourceFile& f, const Emit& emit)
{
  // The concurrent runtime and the util layer are the only places
  // allowed to own threads or sleep: everything else either runs on
  // virtual time or borrows concurrency from a managed pool, so a
  // stray thread or sleep elsewhere is an unmanaged lifetime no
  // drain/join protocol can see.
  const bool allowed = f.rel.rfind("runtime/", 0) == 0 ||
                       f.rel.rfind("util/", 0) == 0;
  if (allowed) return;
  struct Ban {
    const char* token;
    const char* why;
  };
  static const Ban kBans[] = {
      {"std::thread",
       "raw 'std::thread' outside src/runtime and src/util; thread "
       "lifetimes belong to the runtime's managed pools"},
      {"detach(",
       "'detach()' orphans a thread that no drain/join protocol can "
       "reach; keep an owned handle and join it"},
      {"sleep_for",
       "sleeping outside src/runtime and src/util; pace host time "
       "through util::SleepForUs (util/wallclock.h), or run on "
       "virtual time"},
  };
  for (const Ban& ban : kBans) {
    for (std::size_t pos : FindToken(f.code, ban.token)) {
      emit(f.display, LineOf(f.code, pos), ban.why);
    }
  }
  for (std::size_t i = 0; i < f.code_lines.size(); ++i) {
    if (f.code_lines[i].rfind("#include <thread>", 0) == 0) {
      emit(f.display, static_cast<int>(i) + 1,
           "#include <thread> outside src/runtime and src/util; "
           "threads are owned by the runtime's managed pools");
    }
  }
}

}  // namespace

void
RegisterDefaultRules(std::vector<Rule>* rules)
{
  auto per_file = [](void (*check)(const SourceFile&, const Emit&)) {
    return [check](const std::vector<SourceFile>& files,
                   const Emit& emit) {
      for (const SourceFile& f : files) check(f, emit);
    };
  };

  rules->push_back(
      {"header-guard",
       "headers carry TETRI_<DIR>_<FILE>_H guards closed with a "
       "matching '#endif  // MACRO' comment",
       [](const std::vector<SourceFile>& files, const Emit& emit) {
         for (const SourceFile& f : files) {
           if (f.is_header) CheckHeaderGuard(f, emit);
         }
       }});
  rules->push_back(
      {"include",
       "includes never climb out of src/ with \"../\" and every "
       "quoted include resolves under src/",
       [](const std::vector<SourceFile>& files, const Emit& emit) {
         std::set<std::string> known;
         for (const SourceFile& f : files) known.insert(f.rel);
         for (const SourceFile& f : files) {
           CheckIncludes(f, known, emit);
         }
       }});
  rules->push_back(
      {"include-cycle",
       "the quoted-include graph over src/ headers is acyclic",
       CheckIncludeCycles});
  rules->push_back(
      {"banned-token",
       "no naked assert/abort, no unseeded randomness, no wall-clock "
       "seeds (use TETRI_CHECK and util/rng.h)",
       per_file(CheckBannedTokens)});
  rules->push_back(
      {"message-discipline",
       "TETRI_CHECK_MSG / TETRI_FATAL literals are non-empty and do "
       "not end in '.' or a newline",
       per_file(CheckMessageDiscipline)});
  rules->push_back(
      {"whitespace",
       "no tabs, no trailing whitespace, lines at most 100 columns",
       per_file(CheckWhitespace)});
  rules->push_back(
      {"mutex-annotation",
       "locks go through the annotated util::Mutex wrappers and every "
       "mutex member is named by a thread-safety annotation",
       per_file(CheckMutexAnnotation)});
  rules->push_back(
      {"rounding",
       "real-valued durations become TimeUs only through "
       "util::RoundUs — the one-rounding-rule helper",
       per_file(CheckRounding)});
  rules->push_back(
      {"thread-discipline",
       "raw std::thread, detach(), and sleep_for stay inside "
       "src/runtime and src/util; thread lifetimes are owned by "
       "managed pools",
       per_file(CheckThreadDiscipline)});
  rules->push_back(
      {"wallclock",
       "std::chrono wall-clock and TSC reads stay inside src/util "
       "and src/sim (WallTimer, CycleStopwatch); everything else "
       "runs on virtual time",
       per_file(CheckWallclock)});
}

}  // namespace tetri::lint
