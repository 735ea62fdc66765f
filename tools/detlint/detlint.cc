/**
 * @file
 * detlint — the repository's determinism lint.
 *
 * Every result this project reports rests on bit-identical replay:
 * the jobs=1-vs-4 sweep gates, streaming-vs-materialized equivalence
 * and the chaos determinism checks all assume that no code path reads
 * wall-clock time, draws from an unseeded RNG, iterates a hash-ordered
 * container into an ordering-sensitive computation, or breaks ties on
 * pointer values. Those invariants used to be enforced only
 * dynamically (TSan runs, --diff gates) and after the fact; detlint
 * enforces them statically, before merge.
 *
 * detlint is a token-level scanner (comments and string/char literals
 * are blanked before matching, so prose never trips a rule) over the
 * directories named on the command line. Findings are reported as
 * `file:line: [rule-id] message`; any unsuppressed finding makes the
 * process exit 1. A finding is suppressed by a comment on the same
 * line or the line directly above:
 *
 *     // detlint-allow(rule-id): justification text
 *
 * The justification is mandatory — a suppression without one is
 * itself a finding (`bad-suppression`), and a suppression that
 * matches nothing is reported as `unused-suppression` so stale
 * allowances cannot accumulate.
 *
 * Rules are documented in tools/detlint/RULES.md. The scanner is
 * deliberately standalone (no dependency on the dysta library): it
 * must build and run even when the library itself is broken.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// --- rule table -------------------------------------------------------------

struct RuleInfo {
    const char* id;
    const char* scope;   ///< human-readable path scope
    const char* summary;
};

const RuleInfo kRules[] = {
    {"wall-clock",
     "src/{sim,sched,serve,chaos,core}",
     "wall-clock sources (system_clock, time(), clock(), getenv, ...) "
     "are banned in deterministic code; wall time lives only in "
     "obs/phase_timer"},
    {"raw-rand",
     "everywhere except src/util/rng.*",
     "rand()/srand()/std::random_device and std:: engines/distributions "
     "are banned; all randomness flows through the seeded util/rng "
     "xoshiro generator"},
    {"unordered-iter",
     "src/, bench/, examples/",
     "iterating a std::unordered_{map,set} is hash-order dependent; "
     "drain through a sorted copy or suppress with a justification"},
    {"pointer-compare",
     "src/",
     "ordering comparisons of pointer values (&a < &b, "
     "reinterpret_cast<uintptr_t>, std::less<T*>) are address-layout "
     "dependent and must not decide ties"},
    {"uninit-member",
     "src/ (types named *Config / *Spec)",
     "scalar members of config/spec structs must have default member "
     "initializers; an uninitialized knob is a nondeterministic knob"},
    {"stdout-print",
     "src/ except src/tools/",
     "library code must not write to stdout (printf/std::cout/puts); "
     "presentation belongs to tools, benches and examples"},
    {"eager-check-message",
     "src/{sim,sched,core}",
     "panicIf/fatalIf message built by concatenation (+, to_string) "
     "allocates on every passing check; write "
     "`if (cond) panic(a + b);` instead"},
    {"bad-suppression",
     "everywhere",
     "detlint-allow comment without a ': justification' clause"},
    {"unused-suppression",
     "everywhere",
     "detlint-allow comment that suppressed nothing"},
};

struct Finding {
    std::string file;
    size_t line = 0;
    std::string rule;
    std::string message;
    bool suppressed = false;
};

// --- text utilities ---------------------------------------------------------

bool isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** True when text[pos..] matches `word` on identifier boundaries. */
bool wordAt(const std::string& text, size_t pos, const std::string& word)
{
    if (pos + word.size() > text.size())
        return false;
    if (text.compare(pos, word.size(), word) != 0)
        return false;
    if (pos > 0 && isIdentChar(text[pos - 1]))
        return false;
    size_t end = pos + word.size();
    if (end < text.size() && isIdentChar(text[end]))
        return false;
    return true;
}

bool containsWord(const std::string& text, const std::string& word)
{
    for (size_t pos = text.find(word); pos != std::string::npos;
         pos = text.find(word, pos + 1)) {
        if (wordAt(text, pos, word))
            return true;
    }
    return false;
}

/**
 * Blank comments and string/character literals (including raw
 * strings), preserving newlines and every other character position so
 * line/column arithmetic on the scrubbed text matches the original.
 */
std::string scrub(const std::string& text)
{
    std::string out = text;
    enum class St { Code, Line, Block, Str, Chr, Raw };
    St st = St::Code;
    std::string rawDelim;
    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == 'R' && n == '"' &&
                       (i == 0 || !isIdentChar(text[i - 1]))) {
                size_t open = text.find('(', i + 2);
                if (open == std::string::npos)
                    break;
                rawDelim = ")" + text.substr(i + 2, open - i - 2) + "\"";
                for (size_t j = i; j <= open; ++j)
                    out[j] = ' ';
                i = open;
                st = St::Raw;
            } else if (c == '"') {
                st = St::Str;
            } else if (c == '\'' &&
                       (i == 0 || !std::isdigit(static_cast<unsigned char>(
                                      text[i - 1])))) {
                // Skip digit separators (1'000'000); everything else
                // that opens with a quote is a character literal.
                st = St::Chr;
            }
            break;
        case St::Line:
            if (c == '\n')
                st = St::Code;
            else
                out[i] = ' ';
            break;
        case St::Block:
            if (c == '*' && n == '/') {
                out[i] = out[i + 1] = ' ';
                ++i;
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::Str:
            if (c == '\\' && n != '\0') {
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::Chr:
            if (c == '\\' && n != '\0') {
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::Raw:
            if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
                for (size_t j = 0; j < rawDelim.size(); ++j)
                    out[i + j] = ' ';
                i += rawDelim.size() - 1;
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

std::vector<std::string> splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    lines.push_back(cur);
    return lines;
}

/** `name(` with whitespace allowed before the paren, at `pos`. */
bool isCallAt(const std::string& line, size_t pos, const std::string& name)
{
    if (!wordAt(line, pos, name))
        return false;
    size_t after = pos + name.size();
    while (after < line.size() &&
           std::isspace(static_cast<unsigned char>(line[after])))
        ++after;
    return after < line.size() && line[after] == '(';
}

/**
 * True when the identifier at `pos` is plausibly a call into the
 * global/std namespace: not a member access (`.time`, `->time`) and,
 * when `::`-qualified, qualified by nothing or by `std`.
 */
bool isBareOrStdQualified(const std::string& line, size_t pos)
{
    size_t p = pos;
    while (p > 0 &&
           std::isspace(static_cast<unsigned char>(line[p - 1])))
        --p;
    if (p == 0)
        return true;
    char prev = line[p - 1];
    if (prev == '.')
        return false;
    if (prev == '>' && p >= 2 && line[p - 2] == '-')
        return false;
    if (prev == ':' && p >= 2 && line[p - 2] == ':') {
        size_t q = p - 2;
        while (q > 0 && isIdentChar(line[q - 1]))
            --q;
        std::string qual = line.substr(q, p - 2 - q);
        return qual.empty() || qual == "std";
    }
    return true;
}

// --- per-file scan state ----------------------------------------------------

struct FileScan {
    std::string path;          ///< path as reported (normalized, '/')
    std::vector<std::string> raw;
    std::vector<std::string> code;  ///< scrubbed lines
};

std::string normalize(const fs::path& p)
{
    std::string s = p.generic_string();
    // Strip a leading ./ so scope matching and reports are stable.
    while (s.rfind("./", 0) == 0)
        s = s.substr(2);
    return s;
}

bool pathContains(const std::string& path, const char* needle)
{
    return path.find(needle) != std::string::npos;
}

bool inDeterministicCore(const std::string& p)
{
    return pathContains(p, "src/sim/") || pathContains(p, "src/sched/") ||
           pathContains(p, "src/serve/") || pathContains(p, "src/chaos/") ||
           pathContains(p, "src/core/");
}

// --- suppression handling ---------------------------------------------------

struct Suppression {
    size_t line = 0;            ///< 1-based line the comment sits on
    std::set<std::string> rules;
    bool hasReason = false;
    bool used = false;
};

std::vector<Suppression> collectSuppressions(const FileScan& f)
{
    std::vector<Suppression> out;
    const std::string tag = "detlint-allow";
    for (size_t i = 0; i < f.raw.size(); ++i) {
        size_t pos = f.raw[i].find(tag);
        if (pos == std::string::npos)
            continue;
        // Only the parenthesized form is a suppression attempt; bare
        // prose mentions of the tag are ignored.
        if (pos + tag.size() >= f.raw[i].size() ||
            f.raw[i][pos + tag.size()] != '(')
            continue;
        Suppression s;
        s.line = i + 1;
        size_t open = f.raw[i].find('(', pos);
        size_t close = open == std::string::npos
                           ? std::string::npos
                           : f.raw[i].find(')', open);
        if (open != std::string::npos && close != std::string::npos) {
            std::string list = f.raw[i].substr(open + 1, close - open - 1);
            std::stringstream ss(list);
            std::string rule;
            while (std::getline(ss, rule, ',')) {
                rule.erase(std::remove_if(rule.begin(), rule.end(),
                                          [](char c) {
                                              return std::isspace(
                                                  static_cast<unsigned char>(
                                                      c));
                                          }),
                           rule.end());
                if (!rule.empty())
                    s.rules.insert(rule);
            }
            // Reason clause: "): <non-empty text>".
            size_t colon = f.raw[i].find(':', close);
            if (colon != std::string::npos) {
                std::string reason = f.raw[i].substr(colon + 1);
                s.hasReason =
                    std::any_of(reason.begin(), reason.end(), [](char c) {
                        return !std::isspace(static_cast<unsigned char>(c));
                    });
            }
        }
        out.push_back(std::move(s));
    }
    return out;
}

// --- individual rules -------------------------------------------------------

void ruleWallClock(const FileScan& f, std::vector<Finding>& out)
{
    if (!inDeterministicCore(f.path))
        return;
    static const char* kTokens[] = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday", "localtime",    "gmtime",
        "strftime",     "timespec_get",
    };
    static const char* kCalls[] = {"time", "clock", "getenv"};
    for (size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        for (const char* tok : kTokens) {
            if (containsWord(line, tok)) {
                out.push_back({f.path, i + 1, "wall-clock",
                               std::string(tok) +
                                   " in deterministic code (wall time "
                                   "belongs in obs/phase_timer)"});
            }
        }
        for (const char* call : kCalls) {
            for (size_t pos = line.find(call); pos != std::string::npos;
                 pos = line.find(call, pos + 1)) {
                if (isCallAt(line, pos, call) &&
                    isBareOrStdQualified(line, pos)) {
                    out.push_back({f.path, i + 1, "wall-clock",
                                   std::string(call) +
                                       "() in deterministic code (wall "
                                       "time belongs in obs/phase_timer)"});
                }
            }
        }
    }
}

void ruleRawRand(const FileScan& f, std::vector<Finding>& out)
{
    if (pathContains(f.path, "src/util/rng."))
        return;
    static const char* kTokens[] = {
        "random_device",       "mt19937",
        "mt19937_64",          "minstd_rand",
        "default_random_engine",
        "uniform_int_distribution",
        "uniform_real_distribution",
        "normal_distribution", "bernoulli_distribution",
    };
    static const char* kCalls[] = {"rand", "srand", "drand48", "srand48"};
    for (size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        for (const char* tok : kTokens) {
            if (containsWord(line, tok)) {
                out.push_back({f.path, i + 1, "raw-rand",
                               std::string(tok) +
                                   ": randomness must flow through the "
                                   "seeded util/rng generator"});
            }
        }
        for (const char* call : kCalls) {
            for (size_t pos = line.find(call); pos != std::string::npos;
                 pos = line.find(call, pos + 1)) {
                if (isCallAt(line, pos, call) &&
                    isBareOrStdQualified(line, pos)) {
                    out.push_back({f.path, i + 1, "raw-rand",
                                   std::string(call) +
                                       "(): randomness must flow through "
                                       "the seeded util/rng generator"});
                }
            }
        }
    }
}

/**
 * Names declared as std::unordered_{map,set} in a blob of scrubbed
 * code, plus names declared via a one-level `using Alias = ...`.
 */
std::set<std::string> unorderedNames(const std::string& code)
{
    std::set<std::string> names;
    std::set<std::string> aliases;
    static const char* kTypes[] = {"unordered_map", "unordered_set"};
    for (const char* type : kTypes) {
        for (size_t pos = code.find(type); pos != std::string::npos;
             pos = code.find(type, pos + 1)) {
            if (!wordAt(code, pos, type))
                continue;
            // The template argument list must open right after the
            // token — otherwise this is `#include <unordered_map>`
            // or a bare mention.
            size_t lt = pos + std::strlen(type);
            while (lt < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[lt])))
                ++lt;
            if (lt >= code.size() || code[lt] != '<')
                continue;
            // Find the matching '>' of the template argument list.
            int depth = 0;
            size_t i = lt;
            for (; i < code.size(); ++i) {
                if (code[i] == '<')
                    ++depth;
                else if (code[i] == '>' && --depth == 0)
                    break;
            }
            if (i >= code.size())
                continue;
            // `using X = std::unordered_map<...>`: remember the alias.
            size_t stmt = code.rfind(';', pos);
            size_t from = stmt == std::string::npos ? 0 : stmt + 1;
            std::string before = code.substr(from, pos - from);
            size_t usingPos = before.find("using");
            size_t eq = before.find('=');
            if (usingPos != std::string::npos && eq != std::string::npos) {
                size_t a = usingPos + 5;
                while (a < before.size() &&
                       std::isspace(static_cast<unsigned char>(before[a])))
                    ++a;
                size_t b = a;
                while (b < before.size() && isIdentChar(before[b]))
                    ++b;
                if (b > a)
                    aliases.insert(before.substr(a, b - a));
                continue;
            }
            // Otherwise: declarator name follows the closing '>'.
            size_t j = i + 1;
            while (j < code.size() &&
                   (std::isspace(static_cast<unsigned char>(code[j])) ||
                    code[j] == '&' || code[j] == '*'))
                ++j;
            size_t k = j;
            while (k < code.size() && isIdentChar(code[k]))
                ++k;
            if (k > j) {
                char term = k < code.size() ? code[k] : '\0';
                // Require a declarator context: `type name;` `= {...}`
                // `{init}` `(args)`. Anything else (casts, returns)
                // is not a declaration.
                while (term == ' ')
                    term = ++k < code.size() ? code[k] : '\0';
                if (term == ';' || term == '=' || term == '{' ||
                    term == '(')
                    names.insert(code.substr(j, k - j));
            }
        }
    }
    // One level of alias resolution: `Alias name;`.
    for (const std::string& alias : aliases) {
        for (size_t pos = code.find(alias); pos != std::string::npos;
             pos = code.find(alias, pos + 1)) {
            if (!wordAt(code, pos, alias))
                continue;
            size_t j = pos + alias.size();
            while (j < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[j])))
                ++j;
            size_t k = j;
            while (k < code.size() && isIdentChar(code[k]))
                ++k;
            if (k > j)
                names.insert(code.substr(j, k - j));
        }
    }
    return names;
}

void ruleUnorderedIter(const FileScan& f, const std::string& companionCode,
                       std::vector<Finding>& out)
{
    std::string joined;
    for (const std::string& l : f.code) {
        joined += l;
        joined += '\n';
    }
    std::set<std::string> names = unorderedNames(joined + companionCode);
    if (names.empty())
        return;

    // Range-for over a tracked name: `for (decl : expr)` where expr
    // mentions the name. The for-header may span lines; join up to 5.
    for (size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        for (size_t pos = line.find("for"); pos != std::string::npos;
             pos = line.find("for", pos + 1)) {
            if (!wordAt(line, pos, "for"))
                continue;
            std::string header;
            for (size_t j = i; j < f.code.size() && j < i + 5; ++j) {
                header += (j == i ? f.code[j].substr(pos) : f.code[j]);
                header += ' ';
                int depth = 0;
                bool closed = false;
                for (char c : header) {
                    if (c == '(')
                        ++depth;
                    else if (c == ')' && --depth == 0) {
                        closed = true;
                        break;
                    }
                }
                if (closed)
                    break;
            }
            size_t open = header.find('(');
            if (open == std::string::npos)
                continue;
            int depth = 0;
            size_t close = open;
            for (; close < header.size(); ++close) {
                if (header[close] == '(')
                    ++depth;
                else if (header[close] == ')' && --depth == 0)
                    break;
            }
            std::string inner = header.substr(open + 1, close - open - 1);
            if (inner.find(';') != std::string::npos)
                continue; // classic for, handled via .begin() below
            // Top-level single ':' (not '::') splits decl : range.
            size_t colon = std::string::npos;
            int d2 = 0;
            for (size_t c = 0; c < inner.size(); ++c) {
                if (inner[c] == '(' || inner[c] == '[' || inner[c] == '{' ||
                    inner[c] == '<')
                    ++d2;
                else if (inner[c] == ')' || inner[c] == ']' ||
                         inner[c] == '}' || inner[c] == '>')
                    --d2;
                else if (inner[c] == ':' && d2 == 0) {
                    if ((c > 0 && inner[c - 1] == ':') ||
                        (c + 1 < inner.size() && inner[c + 1] == ':')) {
                        continue;
                    }
                    colon = c;
                    break;
                }
            }
            if (colon == std::string::npos)
                continue;
            std::string range = inner.substr(colon + 1);
            for (const std::string& name : names) {
                if (containsWord(range, name)) {
                    out.push_back(
                        {f.path, i + 1, "unordered-iter",
                         "range-for over unordered container '" + name +
                             "' is hash-order dependent; drain a sorted "
                             "copy instead"});
                    break;
                }
            }
        }
        // Iterator consumption: name.begin( / name.cbegin(.
        for (const std::string& name : names) {
            for (size_t pos = line.find(name); pos != std::string::npos;
                 pos = line.find(name, pos + 1)) {
                if (!wordAt(line, pos, name))
                    continue;
                size_t after = pos + name.size();
                if (line.compare(after, 7, ".begin(") == 0 ||
                    line.compare(after, 8, ".cbegin(") == 0) {
                    out.push_back(
                        {f.path, i + 1, "unordered-iter",
                         "iterator over unordered container '" + name +
                             "' is hash-order dependent; drain a sorted "
                             "copy instead"});
                }
            }
        }
    }
}

void rulePointerCompare(const FileScan& f, std::vector<Finding>& out)
{
    if (!pathContains(f.path, "src/"))
        return;
    for (size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        if (line.find("reinterpret_cast<uintptr_t>") != std::string::npos ||
            line.find("reinterpret_cast<std::uintptr_t>") !=
                std::string::npos) {
            out.push_back({f.path, i + 1, "pointer-compare",
                           "pointer-to-integer cast: address values are "
                           "layout dependent and must not order anything"});
        }
        // std::less over a pointer type.
        size_t lp = line.find("less<");
        if (lp != std::string::npos && wordAt(line, lp, "less")) {
            size_t gt = line.find('>', lp);
            if (gt != std::string::npos &&
                line.find('*', lp) != std::string::npos &&
                line.find('*', lp) < gt) {
                out.push_back({f.path, i + 1, "pointer-compare",
                               "std::less over a pointer type orders by "
                               "address; use a stable key instead"});
            }
        }
        // &a <rel> &b — both sides address-of.
        for (size_t pos = 0; pos + 1 < line.size(); ++pos) {
            char c = line[pos];
            if (c != '<' && c != '>')
                continue;
            // Skip <<, >>, <=, >= second char handling below; include
            // <= and >= by allowing an '=' after.
            size_t opEnd = pos + 1;
            if (opEnd < line.size() && line[opEnd] == '=')
                ++opEnd;
            if ((pos > 0 && (line[pos - 1] == '<' || line[pos - 1] == '>')) ||
                (opEnd < line.size() &&
                 (line[opEnd] == '<' || line[opEnd] == '>')))
                continue; // shift operator
            // Left side must end with `&ident` (unary address-of).
            size_t l = pos;
            while (l > 0 &&
                   std::isspace(static_cast<unsigned char>(line[l - 1])))
                --l;
            size_t le = l;
            while (l > 0 && isIdentChar(line[l - 1]))
                --l;
            if (l == le || l == 0 || line[l - 1] != '&')
                continue;
            if (l >= 2 && (isIdentChar(line[l - 2]) || line[l - 2] == '&' ||
                           line[l - 2] == ')'))
                continue; // binary & or &&
            // Right side must start with `&ident`.
            size_t r = opEnd;
            while (r < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[r])))
                ++r;
            if (r >= line.size() || line[r] != '&')
                continue;
            if (r + 1 < line.size() && line[r + 1] == '&')
                continue;
            if (r + 1 >= line.size() || !isIdentChar(line[r + 1]))
                continue;
            out.push_back({f.path, i + 1, "pointer-compare",
                           "ordering comparison of addresses (&a " +
                               line.substr(pos, opEnd - pos) +
                               " &b) is layout dependent; break ties on "
                               "a stable id"});
        }
    }
}

void ruleUninitMember(const FileScan& f, std::vector<Finding>& out)
{
    if (!pathContains(f.path, "src/"))
        return;
    std::string joined;
    std::vector<size_t> lineOf; // char offset -> line index
    for (size_t i = 0; i < f.code.size(); ++i) {
        for (size_t c = 0; c <= f.code[i].size(); ++c)
            lineOf.push_back(i);
        joined += f.code[i];
        joined += '\n';
    }
    static const char* kScalar[] = {
        "int",      "unsigned", "long",    "short",    "float",
        "double",   "bool",     "size_t",  "char",     "uint8_t",
        "uint16_t", "uint32_t", "uint64_t", "int8_t",  "int16_t",
        "int32_t",  "int64_t",  "uintptr_t",
    };
    static const char* kKeys[] = {"struct", "class"};
    for (const char* key : kKeys) {
        for (size_t pos = joined.find(key); pos != std::string::npos;
             pos = joined.find(key, pos + 1)) {
            if (!wordAt(joined, pos, key))
                continue;
            // Type name must end in Config or Spec.
            size_t a = pos + std::strlen(key);
            while (a < joined.size() &&
                   std::isspace(static_cast<unsigned char>(joined[a])))
                ++a;
            size_t b = a;
            while (b < joined.size() && isIdentChar(joined[b]))
                ++b;
            std::string name = joined.substr(a, b - a);
            auto endsWith = [&](const char* suf) {
                size_t n = std::strlen(suf);
                return name.size() >= n &&
                       name.compare(name.size() - n, n, suf) == 0;
            };
            if (!endsWith("Config") && !endsWith("Spec"))
                continue;
            // Find the body '{' before any ';' (skip fwd decls).
            size_t brace = b;
            bool found = false;
            for (; brace < joined.size(); ++brace) {
                if (joined[brace] == '{') {
                    found = true;
                    break;
                }
                if (joined[brace] == ';')
                    break;
            }
            if (!found)
                continue;
            // Walk the body at depth 1, statement by statement.
            int depth = 1;
            size_t stmtStart = brace + 1;
            for (size_t c = brace + 1; c < joined.size() && depth > 0;
                 ++c) {
                char ch = joined[c];
                if (ch == '{') {
                    ++depth;
                } else if (ch == '}') {
                    --depth;
                    stmtStart = c + 1;
                } else if (ch == ';' && depth == 1) {
                    std::string stmt =
                        joined.substr(stmtStart, c - stmtStart);
                    size_t stmtLine = lineOf[std::min(
                        stmtStart, lineOf.size() - 1)];
                    stmtStart = c + 1;
                    if (stmt.find('=') != std::string::npos ||
                        stmt.find('{') != std::string::npos ||
                        stmt.find('(') != std::string::npos)
                        continue; // initialized or a function decl
                    if (containsWord(stmt, "static") ||
                        containsWord(stmt, "using") ||
                        containsWord(stmt, "typedef") ||
                        containsWord(stmt, "friend"))
                        continue;
                    // The declared type's first token must itself be a
                    // scalar: `std::vector<double> v;` is fine, the
                    // vector value-initializes its elements.
                    size_t t0 = 0;
                    std::string tok;
                    for (;;) {
                        while (t0 < stmt.size() && !isIdentChar(stmt[t0]))
                            ++t0;
                        size_t t1 = t0;
                        while (t1 < stmt.size() && isIdentChar(stmt[t1]))
                            ++t1;
                        tok = stmt.substr(t0, t1 - t0);
                        if (tok == "const" || tok == "mutable" ||
                            tok == "volatile" || tok == "std") {
                            t0 = t1;
                            continue;
                        }
                        break;
                    }
                    bool scalarType =
                        std::any_of(std::begin(kScalar), std::end(kScalar),
                                    [&](const char* s) { return tok == s; });
                    if (scalarType) {
                        // Member name = last identifier in the stmt.
                        size_t e = stmt.size();
                        while (e > 0 && !isIdentChar(stmt[e - 1]))
                            --e;
                        size_t s = e;
                        while (s > 0 && isIdentChar(stmt[s - 1]))
                            --s;
                        std::string member = stmt.substr(s, e - s);
                        if (!member.empty() && member != tok) {
                            out.push_back(
                                {f.path, stmtLine + 1, "uninit-member",
                                 name + "::" + member +
                                     " has no default initializer; an "
                                     "uninitialized knob reads stack "
                                     "garbage"});
                        }
                    }
                }
            }
        }
    }
}

void ruleStdoutPrint(const FileScan& f, std::vector<Finding>& out)
{
    if (!pathContains(f.path, "src/") || pathContains(f.path, "src/tools/"))
        return;
    for (size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        if (line.find("std::cout") != std::string::npos ||
            containsWord(line, "cout")) {
            out.push_back({f.path, i + 1, "stdout-print",
                           "std::cout in library code; presentation "
                           "belongs to tools/bench/examples or an "
                           "ostream& parameter"});
        }
        if (line.find("fprintf(stdout") != std::string::npos ||
            line.find("fprintf( stdout") != std::string::npos) {
            out.push_back({f.path, i + 1, "stdout-print",
                           "fprintf(stdout, ...) in library code"});
        }
        static const char* kCalls[] = {"printf", "puts", "putchar"};
        for (const char* call : kCalls) {
            for (size_t pos = line.find(call); pos != std::string::npos;
                 pos = line.find(call, pos + 1)) {
                if (isCallAt(line, pos, call) &&
                    isBareOrStdQualified(line, pos)) {
                    out.push_back({f.path, i + 1, "stdout-print",
                                   std::string(call) +
                                       "() writes to stdout from library "
                                       "code"});
                }
            }
        }
    }
}

/**
 * panicIf(cond, msg)/fatalIf(cond, msg) evaluate `msg` before testing
 * `cond`, so a concatenated message builds (and frees) a std::string
 * on every passing check. Literal messages bind the const char*
 * overloads and cost nothing. Scoped to the per-event code.
 */
void ruleEagerCheckMessage(const FileScan& f, std::vector<Finding>& out)
{
    if (!pathContains(f.path, "src/sim/") &&
        !pathContains(f.path, "src/sched/") &&
        !pathContains(f.path, "src/core/"))
        return;
    std::string joined;
    std::vector<size_t> lineOf; // char offset -> line index
    for (size_t i = 0; i < f.code.size(); ++i) {
        for (size_t c = 0; c <= f.code[i].size(); ++c)
            lineOf.push_back(i);
        joined += f.code[i];
        joined += '\n';
    }
    for (const char* check : {"panicIf", "fatalIf"}) {
        for (size_t pos = joined.find(check); pos != std::string::npos;
             pos = joined.find(check, pos + 1)) {
            if (!isCallAt(joined, pos, check))
                continue;
            // Split the argument list at its first top-level comma;
            // everything after it up to the closing paren is `msg`.
            size_t open = joined.find('(', pos);
            int depth = 0;
            size_t comma = std::string::npos;
            size_t close = open;
            for (; close < joined.size(); ++close) {
                char c = joined[close];
                if (c == '(' || c == '[' || c == '{') {
                    ++depth;
                } else if (c == ')' || c == ']' || c == '}') {
                    if (--depth == 0)
                        break;
                } else if (c == ',' && depth == 1 &&
                           comma == std::string::npos) {
                    comma = close;
                }
            }
            if (comma == std::string::npos || close >= joined.size())
                continue;
            std::string msg = joined.substr(comma + 1, close - comma - 1);
            if (msg.find('+') != std::string::npos ||
                containsWord(msg, "to_string")) {
                out.push_back({f.path, lineOf[pos] + 1,
                               "eager-check-message",
                               std::string(check) +
                                   " message is concatenated before the "
                                   "condition is tested, allocating on "
                                   "every passing check; write `if "
                                   "(cond) " +
                                   (check[0] == 'p' ? "panic" : "fatal") +
                                   "(a + b);`"});
            }
        }
    }
}

// --- driver -----------------------------------------------------------------

std::string jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool isSourceFile(const fs::path& p)
{
    std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".cxx" || ext == ".h" ||
           ext == ".hh" || ext == ".hpp";
}

int usage(const char* prog)
{
    std::fprintf(
        stderr,
        "usage: %s [options] PATH...\n"
        "\n"
        "Scan C++ sources under each PATH (file or directory) for\n"
        "violations of the repository determinism contract.\n"
        "\n"
        "options:\n"
        "  --out FILE     write findings as JSON to FILE\n"
        "  --list-rules   print the rule table and exit\n"
        "  --help         this text\n"
        "\n"
        "exit status: 0 no unsuppressed findings, 1 findings, 2 usage.\n",
        prog);
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    std::vector<std::string> roots;
    std::string outPath;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--list-rules") {
            for (const RuleInfo& r : kRules)
                std::printf("%-20s %-34s %s\n", r.id, r.scope, r.summary);
            return 0;
        } else if (arg == "--out") {
            if (++i >= argc)
                return usage(argv[0]);
            outPath = argv[i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "detlint: unknown option '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            roots.push_back(arg);
        }
    }
    if (roots.empty())
        return usage(argv[0]);

    // Collect the file set, sorted for deterministic report order.
    std::vector<fs::path> files;
    for (const std::string& root : roots) {
        fs::path p(root);
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (auto it = fs::recursive_directory_iterator(p, ec);
                 it != fs::recursive_directory_iterator(); ++it) {
                if (it->is_regular_file(ec) && isSourceFile(it->path()))
                    files.push_back(it->path());
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            std::fprintf(stderr, "detlint: no such path: %s\n",
                         root.c_str());
            return 2;
        }
    }
    std::sort(files.begin(), files.end(),
              [](const fs::path& a, const fs::path& b) {
                  return a.generic_string() < b.generic_string();
              });
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<Finding> all;
    size_t scanned = 0;
    for (const fs::path& path : files) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "detlint: cannot read %s\n",
                         path.generic_string().c_str());
            return 2;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        std::string text = ss.str();
        ++scanned;

        FileScan f;
        f.path = normalize(path);
        f.raw = splitLines(text);
        f.code = splitLines(scrub(text));

        // Companion header: declarations in foo.hh/.h are visible to
        // foo.cc so member containers are tracked across the pair.
        std::string companion;
        std::string ext = path.extension().string();
        if (ext == ".cc" || ext == ".cpp" || ext == ".cxx") {
            for (const char* hext : {".hh", ".h", ".hpp"}) {
                fs::path hp = path;
                hp.replace_extension(hext);
                std::ifstream hin(hp, std::ios::binary);
                if (hin) {
                    std::stringstream hss;
                    hss << hin.rdbuf();
                    companion = scrub(hss.str());
                    break;
                }
            }
        }

        std::vector<Finding> found;
        ruleWallClock(f, found);
        ruleRawRand(f, found);
        ruleUnorderedIter(f, companion, found);
        rulePointerCompare(f, found);
        ruleUninitMember(f, found);
        ruleStdoutPrint(f, found);
        ruleEagerCheckMessage(f, found);

        // Apply suppressions: an allow comment covers a finding on its
        // own line, or on the first code line below it when the
        // comment sits in the contiguous comment block directly above.
        std::vector<Suppression> sups = collectSuppressions(f);
        auto commentOnly = [&](size_t idx0) {
            const std::string& code = f.code[idx0];
            const std::string& raw = f.raw[idx0];
            bool rawBlank = std::all_of(
                raw.begin(), raw.end(), [](char c) {
                    return std::isspace(static_cast<unsigned char>(c));
                });
            bool codeBlank = std::all_of(
                code.begin(), code.end(), [](char c) {
                    return std::isspace(static_cast<unsigned char>(c));
                });
            return !rawBlank && codeBlank;
        };
        for (Finding& fd : found) {
            // Candidate suppression lines: the finding line itself plus
            // the pure-comment block immediately above it.
            std::set<size_t> cand{fd.line};
            for (size_t j = fd.line - 1; j >= 1 && commentOnly(j - 1);
                 --j)
                cand.insert(j);
            for (Suppression& s : sups) {
                if (cand.count(s.line) && s.rules.count(fd.rule)) {
                    s.used = true;
                    if (s.hasReason)
                        fd.suppressed = true;
                    // A reasonless match still marks the suppression
                    // used; the bad-suppression finding below carries
                    // the complaint.
                }
            }
        }
        for (const Suppression& s : sups) {
            if (!s.hasReason) {
                all.push_back({f.path, s.line, "bad-suppression",
                               "detlint-allow without a ': justification' "
                               "clause",
                               false});
            } else if (!s.used) {
                all.push_back({f.path, s.line, "unused-suppression",
                               "detlint-allow comment suppresses nothing",
                               false});
            }
        }
        all.insert(all.end(), found.begin(), found.end());
    }

    std::sort(all.begin(), all.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });

    size_t unsuppressed = 0;
    std::map<std::string, size_t> counts;
    for (const Finding& fd : all) {
        if (fd.suppressed)
            continue;
        ++unsuppressed;
        ++counts[fd.rule];
        std::printf("%s:%zu: [%s] %s\n", fd.file.c_str(), fd.line,
                    fd.rule.c_str(), fd.message.c_str());
    }

    if (!outPath.empty()) {
        std::ofstream out(outPath);
        if (!out) {
            std::fprintf(stderr, "detlint: cannot write %s\n",
                         outPath.c_str());
            return 2;
        }
        out << "{\n  \"scanned_files\": " << scanned
            << ",\n  \"unsuppressed\": " << unsuppressed
            << ",\n  \"findings\": [";
        bool first = true;
        for (const Finding& fd : all) {
            out << (first ? "" : ",") << "\n    {\"file\": \""
                << jsonEscape(fd.file) << "\", \"line\": " << fd.line
                << ", \"rule\": \"" << jsonEscape(fd.rule)
                << "\", \"suppressed\": "
                << (fd.suppressed ? "true" : "false") << ", \"message\": \""
                << jsonEscape(fd.message) << "\"}";
            first = false;
        }
        out << "\n  ]\n}\n";
    }

    if (unsuppressed > 0) {
        std::fprintf(stderr, "detlint: %zu unsuppressed finding%s in %zu "
                             "file%s scanned\n",
                     unsuppressed, unsuppressed == 1 ? "" : "s", scanned,
                     scanned == 1 ? "" : "s");
        return 1;
    }
    std::fprintf(stderr, "detlint: clean (%zu files scanned)\n", scanned);
    return 0;
}
