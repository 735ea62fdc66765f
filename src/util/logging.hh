/**
 * @file
 * Status and error reporting helpers in the gem5 idiom.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for unrecoverable user/configuration errors and
 * exits cleanly; warn()/inform() report non-fatal conditions.
 */

#ifndef DYSTA_UTIL_LOGGING_HH
#define DYSTA_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace dysta {

/**
 * Thrown by fatal() instead of exiting when setFatalThrows(true) is
 * active. Lets the fuzz harnesses (tests/fuzz/) and tooling treat
 * rejected user input as a recoverable outcome while panic() — an
 * internal invariant violation — still aborts.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Route fatal() through a FatalError throw instead of exit(1).
 * Process-wide; intended for fuzz/test drivers only. Returns the
 * previous setting.
 */
bool setFatalThrows(bool enable);

/**
 * "a, b, c" ("(none)" when empty) — the error-message convention for
 * listing valid alternatives next to a rejected input.
 */
std::string joinComma(const std::vector<std::string>& items);

/** Report an internal invariant violation and abort. */
[[noreturn]] void panic(const std::string& msg);

/** Report an unrecoverable user-facing error and exit(1). */
[[noreturn]] void fatal(const std::string& msg);

/** Report a suspicious but survivable condition. */
void warn(const std::string& msg);

/** Report simulation status to the user. */
void inform(const std::string& msg);

/**
 * Assert a condition that must hold regardless of user input.
 * Kept active in release builds because the simulators rely on it for
 * model-consistency checks.
 */
inline void
panicIf(bool cond, const std::string& msg)
{
    if (__builtin_expect(cond, 0))
        panic(msg);
}

/**
 * Literal-message form: the std::string is built only when the check
 * fires, so a passing check costs one predicted branch. A message that
 * concatenates runtime values cannot use it — the concatenation runs
 * before the call — so such checks belong inside an explicit
 * `if (cond) panic(a + b);`.
 */
inline void
panicIf(bool cond, const char* msg)
{
    if (__builtin_expect(cond, 0))
        panic(msg);
}

/** Assert a user-facing precondition (bad configuration etc.). */
inline void
fatalIf(bool cond, const std::string& msg)
{
    if (__builtin_expect(cond, 0))
        fatal(msg);
}

/** Literal-message form of fatalIf; see panicIf(bool, const char*). */
inline void
fatalIf(bool cond, const char* msg)
{
    if (__builtin_expect(cond, 0))
        fatal(msg);
}

} // namespace dysta

#endif // DYSTA_UTIL_LOGGING_HH
