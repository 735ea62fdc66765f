// Fixture: clean counterpart — literal messages bind the const char*
// overloads and cost nothing; a concatenated message is built inside
// the failing branch only. A '+' in the condition or inside a literal
// is not a message concatenation.
#include <string>

#include "util/logging.hh"

void pop(const std::string& name, size_t size, int id)
{
    dysta::panicIf(size + 1 == 1, "pop of empty calendar (a+b)");
    dysta::fatalIf(id < 0,
                   "bad request id: "
                   "must be non-negative");
    if (size > 100)
        dysta::panic("pop of oversized calendar " + name);
}
