// Fixture: check messages concatenated before the condition is
// tested — every passing check builds and frees a std::string.
#include <string>

#include "util/logging.hh"

void pop(const std::string& name, size_t size, int id)
{
    dysta::panicIf(size == 0, "pop of empty calendar " + name);
    dysta::fatalIf(id < 0,
                   "bad request id " + std::to_string(id));
    dysta::panicIf(size > 100, std::to_string(size));
}
