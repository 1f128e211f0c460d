#ifndef PERFBENCH_HOST_FACTS_H_
#define PERFBENCH_HOST_FACTS_H_

#include <string>

namespace perfbench {

/// Host facts every result records: core count, CPU model, compiler,
/// build type, and the filesystem type holding `dir` (where the run's
/// corpus and publish tree live). Returned as JSON object members
/// (`"key": value, ...`) without braces.
std::string HostFactsJson(const std::string& dir);

/// `text` as a JSON string literal.
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_FACTS_H_
