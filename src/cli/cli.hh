/**
 * @file
 * The `snoc` command-line driver: run experiment plans, enumerate
 * the scenario-axis registries, and inspect plan/scenario files —
 * the whole evaluation surface as data, no C++ edits or rebuilds.
 *
 *   snoc run <plan.json> [--format F] [--threads N] [--fast]
 *                        [--manifest PATH | --no-manifest]
 *   snoc list <topologies|routings|patterns|workloads|configs|
 *              formats|knobs> [--markdown]
 *   snoc describe <scenario.json | plan.json>
 *   snoc version
 *
 * `run` executes the plan on the ExperimentRunner, renders the
 * generic plan report (table/csv/json) to stdout, and writes a
 * machine-readable run manifest (version, seeds, knob values) for
 * reproducibility. A set SNOC_* variable that no knob declares
 * (a retired or misspelled knob) draws one stderr warning per
 * variable; stdout is unaffected. The entry point is a library
 * function so tests drive the CLI in-process.
 */

#ifndef SNOC_CLI_CLI_HH
#define SNOC_CLI_CLI_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace snoc::cli {

/**
 * Execute one CLI invocation. `args` excludes the program name.
 * Returns the process exit code (0 success, 1 runtime error,
 * 2 usage error). FatalErrors are reported to `err`, not thrown.
 */
int runCli(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err);

} // namespace snoc::cli

#endif // SNOC_CLI_CLI_HH
