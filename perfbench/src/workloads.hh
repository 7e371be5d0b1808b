// The benchmark's subcommands. Each reads the inputs `gen` wrote into the
// work directory, does its part, and prints one PERFBENCH record.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string workload;  ///< bulk-paper | roi-random | serve-mixed
  std::string dir;       ///< work directory holding the generated inputs
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;      ///< run: also measure a traced half-window
  std::string trace_out;  ///< Chrome trace path (traced run, replay)
};

/// Generates the workload's inputs from the seed into `dir`.
int cmd_gen(const Args& a);
/// Times one cold set-up (first calls after the inputs exist).
int cmd_setup(const Args& a);
/// Set-up, then the workload's measured loop (and, traced, its spans).
int cmd_run(const Args& a);
/// bulk-paper layer replay at this process's pool size (SZI_THREADS),
/// always traced.
int cmd_replay(const Args& a);

}  // namespace perfbench
