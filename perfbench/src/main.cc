// perfbench: load generator for the repository benchmark (run by run.py).
//
//   perfbench gen      --workload W --seed N --dir D
//   perfbench setup    --workload W --seed N --dir D
//   perfbench run      --workload W --seed N --dir D --seconds S
//                      [--trace 0|1] [--trace-out F]
//   perfbench replay   --workload bulk-paper --seed N --dir D --trace-out F
//   perfbench selftest
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "oracle.hh"
#include "workloads.hh"

int main(int argc, char** argv) {
  using perfbench::Args;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|setup|run|replay|selftest ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--dir") a.dir = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--trace-out") a.trace_out = v;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", k.c_str());
      return 2;
    }
  }
  try {
    if (cmd == "selftest") {
      const int failed = perfbench::oracle::self_test();
      std::printf("oracle self-test: %s\n", failed ? "FAILED" : "ok");
      return failed ? 1 : 0;
    }
    if (cmd == "gen") return perfbench::cmd_gen(a);
    if (cmd == "setup") return perfbench::cmd_setup(a);
    if (cmd == "run") return perfbench::cmd_run(a);
    if (cmd == "replay") return perfbench::cmd_replay(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown command %s\n", cmd.c_str());
  return 2;
}
