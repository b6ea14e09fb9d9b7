// scidive_rulec: validate / compile / dump .sdr ruleset files.
//
//   scidive_rulec FILE...          validate each file (exit 1 on any error)
//   scidive_rulec --dump FILE...   also print the compiled programs
//
// CI runs this over the default ruleset's files in src/scidive/rules/, so a
// rule that no longer compiles fails the build, not the engine.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ruledsl/loader.h"

int main(int argc, char** argv) {
  bool dump = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: scidive_rulec [--dump] FILE...\n");
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "scidive_rulec: unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "usage: scidive_rulec [--dump] FILE...\n");
    return 2;
  }

  int status = 0;
  for (const std::string& path : paths) {
    auto ruleset = scidive::ruledsl::compile_ruleset_file(path);
    if (!ruleset.ok()) {
      std::fprintf(stderr, "%s\n", ruleset.error().to_string().c_str());
      status = 1;
      continue;
    }
    std::printf("%s: %zu rule%s ok\n", path.c_str(), ruleset.value().rules.size(),
                ruleset.value().rules.size() == 1 ? "" : "s");
    if (dump) std::fputs(ruleset.value().dump().c_str(), stdout);
  }
  return status;
}
