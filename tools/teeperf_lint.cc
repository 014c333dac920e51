// teeperf_lint: the project's static checker (DESIGN.md §9). Enforces the
// five repo rules — r1 probe-path purity, r2 explicit memory order, r3 shm
// layout manifest, r4 name-registry consistency, r5 fold hot-loop purity —
// over the given source trees. See src/lint/rules.h for rule semantics and waiver syntax.
//
//   teeperf_lint --check src tools
//       --manifest tools/shm_manifest.json --testing TESTING.md
//
// Exit 0: clean (or all findings baselined). Exit 1: new findings.
// Exit 2: bad invocation / unreadable inputs.
#include "lint/lint.h"

int main(int argc, char** argv) { return teeperf::lint::lint_main(argc, argv); }
