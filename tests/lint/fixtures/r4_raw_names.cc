// R4 fixture: fault-point / metric names spelled as raw string literals at
// the use site instead of through the manifest headers. Linted, never
// compiled. test_lint.cc asserts the exact lines below.
namespace fault {
bool fires(const char* name);
}
struct Registry {
  int counter(const char* name);
  int family(const char* name);
};

void f(Registry& reg) {
  fault::fires("shm.create.fail");  // line 13: r4 raw fault-point name
  reg.counter("log.tail");          // line 14: r4 raw metric name
  reg.family("log.dropped");        // line 15: r4 raw exporter family name
}

namespace fault {
bool apply_byte_faults_to_file(const char* prefix, const char* path);
}

void g(const char* path) {
  fault::apply_byte_faults_to_file("dump", path);  // line 23: r4 raw prefix
}
