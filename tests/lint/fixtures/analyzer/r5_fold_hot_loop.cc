// R5 fixture: a fold whose per-entry loop dispatches and allocates. Linted,
// never compiled. The directory sits under .../analyzer/ so the fixture
// corpus has a fold scope. test_lint.cc asserts the exact rule ids AND line
// numbers below — renumbering this file means updating the test.
#include <functional>
#include <string>

namespace teeperf::analyzer {

class Sink {
 public:
  virtual void open(unsigned long method) = 0;
};

struct Named {
  void note(unsigned long method) {
    std::string name = "fn";  // line 17: r5 std::string via note
    (void)method;
  }
};

template <typename S>
class ShardFold {
 public:
  void feed(const unsigned long* entries, unsigned long n) {
    for (unsigned long i = 0; i < n; ++i) {
      sink_->open(entries[i]);       // line 27: r5 virtual call
      int* slot = new int(0);        // line 28: r5 operator new
      (*hook_)(entries[i]);          // line 29: r5 function pointer
      named_.note(entries[i]);
      (void)slot;
    }
  }

 private:
  Sink* sink_ = nullptr;
  void (*hook_)(unsigned long) = nullptr;
  Named named_;
};

// Not reachable from ShardFold::feed: allocates freely.
void load_all() { std::string text = "ok"; }

}  // namespace teeperf::analyzer
