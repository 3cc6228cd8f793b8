// Fixture: byte-identical copies live at src/netio/thread_twin.cpp and
// src/sim/thread_twin.cpp. no-raw-thread scopes by path, so the same
// spawn is sanctioned in src/netio/ and flagged in src/sim/.
#include <thread>

namespace fluxfp {

void spawn_twin() {
  std::thread t([] {});  // line 9: flagged only in the src/sim copy
  t.join();
}

}  // namespace fluxfp
