// Fixture: both halves of the guarded-member contract broken — members
// written under the lock without FLUXFP_GUARDED_BY (whole, or through a
// field), and a guarded member read with no lock held.
#include <cstddef>

#include "support/thread_annotations.hpp"

namespace fluxfp {

class GmBadCounter {
 public:
  void bump() {
    support::MutexLock lock(mu_);
    ++hits_;  // line 14: written under mu_ but not declared guarded
  }

  std::size_t peek() const {
    return total_;  // line 18: guarded by mu_, accessed bare
  }

  void add(std::size_t n) {
    support::MutexLock lock(mu_);
    tally_.sum += n;  // line 23: a field written under mu_, not guarded
  }

 private:
  struct Tally {
    std::size_t sum = 0;
  };
  support::Mutex mu_;
  std::size_t hits_ = 0;
  std::size_t total_ FLUXFP_GUARDED_BY(mu_) = 0;
  Tally tally_;
};

}  // namespace fluxfp
