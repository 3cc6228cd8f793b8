#include "trace/format.hpp"

#include <algorithm>
#include <unordered_set>

namespace fluxfp::trace {

std::vector<std::string> Trace::users() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const TraceEvent& e : events) {
    if (seen.insert(e.user).second) {
      out.push_back(e.user);
    }
  }
  return out;
}

std::vector<TraceEvent> Trace::events_of(const std::string& user) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (e.user == user) {
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.time < b.time;
            });
  return out;
}

}  // namespace fluxfp::trace
