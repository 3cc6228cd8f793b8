#pragma once

#include <string>
#include <vector>

#include "trace/ap.hpp"

namespace fluxfp::trace {

/// One syslog-style association record: at `time` (raw trace seconds),
/// `user`'s network interface associated with AP `ap`.
struct TraceEvent {
  std::string user;
  double time = 0.0;
  std::size_t ap = 0;
};

/// A mobility trace: the AP landmark set plus a time-ordered event log.
/// Mirrors the information content of the Dartmouth "movement" syslog
/// extraction (user, timestamp, AP name).
struct Trace {
  std::vector<AccessPoint> aps;
  std::vector<TraceEvent> events;

  /// Distinct user names in first-appearance order.
  std::vector<std::string> users() const;
  /// All events of one user, time-ordered.
  std::vector<TraceEvent> events_of(const std::string& user) const;
};

}  // namespace fluxfp::trace
