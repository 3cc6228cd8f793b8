#include "netio/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "numeric/stats.hpp"
#include "obs/instrument.hpp"

namespace fluxfp::netio {

using stream::PushStatus;

Server::Server(stream::Supervisor::ManagerFactory factory,
               stream::SupervisorConfig supervisor_config,
               ServerConfig config)
    : supervisor_(std::move(factory), std::move(supervisor_config)),
      config_(std::move(config)) {}

Server::~Server() {
  try {
    stop();
  } catch (const std::runtime_error&) {
    // The supervisor counted the failed final write; only stop() itself
    // can hand the error to a caller.
  }
}

void Server::start() {
  if (running_.load(std::memory_order_relaxed)) {
    throw std::logic_error("Server: already running");
  }
  // Every supervisor interaction happens under ingest_mutex_, including
  // this pre-thread one — the capability analysis knows no "no threads
  // yet" phase, and keeping a single access regime costs one uncontended
  // lock at startup.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> session_tenants;
  {
    support::MutexLock lock(ingest_mutex_);
    supervisor_.start();
    const stream::TrackerManager* manager = supervisor_.manager();
    for (const std::uint32_t user : manager->users()) {
      session_tenants.emplace_back(user,
                                   manager->session_options(user).tenant);
    }
  }
  // Freeze the user -> tenant map: sessions are registered before start and
  // never after, so connection threads read it without a lock.
  for (const auto& [user, tenant] : session_tenants) {
    user_tenant_[user] = tenant;
    ++tenant_sessions_[tenant];
  }
  listener_ = Listener::listen_on(config_.endpoint);
  endpoint_ = listener_.endpoint();
  started_at_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread(&Server::accept_loop, this);
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) {
    return;
  }
  listener_.shutdown();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  {
    support::MutexLock lock(conns_mutex_);
    for (Connection& conn : conns_) {
      conn.socket.shutdown_both();  // wakes a thread blocked in read_some
    }
    for (Connection& conn : conns_) {
      if (conn.thread.joinable()) {
        conn.thread.join();
      }
    }
    conns_.clear();
  }
  support::MutexLock lock(ingest_mutex_);
  supervisor_.finish();
}

bool Server::running() const {
  return running_.load(std::memory_order_relaxed);
}

void Server::inject_crash() {
  support::MutexLock lock(ingest_mutex_);
  supervisor_.inject_crash();
}

void Server::accept_loop() {
  while (true) {
    Socket conn_socket = listener_.accept_one();
    if (!conn_socket.valid()) {
      return;  // shutdown() — or the listener itself died
    }
    support::MutexLock lock(conns_mutex_);
    // Reap finished connections so fds and thread handles do not pile up
    // over a long-lived server's lifetime.
    for (auto it = conns_.begin(); it != conns_.end();) {
      // Relaxed: join() below is the real synchronization point.
      if (it->done.load(std::memory_order_relaxed)) {
        if (it->thread.joinable()) {
          it->thread.join();
        }
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    conns_.emplace_back();
    Connection& conn = conns_.back();
    conn.socket = std::move(conn_socket);
    conn.id = next_connection_id_++;
    {
      support::MutexLock ingest(ingest_mutex_);
      ++connections_opened_;
      ++connections_active_;
    }
    FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_netio_connections_opened_total",
                                 "Connections accepted by the service");
    FLUXFP_OBS_GAUGE_ADD_SCHED("fluxfp_netio_connections_active",
                               "Connections currently being served", 1.0);
    conn.thread = std::thread(&Server::serve_connection, this,
                              std::ref(conn));
  }
}

void Server::serve_connection(Connection& conn) {
  // Until HELLO is accepted a frame carries at most a HELLO: a larger
  // declared payload is refused as oversized before a byte of it is read.
  WireLimits hello_limits = config_.limits;
  hello_limits.max_payload =
      std::min(hello_limits.max_payload, kMaxHelloPayloadBytes);
  FrameReader reader(conn.socket, hello_limits);
  bool authed = false;
  std::uint32_t tenant = 0;
  Frame frame;
  while (true) {
    const FrameReader::Status status = reader.read(frame);
    if (status == FrameReader::Status::kEnd) {
      break;  // clean close at a frame boundary
    }
    if (status == FrameReader::Status::kError) {
      // Malformed/hostile input never crashes the service: answer a typed
      // ERROR frame (best effort — on kBadStream the write may fail too)
      // and close.
      const WireError& err = *reader.error();
      send_error(conn, ErrorCode::kMalformedFrame, err.offset,
                 err.to_string());
      break;
    }
    {
      support::MutexLock lock(ingest_mutex_);
      ++frames_in_total_;
    }
    const bool was_authed = authed;
    if (!handle_frame(conn, authed, tenant, frame)) {
      break;
    }
    if (authed && !was_authed) {
      reader.set_limits(config_.limits);
    }
  }
  conn.socket.shutdown_both();
  {
    support::MutexLock lock(ingest_mutex_);
    --connections_active_;
  }
  FLUXFP_OBS_GAUGE_ADD_SCHED("fluxfp_netio_connections_active",
                             "Connections currently being served", -1.0);
  // Relaxed: the reaper's (or stop()'s) join provides the ordering.
  conn.done.store(true, std::memory_order_relaxed);
}

bool Server::handle_frame(Connection& conn, bool& authed,
                          std::uint32_t& tenant, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      HelloMsg hello;
      if (const auto err = decode_hello(frame.payload, hello)) {
        return send_error(conn, ErrorCode::kMalformedFrame, err->offset,
                          err->to_string());
      }
      if (authed) {
        return send_error(conn, ErrorCode::kMalformedFrame, 0,
                          "duplicate HELLO");
      }
      if (hello.version != kWireVersion) {
        return send_error(conn, ErrorCode::kUnsupportedVersion, 0,
                          "client speaks version " +
                              std::to_string(hello.version) +
                              ", this server speaks " +
                              std::to_string(kWireVersion));
      }
      if (hello.model != config_.model) {
        return send_error(conn, ErrorCode::kModelMismatch, 0,
                          "client readings are model " +
                              std::to_string(hello.model) +
                              ", this server tracks model " +
                              std::to_string(config_.model));
      }
      if (!config_.tenant_tokens.empty()) {
        const auto it = config_.tenant_tokens.find(hello.tenant);
        if (it == config_.tenant_tokens.end() || it->second != hello.token) {
          // One message for both failures: naming which part was wrong
          // would confirm tenant ids to a guessing client.
          return send_error(conn, ErrorCode::kAuthFailed, 0,
                            "unknown tenant or wrong token");
        }
      }
      authed = true;
      tenant = hello.tenant;
      WelcomeMsg welcome;
      welcome.version = kWireVersion;
      const auto sessions = tenant_sessions_.find(tenant);
      welcome.sessions =
          sessions == tenant_sessions_.end() ? 0 : sessions->second;
      welcome.connection_id = conn.id;
      return send_frame(conn, FrameType::kWelcome, encode_welcome(welcome));
    }

    case FrameType::kEventBatch: {
      if (!authed) {
        return send_error(conn, ErrorCode::kNotAuthenticated, 0,
                          "first frame must be HELLO");
      }
      std::vector<stream::FluxEvent> events;
      if (const auto err =
              decode_event_batch(frame.payload, config_.limits, events)) {
        return send_error(conn, ErrorCode::kMalformedFrame, err->offset,
                          err->to_string());
      }
      // Cross-tenant isolation: an event for another tenant's session is
      // counted, never offered — one tenant cannot pollute (or probe)
      // another's sessions. The rest is offered as one span.
      BatchAckMsg ack;
      std::erase_if(events, [&](const stream::FluxEvent& event) {
        const auto owner = user_tenant_.find(event.user);
        if (owner == user_tenant_.end()) {
          ++ack.unknown;
          return true;
        }
        if (owner->second != tenant) {
          ++ack.foreign;
          return true;
        }
        return false;
      });
      std::vector<PushStatus> status(events.size());
      stream::RoomWait room;
      {
        support::MutexLock lock(ingest_mutex_);
        ++batches_total_;
        unknown_total_ += ack.unknown;
        foreign_total_ += ack.foreign;
        room = supervisor_.offer(events, status);
        for (const PushStatus outcome : status) {
          switch (outcome) {
            case PushStatus::kAccepted:
              ++ack.accepted;
              ++accepted_total_;
              break;
            case PushStatus::kShedQuota:
              ++ack.shed;
              ++shed_total_;
              break;
            case PushStatus::kUnknownUser:
              ++ack.unknown;
              ++unknown_total_;
              break;
            case PushStatus::kClosed:
              ++ack.closed;
              break;
          }
        }
      }
      // Backpressure outside the lock: the other connections offer, query
      // and cut while this one waits for its workers to drain below the
      // queue capacity. A crash meanwhile drains the queues as it
      // quiesces, which releases the wait; the batch's events are folded
      // and journaled, and the restart re-folds them.
      room.wait();
      FLUXFP_OBS_COUNTER_ADD_SCHED("fluxfp_netio_events_accepted_total",
                                   "Events admitted over the wire",
                                   ack.accepted);
      FLUXFP_OBS_COUNTER_ADD_SCHED("fluxfp_netio_events_shed_total",
                                   "Events shed by tenant admission",
                                   ack.shed);
      return send_frame(conn, FrameType::kBatchAck, encode_batch_ack(ack));
    }

    case FrameType::kQueryEstimate: {
      if (!authed) {
        return send_error(conn, ErrorCode::kNotAuthenticated, 0,
                          "first frame must be HELLO");
      }
      QueryMsg query;
      if (const auto err = decode_query(frame.payload, query)) {
        return send_error(conn, ErrorCode::kMalformedFrame, err->offset,
                          err->to_string());
      }
      const auto owner = user_tenant_.find(query.user);
      if (owner == user_tenant_.end() || owner->second != tenant) {
        // A foreign user reads as unknown: tenants cannot enumerate each
        // other's sessions by probing ids.
        return send_error(conn, ErrorCode::kUnknownUser, 0,
                          "no session " + std::to_string(query.user) +
                              " for this tenant");
      }
      EstimateMsg estimate;
      {
        support::MutexLock lock(ingest_mutex_);
        supervisor_.quiesce();
        const stream::StreamTracker& tracker =
            supervisor_.manager()->session(query.user);
        estimate.user = query.user;
        estimate.epochs_fired = tracker.stats().epochs_fired;
        estimate.events_folded = tracker.stats().events;
        estimate.time = tracker.now();
        for (std::size_t slot = 0; slot < tracker.num_users(); ++slot) {
          estimate.estimates.push_back(tracker.estimate(slot));
        }
      }
      return send_frame(conn, FrameType::kEstimate,
                        encode_estimate(estimate));
    }

    case FrameType::kSnapshotRequest: {
      if (!authed) {
        return send_error(conn, ErrorCode::kNotAuthenticated, 0,
                          "first frame must be HELLO");
      }
      std::string image;
      {
        support::MutexLock lock(ingest_mutex_);
        image = supervisor_.checkpoint_image();
      }
      if (image.size() > config_.limits.max_payload) {
        return send_error(conn, ErrorCode::kInternal, 0,
                          "checkpoint image (" +
                              std::to_string(image.size()) +
                              " bytes) exceeds the frame payload limit");
      }
      return send_frame(conn, FrameType::kSnapshotImage, image);
    }

    case FrameType::kMetricsRequest: {
      if (!authed) {
        return send_error(conn, ErrorCode::kNotAuthenticated, 0,
                          "first frame must be HELLO");
      }
      return send_frame(conn, FrameType::kMetricsReport,
                        encode_metrics(metrics()));
    }

    case FrameType::kGoodbye:
      send_frame(conn, FrameType::kGoodbyeOk, std::string());
      return false;

    case FrameType::kWelcome:
    case FrameType::kBatchAck:
    case FrameType::kEstimate:
    case FrameType::kSnapshotImage:
    case FrameType::kMetricsReport:
    case FrameType::kGoodbyeOk:
    case FrameType::kError:
      return send_error(conn, ErrorCode::kMalformedFrame, 0,
                        std::string(frame_type_name(frame.type)) +
                            " is a server-to-client frame");
  }
  return send_error(conn, ErrorCode::kInternal, 0, "unhandled frame type");
}

bool Server::send_error(Connection& conn, ErrorCode code,
                        std::uint64_t offset, const std::string& message) {
  {
    support::MutexLock lock(ingest_mutex_);
    ++error_frames_total_;
  }
  FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_netio_error_frames_total",
                               "ERROR frames sent to clients");
  ErrorMsg msg;
  msg.code = code;
  msg.offset = offset;
  msg.message = message;
  conn.socket.write_all(encode_frame(FrameType::kError, encode_error(msg)));
  return false;
}

bool Server::send_frame(Connection& conn, FrameType type,
                        const std::string& payload) {
  return conn.socket.write_all(encode_frame(type, payload));
}

MetricsMsg Server::metrics() {
  support::MutexLock lock(ingest_mutex_);
  // Counted where the work happened: a quiesced shard has folded every
  // accepted event, its sessions' counters are checkpointed state (they
  // survive restarts), and its workers sampled each run at its fold.
  supervisor_.quiesce();
  const stream::TrackerManager* manager = supervisor_.manager();
  MetricsMsg out;
  if (manager != nullptr) {  // null before start(): no shard to read
    for (const std::uint32_t user : manager->users()) {
      out.events_processed +=
          stream::events_taken(manager->session(user).stats());
    }
    const std::vector<double> latency = manager->ingest_latency_us();
    out.ingest_samples = latency.size();
    out.ingest_p50_us =
        latency.empty() ? 0.0 : numeric::percentile(latency, 0.5);
    out.ingest_p99_us =
        latency.empty() ? 0.0 : numeric::percentile(latency, 0.99);
    out.ingest_max_us =
        latency.empty() ? 0.0
                        : *std::max_element(latency.begin(), latency.end());
  }
  out.events_accepted = accepted_total_;
  out.events_shed = shed_total_;
  out.events_unknown = unknown_total_;
  out.events_foreign = foreign_total_;
  out.batches = batches_total_;
  out.frames_in = frames_in_total_;
  out.error_frames = error_frames_total_;
  out.connections_opened = connections_opened_;
  out.connections_active = connections_active_;
  const stream::SupervisorStats sup = supervisor_.stats();
  out.checkpoints = sup.checkpoints;
  out.restarts = sup.restarts;
  out.sessions = user_tenant_.size();
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started_at_)
                         .count();
  out.events_per_second =
      out.wall_seconds > 0.0
          ? static_cast<double>(out.events_processed) / out.wall_seconds
          : 0.0;
  return out;
}

}  // namespace fluxfp::netio
