// Long-lived scenario daemon: a localhost TCP server speaking a JSON-lines
// protocol (one JSON document per '\n'-terminated line, both directions)
// that routes submitted Scenario batches through one shared ScenarioEngine.
//
// Requests:
//   {"type": "ping"}                           -> {"type": "pong"}
//   {"type": "stats"}                          -> {"type": "stats", ...}
//   {"type": "run", "scenarios": [{...}, ...]} -> streamed results:
//       {"type": "result", "index": 0, "result": {...}}   (one per scenario,
//       ...                                                 in order)
//       {"type": "done", "count": N, "cache": {...}}
//   {"type": "shutdown"}                       -> {"type": "bye"} and the
//       server begins a graceful stop (wait_for_shutdown_request unblocks).
//
// A malformed or invalid request produces {"type": "error", "message": ...}
// and leaves the connection usable — framing is per line, so one bad
// request cannot poison the next.
//
// Concurrency: each connection gets a reader thread; "run" submissions from
// all connections land in one queue that a single dispatcher drains,
// coalescing everything queued into a single engine.run_batch call — so N
// clients hammering the daemon share the batch-level cache locality (and
// the thread pool) exactly like one big batch would, and results are still
// bit-identical to per-client direct ScenarioEngine::run calls because the
// engine guarantees schedule-independence. Graceful stop drains the queue
// (accepted work is never dropped), then unwinds the threads.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include "scenario/engine.hpp"
#include "service/protocol.hpp"

namespace cnti::service {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back via
  /// port() after start()).
  std::uint16_t port = 0;
  /// Engine configuration — cache tier (DiskCache), sweep threads, etc.
  scenario::EngineOptions engine;
  /// Hard bound on one request line; longer lines fail the connection
  /// (a runaway or hostile client must not exhaust server memory).
  std::size_t max_request_bytes = 64ull * 1024 * 1024;
};

class ScenarioServer {
 public:
  explicit ScenarioServer(ServerOptions options);
  ~ScenarioServer();

  ScenarioServer(const ScenarioServer&) = delete;
  ScenarioServer& operator=(const ScenarioServer&) = delete;

  /// Binds 127.0.0.1:<port>, starts the accept and dispatcher threads.
  /// Throws std::runtime_error if the socket cannot be set up.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Graceful stop: refuse new work, drain every queued batch (their
  /// clients receive full results), then shut the connections down and
  /// join all threads. Idempotent.
  void stop();

  /// Blocks until a client sends {"type": "shutdown"} (or stop() is
  /// called); returns false on timeout. The caller still owns the actual
  /// stop() — typically the daemon main loop, which also watches signals.
  bool wait_for_shutdown_request(std::chrono::milliseconds timeout);

  const scenario::ScenarioEngine& engine() const { return engine_; }

  /// Number of engine.run_batch dispatches (coalescing means this can be
  /// far below the number of "run" requests).
  std::uint64_t batches_dispatched() const;

 private:
  struct Job {
    std::vector<scenario::Scenario> scenarios;
    std::promise<std::vector<scenario::ScenarioResult>> promise;
  };

  void accept_loop(int listen_fd);
  void dispatch_loop();
  void serve_connection(int fd);
  void handle_request_line(int fd, const std::string& line);

  ServerOptions options_;
  scenario::ScenarioEngine engine_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::thread dispatch_thread_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;    // dispatcher wakeups
  std::condition_variable drained_cv_;  // stop() waits for drain
  std::condition_variable shutdown_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool dispatch_in_flight_ = false;
  bool accepting_jobs_ = false;
  bool dispatcher_running_ = false;
  bool shutdown_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t batches_dispatched_ = 0;

  std::mutex conn_mu_;
  std::vector<int> conn_fds_;
  std::list<std::thread> conn_threads_;
};

}  // namespace cnti::service
