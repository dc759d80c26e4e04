// The `mec worker` rank: the one place a rank's side of the framed-rank
// protocol lives.
//
// Per connection, a rank serves one full run: versioned handshake,
// population decode, worker-side rebuild of the rank's scenario slice, a
// ready frame, then the barrier loop (advance / thresholds / finalize)
// until the final device totals ship.  Two hosts run that handler:
//
//   WorkerDaemon          binds HOST:PORT (port 0 = ephemeral, for tests),
//                         accepts one coordinator connection at a time and
//                         goes back to accepting after each run, so one
//                         daemon serves many runs back to back
//                         (transport=tcp);
//   spawn_local_workers   forks W children over socketpairs, each running
//                         the handler once with logging off and then
//                         _exit-ing (transport=process).
//
// Handshake reads are deadline-bounded (MEC_TRANSPORT_TIMEOUT_MS), so a
// port-scanning or garbage client cannot wedge the daemon: a bad magic,
// oversized length, or CRC mismatch kills that connection with a best-effort
// error frame and the daemon survives to serve the next one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mec/net/address.hpp"
#include "mec/net/framed_transport.hpp"
#include "mec/net/socket.hpp"

namespace mec::net {

class WorkerDaemon {
 public:
  struct Options {
    Address listen;          ///< port 0 binds an ephemeral port
    std::size_t max_runs = 0;  ///< serve() returns after this many (0 = forever)
    bool quiet = false;        ///< suppress the per-run log lines
  };

  /// Binds and listens immediately (throws mec::RuntimeError on failure) so
  /// the caller can read port() — and a test can bind before forking —
  /// before any coordinator connects.
  explicit WorkerDaemon(const Options& options);

  /// The resolved listen port (meaningful after an ephemeral bind).
  std::uint16_t port() const;

  /// Accept loop: serves one run per connection until max_runs complete
  /// runs (failed connections do not count) or shutdown().  Returns 0 on a
  /// clean exit; connection-level errors are logged and answered with an
  /// error frame, never fatal to the daemon.
  int serve();

  /// Wakes a blocked serve() and makes it return (callable from another
  /// thread; used by the in-process test harness).
  void shutdown();

 private:
  Options options_;
  ScopedFd listen_fd_;
  std::atomic<bool> stopping_{false};
};

/// Forks `ranks` local worker processes, rank r connected to the returned
/// link r over a socketpair and labelled "pid N".  Each child serves one
/// run of the daemon protocol and exits; FramedTransport drives them like
/// any daemon and kills and reaps them on failure.  Throws
/// mec::RuntimeError if a socketpair or fork fails (children already
/// forked are reaped by the returned links' destructors).
std::vector<RankLink> spawn_local_workers(std::size_t ranks);

}  // namespace mec::net
