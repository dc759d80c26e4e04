// Coordinator side of every multi-rank run: one rank per connected fd.
//
// The fds come from one of two places, and the transport cannot tell them
// apart once connected:
//   - spawn_local_workers (net/worker.hpp) forks W local `mec worker` ranks
//     over socketpairs (transport=process); each link carries the child's
//     pid, which the transport kills and reaps on failure and on
//     destruction;
//   - connect_workers below dials W `mec worker` daemons over TCP
//     (transport=tcp), with bounded exponential backoff.
// Every rank then speaks the one daemon protocol: the versioned handshake,
// the population frame (protocol.hpp), a ready frame, and the barrier loop
// (advance / thresholds / finalize).  start() writes the advance frames and
// returns; collect() polls every rank at once, decoding and checking each
// payload as it completes.  Each exchange that waits on ranks — a
// handshake ack, the ready pass, a barrier, the final totals — is bounded
// by one MEC_TRANSPORT_TIMEOUT_MS deadline, and every decoded barrier and
// final payload is checked against the rank's shard and device slice, so a
// rank that dies, stalls, or sends a malformed payload raises
// mec::RuntimeError naming the rank, the peer, the last completed barrier,
// and the pending frame kind (or the offending field) — never a hang and
// never a silently corrupted merge.  A frame that cannot be written or read
// names its rank the same way.
//
// Determinism contract #8: ranks own ascending contiguous shard slices and
// payloads merge in rank order, so any rank placement streams the exact
// inproc bytes (pinned by tests/test_transport.cpp and the CI cmp steps).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mec/net/address.hpp"
#include "mec/net/socket.hpp"
#include "mec/parallel/transport.hpp"

namespace mec::net {

/// A forked local rank.  Move-only; the destructor kills and reaps a child
/// that is still unreaped, so no exit path — a failed handshake, a thrown
/// epoch callback, a dead sibling — can leave a worker process behind.  A
/// default-constructed ChildProcess owns nothing (a remote daemon).
class ChildProcess {
 public:
  ChildProcess() = default;
  explicit ChildProcess(long pid) noexcept : pid_(pid) {}
  ~ChildProcess();
  ChildProcess(ChildProcess&& other) noexcept;

  bool owns() const noexcept { return pid_ > 0; }

  /// Reaps the child if it already exited, else SIGKILLs and reaps it
  /// (WNOHANG -> SIGKILL -> waitpid).  Returns how it ended: "exit status
  /// N", "killed by signal N", or "unresponsive, killed".
  std::string kill_and_reap();

  /// Waits for a child that is about to exit on its own (run complete).
  void wait() noexcept;

 private:
  long pid_ = -1;
};

/// One connected rank endpoint, in rank order.
struct RankLink {
  ScopedFd fd;
  std::string label;   ///< "host:port", or "pid N" for a local rank
  ChildProcess child;  ///< local ranks only
};

/// Connects to every daemon, in rank order, each within the
/// MEC_TRANSPORT_TIMEOUT_MS budget.  Throws mec::RuntimeError naming the
/// unreachable address.
std::vector<RankLink> connect_workers(std::span<const Address> workers);

class FramedTransport final : public parallel::Transport {
 public:
  /// Handshakes every link, ships populations[r] to rank r, waits for every
  /// rank's ready frame, then pushes `initial_values` (the run's per-device
  /// values under shape.rule).  Rank r of W owns shards [K*r/W, K*(r+1)/W)
  /// of the shape's K.  Throws mec::RuntimeError (naming the rank and its
  /// peer) on any refusal: schema-revision mismatch (both revisions named),
  /// wrong rank echo, or a worker-side build failure.
  FramedTransport(const parallel::RunShape& shape, std::vector<RankLink> links,
                  std::span<const std::vector<std::uint8_t>> populations,
                  std::span<const double> initial_values);
  FramedTransport(const FramedTransport&) = delete;
  FramedTransport& operator=(const FramedTransport&) = delete;

  std::size_t ranks() const override { return peers_.size(); }
  void start(const parallel::BarrierRequest& request) override;
  std::span<const parallel::ShardBarrierView> collect() override;
  double total_q() const override { return total_q_; }
  double total_q2() const override { return total_q2_; }
  void broadcast_thresholds(std::span<const double> values) override;
  void finalize(bool flipped) override;
  parallel::DeviceTotals device_totals(std::uint32_t device) const override;
  bool metered() const override { return true; }
  parallel::RankStats rank_stats(std::size_t rank) const override;

 private:
  struct Peer {
    explicit Peer(RankLink l) : link(std::move(l)) {}
    RankLink link;
    std::size_t shard_lo = 0;
    std::size_t shard_hi = 0;
    std::uint32_t device_lo = 0;
    std::uint32_t device_hi = 0;
    parallel::wire::RankBarrierData data;
    parallel::RankStats stats;
    /// Barrier wait since the last queue-stats request, latched into
    /// stats.barrier_wait_seconds at the next one.
    double wait_seconds = 0.0;
    std::uint64_t barriers_done = 0;
    double last_barrier_time = 0.0;
    /// Frame kind currently awaited from this peer (0 = none); named in
    /// the crash/stall diagnostic.
    std::uint32_t pending = 0;
    parallel::wire::FrameReader reader;
  };

  /// Writes one frame; a failed write goes through fail_peer with `phase`.
  void send_frame(Peer& peer, std::uint32_t kind,
                  std::span<const std::uint8_t> payload,
                  const std::string& phase);
  void send_all(std::uint32_t kind, std::span<const std::uint8_t> payload,
                const std::string& phase);
  /// Reads one frame of kind `expected` from each of the peers [first,
  /// last), polling them all under one MEC_TRANSPORT_TIMEOUT_MS deadline,
  /// and calls on_frame(peer, frame) as each completes.  A closed channel,
  /// an unreadable frame, a worker error frame, any other kind, or silence
  /// at the deadline (the lowest silent rank is named) goes through
  /// fail_peer.
  template <class OnFrame>
  void receive(std::size_t first, std::size_t last, std::uint32_t expected,
               const std::string& phase, OnFrame on_frame);
  /// Rejects a decoded barrier payload that does not match the rank's
  /// slice, the run's cluster count, or the request's flags.
  void check_barrier(Peer& peer, const parallel::BarrierRequest& request,
                     const std::string& phase);
  /// Returns decode(); a RuntimeError from it (a malformed payload) goes
  /// through fail_peer as "sent <what> (<reason>)".
  template <class Decode>
  auto decode_from(Peer& peer, const std::string& phase, const char* what,
                   Decode decode);
  /// Throws the diagnostic: "tcp transport worker rank N at host:port ..."
  /// or "process transport worker rank N (pid P, <how it ended>) ...",
  /// reaping a local rank's child first.  `phase` is where the run stood:
  /// "during start-up", "before the barrier at t=T", "before the next
  /// barrier" (a threshold broadcast) or "at run end".
  [[noreturn]] void fail_peer(Peer& peer, const std::string& phase,
                              const std::string& what);

  parallel::RunShape shape_;
  std::vector<Peer> peers_;
  parallel::BarrierRequest request_;  ///< the started barrier
  std::string phase_;                 ///< its place in fail_peer messages
  std::vector<parallel::ShardBarrierView> views_;
  std::vector<parallel::DeviceTotals> totals_;
  double total_q_ = 0.0;
  double total_q2_ = 0.0;
  long timeout_ms_ = 300000;
};

}  // namespace mec::net
