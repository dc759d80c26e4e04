#include "mec/net/framed_transport.hpp"

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/net/protocol.hpp"
#include "mec/obs/stream.hpp"
#include "mec/obs/wire.hpp"
#include "mec/parallel/shard_executor.hpp"

namespace mec::net {

namespace pwire = parallel::wire;

namespace {

/// WNOHANG -> SIGKILL -> waitpid.  Returns the wait status, or -1 when the
/// child could not be reaped.
int reap(pid_t pid) noexcept {
  int status = 0;
  pid_t done = ::waitpid(pid, &status, WNOHANG);
  if (done == 0) {
    // Still alive (a stalled rank, or a healthy sibling of a failed one):
    // put it down so the run fails cleanly instead of leaking a child.
    ::kill(pid, SIGKILL);
    do {
      done = ::waitpid(pid, &status, 0);
    } while (done < 0 && errno == EINTR);
  }
  return done == pid ? status : -1;
}

std::string range(std::uint32_t lo, std::uint32_t hi) {
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
}

}  // namespace

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)) {}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) reap(static_cast<pid_t>(pid_));
}

std::string ChildProcess::kill_and_reap() {
  if (pid_ <= 0) return "reaped";
  const int status = reap(static_cast<pid_t>(std::exchange(pid_, -1)));
  if (status >= 0 && WIFEXITED(status))
    return "exit status " + std::to_string(WEXITSTATUS(status));
  if (status >= 0 && WIFSIGNALED(status) && WTERMSIG(status) != SIGKILL)
    return "killed by signal " + std::to_string(WTERMSIG(status));
  return "unresponsive, killed";
}

void ChildProcess::wait() noexcept {
  if (pid_ <= 0) return;
  int status = 0;
  const auto pid = static_cast<pid_t>(std::exchange(pid_, -1));
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

std::vector<RankLink> connect_workers(std::span<const Address> workers) {
  const long timeout_ms = parallel::resolve_transport_timeout_ms();
  std::vector<RankLink> links;
  links.reserve(workers.size());
  for (const Address& address : workers)
    links.push_back(RankLink{connect_with_backoff(address, timeout_ms),
                             address.str(), ChildProcess()});
  return links;
}

template <class Decode>
auto FramedTransport::decode_from(Peer& peer, const std::string& phase,
                                  const char* what, Decode decode) {
  try {
    return decode();
  } catch (const RuntimeError& e) {
    fail_peer(peer, phase,
              std::string("sent ") + what + " (" + e.what() + ")");
  }
}

template <class OnFrame>
void FramedTransport::receive(std::size_t first, std::size_t last,
                              std::uint32_t expected, const std::string& phase,
                              OnFrame on_frame) {
  for (std::size_t r = first; r < last; ++r) peers_[r].pending = expected;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms_);
  std::vector<struct pollfd> fds;
  std::vector<Peer*> polled;
  for (std::size_t left = last - first; left > 0;) {
    fds.clear();
    polled.clear();
    for (std::size_t r = first; r < last; ++r) {
      if (peers_[r].pending == 0) continue;
      fds.push_back({peers_[r].link.fd.get(), POLLIN, 0});
      polled.push_back(&peers_[r]);
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
      fail_peer(*polled.front(), phase,
                "stopped responding (no payload within " +
                    std::to_string(timeout_ms_) + " ms)");
    const auto wait_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1;
    const int ready = ::poll(fds.data(), fds.size(), static_cast<int>(wait_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw RuntimeError(std::string("transport poll failed: ") +
                         std::strerror(errno));
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Peer& peer = *polled[i];
      bool complete = false;
      try {
        complete = peer.reader.read_some(fds[i].fd);
      } catch (const pwire::PeerError&) {
        fail_peer(peer, phase, "closed the connection");
      } catch (const RuntimeError& e) {
        fail_peer(peer, phase,
                  std::string("could not be read from (") + e.what() + ")");
      }
      if (!complete) continue;
      const pwire::DecodedFrame frame = peer.reader.take();
      ++peer.stats.frames_received;
      peer.stats.payload_bytes += frame.payload.size();
      if (frame.kind == pwire::kFrameError) {
        const std::string message =
            decode_from(peer, phase, "a malformed error frame", [&] {
              obs::wire::ByteReader r(frame.payload);
              const std::uint32_t n = r.get_u32();
              return r.get_string(n);
            });
        fail_peer(peer, phase, "failed: " + message);
      }
      if (frame.kind != expected)
        fail_peer(peer, phase,
                  "sent " + pwire::frame_kind_name(frame.kind) +
                      " instead of " + pwire::frame_kind_name(expected));
      peer.pending = 0;
      --left;
      on_frame(peer, frame);
    }
  }
}

FramedTransport::FramedTransport(
    const Config& config, std::vector<RankLink> links,
    std::span<const std::vector<std::uint8_t>> populations,
    std::span<const double> initial_thresholds)
    : config_(config) {
  const std::size_t ranks = links.size();
  MEC_EXPECTS_MSG(ranks >= 1 && ranks <= config.shard_count,
                  "a framed transport needs 1..shard_count ranks");
  MEC_EXPECTS(populations.size() == ranks);
  timeout_ms_ = parallel::resolve_transport_timeout_ms();
  peers_.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    Peer& peer = peers_.emplace_back(std::move(links[r]));
    peer.shard_lo = config.shard_count * r / ranks;
    peer.shard_hi = config.shard_count * (r + 1) / ranks;
    peer.device_lo = parallel::shard_bound(config.n_devices,
                                           config.shard_count, peer.shard_lo);
    peer.device_hi = parallel::shard_bound(config.n_devices,
                                           config.shard_count, peer.shard_hi);
  }

  // Handshake + population, rank by rank; then one ready-barrier pass so
  // every rank builds its slice (concurrently) before the run starts.
  const std::string startup = "during start-up";
  for (std::size_t r = 0; r < ranks; ++r) {
    Peer& peer = peers_[r];
    wire::Hello hello;
    hello.rank = static_cast<std::uint32_t>(r);
    hello.ranks = static_cast<std::uint32_t>(ranks);
    send_frame(peer, pwire::kFrameHello, wire::encode_hello(hello), startup);
    receive(r, r + 1, pwire::kFrameHelloAck, startup,
            [&](Peer&, const pwire::DecodedFrame& frame) {
              const wire::HelloAck ack =
                  decode_from(peer, startup, "a malformed hello ack", [&] {
                    return wire::decode_hello_ack(frame.payload);
                  });
              if (ack.revision != wire::kSchemaRevision)
                fail_peer(peer, startup,
                          "answered revision " + std::to_string(ack.revision) +
                              " (schema revision mismatch: this coordinator "
                              "speaks revision " +
                              std::to_string(wire::kSchemaRevision) +
                              "; rebuild one side so both run the same wire "
                              "schema)");
              if (ack.rank != hello.rank)
                fail_peer(peer, startup,
                          "acknowledged rank " + std::to_string(ack.rank) +
                              " instead of its assignment");
            });
    send_frame(peer, pwire::kFramePopulation, populations[r], startup);
  }
  receive(0, ranks, pwire::kFrameReady, startup,
          [&](Peer& peer, const pwire::DecodedFrame& frame) {
            const std::uint32_t echoed =
                decode_from(peer, startup, "a malformed ready frame", [&] {
                  return obs::wire::ByteReader(frame.payload).get_u32();
                });
            if (echoed != static_cast<std::size_t>(&peer - peers_.data()))
              fail_peer(peer, startup,
                        "reported ready as rank " + std::to_string(echoed));
          });
  send_all(pwire::kFrameThresholds,
           pwire::encode_thresholds(initial_thresholds), startup);
}

void FramedTransport::send_frame(Peer& peer, std::uint32_t kind,
                                 std::span<const std::uint8_t> payload,
                                 const std::string& phase) {
  try {
    pwire::write_frame(peer.link.fd.get(), kind, payload);
  } catch (const RuntimeError& e) {
    fail_peer(peer, phase,
              "could not be sent the " + pwire::frame_kind_name(kind) +
                  " frame (" + e.what() + ")");
  }
  ++peer.stats.frames_sent;
}

void FramedTransport::send_all(std::uint32_t kind,
                               std::span<const std::uint8_t> payload,
                               const std::string& phase) {
  for (Peer& peer : peers_) send_frame(peer, kind, payload, phase);
}

void FramedTransport::fail_peer(Peer& peer, const std::string& phase,
                                const std::string& what) {
  const std::string rank =
      "rank " + std::to_string(static_cast<std::size_t>(&peer - peers_.data()));
  // A local rank is reaped here so the message can say how it ended; its
  // siblings are killed and reaped when the transport unwinds.
  std::string msg =
      peer.link.child.owns()
          ? "process transport worker " + rank + " (" + peer.link.label +
                ", " + peer.link.child.kill_and_reap() + ")"
          : "tcp transport worker " + rank + " at " + peer.link.label;
  msg += " " + what + " " + phase + "; last completed barrier #" +
         std::to_string(peer.barriers_done) + " (t=" +
         obs::meta_double(peer.last_barrier_time) + ")";
  if (peer.pending != 0)
    msg += "; pending frame: " + pwire::frame_kind_name(peer.pending);
  throw RuntimeError(msg);
}

void FramedTransport::check_barrier(Peer& peer,
                                    const parallel::BarrierRequest& request,
                                    const std::string& phase) {
  const auto reject = [&](const std::string& field, const std::string& got,
                          const std::string& want) {
    fail_peer(peer, phase,
              "sent a barrier payload with " + field + " = " + got +
                  ", expected " + want);
  };
  const auto presence = [](bool present) {
    return std::string(present ? "present" : "absent");
  };
  const pwire::RankBarrierData& data = peer.data;
  const std::size_t owned = peer.shard_hi - peer.shard_lo;
  if (data.shards.size() != owned)
    reject("shard count", std::to_string(data.shards.size()),
           std::to_string(owned));
  if (data.has_q != request.want_q)
    reject("queue sums", presence(data.has_q), presence(request.want_q));
  for (std::size_t i = 0; i < owned; ++i) {
    const pwire::RankBarrierData::Shard& s = data.shards[i];
    const auto field = [i](const std::string& name) {
      return "shards[" + std::to_string(i) + "]." + name;
    };
    if (s.shard != peer.shard_lo + i)
      reject(field("shard"), std::to_string(s.shard),
             std::to_string(peer.shard_lo + i));
    if (s.cluster_offloads.size() != config_.n_clusters)
      reject(field("cluster_offloads.size()"),
             std::to_string(s.cluster_offloads.size()),
             std::to_string(config_.n_clusters));
    if (s.has_sketches != request.want_sketches)
      reject(field("sketches"), presence(s.has_sketches),
             presence(request.want_sketches));
    if (s.has_queue_stats != request.want_queue_stats)
      reject(field("queue stats"), presence(s.has_queue_stats),
             presence(request.want_queue_stats));
    // The replay merges each log in time order within the leg
    // [last barrier, limit), closed on the final leg; NaN fails both
    // compares.
    double earliest = peer.last_barrier_time;
    for (std::size_t j = 0; j < s.log.size(); ++j) {
      const sim::OffloadRecord& rec = s.log[j];
      if (!(rec.time >= earliest &&
            (rec.time < request.limit ||
             (request.inclusive && rec.time == request.limit))))
        reject(field("log[" + std::to_string(j) + "].time"),
               obs::meta_double(rec.time),
               "a time in [" + obs::meta_double(earliest) + ", " +
                   obs::meta_double(request.limit) +
                   (request.inclusive ? "]" : ")"));
      earliest = rec.time;
      if (rec.device < peer.device_lo || rec.device >= peer.device_hi)
        reject(field("log[" + std::to_string(j) + "].device"),
               std::to_string(rec.device),
               "a device in " + range(peer.device_lo, peer.device_hi));
      if (rec.cluster >= config_.n_clusters)
        reject(field("log[" + std::to_string(j) + "].cluster"),
               std::to_string(rec.cluster),
               "a cluster below " + std::to_string(config_.n_clusters));
    }
  }
}

void FramedTransport::start(const parallel::BarrierRequest& request) {
  request_ = request;
  phase_ = "before the barrier at t=" + obs::meta_double(request.limit);
  send_all(pwire::kFrameAdvance, pwire::encode_barrier_request(request),
           phase_);
}

std::span<const parallel::ShardBarrierView> FramedTransport::collect() {
  const auto t0 = std::chrono::steady_clock::now();
  receive(0, peers_.size(), pwire::kFrameBarrier, phase_,
          [&](Peer& peer, const pwire::DecodedFrame& frame) {
            peer.stats.barrier_wait_seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            peer.data =
                decode_from(peer, phase_, "a malformed barrier payload", [&] {
                  return pwire::decode_barrier_payload(frame.payload);
                });
            check_barrier(peer, request_, phase_);
            ++peer.barriers_done;
            peer.last_barrier_time = request_.limit;
          });
  views_.clear();
  total_q_ = 0.0;
  total_q2_ = 0.0;
  for (Peer& peer : peers_) {
    for (const parallel::ShardBarrierView& v : peer.data.views())
      views_.push_back(v);
    if (peer.data.has_q) {
      total_q_ += peer.data.total_q;
      total_q2_ += peer.data.total_q2;
    }
  }
  return views_;
}

void FramedTransport::broadcast_thresholds(std::span<const double> values) {
  send_all(pwire::kFrameThresholds, pwire::encode_thresholds(values),
           "before the next barrier");
}

void FramedTransport::finalize(bool flipped) {
  obs::wire::ByteWriter w(1);
  w.put_u8(flipped ? 1 : 0);
  const std::string phase = "at run end";
  send_all(pwire::kFrameFinalize, w.take(), phase);
  totals_.assign(config_.n_devices, parallel::DeviceTotals{});
  receive(0, peers_.size(), pwire::kFrameFinal, phase,
          [&](Peer& peer, const pwire::DecodedFrame& frame) {
            const pwire::FinalTotals fin =
                decode_from(peer, phase, "malformed final totals", [&] {
                  return pwire::decode_device_totals(frame.payload);
                });
            // A rank ships exactly its own slice: anything else would
            // overwrite a sibling's totals and leave its own devices at
            // zero.
            if (fin.device_lo != peer.device_lo ||
                fin.device_hi != peer.device_hi)
              fail_peer(peer, phase,
                        "sent final totals with devices = " +
                            range(fin.device_lo, fin.device_hi) +
                            ", expected " +
                            range(peer.device_lo, peer.device_hi));
            for (std::uint32_t d = fin.device_lo; d < fin.device_hi; ++d)
              totals_[d] = fin.totals[d - fin.device_lo];
            // Run complete: a daemon goes back to accepting, a local rank
            // exits.
            peer.link.fd.reset();
            peer.link.child.wait();
          });
}

parallel::DeviceTotals FramedTransport::device_totals(
    std::uint32_t device) const {
  MEC_EXPECTS(device < totals_.size());
  return totals_[device];
}

parallel::RankStats FramedTransport::rank_stats(std::size_t rank) const {
  MEC_EXPECTS(rank < peers_.size());
  return peers_[rank].stats;
}

}  // namespace mec::net
