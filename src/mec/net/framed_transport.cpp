#include "mec/net/framed_transport.hpp"

#include <sys/types.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <string>
#include <utility>

#include "mec/common/error.hpp"
#include "mec/net/protocol.hpp"
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
    Peer& peer = peers_.emplace_back(Peer{std::move(links[r])});
    peer.shard_lo = config.shard_count * r / ranks;
    peer.shard_hi = config.shard_count * (r + 1) / ranks;
    peer.device_lo = parallel::shard_bound(config.n_devices,
                                           config.shard_count, peer.shard_lo);
    peer.device_hi = parallel::shard_bound(config.n_devices,
                                           config.shard_count, peer.shard_hi);
  }

  // Handshake + population, rank by rank; then one ready-barrier pass so
  // every rank builds its slice (concurrently) before the run starts.
  const double t_startup = -1.0;  // no barrier yet
  for (std::size_t r = 0; r < ranks; ++r) {
    Peer& peer = peers_[r];
    wire::Hello hello;
    hello.rank = static_cast<std::uint32_t>(r);
    hello.ranks = static_cast<std::uint32_t>(ranks);
    send_frame(peer, pwire::kFrameHello, wire::encode_hello(hello));
    const pwire::DecodedFrame frame =
        read_frame(peer, t_startup, pwire::kFrameHelloAck);
    const wire::HelloAck ack = wire::decode_hello_ack(frame.payload);
    if (ack.revision != wire::kSchemaRevision)
      fail_peer(peer, t_startup,
                "answered revision " + std::to_string(ack.revision) +
                    " (schema revision mismatch: this coordinator speaks "
                    "revision " +
                    std::to_string(wire::kSchemaRevision) +
                    "; rebuild one side so both run the same wire schema)");
    if (ack.rank != hello.rank)
      fail_peer(peer, t_startup,
                "acknowledged rank " + std::to_string(ack.rank) +
                    " instead of its assignment");
    send_frame(peer, pwire::kFramePopulation, populations[r]);
  }
  for (std::size_t r = 0; r < ranks; ++r) {
    Peer& peer = peers_[r];
    const pwire::DecodedFrame frame =
        read_frame(peer, t_startup, pwire::kFrameReady);
    obs::wire::ByteReader reader(frame.payload);
    const std::uint32_t echoed = reader.get_u32();
    if (echoed != r)
      fail_peer(peer, t_startup,
                "reported ready as rank " + std::to_string(echoed));
  }
  broadcast_thresholds(initial_thresholds);
}

void FramedTransport::send_frame(Peer& peer, std::uint32_t kind,
                                 std::span<const std::uint8_t> payload) {
  pwire::write_frame(peer.link.fd.get(), kind, payload);
  ++peer.stats.frames_sent;
}

void FramedTransport::fail_peer(Peer& peer, double barrier_time,
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
  msg += " " + what + " before the barrier at t=" +
         std::to_string(barrier_time) + "; last completed barrier #" +
         std::to_string(peer.barriers_done) + " (t=" +
         std::to_string(peer.last_barrier_time) + ")";
  if (peer.pending != 0)
    msg += "; pending frame: " + pwire::frame_kind_name(peer.pending);
  throw RuntimeError(msg);
}

pwire::DecodedFrame FramedTransport::read_frame(Peer& peer,
                                                double barrier_time,
                                                std::uint32_t expected) {
  peer.pending = expected;
  pwire::DecodedFrame frame;
  try {
    frame = pwire::read_frame_deadline(peer.link.fd.get(), timeout_ms_);
  } catch (const pwire::PeerError& e) {
    if (e.kind() == pwire::PeerError::Kind::kTimeout)
      fail_peer(peer, barrier_time,
                "stopped responding (no payload within " +
                    std::to_string(timeout_ms_) + " ms)");
    fail_peer(peer, barrier_time, "closed the connection");
  }
  ++peer.stats.frames_received;
  peer.stats.payload_bytes += frame.payload.size();
  if (frame.kind == pwire::kFrameError) {
    obs::wire::ByteReader r(frame.payload);
    const std::uint32_t n = r.get_u32();
    fail_peer(peer, barrier_time, "failed: " + r.get_string(n));
  }
  if (frame.kind != expected)
    fail_peer(peer, barrier_time,
              "sent " + pwire::frame_kind_name(frame.kind) + " instead of " +
                  pwire::frame_kind_name(expected));
  peer.pending = 0;
  return frame;
}

void FramedTransport::check_barrier(Peer& peer,
                                    const parallel::BarrierRequest& request) {
  const auto reject = [&](const std::string& field, const std::string& got,
                          const std::string& want) {
    fail_peer(peer, request.limit,
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
    for (std::size_t j = 0; j < s.log.size(); ++j) {
      const sim::OffloadRecord& rec = s.log[j];
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

std::span<const parallel::ShardBarrierView> FramedTransport::advance(
    const parallel::BarrierRequest& request) {
  const std::vector<std::uint8_t> payload =
      pwire::encode_barrier_request(request);
  for (Peer& peer : peers_)
    send_frame(peer, pwire::kFrameAdvance, payload);
  for (Peer& peer : peers_) {
    const auto t0 = std::chrono::steady_clock::now();
    const pwire::DecodedFrame frame =
        read_frame(peer, request.limit, pwire::kFrameBarrier);
    peer.stats.barrier_wait_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    try {
      peer.data = pwire::decode_barrier_payload(frame.payload);
    } catch (const RuntimeError& e) {
      fail_peer(peer, request.limit,
                std::string("sent a malformed barrier payload (") + e.what() +
                    ")");
    }
    check_barrier(peer, request);
    ++peer.barriers_done;
    peer.last_barrier_time = request.limit;
  }
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
  const std::vector<std::uint8_t> payload = pwire::encode_thresholds(values);
  for (Peer& peer : peers_)
    send_frame(peer, pwire::kFrameThresholds, payload);
}

void FramedTransport::finalize(bool flipped) {
  obs::wire::ByteWriter w(1);
  w.put_u8(flipped ? 1 : 0);
  const std::vector<std::uint8_t> payload = w.take();
  for (Peer& peer : peers_)
    send_frame(peer, pwire::kFrameFinalize, payload);
  totals_.assign(config_.n_devices, parallel::DeviceTotals{});
  const double t_mark = -1.0;  // finalize has no barrier time
  for (Peer& peer : peers_) {
    const pwire::DecodedFrame frame =
        read_frame(peer, t_mark, pwire::kFrameFinal);
    pwire::FinalTotals fin;
    try {
      fin = pwire::decode_device_totals(frame.payload);
    } catch (const RuntimeError& e) {
      fail_peer(peer, t_mark,
                std::string("sent malformed final totals (") + e.what() + ")");
    }
    // A rank ships exactly its own slice: anything else would overwrite a
    // sibling's totals and leave its own devices at zero.
    if (fin.device_lo != peer.device_lo || fin.device_hi != peer.device_hi)
      fail_peer(peer, t_mark,
                "sent final totals with devices = " +
                    range(fin.device_lo, fin.device_hi) + ", expected " +
                    range(peer.device_lo, peer.device_hi));
    for (std::uint32_t d = fin.device_lo; d < fin.device_hi; ++d)
      totals_[d] = fin.totals[d - fin.device_lo];
    // Run complete: a daemon goes back to accepting, a local rank exits.
    peer.link.fd.reset();
    peer.link.child.wait();
  }
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
