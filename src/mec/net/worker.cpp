#include "mec/net/worker.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/net/protocol.hpp"
#include "mec/obs/wire.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/engine.hpp"

namespace mec::net {

namespace pwire = parallel::wire;

namespace {

long env_long(const char* name, long fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0') return fallback;
  return parsed;
}

/// The rank's barrier loop: serves advance / thresholds / finalize frames
/// until the final totals ship.  Reads wait without a deadline — the
/// coordinator may spend arbitrarily long between barriers, and a closed
/// channel ends the loop with an error.  Honors the MEC_TEST_WORKER_CRASH_*
/// / MEC_TEST_WORKER_STALL_* hooks used by the robustness tests.
void serve_barriers(parallel::RankWorker& worker, std::size_t rank, int fd) {
  // Robustness-test hooks: crash (hard _exit) or stall (stop heartbeating)
  // at the given barrier number, on the given rank only.
  const long crash_rank = env_long("MEC_TEST_WORKER_CRASH_RANK", -1);
  const long crash_barrier = env_long("MEC_TEST_WORKER_CRASH_BARRIER", 1);
  const long stall_rank = env_long("MEC_TEST_WORKER_STALL_RANK", -1);
  const long stall_barrier = env_long("MEC_TEST_WORKER_STALL_BARRIER", 1);
  long barriers = 0;

  for (;;) {
    pwire::DecodedFrame frame;
    try {
      frame = pwire::read_frame_deadline(fd, /*timeout_ms=*/-1);
    } catch (const pwire::PeerError&) {
      throw RuntimeError("transport coordinator closed the channel");
    }
    switch (frame.kind) {
      case pwire::kFrameAdvance: {
        const parallel::BarrierRequest req =
            pwire::decode_barrier_request(frame.payload);
        worker.advance(req);
        ++barriers;
        if (static_cast<long>(rank) == crash_rank && barriers == crash_barrier)
          ::_exit(17);
        if (static_cast<long>(rank) == stall_rank && barriers == stall_barrier)
          for (;;) ::pause();
        pwire::write_frame(
            fd, pwire::kFrameBarrier,
            pwire::encode_barrier_payload(worker.views(), req.want_q,
                                          worker.total_q(), worker.total_q2()));
        break;
      }
      case pwire::kFrameThresholds:
        worker.set_thresholds(pwire::decode_thresholds(frame.payload));
        break;
      case pwire::kFrameFinalize: {
        obs::wire::ByteReader r(frame.payload);
        worker.finalize(r.get_u8() != 0);
        const std::uint32_t lo = worker.device_lo();
        const std::uint32_t hi = worker.device_hi();
        std::vector<parallel::DeviceTotals> totals;
        totals.reserve(hi - lo);
        for (std::uint32_t d = lo; d < hi; ++d)
          totals.push_back(worker.device_totals(d));
        pwire::write_frame(fd, pwire::kFrameFinal,
                           pwire::encode_device_totals(lo, hi, totals));
        return;
      }
      default:
        throw RuntimeError("transport worker received an unknown frame kind " +
                           std::to_string(frame.kind));
    }
  }
}

/// A global-indexed array of `n` elements of which only the rank's slice
/// [lo, hi) is constructed and ever touched.  The storage is one untouched
/// allocation, so the pages behind the other ranks' slices are never
/// faulted in and a rank's resident set follows its slice, not the
/// population.
template <class T>
class RankSlice {
 public:
  RankSlice(std::size_t n, std::size_t lo, std::size_t hi)
      : base_(static_cast<T*>(::operator new(n * sizeof(T), kAlign))),
        lo_(lo),
        hi_(hi) {
    std::uninitialized_value_construct(base_ + lo_, base_ + hi_);
  }
  ~RankSlice() {
    std::destroy(base_ + lo_, base_ + hi_);
    ::operator delete(base_, kAlign);
  }
  RankSlice(const RankSlice&) = delete;
  RankSlice& operator=(const RankSlice&) = delete;

  T* data() const { return base_; }

 private:
  static constexpr std::align_val_t kAlign{alignof(T)};
  T* base_;
  std::size_t lo_, hi_;
};

// Rebuilds the rank's slice and serves the barrier loop until finalize.
//
// Device, RNG and user arrays are indexed by *global* device id —
// LegRunner tags barrier views with global shard ids and LegContext
// pointers are indexed by global device id, so a compacted layout would
// corrupt the merge order — but only the owned slice exists (RankSlice).
// The shipped RNG words are the coordinator's pre-init snapshots
// (ws.rng_init); re-running init_shard here reproduces the coordinator's
// initial-arrival draws bit for bit, which is what keeps the streamed
// .meclog bytes identical to inproc for any worker placement.
template <bool WithFaults>
void serve_rank(int fd, wire::WorkerPopulation pop) {
  const std::uint32_t lo = pop.device_lo;
  RankSlice<core::UserParams> users(pop.n_devices, lo, pop.device_hi);
  RankSlice<sim::DeviceState> devices(pop.n_devices, lo, pop.device_hi);
  RankSlice<random::Xoshiro256> rngs(pop.n_devices, lo, pop.device_hi);
  {
    // The shipped copies go once the slice arrays hold them.
    const auto shipped_users = std::move(pop.users);
    const auto shipped_rngs = std::move(pop.rng_states);
    std::copy(shipped_users.begin(), shipped_users.end(), users.data() + lo);
    for (std::size_t i = 0; i < shipped_rngs.size(); ++i)
      rngs.data()[lo + i] = random::Xoshiro256::from_state(shipped_rngs[i]);
  }

  sim::SimWorkspace::Impl ws;  // the rank uses only its shard contexts
  ws.shards.resize(pop.shard_count);
  for (std::uint32_t s = pop.shard_lo; s < pop.shard_hi; ++s) {
    parallel::ShardContext& sc = ws.shards[s];
    sc.reset(parallel::shard_bound(pop.n_devices, pop.shard_count, s),
             parallel::shard_bound(pop.n_devices, pop.shard_count, s + 1),
             /*measuring_from_start=*/pop.warmup == 0.0);
    sc.cluster_offloads.assign(pop.n_clusters, 0);
    sim::engine::init_shard<WithFaults>(sc, users.data(), pop.n_initial,
                                        rngs.data(), pop.actions);
  }

  const sim::ServiceSampler service = sim::make_service_sampler(pop.service);
  const sim::LatencySampler latency = sim::make_latency_sampler(pop.latency);
  std::vector<double> mirror(pop.n_devices, 0.0);
  const sim::engine::LegContext<sim::TroValueDecide> lc{
      users.data(),  devices.data(),      rngs.data(),     nullptr,
      &service,      &latency,            pop.warmup,      pop.t_end,
      pop.n_devices, pop.n_clusters,      pop.has_fixed_gamma,
      pop.fixed_delay};
  sim::engine::LegRunner<WithFaults, sim::TroValueDecide> runner(
      ws, sim::TroValueDecide{mirror.data()}, lc, pop.shard_lo, pop.shard_hi,
      nullptr, &mirror);

  obs::wire::ByteWriter w(4);
  w.put_u32(pop.rank);
  pwire::write_frame(fd, pwire::kFrameReady, w.take());
  serve_barriers(runner, pop.rank, fd);
}

/// One run of the daemon protocol over a connected fd: handshake,
/// population, rebuild, ready, barrier loop.
void serve_connection(int fd, bool quiet) {
  const long timeout_ms = parallel::resolve_transport_timeout_ms();
  pwire::DecodedFrame frame = pwire::read_frame_deadline(fd, timeout_ms);
  if (frame.kind != pwire::kFrameHello)
    throw RuntimeError("mec worker expected a hello frame, got " +
                       pwire::frame_kind_name(frame.kind));
  const wire::Hello hello = wire::decode_hello(frame.payload);
  if (hello.revision != wire::kSchemaRevision)
    throw RuntimeError(
        "transport schema revision mismatch: this worker speaks revision " +
        std::to_string(wire::kSchemaRevision) + ", coordinator sent revision " +
        std::to_string(hello.revision) +
        " (rebuild one side so both run the same wire schema)");
  if (hello.ranks == 0 || hello.rank >= hello.ranks)
    throw RuntimeError("hello assigns rank " + std::to_string(hello.rank) +
                       " of " + std::to_string(hello.ranks));
  wire::HelloAck ack;
  ack.rank = hello.rank;
  pwire::write_frame(fd, pwire::kFrameHelloAck, wire::encode_hello_ack(ack));

  frame = pwire::read_frame_deadline(fd, timeout_ms);
  if (frame.kind != pwire::kFramePopulation)
    throw RuntimeError("mec worker expected a population frame, got " +
                       pwire::frame_kind_name(frame.kind));
  wire::WorkerPopulation pop = wire::decode_population(frame.payload);
  frame = {};  // the decoded slice is all the rank keeps
  if (pop.rank != hello.rank)
    throw RuntimeError("population frame is for rank " +
                       std::to_string(pop.rank) +
                       " but the hello assigned rank " +
                       std::to_string(hello.rank));
  if (!quiet)
    std::fprintf(stderr,
                 "mec worker: serving rank %u/%u (devices [%u, %u), shards "
                 "[%u, %u) of %u, %s)\n",
                 pop.rank, pop.ranks, pop.device_lo, pop.device_hi,
                 pop.shard_lo, pop.shard_hi, pop.shard_count,
                 pop.with_faults ? "faults on" : "faults off");
  if (pop.with_faults)
    serve_rank<true>(fd, std::move(pop));
  else
    serve_rank<false>(fd, std::move(pop));
}

/// Best-effort error frame, so the coordinator fails with a named cause
/// instead of a bare connection close.
void send_error(int fd, const char* what) noexcept {
  try {
    obs::wire::ByteWriter w;
    const std::size_t n = std::strlen(what);
    w.put_u32(static_cast<std::uint32_t>(n));
    w.put_bytes(what, n);
    pwire::write_frame(fd, pwire::kFrameError, w.take());
  } catch (...) {
  }
}

}  // namespace

WorkerDaemon::WorkerDaemon(const Options& options)
    : options_(options), listen_fd_(listen_on(options.listen)) {
  if (!options_.quiet)
    std::fprintf(stderr,
                 "mec worker: listening on %s:%u (wire schema revision %u)\n",
                 options_.listen.host.c_str(),
                 static_cast<unsigned>(port()),
                 static_cast<unsigned>(wire::kSchemaRevision));
}

std::uint16_t WorkerDaemon::port() const {
  return bound_port(listen_fd_.get());
}

void WorkerDaemon::shutdown() {
  stopping_.store(true);
  // Shutting down a listening socket makes a blocked accept() return with
  // an error, which serve() translates into a clean exit.
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
}

int WorkerDaemon::serve() {
  std::size_t completed = 0;
  for (;;) {
    ScopedFd conn;
    try {
      conn = accept_connection(listen_fd_.get());
    } catch (const std::exception&) {
      if (stopping_.load()) return 0;
      throw;
    }
    if (stopping_.load()) return 0;
    try {
      serve_connection(conn.get(), options_.quiet);
      ++completed;
      if (!options_.quiet)
        std::fprintf(stderr, "mec worker: run %zu complete\n", completed);
    } catch (const std::exception& e) {
      // The daemon itself survives to serve the next connection.
      std::fprintf(stderr, "mec worker: connection failed: %s\n", e.what());
      send_error(conn.get(), e.what());
    }
    if (options_.max_runs != 0 && completed >= options_.max_runs) return 0;
  }
}

std::vector<RankLink> spawn_local_workers(std::size_t ranks) {
  std::vector<RankLink> links;
  links.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw RuntimeError(std::string("transport socketpair failed: ") +
                         std::strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw RuntimeError(std::string("transport fork failed: ") +
                         std::strerror(errno));
    }
    if (pid == 0) {
      // Child: keep only this rank's channel, serve one run, and leave
      // through _exit so no parent-owned destructor, atexit handler or
      // stream buffer runs twice (the inherited links must not reap the
      // siblings).
      ::close(fds[0]);
      for (const RankLink& link : links) ::close(link.fd.get());
      int status = 0;
      try {
        serve_connection(fds[1], /*quiet=*/true);
      } catch (const std::exception& e) {
        send_error(fds[1], e.what());
        status = 1;
      } catch (...) {
        status = 1;
      }
      ::_exit(status);
    }
    ::close(fds[1]);
    links.push_back(RankLink{ScopedFd(fds[0]), "pid " + std::to_string(pid),
                             ChildProcess(pid)});
  }
  return links;
}

}  // namespace mec::net
