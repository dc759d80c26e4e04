#include "mec/net/protocol.hpp"

#include <cstddef>
#include <cstdio>
#include <string>

#include "mec/common/error.hpp"
#include "mec/obs/wire.hpp"

namespace mec::net::wire {

// The population layout mirrors these in-memory structs field by field;
// the asserts make a drifted struct a build error here instead of a silent
// protocol skew (same convention as the barrier codec in
// parallel/transport.cpp).
static_assert(sizeof(core::UserParams) == 48 &&
                  offsetof(core::UserParams, arrival_rate) == 0 &&
                  offsetof(core::UserParams, service_rate) == 8 &&
                  offsetof(core::UserParams, offload_latency) == 16 &&
                  offsetof(core::UserParams, energy_local) == 24 &&
                  offsetof(core::UserParams, energy_offload) == 32 &&
                  offsetof(core::UserParams, weight) == 40,
              "UserParams layout drifted; update the population codec and "
              "kUserParamsWireSize together");
static_assert(kUserParamsWireSize == 48);
static_assert(sizeof(std::array<std::uint64_t, 4>) == 32,
              "xoshiro256 state is four words");
static_assert(kRngStateWireSize == 32);
static_assert(offsetof(fault::ResolvedAction, time) == 0 &&
                  offsetof(fault::ResolvedAction, kind) == 8 &&
                  offsetof(fault::ResolvedAction, device) == 12 &&
                  offsetof(fault::ResolvedAction, value) == 16 &&
                  offsetof(fault::ResolvedAction, outage_mode) == 24 &&
                  offsetof(fault::ResolvedAction, cluster) == 26 &&
                  offsetof(fault::ResolvedAction, effective) == 28 &&
                  offsetof(fault::ResolvedAction, active_after) == 32,
              "ResolvedAction layout drifted; update the population codec "
              "and kResolvedActionWireSize together");
// 8 (time) + 1 (kind) + 4 (device) + 8 (value) + 1 (outage_mode) +
// 2 (cluster) + 1 (effective) + 4 (active_after): the wire form is packed,
// unlike the padded in-memory struct.
static_assert(kResolvedActionWireSize == 29);

namespace {

using obs::wire::decode_whole;
using obs::wire::encode_whole;

/// The "MECT" magic that opens both handshake payloads; a reader that finds
/// anything else names the payload (`what`) and the expected magic.
template <class Io>
void magic_field(Io& io, const char* what) {
  std::uint32_t magic = kHelloMagic;
  io(magic);
  if (magic != kHelloMagic) {
    char got[16];
    std::snprintf(got, sizeof got, "%08X", magic);
    throw RuntimeError(std::string(what) + " magic mismatch (got 0x" + got +
                       ", want 0x5443454D \"MECT\") - the peer is not a mec "
                       "transport endpoint");
  }
}

constexpr auto hello_fields = []<class Io, class H>(Io& io, H& hello) {
  magic_field(io, "tcp handshake");
  io(hello.revision, hello.rank, hello.ranks);
};

constexpr auto hello_ack_fields = []<class Io, class A>(Io& io, A& ack) {
  magic_field(io, "hello ack");
  io(ack.revision, ack.rank);
};

constexpr auto sampler_fields = []<class Io, class S>(Io& io, S& spec) {
  io(spec.kind, sim::SamplerSpec::Kind::kEmpirical, "sampler kind");
  io(spec.param);
  io.items(spec.data, 8, "population sampler data values");
};

constexpr auto user_fields = []<class Io, class U>(Io& io, U& u) {
  io(u.arrival_rate, u.service_rate, u.offload_latency, u.energy_local,
     u.energy_offload, u.weight);
};

constexpr auto rng_fields = []<class Io, class S>(Io& io, S& state) {
  io(state[0], state[1], state[2], state[3]);
};

constexpr auto action_fields = []<class Io, class A>(Io& io, A& a) {
  io(a.time);
  io(a.kind, fault::FaultKind::kUserDeparture, "fault kind");
  io(a.device, a.value);
  io(a.outage_mode, fault::OutageMode::kPenalty, "outage mode");
  io(a.cluster, a.effective, a.active_after);
};

constexpr auto population_fields = []<class Io, class P>(Io& io, P& pop) {
  io(pop.rank, pop.ranks, pop.seed, pop.n_devices, pop.n_initial,
     pop.n_clusters, pop.shard_count, pop.shard_lo, pop.shard_hi, pop.device_lo,
     pop.device_hi, pop.warmup, pop.t_end, pop.has_fixed_gamma, pop.fixed_delay,
     pop.with_faults);
  io(pop.rule, sim::OffloadRule::kDpo, "offload rule");
  sampler_fields(io, pop.service);
  sampler_fields(io, pop.latency);
  io.items(pop.users, kUserParamsWireSize, "population users", user_fields);
  io.items(pop.rng_states, kRngStateWireSize, "population rng states",
           rng_fields);
  io.items(pop.actions, kResolvedActionWireSize, "population fault actions",
           action_fields);
};

}  // namespace

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  return encode_whole(hello, hello_fields, kHelloWireSize);
}

Hello decode_hello(std::span<const std::uint8_t> payload) {
  return decode_whole<Hello>(payload, "tcp hello payload has trailing bytes",
                             hello_fields);
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& ack) {
  return encode_whole(ack, hello_ack_fields, kHelloAckWireSize);
}

HelloAck decode_hello_ack(std::span<const std::uint8_t> payload) {
  return decode_whole<HelloAck>(
      payload, "hello ack payload has trailing bytes", hello_ack_fields);
}

std::vector<std::uint8_t> encode_population(const WorkerPopulation& pop) {
  const std::size_t slice = pop.users.size();
  return encode_whole(
      pop, population_fields,
      113 + slice * (kUserParamsWireSize + kRngStateWireSize) +
          pop.actions.size() * kResolvedActionWireSize +
          (pop.service.data.size() + pop.latency.data.size()) * 8);
}

WorkerPopulation decode_population(std::span<const std::uint8_t> payload) {
  WorkerPopulation pop = decode_whole<WorkerPopulation>(
      payload, "population payload has trailing bytes", population_fields);

  if (pop.ranks == 0 || pop.rank >= pop.ranks)
    throw RuntimeError("population frame assigns rank " +
                       std::to_string(pop.rank) + " of " +
                       std::to_string(pop.ranks));
  if (pop.n_devices == 0 || pop.n_initial > pop.n_devices ||
      pop.n_clusters == 0)
    throw RuntimeError("population frame has an empty or inconsistent "
                       "population");
  if (pop.shard_count == 0 || pop.shard_lo >= pop.shard_hi ||
      pop.shard_hi > pop.shard_count)
    throw RuntimeError("population frame has an invalid shard slice [" +
                       std::to_string(pop.shard_lo) + ", " +
                       std::to_string(pop.shard_hi) + ") of " +
                       std::to_string(pop.shard_count));
  if (pop.device_lo >= pop.device_hi || pop.device_hi > pop.n_devices)
    throw RuntimeError("population frame has an invalid device slice");
  const std::size_t slice = pop.device_hi - pop.device_lo;
  if (pop.users.size() != slice || pop.rng_states.size() != slice)
    throw RuntimeError("population frame slice arrays do not match the "
                       "device range (" +
                       std::to_string(pop.users.size()) + " users, " +
                       std::to_string(pop.rng_states.size()) + " rng states, "
                       "expected " +
                       std::to_string(slice) + ")");
  if (!pop.with_faults && !pop.actions.empty())
    throw RuntimeError("population frame carries fault actions but "
                       "with_faults is off");
  return pop;
}

}  // namespace mec::net::wire
