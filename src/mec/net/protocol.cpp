#include "mec/net/protocol.hpp"

#include <cstddef>
#include <cstdio>
#include <string>

#include "mec/common/error.hpp"
#include "mec/obs/wire.hpp"

namespace mec::net::wire {

using obs::wire::ByteReader;
using obs::wire::ByteWriter;

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

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  ByteWriter w(kHelloWireSize);
  w.put_u32(kHelloMagic);
  w.put_u32(hello.revision);
  w.put_u32(hello.rank);
  w.put_u32(hello.ranks);
  return w.take();
}

Hello decode_hello(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint32_t magic = r.get_u32();
  if (magic != kHelloMagic) {
    char got[16];
    std::snprintf(got, sizeof got, "%08X", magic);
    throw RuntimeError("tcp handshake magic mismatch (got 0x" +
                       std::string(got) +
                       ", want 0x5443454D \"MECT\") - the peer is not a mec "
                       "transport endpoint");
  }
  Hello hello;
  hello.revision = r.get_u32();
  hello.rank = r.get_u32();
  hello.ranks = r.get_u32();
  if (!r.exhausted())
    throw RuntimeError("tcp hello payload has trailing bytes");
  return hello;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& ack) {
  ByteWriter w(kHelloAckWireSize);
  w.put_u32(kHelloMagic);
  w.put_u32(ack.revision);
  w.put_u32(ack.rank);
  return w.take();
}

HelloAck decode_hello_ack(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  if (r.get_u32() != kHelloMagic)
    throw RuntimeError("tcp hello ack magic mismatch — the peer is not a "
                       "mec transport endpoint");
  HelloAck ack;
  ack.revision = r.get_u32();
  ack.rank = r.get_u32();
  if (!r.exhausted())
    throw RuntimeError("tcp hello ack payload has trailing bytes");
  return ack;
}

namespace {

void encode_sampler_spec(ByteWriter& w, const sim::SamplerSpec& spec) {
  w.put_u8(static_cast<std::uint8_t>(spec.kind));
  w.put_f64(spec.param);
  w.put_u32(static_cast<std::uint32_t>(spec.data.size()));
  for (const double v : spec.data) w.put_f64(v);
}

sim::SamplerSpec decode_sampler_spec(ByteReader& r) {
  sim::SamplerSpec spec;
  const std::uint8_t kind = r.get_u8();
  if (kind > static_cast<std::uint8_t>(sim::SamplerSpec::Kind::kEmpirical))
    throw RuntimeError("population frame has an unknown sampler kind " +
                       std::to_string(kind));
  spec.kind = static_cast<sim::SamplerSpec::Kind>(kind);
  spec.param = r.get_f64();
  const std::uint32_t n = r.get_u32();
  r.need_items(n, 8, "population sampler data values");
  spec.data.resize(n);
  for (double& v : spec.data) v = r.get_f64();
  return spec;
}

}  // namespace

std::vector<std::uint8_t> encode_population(const WorkerPopulation& pop) {
  const std::size_t slice = pop.users.size();
  ByteWriter w(112 + slice * (kUserParamsWireSize + kRngStateWireSize) +
               pop.actions.size() * kResolvedActionWireSize +
               (pop.service.data.size() + pop.latency.data.size()) * 8);
  w.put_u32(pop.rank);
  w.put_u32(pop.ranks);
  w.put_u64(pop.seed);
  w.put_u32(pop.n_devices);
  w.put_u32(pop.n_initial);
  w.put_u32(pop.n_clusters);
  w.put_u32(pop.shard_count);
  w.put_u32(pop.shard_lo);
  w.put_u32(pop.shard_hi);
  w.put_u32(pop.device_lo);
  w.put_u32(pop.device_hi);
  w.put_f64(pop.warmup);
  w.put_f64(pop.t_end);
  w.put_u8(pop.has_fixed_gamma ? 1 : 0);
  w.put_f64(pop.fixed_delay);
  w.put_u8(pop.with_faults ? 1 : 0);
  encode_sampler_spec(w, pop.service);
  encode_sampler_spec(w, pop.latency);
  w.put_u32(static_cast<std::uint32_t>(pop.users.size()));
  for (const core::UserParams& u : pop.users) {
    w.put_f64(u.arrival_rate);
    w.put_f64(u.service_rate);
    w.put_f64(u.offload_latency);
    w.put_f64(u.energy_local);
    w.put_f64(u.energy_offload);
    w.put_f64(u.weight);
  }
  w.put_u32(static_cast<std::uint32_t>(pop.rng_states.size()));
  for (const std::array<std::uint64_t, 4>& s : pop.rng_states)
    for (const std::uint64_t word : s) w.put_u64(word);
  w.put_u32(static_cast<std::uint32_t>(pop.actions.size()));
  for (const fault::ResolvedAction& a : pop.actions) {
    w.put_f64(a.time);
    w.put_u8(static_cast<std::uint8_t>(a.kind));
    w.put_u32(a.device);
    w.put_f64(a.value);
    w.put_u8(static_cast<std::uint8_t>(a.outage_mode));
    w.put_u16(a.cluster);
    w.put_u8(a.effective ? 1 : 0);
    w.put_u32(a.active_after);
  }
  return w.take();
}

WorkerPopulation decode_population(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  WorkerPopulation pop;
  pop.rank = r.get_u32();
  pop.ranks = r.get_u32();
  pop.seed = r.get_u64();
  pop.n_devices = r.get_u32();
  pop.n_initial = r.get_u32();
  pop.n_clusters = r.get_u32();
  pop.shard_count = r.get_u32();
  pop.shard_lo = r.get_u32();
  pop.shard_hi = r.get_u32();
  pop.device_lo = r.get_u32();
  pop.device_hi = r.get_u32();
  pop.warmup = r.get_f64();
  pop.t_end = r.get_f64();
  pop.has_fixed_gamma = r.get_u8() != 0;
  pop.fixed_delay = r.get_f64();
  pop.with_faults = r.get_u8() != 0;
  pop.service = decode_sampler_spec(r);
  pop.latency = decode_sampler_spec(r);
  const std::uint32_t n_users = r.get_u32();
  r.need_items(n_users, kUserParamsWireSize, "population users");
  pop.users.resize(n_users);
  for (core::UserParams& u : pop.users) {
    u.arrival_rate = r.get_f64();
    u.service_rate = r.get_f64();
    u.offload_latency = r.get_f64();
    u.energy_local = r.get_f64();
    u.energy_offload = r.get_f64();
    u.weight = r.get_f64();
  }
  const std::uint32_t n_rngs = r.get_u32();
  r.need_items(n_rngs, kRngStateWireSize, "population rng states");
  pop.rng_states.resize(n_rngs);
  for (std::array<std::uint64_t, 4>& s : pop.rng_states)
    for (std::uint64_t& word : s) word = r.get_u64();
  const std::uint32_t n_actions = r.get_u32();
  r.need_items(n_actions, kResolvedActionWireSize,
               "population fault actions");
  pop.actions.resize(n_actions);
  for (fault::ResolvedAction& a : pop.actions) {
    a.time = r.get_f64();
    const std::uint8_t kind = r.get_u8();
    if (kind > static_cast<std::uint8_t>(fault::FaultKind::kUserDeparture))
      throw RuntimeError("population frame has an unknown fault kind " +
                         std::to_string(kind));
    a.kind = static_cast<fault::FaultKind>(kind);
    a.device = r.get_u32();
    a.value = r.get_f64();
    const std::uint8_t mode = r.get_u8();
    if (mode > static_cast<std::uint8_t>(fault::OutageMode::kPenalty))
      throw RuntimeError("population frame has an unknown outage mode " +
                         std::to_string(mode));
    a.outage_mode = static_cast<fault::OutageMode>(mode);
    a.cluster = r.get_u16();
    a.effective = r.get_u8() != 0;
    a.active_after = r.get_u32();
  }
  if (!r.exhausted())
    throw RuntimeError("population payload has trailing bytes");

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
