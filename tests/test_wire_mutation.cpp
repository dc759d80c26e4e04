// Seeded mutation test for every decoder of the rank protocol and the
// .meclog run log: 14 payload kinds, each started from golden payloads.
//
// Every mutant must either be refused with a mec::RuntimeError, or decode
// to a value whose re-encoding decodes back to the same bytes.  Any other
// exception fails the test: a std::bad_alloc from a vector sized by a count
// the payload does not back, a std::length_error, a ContractViolation from
// an encoder that a decoded value does not satisfy.  Under the ASan/UBSan
// build an out-of-bounds read fails it too.
//
// The mutations are bounded and seeded (std::mt19937_64, whose output the
// standard fixes), so every run tries the same mutants:
//   - bit flips;
//   - each u16 and u32 word, at every offset, set to 0, 1, its maximum and
//     the number of bytes after it;
//   - truncations;
//   - splices: a prefix of one golden followed by a suffix of another
//     golden of the same kind.
// A golden longer than kExhaustiveBytes (the barrier payload that carries
// latency sketches) is mutated at kSampledOffsets seeded offsets instead of
// at every one.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/net/protocol.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace {

using namespace mec;
namespace pwire = parallel::wire;
namespace nwire = net::wire;

using Bytes = std::vector<std::uint8_t>;

constexpr std::size_t kExhaustiveBytes = 2048;
constexpr std::size_t kSampledOffsets = 256;
constexpr std::size_t kSplicesPerPair = 256;

/// One payload kind: its goldens and a decode-then-encode of a payload.
struct Codec {
  const char* name;
  std::vector<Bytes> goldens;
  std::function<Bytes(std::span<const std::uint8_t>)> round_trip;
};

/// A payload kind from its two goldens and its codec pair.
template <class Decode, class Encode>
Codec codec(const char* name, Bytes a, Bytes b, Decode decode, Encode encode) {
  return {name, {std::move(a), std::move(b)},
          [decode, encode](std::span<const std::uint8_t> payload) {
            return encode(decode(payload));
          }};
}

// Encoders in the shape their decoders return.
Bytes encode_rank_data(const pwire::RankBarrierData& d) {
  return pwire::encode_barrier_payload(d.views(), d.has_q, d.total_q,
                                       d.total_q2);
}
Bytes encode_final(const pwire::FinalTotals& f) {
  return pwire::encode_device_totals(f.device_lo, f.device_hi, f.totals);
}

// --- goldens ---------------------------------------------------------------

Bytes barrier_payload(bool with_sketches) {
  sim::OffloadRecord log[2];
  log[0].time = 1.5;
  log[0].latency = 0.25;
  log[0].penalty = 0.75;
  log[0].device = 0x00ABCDEFu;
  log[0].cluster = 2;
  log[0].measured = true;
  log[0].penalized = true;
  log[1].time = 2.0;
  log[1].latency = 0.125;
  log[1].device = 7;
  const std::uint64_t cluster_offloads[] = {1, 0, 0x0A0B0C0Dull};
  stats::LatencySketch sojourns;
  stats::LatencySketch delays;
  for (int i = 1; i <= 40; ++i) sojourns.add(0.05 * i);
  delays.add(0.5);
  parallel::ShardBarrierView v[2];
  v[0].shard = 5;
  v[0].log = log;
  v[0].events = 0x0102030405060708ull;
  v[0].offloads_in_window = 2;
  v[0].tasks_lost = 1;
  v[0].offloads_penalized = 1;
  v[0].cluster_offloads = cluster_offloads;
  v[0].flipped = true;
  v[0].has_queue_stats = true;
  v[0].queue_depth = 17.0;
  v[0].leg_seconds = 0.5;
  v[1].shard = 6;
  v[1].cluster_offloads = cluster_offloads;
  if (with_sketches) {
    v[1].local_sojourns = &sojourns;
    v[1].offload_delays = &delays;
  }
  return pwire::encode_barrier_payload(v, true, 12.5, 40.25);
}

nwire::WorkerPopulation population(bool with_faults) {
  nwire::WorkerPopulation pop;
  pop.rank = 1;
  pop.ranks = 2;
  pop.seed = 0x0123456789ABCDEFull;
  pop.n_devices = 5;
  pop.n_initial = 4;
  pop.n_clusters = 2;
  pop.shard_count = 4;
  pop.shard_lo = 2;
  pop.shard_hi = 4;
  pop.device_lo = 3;
  pop.device_hi = 5;
  pop.warmup = 1.5;
  pop.t_end = 40.0;
  pop.has_fixed_gamma = with_faults;
  pop.fixed_delay = 0.75;
  pop.with_faults = with_faults;
  pop.rule = with_faults ? sim::OffloadRule::kDpo : sim::OffloadRule::kTro;
  pop.service.kind = sim::SamplerSpec::Kind::kErlang;
  pop.service.param = 4.0;
  pop.latency.kind = sim::SamplerSpec::Kind::kEmpirical;
  pop.latency.data = {0.25, 1.0};
  for (std::uint64_t i = 0; i < 2; ++i) {
    core::UserParams u;
    u.arrival_rate = 1.0 + static_cast<double>(i);
    u.service_rate = 3.0;
    u.offload_latency = 0.2;
    pop.users.push_back(u);
    pop.rng_states.push_back({i + 1, i + 2, i + 3, i + 4});
  }
  if (with_faults) {
    fault::ResolvedAction a;
    a.time = 12.0;
    a.kind = fault::FaultKind::kOutageBegin;
    a.value = 0.4;
    a.outage_mode = fault::OutageMode::kPenalty;
    a.cluster = 1;
    a.effective = true;
    a.active_after = 3;
    pop.actions.push_back(a);
  }
  return pop;
}

obs::WindowRecord window(std::size_t clusters) {
  obs::WindowRecord w;
  w.time = 2.5;
  w.gamma = 0.25;
  w.mean_queue_length = 1.75;
  w.active_devices = 41;
  w.offloads_so_far = 100;
  w.events_so_far = 1000;
  w.sojourn_count = 17;
  w.sojourn_p99 = 7.0;
  w.tasks_lost = 3;
  for (std::size_t b = 0; b < obs::kThresholdBins; ++b)
    w.threshold_histogram[b] = static_cast<std::uint32_t>(b);
  w.cluster_gamma.assign(clusters, 0.125);
  w.cluster_offloads.assign(clusters, 50);
  return w;
}

std::vector<Codec> codecs() {
  parallel::BarrierRequest request;
  request.limit = 1.0;
  request.inclusive = true;
  request.want_q2 = true;
  request.want_queue_stats = true;
  const double thresholds[] = {1.0, -1.0, 0.5};
  parallel::DeviceTotals totals[2];
  totals[0].arrivals = 1;
  totals[0].queue_integral = 0.5;
  totals[1].offloaded = 2;
  totals[1].energy_sum = 2.0;
  nwire::Hello hello;
  hello.rank = 3;
  hello.ranks = 8;
  nwire::HelloAck ack;
  ack.rank = 3;
  const obs::CounterValue counters[] = {{3, 1, 12345.0},
                                        {6, obs::kGlobalShard, 0.25}};
  obs::RunFooter footer;
  footer.windows = 7;
  footer.total_events = 99999;
  footer.mean_cost = 2.75;

  std::vector<Codec> out;
  out.push_back(codec("barrier request", pwire::encode_barrier_request(request),
                      pwire::encode_barrier_request({}),
                      pwire::decode_barrier_request,
                      pwire::encode_barrier_request));
  out.push_back(codec("barrier payload", barrier_payload(false),
                      barrier_payload(true), pwire::decode_barrier_payload,
                      encode_rank_data));
  out.back().goldens.push_back(
      pwire::encode_barrier_payload({}, false, 0.0, 0.0));
  out.push_back(codec("thresholds", pwire::encode_thresholds(thresholds),
                      pwire::encode_thresholds(std::span(thresholds, 1)),
                      pwire::decode_thresholds, pwire::encode_thresholds));
  out.push_back(codec("device totals",
                      pwire::encode_device_totals(7, 9, totals),
                      pwire::encode_device_totals(0, 1, std::span(totals, 1)),
                      pwire::decode_device_totals, encode_final));
  out.push_back(codec("hello", nwire::encode_hello(hello),
                      nwire::encode_hello({}), nwire::decode_hello,
                      nwire::encode_hello));
  out.push_back(codec("hello ack", nwire::encode_hello_ack(ack),
                      nwire::encode_hello_ack({}), nwire::decode_hello_ack,
                      nwire::encode_hello_ack));
  out.push_back(codec("population", nwire::encode_population(population(true)),
                      nwire::encode_population(population(false)),
                      nwire::decode_population, nwire::encode_population));
  out.push_back(codec("run-log meta",
                      obs::encode_meta({{"n", "41"}, {"gamma", "tracked"}}),
                      obs::encode_meta({}), obs::decode_meta,
                      obs::encode_meta));
  out.push_back(codec("run-log window", obs::encode_window(window(2)),
                      obs::encode_window(window(1)), obs::decode_window,
                      obs::encode_window));
  out.push_back(codec("run-log counters", obs::encode_counters(counters),
                      obs::encode_counters(std::span(counters, 1)),
                      obs::decode_counters, obs::encode_counters));
  out.push_back(codec("run-log footer", obs::encode_footer(footer),
                      obs::encode_footer({}), obs::decode_footer,
                      obs::encode_footer));
  out.push_back(codec("worker error", pwire::encode_error("bad"),
                      pwire::encode_error(""), pwire::decode_error,
                      pwire::encode_error));
  out.push_back(codec("ready", pwire::encode_ready(1),
                      pwire::encode_ready(0xFFFFFFFFu), pwire::decode_ready,
                      pwire::encode_ready));
  out.push_back(codec("finalize", pwire::encode_finalize(true),
                      pwire::encode_finalize(false), pwire::decode_finalize,
                      pwire::encode_finalize));
  return out;
}

// --- the check -------------------------------------------------------------

/// Empty when `mutant` is refused with a RuntimeError or decodes to a value
/// whose re-encoding decodes back to the same bytes; else what went wrong.
std::string check(const Codec& codec, std::span<const std::uint8_t> mutant) {
  Bytes once;
  try {
    once = codec.round_trip(mutant);
  } catch (const RuntimeError&) {
    return {};
  } catch (const std::exception& e) {
    return std::string("threw ") + typeid(e).name() + ": " + e.what();
  } catch (...) {
    return "threw a non-std exception";
  }
  try {
    if (codec.round_trip(once) != once)
      return "decoded, but its re-encoding decodes to another value";
  } catch (const std::exception& e) {
    return std::string("decoded, but its re-encoding does not: ") + e.what();
  }
  return {};
}

/// Collects the failing mutants of one test and reports the first few.
class Report {
 public:
  void operator()(const Codec& codec, std::size_t golden,
                  const std::string& mutation, const Bytes& mutant) {
    ++mutants_;
    const std::string why = check(codec, mutant);
    if (why.empty()) return;
    if (++failures_ <= 10)
      ADD_FAILURE() << codec.name << " golden " << golden << ", "
                    << mutation << ": " << why;
  }
  ~Report() {
    EXPECT_EQ(failures_, 0u) << "of " << mutants_ << " mutants";
    EXPECT_GT(mutants_, 0u);
  }

 private:
  std::size_t mutants_ = 0;
  std::size_t failures_ = 0;
};

/// Every offset of a golden up to kExhaustiveBytes long, else a seeded
/// sample of kSampledOffsets of them.
std::vector<std::size_t> offsets(std::size_t size, std::uint64_t seed) {
  std::vector<std::size_t> out;
  if (size <= kExhaustiveBytes) {
    for (std::size_t at = 0; at < size; ++at) out.push_back(at);
    return out;
  }
  std::mt19937_64 gen(seed);
  for (std::size_t i = 0; i < kSampledOffsets; ++i)
    out.push_back(static_cast<std::size_t>(gen() % size));
  return out;
}

/// Runs `mutate(report, codec, golden index, golden)` over every golden.
template <class Mutate>
void for_each_golden(Mutate mutate) {
  Report report;
  for (const Codec& codec : codecs())
    for (std::size_t g = 0; g < codec.goldens.size(); ++g)
      mutate(report, codec, g, codec.goldens[g]);
}

/// The value a word mutation writes.
enum class Word { kZero, kOne, kMax, kRemaining };

void overwrite_words(Word word) {
  for_each_golden([word](Report& report, const Codec& codec, std::size_t g,
                         const Bytes& golden) {
    for (const std::size_t width : {std::size_t{2}, std::size_t{4}}) {
      for (const std::size_t at : offsets(golden.size(), 4 * g + width)) {
        if (at + width > golden.size()) continue;
        const std::uint64_t max = (std::uint64_t{1} << (8 * width)) - 1;
        const std::uint64_t remaining = golden.size() - at - width;
        std::uint64_t value = 0;
        switch (word) {
          case Word::kZero:
            value = 0;
            break;
          case Word::kOne:
            value = 1;
            break;
          case Word::kMax:
            value = max;
            break;
          case Word::kRemaining:
            value = remaining < max ? remaining : max;
            break;
        }
        Bytes mutant = golden;
        for (std::size_t i = 0; i < width; ++i)
          mutant[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
        const std::string what = "u" + std::to_string(8 * width) + " at " +
                                 std::to_string(at) + " = " +
                                 std::to_string(value);
        report(codec, g, what, mutant);
      }
    }
  });
}

// --- tests -----------------------------------------------------------------

TEST(WireMutation, EveryGoldenRoundTripsToItsOwnBytes) {
  // Without this the mutants below would start from payloads the decoders
  // already refuse, and prove nothing.
  const std::vector<Codec> all = codecs();
  EXPECT_EQ(all.size(), 14u);
  for (const Codec& codec : all) {
    ASSERT_GE(codec.goldens.size(), 2u) << codec.name;
    for (const Bytes& golden : codec.goldens)
      EXPECT_EQ(codec.round_trip(golden), golden) << codec.name;
  }
}

TEST(WireMutation, BitFlips) {
  for_each_golden([](Report& report, const Codec& codec, std::size_t g,
                     const Bytes& golden) {
    for (const std::size_t at : offsets(golden.size(), g + 1)) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes mutant = golden;
        mutant[at] ^= static_cast<std::uint8_t>(1u << bit);
        report(codec, g,
               "bit " + std::to_string(bit) + " of byte " + std::to_string(at),
               mutant);
      }
    }
  });
}

TEST(WireMutation, WordsSetToZero) { overwrite_words(Word::kZero); }
TEST(WireMutation, WordsSetToOne) { overwrite_words(Word::kOne); }
TEST(WireMutation, WordsSetToTheirMaximum) { overwrite_words(Word::kMax); }
TEST(WireMutation, WordsSetToTheBytesAfterThem) {
  overwrite_words(Word::kRemaining);
}

TEST(WireMutation, Truncations) {
  for_each_golden([](Report& report, const Codec& codec, std::size_t g,
                     const Bytes& golden) {
    for (const std::size_t cut : offsets(golden.size(), 100 + g))
      report(codec, g, "cut to " + std::to_string(cut) + " bytes",
             Bytes(golden.begin(), golden.begin() + static_cast<long>(cut)));
  });
}

TEST(WireMutation, Splices) {
  Report report;
  std::mt19937_64 gen(20261020);
  for (const Codec& codec : codecs()) {
    for (std::size_t a = 0; a < codec.goldens.size(); ++a) {
      for (std::size_t b = 0; b < codec.goldens.size(); ++b) {
        if (a == b) continue;
        const Bytes& head = codec.goldens[a];
        const Bytes& tail = codec.goldens[b];
        for (std::size_t i = 0; i < kSplicesPerPair; ++i) {
          const std::size_t cut_a = gen() % (head.size() + 1);
          const std::size_t cut_b = gen() % (tail.size() + 1);
          Bytes mutant(head.begin(), head.begin() + static_cast<long>(cut_a));
          mutant.insert(mutant.end(), tail.begin() + static_cast<long>(cut_b),
                        tail.end());
          const std::string what = "first " + std::to_string(cut_a) +
                                   " bytes, then golden " + std::to_string(b) +
                                   " from byte " + std::to_string(cut_b);
          report(codec, a, what, mutant);
        }
      }
    }
  }
}

}  // namespace
