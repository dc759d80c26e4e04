#include "mec/sim/minority_game.hpp"

#include "mec/common/error.hpp"
#include "mec/random/rng.hpp"

namespace mec::sim {

MinorityGame::MinorityGame(const MinorityGameConfig& config)
    : memory_(config.memory),
      strategies_(config.strategies),
      invert_(config.invert) {
  check_option(config.agents >= 1, "MinorityGame", "agents", config.agents,
               "a value >= 1");
  check_option(config.memory >= 1 && config.memory <= 20, "MinorityGame",
               "memory", config.memory, "a value in [1, 20]");
  check_option(config.strategies >= 1, "MinorityGame", "strategies",
               config.strategies, "a value >= 1");

  const std::size_t histories = std::size_t{1} << memory_;
  tables_.resize(config.agents * strategies_ * histories);
  scores_.assign(config.agents * strategies_, 0.0);
  actions_.assign(config.agents, 1);

  // One stream for the whole table block: the layout is fixed, so the
  // draw order — and with it the entire game trajectory — depends only on
  // the config.
  random::Xoshiro256 rng(config.seed);
  for (std::uint8_t& cell : tables_)
    cell = random::bernoulli(rng, 0.5) ? 1 : 0;
  history_ = static_cast<std::size_t>(rng() & (histories - 1));
}

std::size_t MinorityGame::step() {
  const std::size_t histories = std::size_t{1} << memory_;
  std::size_t attendance = 0;
  for (std::size_t a = 0; a < actions_.size(); ++a) {
    // Best virtual score wins; exact ties go to the lowest strategy index
    // (deterministic, no RNG at play time).
    std::size_t best = 0;
    for (std::size_t s = 1; s < strategies_; ++s)
      if (scores_[a * strategies_ + s] > scores_[a * strategies_ + best])
        best = s;
    const std::uint8_t choice =
        tables_[(a * strategies_ + best) * histories + history_];
    actions_[a] = choice;
    attendance += choice;
  }

  // Minority side wins (strictly fewer attendees); an exact tie — only
  // possible with an even agent count — scores side 0 as the winner.  The
  // inverted (majority) variant flips the payoff, not the tie-break.
  std::uint8_t winner = 2 * attendance < actions_.size() ? 1 : 0;
  if (invert_) winner = 1 - winner;

  for (std::size_t a = 0; a < actions_.size(); ++a)
    for (std::size_t s = 0; s < strategies_; ++s) {
      const std::uint8_t predicted =
          tables_[(a * strategies_ + s) * histories + history_];
      scores_[a * strategies_ + s] += predicted == winner ? 1.0 : -1.0;
    }

  history_ = ((history_ << 1) | winner) & (histories - 1);
  ++rounds_;
  return attendance;
}

}  // namespace mec::sim
