#include "core/choose.hpp"

#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace cellflow {

CellId RandomChoose::choose(CellId /*self*/,
                            std::span<const CellId> candidates,
                            OptCellId /*previous*/) {
  CF_EXPECTS(!candidates.empty());
  return candidates[static_cast<std::size_t>(rng_.below(candidates.size()))];
}

void RandomChoose::encode_state(std::vector<std::uint64_t>& out) const {
  const auto words = rng_.state();
  out.insert(out.end(), words.begin(), words.end());
}

bool RandomChoose::decode_state(std::span<const std::uint64_t> words) {
  if (words.size() != 4) return false;
  rng_.set_state({words[0], words[1], words[2], words[3]});
  return true;
}

CellId LowestIdChoose::choose(CellId /*self*/,
                              std::span<const CellId> candidates,
                              OptCellId /*previous*/) {
  CF_EXPECTS(!candidates.empty());
  return candidates.front();
}

std::unique_ptr<ChoosePolicy> make_choose_policy(std::string_view name,
                                                 std::uint64_t seed) {
  if (name == "round-robin") return std::make_unique<RoundRobinChoose>();
  if (name == "random") return std::make_unique<RandomChoose>(seed);
  if (name == "lowest-id") return std::make_unique<LowestIdChoose>();
  throw std::runtime_error("unknown choose policy: " + std::string(name));
}

}  // namespace cellflow
