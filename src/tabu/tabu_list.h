// Fixed-tenure tabu memory over (vm, server) moves (Glover's tabu search,
// the paper's [29]).  An entry forbids moving a VM back onto a server it
// recently left, which is what prevents the repair operator from cycling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace iaas {

// A fixed ring of `tenure` keys, scanned linearly: at the default tenure
// of 16 that is two cache lines, cheaper than hashing, and the ring is
// allocated once per repair call.
class TabuList {
 public:
  explicit TabuList(std::size_t tenure) : keys_(tenure) {}

  // Forbids (vm, server); a duplicate does not refresh its entry, and
  // once the ring is full the oldest entry is evicted.
  void forbid(std::uint32_t vm, std::int32_t server) {
    const std::uint64_t k = key(vm, server);
    if (keys_.empty() || contains(k)) {
      return;
    }
    keys_[next_] = k;
    next_ = next_ + 1 == keys_.size() ? 0 : next_ + 1;
    size_ = std::min(size_ + 1, keys_.size());
  }

  [[nodiscard]] bool is_tabu(std::uint32_t vm, std::int32_t server) const {
    return contains(key(vm, server));
  }

  void clear() {
    size_ = 0;
    next_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t tenure() const { return keys_.size(); }

 private:
  static std::uint64_t key(std::uint32_t vm, std::int32_t server) {
    return (static_cast<std::uint64_t>(vm) << 32) |
           static_cast<std::uint32_t>(server);
  }

  // Live entries are keys_[0, size_): the ring fills from slot 0 and
  // only wraps once full.
  [[nodiscard]] bool contains(std::uint64_t k) const {
    const auto live = keys_.begin() + static_cast<std::ptrdiff_t>(size_);
    return std::find(keys_.begin(), live, k) != live;
  }

  std::vector<std::uint64_t> keys_;
  std::size_t next_ = 0;  // slot of the next insertion (the oldest once full)
  std::size_t size_ = 0;
};

}  // namespace iaas
