// Residency policy for the multi-tenant model zoo: which of M compiled
// graphs lives on which of K sticks, and who gets evicted on a miss.
//
// Pure policy — no mvnc calls. The ZooServer event loop owns the clock
// and the fleet; this class owns the placement state (resident model,
// install time, last use per stick) and answers two questions:
//
//   * where does a request for model m run right now (hit: the resident
//     stick set), and
//   * on a miss, which stick should give up its graph (plan_swap).
//
// Three placements:
//
//   kStatic    — model m is pinned to stick m % K, the offline
//                partitioning a zoo without a residency layer would
//                hard-code. Misses always swap the pinned stick, so two
//                models sharing a stick thrash no matter how expensive
//                their graphs are. The bench baseline.
//   kLru       — evict the least-recently-used stick. Classic, but
//                blind to the fact that re-loading alexnet costs ~50x
//                squeezenet (graph blob MiBs through mvncAllocateGraph).
//   kCostAware — GreedyDual-style: evict the stick minimising
//                last_use + swap_in_cost(resident), i.e. prefer victims
//                that are cold AND cheap to bring back. Costs come from
//                the fleet's calibration pass (StickFleet::swap_in_cost_s).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ncsw::serve {

/// Placement policy selector.
enum class Placement : int { kStatic = 0, kLru, kCostAware };

/// Stable lowercase name ("static", "lru", "cost-aware").
const char* placement_name(Placement p);

/// Parse a placement name (the bench's --placement flag). Throws
/// std::invalid_argument on anything else.
Placement placement_from_name(const std::string& name);

struct ResidencyConfig {
  Placement placement = Placement::kCostAware;
  /// A freshly installed graph may not be evicted again within this much
  /// simulated time (anti-thrash hysteresis; 0 = none). Ignored by
  /// kStatic, whose victim is forced by the pinning.
  double min_residency_s = 0.0;
};

/// Swap decision for a missing model.
struct SwapPlan {
  int stick = -1;   ///< victim stick, -1 = no stick may swap right now
  int victim = -1;  ///< model being evicted there (-1 = stick was empty)
};

class ResidencyManager {
 public:
  ResidencyManager(int sticks, int models, ResidencyConfig config = {});

  int sticks() const noexcept { return static_cast<int>(state_.size()); }
  int models() const noexcept { return models_; }
  const ResidencyConfig& config() const noexcept { return config_; }

  /// Price of bringing model `m` onto a stick (kCostAware scoring).
  void set_swap_cost(int model, double cost_s);

  /// Record that `stick` now holds `model` (initial residency, or after
  /// the fleet completed a swap).
  void install(int stick, int model, double now_s);
  /// Record a dispatch to `stick` (recency for LRU / cost-aware).
  void touch(int stick, double now_s);

  int resident(int stick) const { return state_.at(stick).model; }
  /// True when some stick holds `model`; O(1) from the copy count.
  bool is_resident(int model) const { return copies_.at(model) > 0; }
  /// Sticks holding `model` as kept by install(). A count, not a flag:
  /// with more sticks than models one model can sit on two of them.
  int copies(int model) const { return copies_.at(model); }
  /// Sticks currently holding `model`, ascending.
  std::vector<int> sticks_of(int model) const;

  /// Victim choice for a missing `model` at `now_s`. kStatic returns
  /// the pinned stick unconditionally; kLru/kCostAware return the
  /// best-scoring stick outside its hysteresis window, or stick = -1
  /// when every stick is still inside one (the caller queues the work
  /// until a window expires or a hit frees capacity).
  SwapPlan plan_swap(int model, double now_s) const;

  /// Earliest time some stick leaves its hysteresis window (the instant
  /// a stalled plan_swap can succeed again). Now or earlier when any
  /// stick is already evictable; the ZooServer's idle-stall event.
  double earliest_unlock_s() const;

 private:
  struct Stick {
    int model = -1;
    double installed_s = 0.0;
    double last_use_s = 0.0;
  };

  ResidencyConfig config_;
  int models_ = 0;
  std::vector<Stick> state_;
  std::vector<double> cost_s_;
  std::vector<int> copies_;  ///< per model: sticks holding it
};

}  // namespace ncsw::serve
