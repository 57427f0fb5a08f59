#include "serve/residency.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace ncsw::serve {

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::kStatic: return "static";
    case Placement::kLru: return "lru";
    case Placement::kCostAware: return "cost-aware";
  }
  return "?";
}

Placement placement_from_name(const std::string& name) {
  if (name == "static") return Placement::kStatic;
  if (name == "lru") return Placement::kLru;
  if (name == "cost-aware" || name == "cost") return Placement::kCostAware;
  throw std::invalid_argument("unknown placement '" + name +
                              "' (static | lru | cost-aware)");
}

ResidencyManager::ResidencyManager(int sticks, int models,
                                   ResidencyConfig config)
    : config_(config), models_(models) {
  if (sticks < 1) throw std::invalid_argument("ResidencyManager: sticks < 1");
  if (models < 1) throw std::invalid_argument("ResidencyManager: models < 1");
  if (!(config_.min_residency_s >= 0.0) ||
      !std::isfinite(config_.min_residency_s)) {
    throw std::invalid_argument(
        "ResidencyManager: hysteresis must be finite and >= 0");
  }
  state_.resize(static_cast<std::size_t>(sticks));
  cost_s_.assign(static_cast<std::size_t>(models), 0.0);
}

void ResidencyManager::set_swap_cost(int model, double cost_s) {
  cost_s_.at(model) = cost_s;
}

void ResidencyManager::install(int stick, int model, double now_s) {
  if (model < 0 || model >= models_) {
    throw std::out_of_range("ResidencyManager::install: bad model");
  }
  Stick& s = state_.at(stick);
  s.model = model;
  s.installed_s = now_s;
  s.last_use_s = now_s;
}

void ResidencyManager::touch(int stick, double now_s) {
  Stick& s = state_.at(stick);
  if (now_s > s.last_use_s) s.last_use_s = now_s;
}

bool ResidencyManager::is_resident(int model) const {
  for (const auto& s : state_) {
    if (s.model == model) return true;
  }
  return false;
}

std::vector<int> ResidencyManager::sticks_of(int model) const {
  std::vector<int> out;
  for (std::size_t d = 0; d < state_.size(); ++d) {
    if (state_[d].model == model) out.push_back(static_cast<int>(d));
  }
  return out;
}

double ResidencyManager::earliest_unlock_s() const {
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& s : state_) {
    const double unlock =
        s.model < 0 ? 0.0 : s.installed_s + config_.min_residency_s;
    if (unlock < earliest) earliest = unlock;
  }
  return earliest;
}

SwapPlan ResidencyManager::plan_swap(int model, double now_s) const {
  if (model < 0 || model >= models_) {
    throw std::out_of_range("ResidencyManager::plan_swap: bad model");
  }
  SwapPlan plan;
  if (config_.placement == Placement::kStatic) {
    // The pinning decides; hysteresis does not apply (there is no other
    // stick the model could go to).
    plan.stick = model % sticks();
    plan.victim = state_[static_cast<std::size_t>(plan.stick)].model;
    return plan;
  }
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < state_.size(); ++d) {
    const Stick& s = state_[d];
    if (s.model >= 0 &&
        now_s < s.installed_s + config_.min_residency_s) {
      continue;  // still inside its hysteresis window
    }
    // LRU scores by recency alone; cost-aware adds the price of
    // re-loading the victim, so cold-but-expensive residents survive
    // over cold-and-cheap ones (GreedyDual). An empty stick scores
    // -inf either way and is always taken first.
    double score;
    if (s.model < 0) {
      score = -std::numeric_limits<double>::infinity();
    } else if (config_.placement == Placement::kCostAware) {
      score = s.last_use_s + cost_s_[static_cast<std::size_t>(s.model)];
    } else {
      score = s.last_use_s;
    }
    if (score < best) {
      best = score;
      plan.stick = static_cast<int>(d);
      plan.victim = s.model;
    }
  }
  return plan;
}

}  // namespace ncsw::serve
