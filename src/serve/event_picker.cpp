#include "serve/event_picker.h"

#include <algorithm>
#include <utility>

namespace ncsw::serve {

namespace {

thread_local const TieBreak* t_tie_break = nullptr;

}  // namespace

const char* loop_event_kind_name(LoopEventKind kind) {
  switch (kind) {
    case LoopEventKind::kComplete: return "complete";
    case LoopEventKind::kDrop:     return "drop";
    case LoopEventKind::kFault:    return "fault";
    case LoopEventKind::kProbe:    return "probe";
    case LoopEventKind::kReady:    return "ready";
    case LoopEventKind::kHedge:    return "hedge";
    case LoopEventKind::kArrive:   return "arrive";
    case LoopEventKind::kFlush:    return "flush";
  }
  return "?";
}

ScopedTieBreak::ScopedTieBreak(TieBreak hook)
    : hook_(std::move(hook)), prev_(t_tie_break) {
  t_tie_break = hook_ ? &hook_ : nullptr;
}

ScopedTieBreak::~ScopedTieBreak() { t_tie_break = prev_; }

EventPicker::EventPicker(std::span<const LoopEventKind> order)
    : hook_(t_tie_break) {
  rank_.fill(-1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank_[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
}

void EventPicker::collect(const LoopEvent& ev) {
  if (!tied_.empty() && ev.t < tied_.front().t) tied_.clear();
  if (tied_.empty() || ev.t == tied_.front().t) tied_.push_back(ev);
}

LoopEvent EventPicker::pick_tied() {
  // Production order, so tied_[0] is best_.
  std::sort(tied_.begin(), tied_.end(),
            [this](const LoopEvent& a, const LoopEvent& b) {
              const int ra = rank_[static_cast<std::size_t>(a.kind)];
              const int rb = rank_[static_cast<std::size_t>(b.kind)];
              return ra != rb ? ra < rb : a.index < b.index;
            });
  return tied_[(*hook_)(best_.t, tied_) % tied_.size()];
}

}  // namespace ncsw::serve
