#include "ncs/usb.h"

#include "util/trace.h"

namespace ncsw::ncs {

UsbLinkParams usb3_link() noexcept { return UsbLinkParams{350e6, 120e-6}; }
UsbLinkParams usb2_link() noexcept { return UsbLinkParams{35e6, 250e-6}; }

UsbChannel::UsbChannel(std::string name, const UsbLinkParams& params)
    : name_(std::move(name)),
      params_(params),
      m_bytes_(util::metrics().counter("usb." + name_ + ".bytes")),
      m_transfers_(util::metrics().counter("usb." + name_ + ".transfers")) {
  if (params_.bandwidth <= 0 || params_.per_transfer_latency < 0) {
    throw std::invalid_argument("UsbChannel: bad link parameters");
  }
}

sim::SimTime UsbChannel::duration(std::int64_t bytes) const noexcept {
  if (bytes <= 0) return params_.per_transfer_latency;
  return params_.per_transfer_latency +
         static_cast<double>(bytes) / params_.bandwidth;
}

UsbChannel::Window UsbChannel::transfer(sim::SimTime earliest,
                                        std::int64_t bytes) {
  const sim::SimTime dur = duration(bytes);
  Window window;
  {
    std::lock_guard lock(mutex_);
    const sim::SimTime start = link_.reserve(earliest, dur);
    window = Window{start, start + dur};
  }
  m_transfers_.add(1);
  if (bytes > 0) m_bytes_.add(static_cast<std::uint64_t>(bytes));
  auto& t = util::tracer();
  if (t.enabled()) {
    // Queueing delay (hub contention) shows as the gap between `earliest`
    // and the span start; the span itself is pure wire occupancy.
    t.complete("usb", "transfer", t.lane("usb " + name_), window.start,
               window.end,
               {util::TraceArg::num("bytes", static_cast<std::int64_t>(bytes)),
                util::TraceArg::num("queued_us",
                                    (window.start - earliest) * 1e6)});
  }
  return window;
}

sim::SimTime UsbChannel::busy_time() const {
  std::lock_guard lock(mutex_);
  return link_.busy_time();
}

std::uint64_t UsbChannel::transfers() const {
  std::lock_guard lock(mutex_);
  return link_.reservations();
}

UsbTopology::UsbTopology(std::vector<int> channel_of_device,
                         std::vector<UsbLinkParams> channels)
    : channel_of_device_(std::move(channel_of_device)) {
  channels_.reserve(channels.size());
  for (std::size_t i = 0; i < channels.size(); ++i) {
    channels_.push_back(std::make_unique<UsbChannel>(
        "usb-ch" + std::to_string(i), channels[i]));
  }
  for (int ch : channel_of_device_) {
    if (ch < 0 || ch >= channel_count()) {
      throw std::invalid_argument("UsbTopology: device mapped to bad channel");
    }
  }
}

UsbTopology UsbTopology::paper_testbed(int devices) {
  if (devices < 1) throw std::invalid_argument("paper_testbed: devices < 1");
  std::vector<int> map;
  std::vector<UsbLinkParams> channels;
  // Channel 0: hub A uplink; channel 1: hub B uplink; 2+: root ports.
  channels.push_back(usb3_link());
  channels.push_back(usb3_link());
  int next_root = 2;
  for (int d = 0; d < devices; ++d) {
    if (d < 3) {
      map.push_back(0);
    } else if (d < 6) {
      map.push_back(1);
    } else {
      channels.push_back(usb3_link());
      map.push_back(next_root++);
    }
  }
  return UsbTopology(std::move(map), std::move(channels));
}

UsbTopology UsbTopology::single_hub(int devices, const UsbLinkParams& link) {
  if (devices < 1) throw std::invalid_argument("single_hub: devices < 1");
  return UsbTopology(std::vector<int>(static_cast<std::size_t>(devices), 0),
                     {link});
}

UsbTopology UsbTopology::all_direct(int devices, const UsbLinkParams& link) {
  if (devices < 1) throw std::invalid_argument("all_direct: devices < 1");
  std::vector<int> map;
  std::vector<UsbLinkParams> channels;
  for (int d = 0; d < devices; ++d) {
    map.push_back(d);
    channels.push_back(link);
  }
  return UsbTopology(std::move(map), std::move(channels));
}

UsbChannel& UsbTopology::channel_for(int device) {
  const int ch = channel_of_device_.at(static_cast<std::size_t>(device));
  return *channels_[static_cast<std::size_t>(ch)];
}

}  // namespace ncsw::ncs
