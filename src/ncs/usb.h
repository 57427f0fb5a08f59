// USB host-side topology model.
//
// The paper's testbed (Fig. 5) attaches 8 NCS sticks to one workstation:
// 6 through two USB 3.0 hubs (3 sticks each) and 2 directly on
// motherboard root ports. A hub's upstream link is shared by its sticks,
// so transfers to siblings serialise; root ports are dedicated. The
// benchmark ablation also models USB 2.0 links, where the input transfer
// stops being negligible.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/resource.h"
#include "util/metrics.h"

namespace ncsw::ncs {

/// Electrical parameters of one upstream link.
struct UsbLinkParams {
  /// Effective bulk-transfer bandwidth (bytes/s). USB 3.0 SuperSpeed
  /// sustains ~350 MB/s of bulk payload in practice; USB 2.0 ~35 MB/s.
  double bandwidth = 350e6;
  /// Fixed per-transfer cost (submission, protocol handshake).
  double per_transfer_latency = 120e-6;
};

/// Convenience constructors.
UsbLinkParams usb3_link() noexcept;
UsbLinkParams usb2_link() noexcept;

/// One shared upstream link (a root port, or a hub's uplink). Transfers
/// on the same channel serialise in request order; thread-safe.
class UsbChannel {
 public:
  UsbChannel(std::string name, const UsbLinkParams& params);

  /// Reserve the channel for `bytes`, starting no earlier than `earliest`
  /// (simulated seconds). Returns [start, end) of the transfer.
  struct Window {
    sim::SimTime start;
    sim::SimTime end;
  };
  Window transfer(sim::SimTime earliest, std::int64_t bytes);

  /// Pure transfer duration for `bytes` on this link (no queueing).
  sim::SimTime duration(std::int64_t bytes) const noexcept;

  const std::string& name() const noexcept { return name_; }
  /// Total busy time accumulated.
  sim::SimTime busy_time() const;
  /// Number of transfers completed.
  std::uint64_t transfers() const;

 private:
  std::string name_;
  UsbLinkParams params_;
  mutable std::mutex mutex_;
  sim::IntervalResource link_;
  // Registry instruments survive registry resets, so these stay valid.
  util::Counter& m_bytes_;
  util::Counter& m_transfers_;
};

/// Maps each stick to its upstream channel.
class UsbTopology {
 public:
  /// `channel_of_device[i]` = channel index of stick i.
  UsbTopology(std::vector<int> channel_of_device,
              std::vector<UsbLinkParams> channels);

  /// The paper's testbed for `devices` sticks (1..8): sticks 0-2 on hub A,
  /// 3-5 on hub B, 6-7 on dedicated root ports (all USB 3.0). For more
  /// than 8 sticks (the paper's Fig. 8b projection), extras get dedicated
  /// root ports.
  static UsbTopology paper_testbed(int devices);

  /// All sticks behind one shared hub.
  static UsbTopology single_hub(int devices, const UsbLinkParams& link);

  /// Every stick on its own root port.
  static UsbTopology all_direct(int devices, const UsbLinkParams& link);

  int device_count() const noexcept {
    return static_cast<int>(channel_of_device_.size());
  }
  int channel_count() const noexcept {
    return static_cast<int>(channels_.size());
  }

  /// Channel serving stick `device`; throws std::out_of_range.
  UsbChannel& channel_for(int device);

  /// Channel by index (for utilisation reporting).
  const UsbChannel& channel(int index) const {
    return *channels_.at(static_cast<std::size_t>(index));
  }

 private:
  std::vector<int> channel_of_device_;
  std::vector<std::unique_ptr<UsbChannel>> channels_;
};

}  // namespace ncsw::ncs
