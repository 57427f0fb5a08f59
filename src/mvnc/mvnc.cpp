#include "mvnc/mvnc.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "check/protocol.h"
#include "mvnc/sim_host.h"
#include "tensor/tensor.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::mvnc {

namespace {

struct GraphState;

struct DeviceState {
  std::unique_ptr<ncs::NcsDevice> device;
  bool handle_open = false;  // an mvncOpenDevice handle exists
  std::vector<GraphState*> graphs;  // guarded by g_mutex
};

struct GraphState {
  // Shared ownership keeps the stick alive for API calls that fetched
  // this graph before a concurrent host_reset tore the device down.
  std::shared_ptr<DeviceState> dev;
  // The parsed graph file, shared with every handle allocated from the
  // same bytes (HostState::packages), and the FP16 plan LoadTensor runs:
  // the package's own for a functional file (shared the same way), one
  // built by set_functional_network, or null for timing-only graphs.
  std::shared_ptr<const graphc::GraphPackage> package;
  std::shared_ptr<const nn::Plan<ncsw::fp16::half>> plan;

  std::mutex mutex;
  bool dead = false;           // deallocated/closed; guarded by mutex
  double host_clock = 0.0;     // simulated host-time cursor for this handle
  double inter_op_gap = 0.0;   // host gap after each retrieved result
  // GetResult watchdog budget (infinity = block forever, NCSDK default).
  double watchdog_s = std::numeric_limits<double>::infinity();

  struct Pending {
    std::vector<ncsw::fp16::half> output;
    void* user = nullptr;
  };
  std::deque<Pending> pending;              // parallel to the device FIFO
  tensor::TensorH input;                    // LoadTensor's reused payload
  nn::ExecResult<ncsw::fp16::half> result;  // and forward-pass result
  std::vector<ncsw::fp16::half> last_output;
  std::optional<ncs::InferenceTicket> last_ticket;
};

struct HostState {
  std::unique_ptr<ncs::UsbTopology> topology;
  std::vector<std::shared_ptr<DeviceState>> devices;
  // Handle -> owner maps. Lookups hand out shared_ptr copies so a state
  // object stays alive for a call racing a CloseDevice/DeallocateGraph/
  // host_reset on another thread; such a call then observes `dead` (or a
  // missing map entry) instead of freed memory.
  std::unordered_map<void*, std::shared_ptr<DeviceState>> device_handles;
  std::unordered_map<void*, std::shared_ptr<GraphState>> graph_handles;
  // Every graph file parsed since the last host_reset, keyed by its exact
  // bytes: allocating the same file again (a zoo swap back, a replug
  // re-allocation, one blob on N sticks) reuses the package, and a
  // functional package's FP16 plan, instead of building them again.
  // Failed parses are not recorded; timing-only files build no plan.
  struct ParsedFile {
    std::vector<std::uint8_t> bytes;
    std::shared_ptr<const graphc::GraphPackage> package;
    std::shared_ptr<const nn::Plan<ncsw::fp16::half>> plan;
  };
  std::vector<ParsedFile> packages;
};

std::mutex g_mutex;
HostState g_host;
std::atomic<std::uint64_t> g_generation{0};

std::shared_ptr<DeviceState> as_device(void* handle) {
  const auto it = g_host.device_handles.find(handle);
  return it == g_host.device_handles.end() ? nullptr : it->second;
}

std::shared_ptr<GraphState> as_graph(void* handle) {
  const auto it = g_host.graph_handles.find(handle);
  return it == g_host.graph_handles.end() ? nullptr : it->second;
}

// The parsed package of a graph file and its plan (caller holds
// g_mutex): the cached ones when these exact bytes were parsed before,
// else a fresh parse. Throws on a malformed file, leaving the cache
// untouched.
HostState::ParsedFile parse_locked(const std::uint8_t* bytes,
                                   std::size_t length) {
  for (const auto& f : g_host.packages) {
    if (f.bytes.size() == length &&
        std::memcmp(f.bytes.data(), bytes, length) == 0) {
      return {{}, f.package, f.plan};
    }
  }
  std::vector<std::uint8_t> file(bytes, bytes + length);
  auto package = std::make_shared<const graphc::GraphPackage>(
      graphc::deserialize_package(file));
  std::shared_ptr<const nn::Plan<ncsw::fp16::half>> plan;
  if (package->functional) {
    plan = std::make_shared<const nn::Plan<ncsw::fp16::half>>(
        package->net, package->weights, nn::resolve_fast(false));
  }
  g_host.packages.push_back({std::move(file), package, plan});
  return {{}, std::move(package), std::move(plan)};
}

void destroy_graph_locked(void* handle, const std::shared_ptr<GraphState>& g) {
  if (g->dev) {
    auto& vec = g->dev->graphs;
    vec.erase(std::remove(vec.begin(), vec.end(), g.get()), vec.end());
  }
  {
    std::lock_guard glock(g->mutex);
    g->dead = true;
  }
  g_host.graph_handles.erase(handle);
}

}  // namespace

// ---------------------------------------------------------------------------
// sim_host.h
// ---------------------------------------------------------------------------

void host_reset(const HostConfig& config) {
  check::verifier().configure(config.check);
  std::lock_guard lock(g_mutex);
  g_generation.fetch_add(1, std::memory_order_relaxed);
  // Invalidate outstanding graph handles; shared_ptrs held by calls
  // racing this reset keep the objects alive until those calls return.
  for (auto& [handle, g] : g_host.graph_handles) {
    std::lock_guard glock(g->mutex);
    g->dead = true;
  }
  g_host.graph_handles.clear();
  g_host.device_handles.clear();
  g_host.devices.clear();
  g_host.packages.clear();
  g_host.topology.reset();
  if (config.devices <= 0) return;

  switch (config.topology) {
    case HostConfig::Topology::kPaperTestbed:
      g_host.topology = std::make_unique<ncs::UsbTopology>(
          ncs::UsbTopology::paper_testbed(config.devices));
      break;
    case HostConfig::Topology::kSingleHubUsb3:
      g_host.topology = std::make_unique<ncs::UsbTopology>(
          ncs::UsbTopology::single_hub(config.devices, ncs::usb3_link()));
      break;
    case HostConfig::Topology::kSingleHubUsb2:
      g_host.topology = std::make_unique<ncs::UsbTopology>(
          ncs::UsbTopology::single_hub(config.devices, ncs::usb2_link()));
      break;
    case HostConfig::Topology::kAllDirect:
      g_host.topology = std::make_unique<ncs::UsbTopology>(
          ncs::UsbTopology::all_direct(config.devices, ncs::usb3_link()));
      break;
  }
  for (int d = 0; d < config.devices; ++d) {
    ncs::NcsConfig dev_cfg = config.ncs;
    if (d == config.degraded_device && config.degraded_factor > 1.0) {
      dev_cfg.chip.clock_hz /= config.degraded_factor;
    }
    auto state = std::make_shared<DeviceState>();
    state->device = std::make_unique<ncs::NcsDevice>(
        d, g_host.topology->channel_for(d), dev_cfg);
    if (!config.faults.empty()) {
      state->device->set_fault_timeline(config.faults.timeline_for(d));
    }
    g_host.devices.push_back(std::move(state));
  }
}

std::uint64_t host_generation() {
  return g_generation.load(std::memory_order_relaxed);
}

int host_device_count() {
  std::lock_guard lock(g_mutex);
  return static_cast<int>(g_host.devices.size());
}

ncs::UsbTopology& host_topology() {
  std::lock_guard lock(g_mutex);
  if (!g_host.topology) throw std::logic_error("mvnc host not configured");
  return *g_host.topology;
}

bool set_functional_network(void* graphHandle, const nn::Graph* graph,
                            const nn::WeightsH* weights) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<GraphState> g = as_graph(graphHandle);
  if (!g) return false;
  if ((graph == nullptr) != (weights == nullptr)) return false;
  std::shared_ptr<const nn::Plan<ncsw::fp16::half>> plan;
  if (graph) {
    const auto in_shape = graph->layer(graph->input_id()).out_shape;
    if (in_shape.numel() != g->package->compiled.input_shape.numel()) {
      return false;
    }
    try {
      plan = std::make_shared<const nn::Plan<ncsw::fp16::half>>(
          *graph, *weights, nn::resolve_fast(false));
    } catch (const std::exception&) {
      return false;  // invalid graph or weights
    }
  }
  std::lock_guard glock(g->mutex);
  g->plan = std::move(plan);
  return true;
}

std::optional<ncs::InferenceTicket> last_ticket(void* graphHandle) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<GraphState> g = as_graph(graphHandle);
  if (!g) return std::nullopt;
  std::lock_guard glock(g->mutex);
  return g->last_ticket;
}

bool set_host_time(void* graphHandle, double t) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<GraphState> g = as_graph(graphHandle);
  if (!g) return false;
  std::lock_guard glock(g->mutex);
  g->host_clock = std::max(g->host_clock, t);
  return true;
}

std::optional<double> host_time(void* graphHandle) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<GraphState> g = as_graph(graphHandle);
  if (!g) return std::nullopt;
  std::lock_guard glock(g->mutex);
  return g->host_clock;
}

bool set_inter_op_gap(void* graphHandle, double gap_s) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<GraphState> g = as_graph(graphHandle);
  if (!g || gap_s < 0) return false;
  std::lock_guard glock(g->mutex);
  g->inter_op_gap = gap_s;
  return true;
}

bool set_watchdog(void* graphHandle, double timeout_s) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<GraphState> g = as_graph(graphHandle);
  if (!g || timeout_s < 0) return false;
  std::lock_guard glock(g->mutex);
  g->watchdog_s = timeout_s;
  check::verifier().on_watchdog(graphHandle, timeout_s, g->host_clock);
  return true;
}

std::optional<double> replug_device(void* deviceHandle, double t) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<DeviceState> d = as_device(deviceHandle);
  if (!d) return std::nullopt;
  const std::optional<double> ready = d->device->replug(t);
  if (ready) check::verifier().on_replug(deviceHandle, *ready);
  return ready;
}

ncs::NcsDevice* device_of(void* deviceHandle) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<DeviceState> d = as_device(deviceHandle);
  return d ? d->device.get() : nullptr;
}

ncs::NcsDevice* graph_device(void* graphHandle) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<GraphState> g = as_graph(graphHandle);
  return g && g->dev ? g->dev->device.get() : nullptr;
}

int pending_results(void* graphHandle) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<GraphState> g = as_graph(graphHandle);
  if (!g) return -1;
  std::lock_guard glock(g->mutex);
  return static_cast<int>(g->pending.size());
}

// ---------------------------------------------------------------------------
// mvnc.h — the NCAPI surface
// ---------------------------------------------------------------------------

mvncStatus mvncGetDeviceName(int index, char* name, unsigned int nameSize) {
  if (!name || nameSize == 0) return MVNC_INVALID_PARAMETERS;
  std::lock_guard lock(g_mutex);
  if (index < 0 || index >= static_cast<int>(g_host.devices.size())) {
    return MVNC_DEVICE_NOT_FOUND;
  }
  const std::string n =
      g_host.devices[static_cast<std::size_t>(index)]->device->name();
  if (n.size() + 1 > nameSize) return MVNC_INVALID_PARAMETERS;
  std::memcpy(name, n.c_str(), n.size() + 1);
  return MVNC_OK;
}

mvncStatus mvncOpenDevice(const char* name, void** deviceHandle) {
  if (!name || !deviceHandle) return MVNC_INVALID_PARAMETERS;
  std::lock_guard lock(g_mutex);
  for (auto& state : g_host.devices) {
    if (state->device->name() == name) {
      if (state->handle_open) {
        check::verifier().on_open(state.get(), state->device->id(),
                                  MVNC_BUSY, 0.0);
        return MVNC_BUSY;
      }
      if (!state->device->is_open()) {
        state->device->open(0.0);
      }
      state->handle_open = true;
      g_host.device_handles.emplace(state.get(), state);
      *deviceHandle = state.get();
      check::verifier().on_open(state.get(), state->device->id(), MVNC_OK,
                                0.0);
      return MVNC_OK;
    }
  }
  return MVNC_DEVICE_NOT_FOUND;
}

mvncStatus mvncCloseDevice(void* deviceHandle) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<DeviceState> d = as_device(deviceHandle);
  if (!d) {
    check::verifier().on_close(deviceHandle, MVNC_INVALID_PARAMETERS, 0.0);
    return MVNC_INVALID_PARAMETERS;
  }
  // Graph handles on this device become invalid.
  for (GraphState* g : std::vector<GraphState*>(d->graphs)) {
    if (const auto owned = as_graph(g)) destroy_graph_locked(g, owned);
  }
  d->handle_open = false;
  g_host.device_handles.erase(deviceHandle);
  check::verifier().on_close(deviceHandle, MVNC_OK, 0.0);
  return MVNC_OK;
}

mvncStatus allocate_graph_at(void* deviceHandle, void** graphHandle,
                             const void* graphFile,
                             unsigned int graphFileLength,
                             double host_time_s) {
  if (!graphHandle || !graphFile || graphFileLength == 0) {
    return MVNC_INVALID_PARAMETERS;
  }
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<DeviceState> d = as_device(deviceHandle);
  if (!d) {
    check::verifier().on_allocate(deviceHandle, nullptr, 0,
                                  MVNC_INVALID_PARAMETERS, 0.0);
    return MVNC_INVALID_PARAMETERS;
  }

  HostState::ParsedFile parsed;
  try {
    parsed = parse_locked(static_cast<const std::uint8_t*>(graphFile),
                          graphFileLength);
  } catch (const std::exception&) {
    return MVNC_UNSUPPORTED_GRAPH_FILE;
  }
  std::shared_ptr<const graphc::GraphPackage>& package = parsed.package;
  if (package->compiled.precision != graphc::Precision::kFP16) {
    // The stick executes FP16 graphs only.
    return MVNC_UNSUPPORTED_GRAPH_FILE;
  }

  auto g = std::make_shared<GraphState>();
  g->dev = d;
  try {
    // The compiled graph aliases the package, so the device's per-graph
    // profile cache sees the same object for every allocation of it.
    const double ready = d->device->allocate_graph(
        std::shared_ptr<const graphc::CompiledGraph>(package,
                                                     &package->compiled),
        host_time_s);
    g->host_clock = ready;
  } catch (const ncs::OutOfDeviceMemory&) {
    return MVNC_OUT_OF_MEMORY;
  } catch (const std::exception&) {
    return MVNC_ERROR;
  }
  // A graph file that shipped its network + weights executes
  // functionally.
  g->plan = std::move(parsed.plan);
  g->package = std::move(package);
  GraphState* raw = g.get();
  d->graphs.push_back(raw);
  g_host.graph_handles.emplace(raw, std::move(g));
  *graphHandle = raw;
  check::verifier().on_allocate(deviceHandle, raw,
                                d->device->config().fifo_depth, MVNC_OK,
                                raw->host_clock);
  return MVNC_OK;
}

mvncStatus mvncAllocateGraph(void* deviceHandle, void** graphHandle,
                             const void* graphFile,
                             unsigned int graphFileLength) {
  return allocate_graph_at(deviceHandle, graphHandle, graphFile,
                           graphFileLength, 0.0);
}

mvncStatus mvncDeallocateGraph(void* graphHandle) {
  std::lock_guard lock(g_mutex);
  const std::shared_ptr<GraphState> g = as_graph(graphHandle);
  if (!g) {
    check::verifier().on_deallocate(graphHandle, MVNC_INVALID_PARAMETERS,
                                    0.0);
    return MVNC_INVALID_PARAMETERS;
  }
  double t = 0.0;
  {
    std::lock_guard glock(g->mutex);
    t = g->host_clock;
  }
  destroy_graph_locked(graphHandle, g);
  check::verifier().on_deallocate(graphHandle, MVNC_OK, t);
  return MVNC_OK;
}

mvncStatus mvncLoadTensor(void* graphHandle, const void* inputTensor,
                          unsigned int inputTensorLength, void* userParam) {
  std::shared_ptr<GraphState> g;
  {
    std::lock_guard lock(g_mutex);
    g = as_graph(graphHandle);
  }
  if (!g || !inputTensor) {
    check::verifier().on_load(graphHandle, MVNC_INVALID_PARAMETERS, 0.0);
    return MVNC_INVALID_PARAMETERS;
  }

  std::lock_guard glock(g->mutex);
  if (g->dead) {
    // The handle was deallocated between the lookup and here.
    check::verifier().on_load(graphHandle, MVNC_INVALID_PARAMETERS,
                              g->host_clock);
    return MVNC_INVALID_PARAMETERS;
  }
  const auto expected =
      static_cast<unsigned int>(g->package->compiled.input_bytes());
  if (inputTensorLength != expected) return MVNC_INVALID_PARAMETERS;
  if (g->dev->device->is_open() && !g->dev->device->has_graph()) {
    // The firmware rebooted (detach + hot replug) and lost the graph;
    // the handle is stale and must be re-allocated. While the stick is
    // still off the bus the call maps to MVNC_GONE below instead.
    check::verifier().on_load(graphHandle, MVNC_INVALID_PARAMETERS,
                              g->host_clock);
    return MVNC_INVALID_PARAMETERS;
  }

  static util::Counter& m_loads =
      util::metrics().counter("mvnc.load_tensor.calls");
  static util::Counter& m_busy = util::metrics().counter("mvnc.busy");
  m_loads.add(1);
  const double issued_at = g->host_clock;
  std::optional<ncs::InferenceTicket> ticket;
  try {
    ticket = g->dev->device->load_tensor(g->host_clock, userParam);
  } catch (const ncs::TransientUsbError&) {
    // Scripted transient transfer fault: nothing was queued; the caller
    // may retry once the window has passed (advance the host clock).
    util::metrics().counter("mvnc.transient_errors").add(1);
    check::verifier().on_load(graphHandle, MVNC_ERROR, g->host_clock);
    return MVNC_ERROR;
  } catch (const ncs::DeviceUnplugged&) {
    g->pending.clear();
    check::verifier().on_load(graphHandle, MVNC_GONE, g->host_clock);
    return MVNC_GONE;
  }
  if (!ticket) {
    m_busy.add(1);
    check::verifier().on_load(graphHandle, MVNC_BUSY, g->host_clock);
    return MVNC_BUSY;
  }
  g->host_clock = ticket->input_done;
  auto& tr = util::tracer();
  if (tr.enabled()) {
    // The API-call lifecycle on the host lane: issue -> input transferred
    // (the non-blocking half of Listing 1's split).
    tr.complete(
        "mvnc", "LoadTensor",
        tr.lane("dev" + std::to_string(g->dev->device->id()) + " host"),
        issued_at, ticket->input_done,
        {util::TraceArg::num("seq", static_cast<std::int64_t>(ticket->seq))});
  }

  GraphState::Pending pending;
  pending.user = userParam;
  if (g->plan) {
    // Execute the functional FP16 network on the payload.
    const nn::Graph& net = g->plan->graph();
    g->input.resize(net.layer(net.input_id()).out_shape);
    std::memcpy(g->input.data(), inputTensor, inputTensorLength);
    g->plan->run(g->input, g->result);
    const auto& out = g->result.output;
    pending.output.assign(out.data(), out.data() + out.numel());
  } else {
    pending.output.assign(
        static_cast<std::size_t>(g->package->compiled.num_outputs),
        ncsw::fp16::half{});
  }
  g->pending.push_back(std::move(pending));
  check::verifier().on_load(graphHandle, MVNC_OK, g->host_clock);
  return MVNC_OK;
}

mvncStatus mvncGetResult(void* graphHandle, void** outputData,
                         unsigned int* outputDataLength, void** userParam) {
  std::shared_ptr<GraphState> g;
  {
    std::lock_guard lock(g_mutex);
    g = as_graph(graphHandle);
  }
  if (!g || !outputData || !outputDataLength) {
    check::verifier().on_get(graphHandle, MVNC_INVALID_PARAMETERS, 0.0);
    return MVNC_INVALID_PARAMETERS;
  }

  std::lock_guard glock(g->mutex);
  if (g->dead) {
    // The handle was deallocated between the lookup and here.
    check::verifier().on_get(graphHandle, MVNC_INVALID_PARAMETERS,
                             g->host_clock);
    return MVNC_INVALID_PARAMETERS;
  }
  if (g->pending.empty()) {
    check::verifier().on_get(graphHandle, MVNC_NO_DATA, g->host_clock);
    return MVNC_NO_DATA;
  }
  static util::Counter& m_gets =
      util::metrics().counter("mvnc.get_result.calls");
  m_gets.add(1);
  const double wait_from = g->host_clock;
  std::optional<ncs::InferenceTicket> ticket;
  try {
    ticket = g->dev->device->get_result(g->host_clock, g->watchdog_s);
  } catch (const ncs::DeviceTimeout& timeout) {
    // Watchdog expired: the host stops waiting, the inference stays
    // queued on the stick, and a later GetResult can still retrieve it.
    g->host_clock = timeout.gave_up_at;
    util::metrics().counter("mvnc.timeouts").add(1);
    auto& tr = util::tracer();
    if (tr.enabled()) {
      tr.complete(
          "mvnc", "GetResult(timeout)",
          tr.lane("dev" + std::to_string(g->dev->device->id()) + " host"),
          wait_from, timeout.gave_up_at);
    }
    check::verifier().on_get(graphHandle, MVNC_TIMEOUT, g->host_clock);
    return MVNC_TIMEOUT;
  } catch (const ncs::DeviceUnplugged&) {
    g->pending.clear();  // in-flight results died with the link
    check::verifier().on_get(graphHandle, MVNC_GONE, g->host_clock);
    return MVNC_GONE;
  }
  if (!ticket) return MVNC_ERROR;  // FIFO desync: should be impossible

  GraphState::Pending pending = std::move(g->pending.front());
  g->pending.pop_front();
  g->host_clock = ticket->result_ready + g->inter_op_gap;
  auto& tr = util::tracer();
  if (tr.enabled()) {
    // Host blocked from the call until the output landed (the blocking
    // half of the split).
    tr.complete(
        "mvnc", "GetResult",
        tr.lane("dev" + std::to_string(g->dev->device->id()) + " host"),
        wait_from, ticket->result_ready,
        {util::TraceArg::num("seq", static_cast<std::int64_t>(ticket->seq))});
  }
  g->last_ticket = *ticket;
  g->last_output = std::move(pending.output);

  *outputData = g->last_output.data();
  *outputDataLength = static_cast<unsigned int>(
      g->last_output.size() * sizeof(ncsw::fp16::half));
  if (userParam) *userParam = pending.user;
  check::verifier().on_get(graphHandle, MVNC_OK, g->host_clock);
  return MVNC_OK;
}

mvncStatus mvncGetGraphOption(void* graphHandle, int option, void* data,
                              unsigned int* dataLength) {
  std::shared_ptr<GraphState> g;
  {
    std::lock_guard lock(g_mutex);
    g = as_graph(graphHandle);
  }
  if (!g || !data || !dataLength) return MVNC_INVALID_PARAMETERS;

  std::lock_guard glock(g->mutex);
  if (g->dead) return MVNC_INVALID_PARAMETERS;
  switch (option) {
    case MVNC_TIME_TAKEN: {
      // Stale after a detach + replug: the firmware lost the graph (and
      // with it the layer profile) until the host re-allocates.
      if (!g->dev->device->has_graph()) return MVNC_INVALID_PARAMETERS;
      const auto profile = g->dev->device->profile();
      const unsigned int needed = static_cast<unsigned int>(
          profile->layers.size() * sizeof(float));
      if (*dataLength < needed) return MVNC_INVALID_PARAMETERS;
      auto* out = static_cast<float*>(data);
      for (std::size_t i = 0; i < profile->layers.size(); ++i) {
        out[i] = static_cast<float>(profile->layers[i].time_s * 1e3);
      }
      *dataLength = needed;
      return MVNC_OK;
    }
    case MVNC_DEBUG_INFO: {
      const auto& compiled = g->package->compiled;
      char buf[160];
      const int len = std::snprintf(
          buf, sizeof(buf), "net=%s layers=%zu macs=%lld exec_ms=%.3f",
          compiled.net_name.c_str(), compiled.layers.size(),
          static_cast<long long>(compiled.total_macs()),
          g->dev->device->profile()->total_s * 1e3);
      if (len < 0 || *dataLength < static_cast<unsigned int>(len) + 1) {
        return MVNC_INVALID_PARAMETERS;
      }
      std::memcpy(data, buf, static_cast<std::size_t>(len) + 1);
      *dataLength = static_cast<unsigned int>(len) + 1;
      return MVNC_OK;
    }
    default:
      return MVNC_INVALID_PARAMETERS;
  }
}

mvncStatus mvncGetDeviceOption(void* deviceHandle, int option, void* data,
                               unsigned int* dataLength) {
  std::shared_ptr<DeviceState> d;
  {
    std::lock_guard lock(g_mutex);
    d = as_device(deviceHandle);
  }
  if (!d || !data || !dataLength) return MVNC_INVALID_PARAMETERS;
  ncs::NcsDevice& dev = *d->device;

  switch (option) {
    case MVNC_TEMP_LIM_LOWER:
    case MVNC_TEMP_LIM_HIGHER: {
      if (*dataLength < sizeof(float)) return MVNC_INVALID_PARAMETERS;
      const auto [lower, higher] = dev.temp_limits();
      const float value = static_cast<float>(
          option == MVNC_TEMP_LIM_LOWER ? lower : higher);
      *static_cast<float*>(data) = value;
      *dataLength = sizeof(float);
      return MVNC_OK;
    }
    case MVNC_THERMAL_STATS: {
      const auto history = dev.thermal_history();
      const auto needed =
          static_cast<unsigned int>(history.size() * sizeof(float));
      if (*dataLength < needed) return MVNC_INVALID_PARAMETERS;
      std::memcpy(data, history.data(), needed);
      *dataLength = needed;
      return MVNC_OK;
    }
    case MVNC_OPTIMISATION_LIST: {
      const char kOpts[] = "fp16 im2col-gemm cmx-tiling overlap-dma";
      if (*dataLength < sizeof(kOpts)) return MVNC_INVALID_PARAMETERS;
      std::memcpy(data, kOpts, sizeof(kOpts));
      *dataLength = sizeof(kOpts);
      return MVNC_OK;
    }
    default:
      return MVNC_INVALID_PARAMETERS;
  }
}

mvncStatus mvncSetDeviceOption(void* deviceHandle, int option,
                               const void* data, unsigned int dataLength) {
  std::shared_ptr<DeviceState> d;
  {
    std::lock_guard lock(g_mutex);
    d = as_device(deviceHandle);
  }
  if (!d || !data) return MVNC_INVALID_PARAMETERS;
  ncs::NcsDevice& dev = *d->device;

  switch (option) {
    case MVNC_TEMP_LIM_LOWER:
    case MVNC_TEMP_LIM_HIGHER: {
      if (dataLength != sizeof(float)) return MVNC_INVALID_PARAMETERS;
      float value;
      std::memcpy(&value, data, sizeof(float));
      auto [lower, higher] = dev.temp_limits();
      (option == MVNC_TEMP_LIM_LOWER ? lower : higher) = value;
      try {
        dev.set_temp_limits(lower, higher);
      } catch (const std::exception&) {
        return MVNC_INVALID_PARAMETERS;
      }
      return MVNC_OK;
    }
    default:
      return MVNC_INVALID_PARAMETERS;
  }
}

}  // namespace ncsw::mvnc
