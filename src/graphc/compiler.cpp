#include "graphc/compiler.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/serialize.h"
#include "nn/weights.h"
#include "util/binio.h"

namespace ncsw::graphc {

const char* precision_name(Precision p) noexcept {
  return p == Precision::kFP16 ? "FP16" : "FP32";
}

std::int64_t CompiledGraph::total_macs() const noexcept {
  std::int64_t total = 0;
  for (const auto& l : layers) total += l.macs;
  return total;
}

std::int64_t CompiledGraph::total_weight_bytes() const noexcept {
  std::int64_t total = 0;
  for (const auto& l : layers) total += l.weight_bytes;
  return total;
}

std::int64_t CompiledGraph::total_activation_bytes() const noexcept {
  std::int64_t total = 0;
  for (const auto& l : layers) total += l.in_bytes + l.out_bytes;
  return total;
}

std::int64_t CompiledGraph::input_bytes() const noexcept {
  return input_shape.numel() * bytes_per_scalar(precision);
}

std::int64_t CompiledGraph::output_bytes() const noexcept {
  return num_outputs * bytes_per_scalar(precision);
}

CompiledGraph compile(const nn::Graph& graph, Precision precision,
                      const CompileOptions& options) {
  graph.validate();
  if (options.macs_per_tile <= 0 || options.cmx_budget_bytes <= 0) {
    throw std::logic_error("compile: bad options");
  }
  const std::int64_t elt = bytes_per_scalar(precision);

  CompiledGraph out;
  out.net_name = graph.name();
  out.precision = precision;
  out.input_shape = graph.layer(graph.input_id()).out_shape;
  out.num_outputs = graph.output_shape().numel();
  out.layers.reserve(static_cast<std::size_t>(graph.size()));

  for (int id = 0; id < graph.size(); ++id) {
    const nn::Layer& l = graph.layer(id);
    LayerCost cost;
    cost.id = id;
    cost.kind = l.kind;
    cost.name = l.name;
    cost.out_shape = l.out_shape;
    cost.in_shape =
        l.inputs.empty() ? l.out_shape : graph.layer(l.inputs[0]).out_shape;
    cost.macs = nn::layer_macs(graph, id);

    std::int64_t in_elems = 0;
    for (int in : l.inputs) in_elems += graph.layer(in).out_shape.numel();
    cost.in_bytes = in_elems * elt;
    cost.out_bytes = l.out_shape.numel() * elt;

    if (nn::Graph::has_weights(l.kind)) {
      const auto [ws, bs] = nn::param_shapes(graph, id);
      cost.weight_bytes = (ws.numel() + bs.numel()) * elt;
    }

    // Tiling: compute-bound layers are split into ~macs_per_tile quanta;
    // pure data movers by 16 KiB chunks. At least one tile each.
    if (cost.macs > 0) {
      cost.tiles = static_cast<std::int32_t>(std::max<std::int64_t>(
          1, (cost.macs + options.macs_per_tile - 1) / options.macs_per_tile));
    } else {
      const std::int64_t bytes = cost.in_bytes + cost.out_bytes;
      cost.tiles = static_cast<std::int32_t>(
          std::max<std::int64_t>(1, bytes / (16 * 1024)));
    }

    // CMX residency: one tile's activations plus the layer's weights must
    // fit; otherwise the executor streams weights from DDR (slower path).
    const std::int64_t tile_act_bytes =
        (cost.in_bytes + cost.out_bytes) / cost.tiles;
    cost.fits_cmx =
        tile_act_bytes + cost.weight_bytes <= options.cmx_budget_bytes;

    out.layers.push_back(std::move(cost));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serialisation — little-endian, magic "NCSG"; version 1 carries the cost
// records, version 2 appends an optional functional payload (network
// structure + FP16 weights), making the file self-contained like a real
// NCS graph file.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kMagic = 0x4753434eu;  // "NCSG"
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionV2 = 2;

void put_shape(util::BinWriter& w, const tensor::Shape& s) {
  w.put(s.n);
  w.put(s.c);
  w.put(s.h);
  w.put(s.w);
}

tensor::Shape get_shape(util::BinReader& r) {
  tensor::Shape s;
  s.n = r.get<std::int64_t>();
  s.c = r.get<std::int64_t>();
  s.h = r.get<std::int64_t>();
  s.w = r.get<std::int64_t>();
  if (!s.valid()) throw std::runtime_error("graph file: invalid shape");
  return s;
}

void write_compiled(util::BinWriter& w, const CompiledGraph& graph) {
  w.put(static_cast<std::uint8_t>(graph.precision));
  w.put_string(graph.net_name);
  put_shape(w, graph.input_shape);
  w.put(graph.num_outputs);
  w.put(static_cast<std::uint32_t>(graph.layers.size()));
  for (const auto& l : graph.layers) {
    w.put(l.id);
    w.put(static_cast<std::uint8_t>(l.kind));
    w.put_string(l.name);
    w.put(l.macs);
    w.put(l.in_bytes);
    w.put(l.out_bytes);
    w.put(l.weight_bytes);
    w.put(l.tiles);
    w.put(static_cast<std::uint8_t>(l.fits_cmx ? 1 : 0));
    put_shape(w, l.in_shape);
    put_shape(w, l.out_shape);
  }
}

CompiledGraph read_compiled(util::BinReader& r) {
  CompiledGraph g;
  const auto prec = r.get<std::uint8_t>();
  if (prec > 1) throw std::runtime_error("graph file: bad precision");
  g.precision = static_cast<Precision>(prec);
  g.net_name = r.get_string();
  g.input_shape = get_shape(r);
  g.num_outputs = r.get<std::int64_t>();
  if (g.num_outputs <= 0) throw std::runtime_error("graph file: bad outputs");
  const auto count = r.get<std::uint32_t>();
  if (count == 0 || count > 1u << 16) {
    throw std::runtime_error("graph file: bad layer count");
  }
  g.layers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    LayerCost l;
    l.id = r.get<std::int32_t>();
    const auto kind = r.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(nn::LayerKind::kDropout)) {
      throw std::runtime_error("graph file: bad layer kind");
    }
    l.kind = static_cast<nn::LayerKind>(kind);
    l.name = r.get_string();
    l.macs = r.get<std::int64_t>();
    l.in_bytes = r.get<std::int64_t>();
    l.out_bytes = r.get<std::int64_t>();
    l.weight_bytes = r.get<std::int64_t>();
    l.tiles = r.get<std::int32_t>();
    l.fits_cmx = r.get<std::uint8_t>() != 0;
    l.in_shape = get_shape(r);
    l.out_shape = get_shape(r);
    if (l.macs < 0 || l.in_bytes < 0 || l.out_bytes < 0 ||
        l.weight_bytes < 0 || l.tiles < 1) {
      throw std::runtime_error("graph file: negative cost fields");
    }
    g.layers.push_back(std::move(l));
  }
  return g;
}

}  // namespace

std::vector<std::uint8_t> serialize(const CompiledGraph& graph) {
  util::BinWriter w;
  w.put(kMagic);
  w.put(kVersionV1);
  write_compiled(w, graph);
  return w.take();
}

std::vector<std::uint8_t> serialize_package(const CompiledGraph& graph,
                                            const nn::Graph* net,
                                            const nn::WeightsH* weights) {
  if ((net == nullptr) != (weights == nullptr)) {
    throw std::logic_error(
        "serialize_package: net and weights must come together");
  }
  util::BinWriter w;
  w.put(kMagic);
  w.put(kVersionV2);
  write_compiled(w, graph);
  w.put(static_cast<std::uint8_t>(net ? 1 : 0));
  if (net) {
    nn::write_graph(w, *net);
    nn::write_weights(w, *weights);
  }
  return w.take();
}

GraphPackage deserialize_package(const std::vector<std::uint8_t>& bytes) {
  util::BinReader r(bytes);
  if (r.get<std::uint32_t>() != kMagic) {
    throw std::runtime_error("graph file: bad magic");
  }
  const auto version = r.get<std::uint32_t>();
  if (version != kVersionV1 && version != kVersionV2) {
    throw std::runtime_error("graph file: unsupported version");
  }
  GraphPackage pkg;
  pkg.compiled = read_compiled(r);
  if (version == kVersionV2) {
    pkg.functional = r.get<std::uint8_t>() != 0;
    if (pkg.functional) {
      pkg.net = nn::read_graph(r);
      pkg.weights = nn::read_weights_f16(r);
      try {
        nn::check_weights(pkg.net, pkg.weights);
      } catch (const std::logic_error& e) {
        // Corrupted payload: surface as a format error, like every other
        // malformed-input path.
        throw std::runtime_error(std::string("graph file: ") + e.what());
      }
      const auto in_shape = pkg.net.layer(pkg.net.input_id()).out_shape;
      if (in_shape.numel() != pkg.compiled.input_shape.numel()) {
        throw std::runtime_error(
            "graph file: functional payload input mismatch");
      }
    }
  }
  if (!r.done()) throw std::runtime_error("graph file: trailing bytes");
  return pkg;
}

CompiledGraph deserialize(const std::vector<std::uint8_t>& bytes) {
  return deserialize_package(bytes).compiled;
}

}  // namespace ncsw::graphc
