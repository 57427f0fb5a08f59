#include "nn/graph.h"

#include <cmath>
#include <set>
#include <stdexcept>

namespace ncsw::nn {

const char* layer_kind_name(LayerKind kind) noexcept {
  switch (kind) {
    case LayerKind::kInput:
      return "Input";
    case LayerKind::kConv:
      return "Conv";
    case LayerKind::kReLU:
      return "ReLU";
    case LayerKind::kMaxPool:
      return "MaxPool";
    case LayerKind::kAvgPool:
      return "AvgPool";
    case LayerKind::kLRN:
      return "LRN";
    case LayerKind::kConcat:
      return "Concat";
    case LayerKind::kFC:
      return "FC";
    case LayerKind::kSoftmax:
      return "Softmax";
    case LayerKind::kDropout:
      return "Dropout";
  }
  return "?";
}

std::int64_t conv_extent(std::int64_t in, int kernel, int stride,
                         int pad) noexcept {
  return (in + 2 * pad - kernel) / stride + 1;
}

std::int64_t pooled_extent(std::int64_t in, int kernel, int stride, int pad,
                           bool ceil_mode) noexcept {
  const std::int64_t span = in + 2 * pad - kernel;
  std::int64_t out;
  if (ceil_mode) {
    out = (span + stride - 1) / stride + 1;
  } else {
    out = span / stride + 1;
  }
  // Caffe clamp: the last pooling window must start strictly inside the
  // (left-padded) input.
  if (pad > 0 && (out - 1) * stride >= in + pad) {
    --out;
  }
  return out;
}

int Graph::append(Layer layer) {
  if (find(layer.name) >= 0) {
    throw std::logic_error("Graph: duplicate layer name '" + layer.name + "'");
  }
  for (int in : layer.inputs) {
    if (in < 0 || in >= size()) {
      throw std::logic_error("Graph: layer '" + layer.name +
                             "' references unknown input id " +
                             std::to_string(in));
    }
  }
  layers_.push_back(std::move(layer));
  return size() - 1;
}

const Shape& Graph::in_shape(int input, const char* what) const {
  if (input < 0 || input >= size()) {
    throw std::logic_error(std::string(what) + ": bad input id " +
                           std::to_string(input));
  }
  return layers_[static_cast<std::size_t>(input)].out_shape;
}

int Graph::add_input(const std::string& name, int channels, int height,
                     int width) {
  if (input_id_ >= 0) {
    throw std::logic_error("Graph: only one input layer is supported");
  }
  if (channels <= 0 || height <= 0 || width <= 0) {
    throw std::logic_error("Graph: input dimensions must be positive");
  }
  Layer layer;
  layer.kind = LayerKind::kInput;
  layer.name = name;
  layer.out_shape = Shape{1, channels, height, width};
  input_id_ = append(std::move(layer));
  return input_id_;
}

int Graph::add_conv(const std::string& name, int input, const ConvParams& p) {
  const Shape& in = in_shape(input, "add_conv");
  if (p.out_channels <= 0 || p.kernel <= 0 || p.stride <= 0 || p.pad < 0) {
    throw std::logic_error("add_conv: bad parameters for '" + name + "'");
  }
  const std::int64_t oh = conv_extent(in.h, p.kernel, p.stride, p.pad);
  const std::int64_t ow = conv_extent(in.w, p.kernel, p.stride, p.pad);
  if (oh <= 0 || ow <= 0) {
    throw std::logic_error("add_conv: kernel does not fit for '" + name + "'");
  }
  Layer layer;
  layer.kind = LayerKind::kConv;
  layer.name = name;
  layer.inputs = {input};
  layer.conv = p;
  layer.out_shape = Shape{1, p.out_channels, oh, ow};
  return append(std::move(layer));
}

int Graph::add_relu(const std::string& name, int input) {
  Layer layer;
  layer.kind = LayerKind::kReLU;
  layer.name = name;
  layer.inputs = {input};
  layer.out_shape = in_shape(input, "add_relu");
  return append(std::move(layer));
}

namespace {
ncsw::nn::Shape pool_shape(const ncsw::tensor::Shape& in, const PoolParams& p,
                           const std::string& name) {
  if (p.global) {
    return Shape{1, in.c, 1, 1};
  }
  if (p.kernel <= 0 || p.stride <= 0 || p.pad < 0) {
    throw std::logic_error("add_pool: bad parameters for '" + name + "'");
  }
  const std::int64_t oh =
      pooled_extent(in.h, p.kernel, p.stride, p.pad, p.ceil_mode);
  const std::int64_t ow =
      pooled_extent(in.w, p.kernel, p.stride, p.pad, p.ceil_mode);
  if (oh <= 0 || ow <= 0) {
    throw std::logic_error("add_pool: window does not fit for '" + name + "'");
  }
  return Shape{1, in.c, oh, ow};
}
}  // namespace

int Graph::add_max_pool(const std::string& name, int input,
                        const PoolParams& p) {
  Layer layer;
  layer.kind = LayerKind::kMaxPool;
  layer.name = name;
  layer.inputs = {input};
  layer.pool = p;
  layer.out_shape = pool_shape(in_shape(input, "add_max_pool"), p, name);
  return append(std::move(layer));
}

int Graph::add_avg_pool(const std::string& name, int input,
                        const PoolParams& p) {
  Layer layer;
  layer.kind = LayerKind::kAvgPool;
  layer.name = name;
  layer.inputs = {input};
  layer.pool = p;
  layer.out_shape = pool_shape(in_shape(input, "add_avg_pool"), p, name);
  return append(std::move(layer));
}

int Graph::add_lrn(const std::string& name, int input, const LRNParams& p) {
  if (p.local_size <= 0 || p.local_size % 2 == 0) {
    throw std::logic_error("add_lrn: local_size must be odd and positive");
  }
  if (!std::isfinite(p.alpha) || !std::isfinite(p.beta) ||
      !std::isfinite(p.k)) {
    throw std::logic_error("add_lrn: alpha, beta and k must be finite");
  }
  Layer layer;
  layer.kind = LayerKind::kLRN;
  layer.name = name;
  layer.inputs = {input};
  layer.lrn = p;
  layer.out_shape = in_shape(input, "add_lrn");
  return append(std::move(layer));
}

int Graph::add_concat(const std::string& name, const std::vector<int>& inputs) {
  if (inputs.empty()) {
    throw std::logic_error("add_concat: no inputs for '" + name + "'");
  }
  const Shape& first = in_shape(inputs[0], "add_concat");
  std::int64_t channels = 0;
  for (int in : inputs) {
    const Shape& s = in_shape(in, "add_concat");
    if (s.h != first.h || s.w != first.w) {
      throw std::logic_error("add_concat: spatial mismatch for '" + name +
                             "': " + s.to_string() + " vs " +
                             first.to_string());
    }
    channels += s.c;
  }
  Layer layer;
  layer.kind = LayerKind::kConcat;
  layer.name = name;
  layer.inputs = inputs;
  layer.out_shape = Shape{1, channels, first.h, first.w};
  return append(std::move(layer));
}

int Graph::add_fc(const std::string& name, int input, const FCParams& p) {
  if (p.out_features <= 0) {
    throw std::logic_error("add_fc: out_features must be positive");
  }
  (void)in_shape(input, "add_fc");
  Layer layer;
  layer.kind = LayerKind::kFC;
  layer.name = name;
  layer.inputs = {input};
  layer.fc = p;
  layer.out_shape = Shape{1, p.out_features, 1, 1};
  return append(std::move(layer));
}

int Graph::add_softmax(const std::string& name, int input) {
  Layer layer;
  layer.kind = LayerKind::kSoftmax;
  layer.name = name;
  layer.inputs = {input};
  layer.out_shape = in_shape(input, "add_softmax");
  return append(std::move(layer));
}

int Graph::add_dropout(const std::string& name, int input) {
  Layer layer;
  layer.kind = LayerKind::kDropout;
  layer.name = name;
  layer.inputs = {input};
  layer.out_shape = in_shape(input, "add_dropout");
  return append(std::move(layer));
}

int Graph::find(const std::string& name) const noexcept {
  for (int i = 0; i < size(); ++i) {
    if (layers_[static_cast<std::size_t>(i)].name == name) return i;
  }
  return -1;
}

void Graph::validate() const {
  if (input_id_ != 0 || layers_.empty()) {
    throw std::logic_error("Graph: must start with exactly one input layer");
  }
  std::set<std::string> names;
  for (int i = 0; i < size(); ++i) {
    const Layer& l = layers_[static_cast<std::size_t>(i)];
    if (!names.insert(l.name).second) {
      throw std::logic_error("Graph: duplicate layer name '" + l.name + "'");
    }
    if (l.kind == LayerKind::kInput) {
      if (i != 0) throw std::logic_error("Graph: input must be layer 0");
      if (!l.inputs.empty()) {
        throw std::logic_error("Graph: input layer cannot have inputs");
      }
      continue;
    }
    if (l.inputs.empty()) {
      throw std::logic_error("Graph: layer '" + l.name + "' has no inputs");
    }
    for (int in : l.inputs) {
      if (in < 0 || in >= i) {
        throw std::logic_error("Graph: layer '" + l.name +
                               "' breaks topological order");
      }
    }
    check_shape(l.out_shape, "Graph::validate");
  }
}

std::int64_t layer_macs(const Graph& graph, int id) {
  const Layer& l = graph.layer(id);
  const Shape& out = l.out_shape;
  switch (l.kind) {
    case LayerKind::kConv: {
      const Shape& in = graph.layer(l.inputs[0]).out_shape;
      return out.numel() * in.c * l.conv.kernel * l.conv.kernel;
    }
    case LayerKind::kFC: {
      const Shape& in = graph.layer(l.inputs[0]).out_shape;
      return static_cast<std::int64_t>(l.fc.out_features) * in.chw();
    }
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool: {
      if (l.pool.global) {
        const Shape& in = graph.layer(l.inputs[0]).out_shape;
        return in.numel();  // one pass over the input
      }
      return out.numel() * l.pool.kernel * l.pool.kernel;
    }
    case LayerKind::kLRN:
      // square + windowed sum + pow + divide, approx local_size + 2 ops/elt
      return out.numel() * (l.lrn.local_size + 2);
    case LayerKind::kReLU:
    case LayerKind::kSoftmax:
      return out.numel();
    case LayerKind::kConcat:
    case LayerKind::kDropout:
    case LayerKind::kInput:
      return 0;
  }
  return 0;
}

}  // namespace ncsw::nn
