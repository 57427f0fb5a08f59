// Declarative CNN graph: a DAG of layer descriptors with Caffe-compatible
// shape inference. The same graph drives (a) the functional executor in
// FP32 or FP16, (b) the graph compiler's FLOP/byte cost model, and (c) the
// VPU simulator's per-layer schedule — exactly the role the prototxt +
// compiled NCS graph file played in the paper's toolchain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/shape.h"

namespace ncsw::nn {

using tensor::Shape;

/// Layer taxonomy — the operators GoogLeNet needs (Caffe layer types).
enum class LayerKind {
  kInput,
  kConv,
  kReLU,
  kMaxPool,
  kAvgPool,
  kLRN,
  kConcat,
  kFC,
  kSoftmax,
  kDropout,
};

/// Human-readable layer kind name ("Conv", "MaxPool", ...).
const char* layer_kind_name(LayerKind kind) noexcept;

/// Convolution hyper-parameters (square kernels, as in GoogLeNet).
struct ConvParams {
  int out_channels = 0;
  int kernel = 1;
  int stride = 1;
  int pad = 0;
};

/// Pooling hyper-parameters. `global` pools the full spatial extent
/// (GoogLeNet's 7x7 average pool). Caffe rounds pooled sizes *up*
/// (ceil_mode), which is what the BVLC GoogLeNet prototxt relies on.
struct PoolParams {
  int kernel = 2;
  int stride = 2;
  int pad = 0;
  bool ceil_mode = true;
  bool global = false;
};

/// Local Response Normalisation across channels (AlexNet/GoogLeNet form):
/// out = in / (k + alpha/n * sum_{window} in^2)^beta.
struct LRNParams {
  int local_size = 5;
  float alpha = 1e-4f;
  float beta = 0.75f;
  float k = 1.0f;
};

/// Fully-connected (InnerProduct) parameters.
struct FCParams {
  int out_features = 0;
};

/// One node of the graph. Exactly one of the params structs is meaningful,
/// selected by `kind`; the variant-free layout keeps the descriptor
/// trivially copyable and serialisable.
struct Layer {
  LayerKind kind = LayerKind::kInput;
  std::string name;
  std::vector<int> inputs;  ///< ids of producer layers
  ConvParams conv;
  PoolParams pool;
  LRNParams lrn;
  FCParams fc;
  /// Output shape for batch = 1, filled in by shape inference at add time.
  Shape out_shape;
};

/// A validated DAG of layers. Layers are appended in topological order by
/// construction (each input id must refer to an existing layer).
class Graph {
 public:
  explicit Graph(std::string name = "net") : name_(std::move(name)) {}

  /// Graph name (used in compiled blobs and profiles).
  const std::string& name() const noexcept { return name_; }

  // ---- builder API (returns the new layer's id) -------------------------
  int add_input(const std::string& name, int channels, int height, int width);
  int add_conv(const std::string& name, int input, const ConvParams& p);
  int add_relu(const std::string& name, int input);
  int add_max_pool(const std::string& name, int input, const PoolParams& p);
  int add_avg_pool(const std::string& name, int input, const PoolParams& p);
  int add_lrn(const std::string& name, int input, const LRNParams& p);
  int add_concat(const std::string& name, const std::vector<int>& inputs);
  int add_fc(const std::string& name, int input, const FCParams& p);
  int add_softmax(const std::string& name, int input);
  int add_dropout(const std::string& name, int input);

  // ---- inspection -------------------------------------------------------
  /// Number of layers (including the input layer).
  int size() const noexcept { return static_cast<int>(layers_.size()); }
  /// Layer by id; throws std::out_of_range on a bad id.
  const Layer& layer(int id) const { return layers_.at(static_cast<std::size_t>(id)); }
  /// All layers in topological order.
  const std::vector<Layer>& layers() const noexcept { return layers_; }
  /// Id of the unique input layer; -1 if none was added yet.
  int input_id() const noexcept { return input_id_; }
  /// Id of the final layer (the network output).
  int output_id() const noexcept { return size() - 1; }
  /// Find a layer id by name; -1 when absent.
  int find(const std::string& name) const noexcept;
  /// Output shape of the final layer for batch 1.
  const Shape& output_shape() const { return layer(output_id()).out_shape; }

  /// True when layer `id` holds trainable parameters (Conv / FC).
  static bool has_weights(LayerKind kind) noexcept {
    return kind == LayerKind::kConv || kind == LayerKind::kFC;
  }

  /// Consistency check: ids are a DAG in order, names unique, exactly one
  /// input. Throws std::logic_error with a description on violation.
  void validate() const;

 private:
  int append(Layer layer);
  const Shape& in_shape(int input, const char* what) const;

  std::string name_;
  std::vector<Layer> layers_;
  int input_id_ = -1;
};

/// Operations of layer `id` for one image: multiply-accumulates for a
/// conv or an FC, window taps for a pool (one pass over the input for a
/// global pool), local_size + 2 per output for an LRN, one per output for
/// a ReLU or a softmax, none for the rest. The graph compiler's cost
/// model and the host plan's fan-out grain both count in it.
std::int64_t layer_macs(const Graph& graph, int id);

/// Caffe pooled-size rule: ceil or floor of (in + 2*pad - kernel)/stride + 1,
/// clamped so the last window starts inside the padded input.
std::int64_t pooled_extent(std::int64_t in, int kernel, int stride, int pad,
                           bool ceil_mode) noexcept;

/// Convolved output extent: floor((in + 2*pad - kernel)/stride) + 1.
std::int64_t conv_extent(std::int64_t in, int kernel, int stride,
                         int pad) noexcept;

}  // namespace ncsw::nn
