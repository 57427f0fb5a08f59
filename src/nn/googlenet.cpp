#include "nn/googlenet.h"

#include <cmath>
#include <stdexcept>

namespace ncsw::nn {

int add_inception(Graph& graph, const std::string& prefix, int input,
                  const InceptionSpec& spec) {
  // Branch 1: 1x1 conv.
  int b1 = graph.add_conv(prefix + "/1x1", input,
                          ConvParams{spec.c1, 1, 1, 0});
  b1 = graph.add_relu(prefix + "/relu_1x1", b1);

  // Branch 2: 1x1 reduce -> 3x3.
  int b2 = graph.add_conv(prefix + "/3x3_reduce", input,
                          ConvParams{spec.c3r, 1, 1, 0});
  b2 = graph.add_relu(prefix + "/relu_3x3_reduce", b2);
  b2 = graph.add_conv(prefix + "/3x3", b2, ConvParams{spec.c3, 3, 1, 1});
  b2 = graph.add_relu(prefix + "/relu_3x3", b2);

  // Branch 3: 1x1 reduce -> 5x5.
  int b3 = graph.add_conv(prefix + "/5x5_reduce", input,
                          ConvParams{spec.c5r, 1, 1, 0});
  b3 = graph.add_relu(prefix + "/relu_5x5_reduce", b3);
  b3 = graph.add_conv(prefix + "/5x5", b3, ConvParams{spec.c5, 5, 1, 2});
  b3 = graph.add_relu(prefix + "/relu_5x5", b3);

  // Branch 4: 3x3 max pool (stride 1, pad 1) -> 1x1 proj.
  int b4 = graph.add_max_pool(prefix + "/pool", input,
                              PoolParams{3, 1, 1, /*ceil=*/true, false});
  b4 = graph.add_conv(prefix + "/pool_proj", b4,
                      ConvParams{spec.pool, 1, 1, 0});
  b4 = graph.add_relu(prefix + "/relu_pool_proj", b4);

  return graph.add_concat(prefix + "/output", {b1, b2, b3, b4});
}

Graph build_googlenet() {
  Graph g("bvlc_googlenet");
  const int data = g.add_input("data", 3, 224, 224);

  int x = g.add_conv("conv1/7x7_s2", data, ConvParams{64, 7, 2, 3});
  x = g.add_relu("conv1/relu_7x7", x);
  x = g.add_max_pool("pool1/3x3_s2", x, PoolParams{3, 2, 0, true, false});
  x = g.add_lrn("pool1/norm1", x, LRNParams{5, 1e-4f, 0.75f, 1.0f});

  x = g.add_conv("conv2/3x3_reduce", x, ConvParams{64, 1, 1, 0});
  x = g.add_relu("conv2/relu_3x3_reduce", x);
  x = g.add_conv("conv2/3x3", x, ConvParams{192, 3, 1, 1});
  x = g.add_relu("conv2/relu_3x3", x);
  x = g.add_lrn("conv2/norm2", x, LRNParams{5, 1e-4f, 0.75f, 1.0f});
  x = g.add_max_pool("pool2/3x3_s2", x, PoolParams{3, 2, 0, true, false});

  x = add_inception(g, "inception_3a", x, {64, 96, 128, 16, 32, 32});
  x = add_inception(g, "inception_3b", x, {128, 128, 192, 32, 96, 64});
  x = g.add_max_pool("pool3/3x3_s2", x, PoolParams{3, 2, 0, true, false});

  x = add_inception(g, "inception_4a", x, {192, 96, 208, 16, 48, 64});
  x = add_inception(g, "inception_4b", x, {160, 112, 224, 24, 64, 64});
  x = add_inception(g, "inception_4c", x, {128, 128, 256, 24, 64, 64});
  x = add_inception(g, "inception_4d", x, {112, 144, 288, 32, 64, 64});
  x = add_inception(g, "inception_4e", x, {256, 160, 320, 32, 128, 128});
  x = g.add_max_pool("pool4/3x3_s2", x, PoolParams{3, 2, 0, true, false});

  x = add_inception(g, "inception_5a", x, {256, 160, 320, 32, 128, 128});
  x = add_inception(g, "inception_5b", x, {384, 192, 384, 48, 128, 128});

  PoolParams global_avg;
  global_avg.global = true;
  x = g.add_avg_pool("pool5/7x7_s1", x, global_avg);
  x = g.add_dropout("pool5/drop_7x7_s1", x);
  x = g.add_fc("loss3/classifier", x, FCParams{1000});
  x = g.add_softmax("prob", x);

  g.validate();
  return g;
}

Graph build_tiny_googlenet(const TinyGoogLeNetConfig& config) {
  if (config.input_size < 16 || config.num_classes < 2) {
    throw std::invalid_argument("build_tiny_googlenet: bad config");
  }
  Graph g("tiny_googlenet");
  const int data = g.add_input("data", 3, config.input_size,
                               config.input_size);

  int x = g.add_conv("conv1/7x7_s2", data, ConvParams{16, 7, 2, 3});
  x = g.add_relu("conv1/relu_7x7", x);
  x = g.add_max_pool("pool1/3x3_s2", x, PoolParams{3, 2, 0, true, false});
  x = g.add_lrn("pool1/norm1", x, LRNParams{5, 1e-4f, 0.75f, 1.0f});

  x = g.add_conv("conv2/3x3_reduce", x, ConvParams{16, 1, 1, 0});
  x = g.add_relu("conv2/relu_3x3_reduce", x);
  x = g.add_conv("conv2/3x3", x, ConvParams{32, 3, 1, 1});
  x = g.add_relu("conv2/relu_3x3", x);
  x = g.add_lrn("conv2/norm2", x, LRNParams{5, 1e-4f, 0.75f, 1.0f});

  x = add_inception(g, "inception_3a", x, {8, 12, 16, 4, 8, 8});
  x = add_inception(g, "inception_3b", x, {16, 16, 24, 4, 8, 8});
  x = g.add_max_pool("pool3/3x3_s2", x, PoolParams{3, 2, 0, true, false});

  x = add_inception(g, "inception_4a", x, {24, 24, 32, 8, 16, 16});

  PoolParams global_avg;
  global_avg.global = true;
  x = g.add_avg_pool("pool5/global", x, global_avg);
  x = g.add_dropout("pool5/drop", x);
  x = g.add_fc("loss3/classifier", x, FCParams{config.num_classes});
  x = g.add_softmax("prob", x);

  g.validate();
  return g;
}

void fit_template_classifier(const Graph& graph, WeightsF& weights,
                             const std::string& fc_name,
                             const std::vector<tensor::TensorF>& prototypes) {
  const int fc_id = graph.find(fc_name);
  if (fc_id < 0) {
    throw std::invalid_argument("fit_template_classifier: no layer '" +
                                fc_name + "'");
  }
  const Layer& fc = graph.layer(fc_id);
  if (fc.kind != LayerKind::kFC) {
    throw std::invalid_argument("fit_template_classifier: '" + fc_name +
                                "' is not FC");
  }
  const int num_classes = fc.fc.out_features;
  if (static_cast<int>(prototypes.size()) != num_classes) {
    throw std::invalid_argument(
        "fit_template_classifier: prototype count != classes");
  }
  const int feature_layer = fc.inputs[0];
  const std::int64_t feat_dim =
      graph.layer(feature_layer).out_shape.chw();

  auto [ws, bs] = param_shapes(graph, fc_id);
  tensor::TensorF w(ws);
  ExecOptions opts;
  opts.keep_all_activations = true;
  for (int c = 0; c < num_classes; ++c) {
    auto result = run_forward(graph, weights, prototypes[static_cast<std::size_t>(c)], opts);
    const auto& feat =
        result.activations[static_cast<std::size_t>(feature_layer)];
    if (feat.shape().chw() != feat_dim || feat.shape().n != 1) {
      throw std::logic_error("fit_template_classifier: feature shape drift");
    }
    double norm_sq = 0.0;
    for (std::int64_t i = 0; i < feat_dim; ++i) {
      norm_sq += static_cast<double>(feat[i]) * static_cast<double>(feat[i]);
    }
    const float inv_norm =
        norm_sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm_sq)) : 0.0f;
    for (std::int64_t i = 0; i < feat_dim; ++i) {
      w[c * feat_dim + i] = feat[i] * inv_norm;
    }
  }
  weights[fc_name].w = std::move(w);
  weights[fc_name].b = tensor::TensorF(bs);
}

std::int64_t graph_macs(const Graph& graph) {
  std::int64_t total = 0;
  for (int id = 0; id < graph.size(); ++id) {
    if (Graph::has_weights(graph.layer(id).kind)) {
      total += layer_macs(graph, id);
    }
  }
  return total;
}

}  // namespace ncsw::nn
