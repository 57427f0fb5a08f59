// Extension E11 — where FP16 error comes from (the layer-level story
// behind Fig. 7b): mean per-layer |FP32 - FP16| activation divergence as
// a function of network depth, averaged over images, plus the fraction of
// top-1 flips. Shows divergence growing through the conv stack and being
// squashed by softmax — why the paper sees only 0.4% confidence deltas.
#include <map>

#include "bench_common.h"
#include "core/model.h"
#include "nn/executor.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ext_precision_depth",
                "E11 — FP16 divergence by layer depth");
  cli.add_int("images", 24, "images to average over");
  cli.add_int("classes", 30, "synthetic classes");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  dataset::DatasetConfig data_cfg;
  data_cfg.num_classes = static_cast<int>(cli.get_int("classes"));
  const dataset::SyntheticImageNet data(data_cfg);
  auto bundle = core::ModelBundle::tiny_functional(data, {32, 0});
  const auto& graph = bundle->graph;

  std::vector<util::RunningStats> per_layer(
      static_cast<std::size_t>(graph.size()));
  int flips = 0;
  const int images = static_cast<int>(cli.get_int("images"));
  nn::ExecOptions opts;
  opts.keep_all_activations = true;

  for (int i = 0; i < images; ++i) {
    const auto input =
        data.preprocess(data.sample(0, i).image, bundle->input_size());
    const auto rf =
        nn::run_forward(graph, bundle->weights_f32, input, opts);
    const auto rh = nn::run_forward(
        graph, bundle->weights_f16,
        tensor::tensor_cast<fp16::half>(input), opts);
    for (int id = 0; id < graph.size(); ++id) {
      per_layer[id].add(tensor::max_abs_diff(rf.activations[id],
                                             rh.activations[id]));
    }
    const auto pf = nn::run_probabilities(graph, bundle->weights_f32, input);
    const auto ph =
        nn::run_probabilities(graph, bundle->weights_f16,
                              tensor::tensor_cast<fp16::half>(input));
    if (nn::argmax_per_item(pf)[0] != nn::argmax_per_item(ph)[0]) ++flips;
  }

  util::Table table("E11: max |FP32 - FP16| activation divergence by layer "
                    "(mean over " + std::to_string(images) + " images)");
  table.set_header({"depth", "layer", "kind", "mean max|diff|",
                    "worst image"});
  for (int id = 0; id < graph.size(); ++id) {
    const auto& layer = graph.layer(id);
    // Only report layers that transform data (skip ReLU echoes for
    // brevity) plus the output.
    if (layer.kind == nn::LayerKind::kReLU && id != graph.output_id()) {
      continue;
    }
    table.add_row({std::to_string(id), layer.name,
                   nn::layer_kind_name(layer.kind),
                   util::Table::num(per_layer[id].mean(), 5),
                   util::Table::num(per_layer[id].max(), 5)});
  }
  bench::emit(table, cli);

  std::cout << "\ntop-1 flips from FP16: " << flips << "/" << images
            << " images — divergence accumulates through conv/LRN, the "
               "global average pool averages much of it away, and softmax "
               "renormalisation leaves sub-percent confidence deltas "
               "(paper Fig. 7b: 0.44%).\n";
  bench::finalize(cli);
  return 0;
}
