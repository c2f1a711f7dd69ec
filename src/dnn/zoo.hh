/**
 * @file
 * Model zoo: the DNN workloads evaluated in the paper (Sec. VI-A3) plus
 * small synthetic graphs used by tests and examples, and the GraphBuilder
 * convenience API for constructing custom models.
 */

#ifndef GEMINI_DNN_ZOO_HH
#define GEMINI_DNN_ZOO_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/dnn/graph.hh"

namespace gemini::dnn {

/**
 * Incremental DAG builder with automatic shape inference. Producer ids are
 * LayerIds; pass GraphBuilder::kInput (or simply omit inputs where an
 * overload allows) to read the external network input.
 */
class GraphBuilder
{
  public:
    /** Pseudo-id denoting the external network input. */
    static constexpr LayerId kInput = -1;

    GraphBuilder(std::string name, std::int64_t c, std::int64_t h,
                 std::int64_t w);

    /** Ofmap shape of a producer (kInput gives the external input shape). */
    void shapeOf(LayerId id, std::int64_t &c, std::int64_t &h,
                 std::int64_t &w) const;

    /**
     * (Grouped) convolution with fused BN/activation.
     * Output spatial dims are inferred with floor arithmetic.
     */
    LayerId conv(const std::string &name, LayerId in, std::int64_t k,
                 std::int64_t kernel_h, std::int64_t kernel_w,
                 std::int64_t stride, std::int64_t pad_h, std::int64_t pad_w,
                 std::int64_t groups = 1);

    /** Square-kernel convolution with symmetric padding. */
    LayerId conv(const std::string &name, LayerId in, std::int64_t k,
                 std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                 std::int64_t groups = 1);

    /** Depthwise convolution (groups == channels). */
    LayerId depthwise(const std::string &name, LayerId in,
                      std::int64_t kernel, std::int64_t stride,
                      std::int64_t pad);

    /** Pointwise (1x1) convolution. */
    LayerId pointwise(const std::string &name, LayerId in, std::int64_t k);

    /**
     * Fully connected layer applied per spatial position (1x1 GEMM);
     * with an (c,1,1) input this is the classic classifier FC, with a
     * (c,L,1) input it is a per-token projection.
     */
    LayerId fc(const std::string &name, LayerId in, std::int64_t k);

    /** Max/avg pooling (cost model does not distinguish the two). */
    LayerId pool(const std::string &name, LayerId in, std::int64_t kernel,
                 std::int64_t stride, std::int64_t pad);

    /** Global pooling to 1x1. */
    LayerId globalPool(const std::string &name, LayerId in);

    /** Nearest-neighbour integer upscale (darknet-style upsample). */
    LayerId upsample(const std::string &name, LayerId in,
                     std::int64_t scale);

    /** Elementwise combination (residual add). */
    LayerId eltwise(const std::string &name,
                    std::initializer_list<LayerId> ins);

    /** Channel-wise concatenation. */
    LayerId concat(const std::string &name,
                   std::initializer_list<LayerId> ins);
    LayerId concat(const std::string &name, const std::vector<LayerId> &ins);

    /**
     * Batched activation x activation GEMM.
     * With transpose_b == true this is the attention-score product
     * (A=(heads*M)xL tokens, B=(heads*M)xN tokens, out=(heads*N)xL);
     * otherwise the context product (B=(heads*N)xM, out=(heads*N)xL).
     */
    LayerId matmul(const std::string &name, LayerId a, LayerId b,
                   std::int64_t heads, bool transpose_b);

    /** Row-wise softmax over within-head columns. */
    LayerId softmax(const std::string &name, LayerId in, std::int64_t heads);

    /** Per-token layer normalization. */
    LayerId layerNorm(const std::string &name, LayerId in);

    /** Finalize and return the graph (builder becomes unusable). */
    Graph finish();

  private:
    Graph graph_;
};

namespace zoo {

// ---- Paper workloads (Sec. VI-A3) ----

/** ResNet-50, ImageNet 224x224 (He et al.). */
Graph resnet50();

/** ResNeXt-50 32x4d, ImageNet 224x224 (Xie et al.). */
Graph resnext50();

/** GoogLeNet / Inception-v1, ImageNet 224x224 (appears in Fig. 8). */
Graph googlenet();

/** Inception-ResNet-v1, 299x299 input (Szegedy et al.). */
Graph inceptionResnetV1();

/**
 * PNASNet-5 (Liu et al.): stem + stacked discovered cells with separable
 * convs and pooling branches. `cells_per_stage` scales the three normal
 * stages (the published Large model uses 3-4; the default 2 keeps bench
 * runtimes reasonable while preserving the cell structure — see DESIGN.md).
 */
Graph pnasnet(int cells_per_stage = 2);

/** Transformer base encoder (Vaswani et al.): d=512, 8 heads, 6 layers. */
Graph transformerBase(std::int64_t seq_len = 512);

/** Transformer big encoder: d=1024, 16 heads, 6 layers ("TF-Large"). */
Graph transformerLarge(std::int64_t seq_len = 512);

/**
 * GPT-2-medium-class transformer (Radford et al.): d=1024, 16 heads,
 * 24 blocks, 4d FFN — 290 layers. The paper-scale stress workload of the
 * large SA benchmarks (100+-layer groups on the 256-core grid).
 */
Graph gpt2Medium(std::int64_t seq_len = 256);

// ---- Additional workloads (not in the paper's suite) ----

/** VGG-16: weight-heavy sequential CNN (weight-residency stressor). */
Graph vgg16();

/** MobileNetV2: inverted residuals (depthwise-utilization stressor). */
Graph mobilenetV2();

/**
 * YOLOv3-tiny backbone + two detection heads (Redmon & Farhadi): a
 * darknet-style detection workload — strided max-pool trunk, a 2x
 * upsampled feature-pyramid branch and a cross-scale concat — widening
 * the suite beyond classification nets. `num_classes` sets the head
 * width (k = 3 * (5 + classes); COCO's 80 by default).
 */
Graph yolov3Tiny(int num_classes = 80);

// ---- Small synthetic graphs for tests and examples ----

/** Straight chain of 3x3 convolutions on a 32x32 input. */
Graph tinyConvChain(int depth = 4);

/** One residual block with a projection shortcut. */
Graph tinyResidual();

/** One inception-style module with four branches and a concat. */
Graph tinyInception();

/** A single attention block (QKV + scores + softmax + context + FFN). */
Graph tinyTransformer(std::int64_t seq_len = 64, std::int64_t d_model = 64,
                      std::int64_t heads = 4, int blocks = 1);

// ---- Registry ----

/** Names accepted by byName(). */
std::vector<std::string> available();

/** Look up a model by name ("resnet50", "transformer", ...). */
Graph byName(const std::string &name);

} // namespace zoo

} // namespace gemini::dnn

#endif // GEMINI_DNN_ZOO_HH
