/**
 * @file
 * Transformer encoder builders (Vaswani et al.). Attention is expressed with
 * the library's token-major GEMM layers: projections are FC-per-token,
 * scores/context are Matmul layers with head-major channel layout, and the
 * softmax/layer-norm vector ops are explicit graph nodes.
 */

#include <string>

#include "src/common/logging.hh"
#include "src/dnn/zoo.hh"

namespace gemini::dnn::zoo {

namespace {

/** One post-LN encoder block: MHA + FFN with residuals. */
LayerId
encoderBlock(GraphBuilder &b, const std::string &p, LayerId x,
             std::int64_t d_model, std::int64_t heads, std::int64_t d_ff)
{
    LayerId q = b.fc(p + ".q", x, d_model);
    LayerId k = b.fc(p + ".k", x, d_model);
    LayerId v = b.fc(p + ".v", x, d_model);
    LayerId scores = b.matmul(p + ".qk", q, k, heads, /*transpose_b=*/true);
    LayerId attn = b.softmax(p + ".softmax", scores, heads);
    LayerId ctx = b.matmul(p + ".av", attn, v, heads, /*transpose_b=*/false);
    LayerId proj = b.fc(p + ".proj", ctx, d_model);
    LayerId res1 = b.eltwise(p + ".add1", {x, proj});
    LayerId ln1 = b.layerNorm(p + ".ln1", res1);
    LayerId ff1 = b.fc(p + ".ff1", ln1, d_ff);
    LayerId ff2 = b.fc(p + ".ff2", ff1, d_model);
    LayerId res2 = b.eltwise(p + ".add2", {ln1, ff2});
    return b.layerNorm(p + ".ln2", res2);
}

Graph
buildEncoder(const std::string &name, std::int64_t seq_len,
             std::int64_t d_model, std::int64_t heads, std::int64_t d_ff,
             int blocks)
{
    GEMINI_ASSERT(d_model % heads == 0, "d_model must divide by heads");
    // The external input is the embedded token sequence: d_model channels
    // by seq_len "token rows" (embedding lookup itself is not a compute
    // layer in an inference accelerator cost model).
    GraphBuilder b(name, d_model, seq_len, 1);
    LayerId x = b.fc("embed_proj", GraphBuilder::kInput, d_model);
    for (int i = 0; i < blocks; ++i)
        x = encoderBlock(b, "enc" + std::to_string(i), x, d_model, heads,
                         d_ff);
    b.fc("lm_head", x, d_model);
    return b.finish();
}

} // namespace

Graph
transformerBase(std::int64_t seq_len)
{
    return buildEncoder("transformer", seq_len, 512, 8, 2048, 6);
}

Graph
transformerLarge(std::int64_t seq_len)
{
    return buildEncoder("transformer_large", seq_len, 1024, 16, 4096, 6);
}

Graph
gpt2Medium(std::int64_t seq_len)
{
    // GPT-2 medium (Radford et al.): d=1024, 16 heads, 24 blocks, 4d FFN.
    // Expressed with the encoder block structure — the cost model prices
    // dense GEMMs, so the decoder's causal masking (which only zeroes
    // half the score matrix) is the same workload shape. At 290 layers
    // this is the paper-scale stress DNN: layer groups reach 100+ layers,
    // where each SA proposal's cost is dominated by group size.
    return buildEncoder("gpt2_medium", seq_len, 1024, 16, 4096, 24);
}

Graph
tinyTransformer(std::int64_t seq_len, std::int64_t d_model,
                std::int64_t heads, int blocks)
{
    return buildEncoder("tiny_transformer", seq_len, d_model, heads,
                        4 * d_model, blocks);
}

} // namespace gemini::dnn::zoo
