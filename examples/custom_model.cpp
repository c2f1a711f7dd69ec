/**
 * @file
 * Building a custom DNN with the GraphBuilder API and mapping it. The
 * model here is a small detector-style network: a conv backbone, a
 * two-branch neck (classification + regression heads) and a concat — the
 * kind of topology the layer-centric encoding handles without any special
 * cases.
 */

#include <cstdio>

#include "src/arch/presets.hh"
#include "src/dnn/zoo.hh"
#include "src/mapping/engine.hh"

using namespace gemini;

int
main()
{
    // Input: 3x128x128 image.
    dnn::GraphBuilder b("toy_detector", 3, 128, 128);

    // Backbone.
    LayerId x = b.conv("stem", dnn::GraphBuilder::kInput, 32, 3, 2, 1);
    x = b.conv("c1", x, 64, 3, 2, 1);
    LayerId c2 = b.conv("c2", x, 128, 3, 2, 1);   // 16x16
    LayerId c3 = b.conv("c3", c2, 256, 3, 2, 1);  // 8x8

    // Neck: upsample-free FPN-lite (1x1 lateral + head per scale).
    LayerId lat2 = b.pointwise("lat2", c2, 128);
    LayerId lat3 = b.pointwise("lat3", c3, 128);

    // Heads on the coarse scale.
    LayerId cls = b.conv("cls_head", lat3, 128, 3, 1, 1);
    cls = b.pointwise("cls_out", cls, 80);
    LayerId reg = b.conv("reg_head", lat3, 128, 3, 1, 1);
    reg = b.pointwise("reg_out", reg, 4);
    b.concat("detect_out", {cls, reg});

    // Extra head on the fine scale keeps both branches alive.
    LayerId aux = b.conv("aux_head", lat2, 64, 3, 1, 1);
    b.globalPool("aux_pool", aux);

    const dnn::Graph model = b.finish();
    std::printf("%s\n", model.summary().c_str());

    // Map onto a 16-core monolithic accelerator.
    arch::ArchConfig arch = arch::tinyArch();
    arch.xCores = 4;
    arch.yCores = 4;
    arch.macsPerCore = 512;
    arch.glbKiB = 1024;
    arch.dramBwGBps = 64.0;

    mapping::MappingOptions options;
    options.batch = 8;
    options.sa.iterations = 2000;
    mapping::MappingEngine engine(model, arch, options);
    const mapping::MappingResult r = engine.run();

    std::printf("mapped into %zu groups; delay %.3f ms, energy %.4f J\n",
                r.mapping.groups.size(), r.total.delay * 1e3,
                r.total.totalEnergy());
    for (std::size_t g = 0; g < r.mapping.groups.size(); ++g)
        std::printf("group %zu:%s\n\n", g,
                    mapping::toString(model, r.mapping.groups[g]).c_str());

    return 0;
}
