/**
 * @file
 * GoogLeNet (Inception-v1) and Inception-ResNet-v1 builders. These are the
 * "intricate dependency" workloads of the paper: multi-branch modules with
 * concat joins (GoogLeNet) plus residual adds (Inception-ResNet).
 */

#include <string>

#include "src/dnn/zoo.hh"

namespace gemini::dnn::zoo {

namespace {

/** Classic GoogLeNet inception module: 1x1 / 3x3 / 5x5 / pool-proj. */
LayerId
inceptionV1(GraphBuilder &b, const std::string &p, LayerId in,
            std::int64_t c1, std::int64_t c3r, std::int64_t c3,
            std::int64_t c5r, std::int64_t c5, std::int64_t cp)
{
    LayerId b1 = b.conv(p + ".1x1", in, c1, 1, 1, 0);
    LayerId b2 = b.conv(p + ".3x3r", in, c3r, 1, 1, 0);
    b2 = b.conv(p + ".3x3", b2, c3, 3, 1, 1);
    LayerId b3 = b.conv(p + ".5x5r", in, c5r, 1, 1, 0);
    b3 = b.conv(p + ".5x5", b3, c5, 5, 1, 2);
    LayerId b4 = b.pool(p + ".pool", in, 3, 1, 1);
    b4 = b.conv(p + ".poolproj", b4, cp, 1, 1, 0);
    return b.concat(p + ".cat", {b1, b2, b3, b4});
}

/** Inception-ResNet-A block (35x35 grid, 256 channels in v1). */
LayerId
iresA(GraphBuilder &b, const std::string &p, LayerId in)
{
    LayerId b1 = b.conv(p + ".b1", in, 32, 1, 1, 0);
    LayerId b2 = b.conv(p + ".b2a", in, 32, 1, 1, 0);
    b2 = b.conv(p + ".b2b", b2, 32, 3, 1, 1);
    LayerId b3 = b.conv(p + ".b3a", in, 32, 1, 1, 0);
    b3 = b.conv(p + ".b3b", b3, 32, 3, 1, 1);
    b3 = b.conv(p + ".b3c", b3, 32, 3, 1, 1);
    LayerId cat = b.concat(p + ".cat", {b1, b2, b3});
    LayerId up = b.conv(p + ".up", cat, 256, 1, 1, 0);
    return b.eltwise(p + ".add", {in, up});
}

/** Inception-ResNet-B block (17x17 grid, 896 channels in v1). */
LayerId
iresB(GraphBuilder &b, const std::string &p, LayerId in)
{
    LayerId b1 = b.conv(p + ".b1", in, 128, 1, 1, 0);
    LayerId b2 = b.conv(p + ".b2a", in, 128, 1, 1, 0);
    b2 = b.conv(p + ".b2b", b2, 128, 1, 7, 1, 0, 3);
    b2 = b.conv(p + ".b2c", b2, 128, 7, 1, 1, 3, 0);
    LayerId cat = b.concat(p + ".cat", {b1, b2});
    LayerId up = b.conv(p + ".up", cat, 896, 1, 1, 0);
    return b.eltwise(p + ".add", {in, up});
}

/** Inception-ResNet-C block (8x8 grid, 1792 channels in v1). */
LayerId
iresC(GraphBuilder &b, const std::string &p, LayerId in)
{
    LayerId b1 = b.conv(p + ".b1", in, 192, 1, 1, 0);
    LayerId b2 = b.conv(p + ".b2a", in, 192, 1, 1, 0);
    b2 = b.conv(p + ".b2b", b2, 192, 1, 3, 1, 0, 1);
    b2 = b.conv(p + ".b2c", b2, 192, 3, 1, 1, 1, 0);
    LayerId cat = b.concat(p + ".cat", {b1, b2});
    LayerId up = b.conv(p + ".up", cat, 1792, 1, 1, 0);
    return b.eltwise(p + ".add", {in, up});
}

} // namespace

Graph
googlenet()
{
    GraphBuilder b("googlenet", 3, 224, 224);
    LayerId x = b.conv("conv1", GraphBuilder::kInput, 64, 7, 2, 3);
    x = b.pool("pool1", x, 3, 2, 1);
    x = b.conv("conv2r", x, 64, 1, 1, 0);
    x = b.conv("conv2", x, 192, 3, 1, 1);
    x = b.pool("pool2", x, 3, 2, 1);
    x = inceptionV1(b, "3a", x, 64, 96, 128, 16, 32, 32);
    x = inceptionV1(b, "3b", x, 128, 128, 192, 32, 96, 64);
    x = b.pool("pool3", x, 3, 2, 1);
    x = inceptionV1(b, "4a", x, 192, 96, 208, 16, 48, 64);
    x = inceptionV1(b, "4b", x, 160, 112, 224, 24, 64, 64);
    x = inceptionV1(b, "4c", x, 128, 128, 256, 24, 64, 64);
    x = inceptionV1(b, "4d", x, 112, 144, 288, 32, 64, 64);
    x = inceptionV1(b, "4e", x, 256, 160, 320, 32, 128, 128);
    x = b.pool("pool4", x, 3, 2, 1);
    x = inceptionV1(b, "5a", x, 256, 160, 320, 32, 128, 128);
    x = inceptionV1(b, "5b", x, 384, 192, 384, 48, 128, 128);
    x = b.globalPool("avgpool", x);
    b.fc("fc", x, 1000);
    return b.finish();
}

Graph
inceptionResnetV1()
{
    GraphBuilder b("inception_resnet_v1", 3, 299, 299);
    // Stem.
    LayerId x = b.conv("stem.c1", GraphBuilder::kInput, 32, 3, 2, 0);
    x = b.conv("stem.c2", x, 32, 3, 1, 0);
    x = b.conv("stem.c3", x, 64, 3, 1, 1);
    x = b.pool("stem.pool", x, 3, 2, 0);
    x = b.conv("stem.c4", x, 80, 1, 1, 0);
    x = b.conv("stem.c5", x, 192, 3, 1, 0);
    x = b.conv("stem.c6", x, 256, 3, 2, 0);

    // Block names are built from a std::string, not a literal: gcc 12
    // reports a false -Wrestrict inside `"a" + std::to_string(i)`.
    for (int i = 0; i < 5; ++i)
        x = iresA(b, std::string(1, 'a') + std::to_string(i), x);

    // Reduction-A to a 17x17 grid, 896 channels.
    LayerId r1 = b.conv("redA.b1", x, 384, 3, 2, 0);
    LayerId r2 = b.conv("redA.b2a", x, 192, 1, 1, 0);
    r2 = b.conv("redA.b2b", r2, 192, 3, 1, 1);
    r2 = b.conv("redA.b2c", r2, 256, 3, 2, 0);
    LayerId r3 = b.pool("redA.pool", x, 3, 2, 0);
    x = b.concat("redA.cat", {r1, r2, r3});

    for (int i = 0; i < 10; ++i)
        x = iresB(b, std::string(1, 'b') + std::to_string(i), x);

    // Reduction-B to an 8x8 grid, 1792 channels.
    LayerId s1 = b.conv("redB.b1a", x, 256, 1, 1, 0);
    s1 = b.conv("redB.b1b", s1, 384, 3, 2, 0);
    LayerId s2 = b.conv("redB.b2a", x, 256, 1, 1, 0);
    s2 = b.conv("redB.b2b", s2, 256, 3, 2, 0);
    LayerId s3 = b.conv("redB.b3a", x, 256, 1, 1, 0);
    s3 = b.conv("redB.b3b", s3, 256, 3, 1, 1);
    s3 = b.conv("redB.b3c", s3, 256, 3, 2, 0);
    LayerId s4 = b.pool("redB.pool", x, 3, 2, 0);
    x = b.concat("redB.cat", {s1, s2, s3, s4});

    for (int i = 0; i < 5; ++i)
        x = iresC(b, std::string(1, 'c') + std::to_string(i), x);

    x = b.globalPool("avgpool", x);
    b.fc("fc", x, 1000);
    return b.finish();
}

} // namespace gemini::dnn::zoo
