#include "src/common/artifacts.hh"

#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "src/common/logging.hh"

namespace gemini::common {

std::string
artifactDir(int argc, char **argv, const std::string &fallback)
{
    std::string dir = fallback;
    if (const char *env = std::getenv("GEMINI_OUT_DIR"); env && *env)
        dir = env;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            dir = argv[i + 1];
            break;
        }
        if (arg.rfind("--out=", 0) == 0) {
            dir = std::string(arg.substr(6));
            break;
        }
    }
    // assign(), not `= "."`: gcc 12 reports a false -Wrestrict there.
    if (dir.empty())
        dir.assign(1, '.');
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    GEMINI_ASSERT(!ec, "cannot create artifact dir ", dir, ": ",
                  ec.message());
    return dir;
}

std::string
artifactPath(const std::string &dir, const std::string &file)
{
    return (std::filesystem::path(dir) / file).string();
}

} // namespace gemini::common
