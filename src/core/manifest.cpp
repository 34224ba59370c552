#include "core/manifest.hpp"

#include <charconv>
#include <fstream>
#include <map>

namespace hermes {
namespace core {

namespace {

using util::FormatError;
using util::FormatErrorCode;

using Fields = std::map<std::string, std::string>;

const std::string &
field(const Fields &kv, const std::string &key, const std::string &path)
{
    const auto it = kv.find(key);
    if (it == kv.end())
        throw FormatError(FormatErrorCode::Corrupt,
                          path + ": missing key '" + key + "'");
    return it->second;
}

std::size_t
number(const Fields &kv, const std::string &key, const std::string &path)
{
    const std::string &text = field(kv, key, path);
    std::size_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || ec != std::errc() ||
        end != text.data() + text.size()) {
        throw FormatError(FormatErrorCode::Corrupt,
                          path + ": " + key + " is not a count: '" + text +
                              "'");
    }
    return value;
}

} // namespace

void
Manifest::save(const std::filesystem::path &dir) const
{
    const std::string path = (dir / "manifest.txt").string();
    std::ofstream out(path);
    out << "type=" << type << '\n';
    out << "num_clusters=" << num_clusters << '\n';
    out << "dim=" << dim << '\n';
    out << "codec=" << codec << '\n';
    out << "corpus=" << corpus_file << '\n';
    out << "centroids=" << centroids_file << '\n';
    for (std::size_t c = 0; c < cluster_files.size(); ++c)
        out << "cluster_" << c << '=' << cluster_files[c] << '\n';
    out.close();
    if (!out)
        throw FormatError(FormatErrorCode::Io,
                          path + ": cannot write manifest");
}

Manifest
Manifest::load(const std::filesystem::path &dir)
{
    const std::string path = (dir / "manifest.txt").string();
    std::ifstream in(path);
    if (!in)
        throw FormatError(FormatErrorCode::Io,
                          path + ": cannot open manifest (run "
                                 "hermes_build_index first)");
    Fields kv;
    std::string line;
    while (std::getline(in, line)) {
        auto eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
    Manifest manifest;
    manifest.type = field(kv, "type", path);
    manifest.num_clusters = number(kv, "num_clusters", path);
    manifest.dim = number(kv, "dim", path);
    manifest.codec = field(kv, "codec", path);
    manifest.corpus_file = field(kv, "corpus", path);
    manifest.centroids_file = field(kv, "centroids", path);
    for (std::size_t c = 0; c < manifest.num_clusters; ++c)
        manifest.cluster_files.push_back(
            field(kv, "cluster_" + std::to_string(c), path));
    return manifest;
}

DistributedStore
loadStore(const std::filesystem::path &dir, const Manifest &manifest,
          HermesConfig config, StoreLoadMode mode)
{
    config.num_clusters = manifest.num_clusters;
    config.codec = manifest.codec;
    std::vector<std::unique_ptr<index::IvfIndex>> indices;
    for (const auto &file : manifest.cluster_files) {
        const std::string path = (dir / file).string();
        indices.push_back(mode == StoreLoadMode::kMapped
                              ? index::IvfIndex::openMapped(path)
                              : index::IvfIndex::load(path));
    }
    auto centroids =
        vecstore::Matrix::load((dir / manifest.centroids_file).string());
    return DistributedStore::assemble(config, std::move(indices),
                                      std::move(centroids));
}

DistributedStore
loadStore(const std::filesystem::path &dir, const Manifest &manifest,
          HermesConfig config)
{
    return loadStore(dir, manifest, std::move(config),
                     StoreLoadMode::kHeap);
}

} // namespace core
} // namespace hermes
