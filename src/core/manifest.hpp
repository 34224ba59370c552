/**
 * @file
 * The on-disk deployment manifest tying together the corpus matrix,
 * cluster centroids and the serialized per-cluster indices (artifact
 * appendix A.5 steps 7-12). Built once by hermes_build_index, consumed
 * by the serving and evaluation binaries ("build once, serve many").
 */

#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "core/distributed_store.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace hermes {
namespace core {

/** Deployment manifest: everything needed to reload a built index set. */
struct Manifest
{
    /** "monolithic", "split" (round-robin) or "clustered" (Hermes). */
    std::string type = "clustered";

    /** Number of cluster index files. */
    std::size_t num_clusters = 0;

    /** Embedding dimensionality. */
    std::size_t dim = 0;

    /** Codec spec the indices were built with. */
    std::string codec = "SQ8";

    /** File names, relative to the manifest directory. */
    std::string corpus_file = "corpus.hmat";
    std::string centroids_file = "centroids.hmat";
    std::vector<std::string> cluster_files;

    /**
     * Write to @p dir/manifest.txt.
     * @throws util::FormatError (Io) when the file cannot be written.
     */
    void save(const std::filesystem::path &dir) const;

    /**
     * Load from @p dir/manifest.txt.
     * @throws util::FormatError: Io when the file cannot be opened,
     *         Corrupt for a missing key or a count that is not all
     *         digits.
     */
    static Manifest load(const std::filesystem::path &dir);
};

/** How loadStore materializes the per-cluster index files. */
enum class StoreLoadMode
{
    /** Copy each index into heap storage (mutable, page-cache free). */
    kHeap,

    /**
     * Zero-copy mmap each index file (read-only views; millisecond
     * cold starts, memory shared with the page cache).
     */
    kMapped,
};

/**
 * Reload a DistributedStore from a manifest directory.
 *
 * @param mode kMapped opens every cluster index as a zero-copy mmap
 *             view; kHeap copies them into mutable heap storage.
 */
DistributedStore loadStore(const std::filesystem::path &dir,
                           const Manifest &manifest, HermesConfig config,
                           StoreLoadMode mode);

/** Heap-mode overload (historical default). */
DistributedStore loadStore(const std::filesystem::path &dir,
                           const Manifest &manifest, HermesConfig config);

/**
 * Run a loader (or a saver), converting a typed format rejection into
 * the CLI discipline: a clean "[fatal] truncated/corrupt archive" (or
 * "inaccessible archive" for an open/write failure) exit(1) instead of
 * an uncaught throw through std::terminate. For use at binary entry
 * points only — library code wants the FormatError itself.
 */
template <typename Fn>
auto
loadOrFatal(Fn &&fn) -> decltype(fn())
{
    try {
        return fn();
    } catch (const util::FormatError &e) {
        const auto code = e.code();
        HERMES_FATAL(code == util::FormatErrorCode::Truncated ? "truncated"
                     : code == util::FormatErrorCode::Io      ? "inaccessible"
                                                              : "corrupt",
                     " archive: ", e.what());
    }
}

} // namespace core
} // namespace hermes
