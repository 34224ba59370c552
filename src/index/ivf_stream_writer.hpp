/**
 * @file
 * Bounded-memory streaming builder for v3 index files.
 *
 * IvfIndex::add keeps every encoded vector resident until save(), so
 * building a shard takes O(datastore) RAM. The stream writer takes a
 * trained prototype (centroids + codec — the small, train-once state)
 * and spills each incoming batch to a temp file as compact
 * (list, id, code) records; finish() then scatters the records into
 * their final list-major positions with a bounded set of flush buffers.
 *
 * The output is byte-identical to training the same prototype, add()ing
 * the same rows in the same order, and calling save(): record order in
 * the temp file is arrival order, and the scatter preserves it per
 * list. Peak resident memory is O(prototype + buffer budget + batch),
 * independent of datastore size.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "index/ivf_index.hpp"

namespace hermes {
namespace index {

/** Streams vectors into a v3 index file with bounded resident memory. */
class IvfStreamWriter
{
  public:
    struct Options
    {
        /** Scatter-phase flush budget across all list buffers. */
        std::size_t buffer_budget_bytes = std::size_t(64) << 20;
    };

    /**
     * @param prototype Trained index supplying centroids, codec and
     *                  config; its lists are ignored (typically empty).
     * @param path      Output index file.
     * @throws util::FormatError (Io) when the spill file cannot be
     *         created.
     */
    IvfStreamWriter(const IvfIndex &prototype, const std::string &path,
                    Options options);

    /** Default options: 64 MiB scatter budget, spill next to output. */
    IvfStreamWriter(const IvfIndex &prototype, const std::string &path);

    /** Removes the spill file if finish() was never reached. */
    ~IvfStreamWriter();

    IvfStreamWriter(const IvfStreamWriter &) = delete;
    IvfStreamWriter &operator=(const IvfStreamWriter &) = delete;

    /**
     * Assign + encode + spill one batch through the prototype's own row
     * encoder, so rows land in the output exactly as the same add()
     * call on the prototype would place them. The assign/encode runs on
     * the build pool (util::ThreadPool::shared()); the spill stays
     * sequential, in row order.
     */
    void add(const vecstore::Matrix &data,
             const std::vector<vecstore::VecId> &ids);

    /**
     * Open the output through the prototype's file header (the one
     * save() writes), scatter the spilled records into their lists,
     * write checksums, publish the file by rename (a file already at
     * the output path is untouched until then), delete the spill file.
     * @return Total vectors written.
     */
    std::uint64_t finish();

  private:
    const IvfIndex &prototype_;
    std::string path_;
    Options options_;
    std::FILE *spill_ = nullptr;
    std::string spill_path_;
    std::size_t code_size_ = 0;
    std::uint64_t ntotal_ = 0;
    std::vector<std::uint64_t> counts_;
    bool finished_ = false;
};

} // namespace index
} // namespace hermes
