/**
 * @file
 * Fixed-size worker pool with a parallel-for helper.
 *
 * FAISS-style batch query processing schedules one task per query and lets
 * workers steal greedily from a shared counter; parallelFor() mirrors that
 * behaviour (Section 6, Takeaway 1 of the paper).
 *
 * Fault model: a task that throws never calls std::terminate. Exceptions
 * are captured into the task's TaskGroup and rethrown (first one wins)
 * from the matching wait(). Each parallelFor() call owns a private group,
 * so concurrent callers never wait on each other's tasks, and a
 * parallelFor() issued from inside a pool task runs inline instead of
 * deadlocking on its own worker.
 *
 * Build pool: shared() is the one process-wide pool that every index
 * build path (k-means, IvfIndex::add, IvfStreamWriter::add,
 * DistributedStore::build) runs on. It is created on first use and
 * never destroyed, and its parallelFor() runs inline in a process that
 * did not create it (a fork()ed child has none of its workers).
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <sys/types.h>
#include <thread>
#include <vector>

namespace hermes {
namespace util {

/** Simple fixed-size thread pool. */
class ThreadPool
{
  private:
    /** Completion/error state shared by the tasks of one group. */
    struct GroupState
    {
        std::mutex mutex;
        std::condition_variable cv_done;
        std::size_t pending = 0;
        std::exception_ptr error; ///< first exception thrown by a task
    };

  public:
    /**
     * A set of tasks whose completion (and failure) is tracked together.
     * wait() blocks only on this group's tasks and rethrows the first
     * exception any of them raised.
     */
    class TaskGroup
    {
      public:
        explicit TaskGroup(ThreadPool &pool)
            : pool_(pool), state_(std::make_shared<GroupState>())
        {
        }

        TaskGroup(const TaskGroup &) = delete;
        TaskGroup &operator=(const TaskGroup &) = delete;

        /** Blocks until done; a pending exception is dropped, so call
         *  wait() explicitly if you care about task failures. */
        ~TaskGroup() { waitNoThrow(); }

        /** Enqueue a task belonging to this group. */
        void run(std::function<void()> task)
        {
            pool_.enqueue(state_, std::move(task));
        }

        /**
         * Block until every task of this group has completed; rethrows
         * the first exception captured from a task (clearing it).
         */
        void wait() { ThreadPool::waitGroup(*state_); }

        /** wait() that swallows a captured exception (for destructors). */
        void waitNoThrow();

      private:
        ThreadPool &pool_;
        std::shared_ptr<GroupState> state_;
    };

    /**
     * @param num_threads Worker count; 0 selects hardware_concurrency().
     */
    explicit ThreadPool(std::size_t num_threads = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Drains the queue and joins all workers. */
    ~ThreadPool();

    /**
     * The process-wide build pool: hardware_concurrency() workers
     * (named "hermes-build"), created on first use. It is never
     * destroyed, so no exit path — a forked child's exit() included —
     * joins workers that may not exist.
     */
    static ThreadPool &shared();

    /**
     * Enqueue a task in the pool-wide default group. An exception thrown
     * by the task is captured and rethrown from the next wait().
     */
    void submit(std::function<void()> task);

    /**
     * Block until every default-group task has completed; rethrows the
     * first exception captured from one of them. Tasks submitted through
     * explicit TaskGroups are not waited on here.
     */
    void wait();

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /**
     * Run fn(i) for i in [0, n) across the pool, work-stealing from a
     * shared atomic counter, and block until done. The calling thread
     * participates in the loop, so progress is guaranteed even when all
     * workers are busy with other groups. Runs inline when the pool has
     * a single worker, when called from inside one of this pool's own
     * tasks or loops (nested parallelFor, so nesting never adds
     * threads), or from a process other than the one that created the
     * pool (a forked child). If any iteration throws, remaining
     * indices are abandoned and the first exception is rethrown here.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * parallelFor over [0, n) in blocks of @p block items: fn(begin, end)
     * once per block, so cheap items share one dispatch.
     */
    void parallelForBlocks(
        std::size_t n, std::size_t block,
        const std::function<void(std::size_t, std::size_t)> &fn);

    /**
     * Block size for parallelForBlocks over items that each cost about
     * @p cost_per_item scalar operations: enough items that one task's
     * work outweighs its dispatch, at least one.
     */
    static std::size_t blockFor(std::size_t cost_per_item);

    /** True when the calling thread is one of this pool's workers or is
     *  running a loop of this pool's parallelFor. */
    bool insideWorker() const;

  private:
    friend class TaskGroup;

    void workerLoop();

    /** Enqueue @p task so that completion/errors land in @p group. */
    void enqueue(const std::shared_ptr<GroupState> &group,
                 std::function<void()> task);

    /** Block on @p group; rethrow (and clear) its first captured error. */
    static void waitGroup(GroupState &group);

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_task_;
    std::shared_ptr<GroupState> default_group_;
    bool stopping_ = false;
    const pid_t owner_pid_; ///< process that started the workers
};

} // namespace util
} // namespace hermes
