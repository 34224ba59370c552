#include "util/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <pthread.h>
#include <unistd.h>

#include "obs/obs.hpp"

namespace hermes {
namespace util {

namespace {

/** Set to the owning pool while a worker executes tasks, so a nested
 *  parallelFor() can detect it would deadlock waiting on itself. */
thread_local const ThreadPool *t_worker_pool = nullptr;

/** The pool whose parallelFor() loop the calling thread is driving as
 *  the caller, so a parallelFor nested in it runs inline too. */
thread_local const ThreadPool *t_driving = nullptr;

/** Scalar operations per parallelForBlocks task (see blockFor). */
constexpr std::size_t kTaskCost = std::size_t(1) << 16;

} // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : default_group_(std::make_shared<GroupState>()), owner_pid_(::getpid())
{
    if (num_threads == 0) {
        num_threads = std::max<std::size_t>(1,
            std::thread::hardware_concurrency());
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_task_.notify_all();
    for (auto &w : workers_)
        w.join();
}

ThreadPool &
ThreadPool::shared()
{
    // Leaked on purpose: destroying it at exit would join its workers,
    // and a forked child that exits has none to join.
    static ThreadPool *const pool = [] {
        auto *created = new ThreadPool();
        for (auto &w : created->workers_)
            pthread_setname_np(w.native_handle(), "hermes-build");
        return created;
    }();
    return *pool;
}

bool
ThreadPool::insideWorker() const
{
    return t_worker_pool == this || t_driving == this;
}

void
ThreadPool::enqueue(const std::shared_ptr<GroupState> &group,
                    std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(group->mutex);
        ++group->pending;
    }
    // The wrapper owns a shared_ptr to the group, so a TaskGroup may be
    // destroyed while its tasks are still queued without dangling.
    auto wrapped = [group, task = std::move(task)] {
        try {
            task();
        } catch (...) {
            std::unique_lock<std::mutex> lock(group->mutex);
            if (!group->error)
                group->error = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(group->mutex);
            if (--group->pending == 0)
                group->cv_done.notify_all();
        }
    };
    {
        std::unique_lock<std::mutex> lock(mutex_);
        tasks_.push(std::move(wrapped));
    }
    cv_task_.notify_one();
}

void
ThreadPool::waitGroup(GroupState &group)
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(group.mutex);
        group.cv_done.wait(lock, [&group] { return group.pending == 0; });
        error = group.error;
        group.error = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::TaskGroup::waitNoThrow()
{
    try {
        wait();
    } catch (...) {
        // Destructor path: the caller never called wait(), so there is
        // nowhere to deliver the exception. Drop it rather than terminate.
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    enqueue(default_group_, std::move(task));
}

void
ThreadPool::wait()
{
    waitGroup(*default_group_);
}

void
ThreadPool::workerLoop()
{
    t_worker_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_task_.wait(lock,
                [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    static obs::Histogram &latency =
        obs::Registry::instance().histogram(obs::names::kPoolParallelForUs);
    static obs::Counter &items =
        obs::Registry::instance().counter(obs::names::kPoolParallelForItems);
    struct Observe
    {
        std::chrono::steady_clock::time_point start =
            std::chrono::steady_clock::now();
        ~Observe()
        {
            latency.observe(std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start).count());
        }
    } observe;
    items.add(n);
    obs::ScopedSpan span("pool.parallel_for");
    span.arg("n", static_cast<std::uint64_t>(n));

    // Inline when concurrency cannot help (single worker, single item),
    // would deadlock (nested call from one of this pool's own tasks, which
    // would block a worker waiting for tasks only that worker could run)
    // or cannot run (a forked child has none of the workers).
    if (size() == 1 || n == 1 || insideWorker() ||
        ::getpid() != owner_pid_) {
        span.arg("inline", 1.0);
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto counter = std::make_shared<std::atomic<std::size_t>>(0);
    auto failed = std::make_shared<std::atomic<bool>>(false);
    auto drive = [counter, failed, n, &fn] {
        while (!failed->load(std::memory_order_relaxed)) {
            std::size_t i = counter->fetch_add(1);
            if (i >= n)
                return;
            fn(i);
        }
    };

    TaskGroup group(*this);
    std::size_t workers = std::min(size(), n - 1);
    for (std::size_t w = 0; w < workers; ++w) {
        group.run([drive, failed] {
            // A throwing iteration stops everyone from claiming further
            // indices; the exception itself is captured by the group.
            try {
                drive();
            } catch (...) {
                failed->store(true, std::memory_order_relaxed);
                throw;
            }
        });
    }

    // The caller participates too, and a parallelFor nested in its
    // iterations runs inline as it would on a worker. Its exception takes
    // priority (the group's captured one is then dropped by waitNoThrow
    // in ~TaskGroup).
    const ThreadPool *const outer = t_driving;
    t_driving = this;
    try {
        drive();
    } catch (...) {
        t_driving = outer;
        failed->store(true, std::memory_order_relaxed);
        throw;
    }
    t_driving = outer;
    group.wait();
}

void
ThreadPool::parallelForBlocks(
    std::size_t n, std::size_t block,
    const std::function<void(std::size_t, std::size_t)> &fn)
{
    block = std::max<std::size_t>(block, 1);
    parallelFor((n + block - 1) / block, [&](std::size_t b) {
        const std::size_t begin = b * block;
        fn(begin, std::min(n, begin + block));
    });
}

std::size_t
ThreadPool::blockFor(std::size_t cost_per_item)
{
    return std::max<std::size_t>(
        1, kTaskCost / std::max<std::size_t>(cost_per_item, 1));
}

} // namespace util
} // namespace hermes
