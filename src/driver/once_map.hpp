// Thread-safe compute-once-per-key map of shared immutable values.
//
// A key's first requester computes its value *outside* the lock; concurrent
// requesters of the same key block on a shared_future and get the same
// pointer — or the same exception, which is cached like a value.
// Requesters of different keys never serialize against a computation.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>

namespace asbr::driver {

template <typename Key, typename Value>
class OnceMap {
public:
    using Ptr = std::shared_ptr<const Value>;

    /// The value for `key`, computing it with `make()` on the key's first
    /// request.
    template <typename Make>
    Ptr get(const Key& key, Make make) {
        std::promise<Ptr> promise;
        std::shared_future<Ptr> future;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto [it, inserted] = slots_.try_emplace(key);
            if (inserted) {
                it->second = promise.get_future().share();
                owner = true;
            } else {
                hits_.fetch_add(1, std::memory_order_relaxed);
            }
            future = it->second;
        }
        if (owner) {
            try {
                promise.set_value(make());
                computes_.fetch_add(1, std::memory_order_relaxed);
            } catch (...) {
                promise.set_exception(std::current_exception());
            }
        }
        return future.get();
    }

    /// Requests that found their key present: always requests - unique keys,
    /// however the races fall.
    [[nodiscard]] std::uint64_t hits() const {
        return hits_.load(std::memory_order_relaxed);
    }
    /// Computations that succeeded (a thrown make() is not counted).
    [[nodiscard]] std::uint64_t computes() const {
        return computes_.load(std::memory_order_relaxed);
    }

private:
    std::mutex mutex_;
    std::map<Key, std::shared_future<Ptr>> slots_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> computes_{0};
};

}  // namespace asbr::driver
