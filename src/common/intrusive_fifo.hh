/**
 * @file
 * Allocation-free intrusive FIFO.
 *
 * One template behind every wait queue on the offload and cache paths
 * (stream queues, the token-bucket and M2func slot waits, the CXL.io
 * direct queue, cache MSHR waiters and stalled requests). Elements are
 * chained through an existing pointer member (by default `T::next`; pass
 * e.g. `&MemPacket::link` for a differently-named field), so queueing
 * never touches the allocator. An element sits in at most one queue at a
 * time; the queue owns its link member only while it is queued, and
 * pop_front() clears it again. Single-threaded like the rest of the
 * simulator.
 */

#pragma once

#include <cstddef>
#include <utility>

namespace m2ndp {

template <typename T, auto Link = &T::next>
class IntrusiveFifo
{
  public:
    IntrusiveFifo() = default;

    /** Moving takes over the whole chain and leaves @p other empty. */
    IntrusiveFifo(IntrusiveFifo &&other) noexcept
        : head_(std::exchange(other.head_, nullptr)),
          tail_(std::exchange(other.tail_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {
    }

    IntrusiveFifo &
    operator=(IntrusiveFifo &&other) noexcept
    {
        head_ = std::exchange(other.head_, nullptr);
        tail_ = std::exchange(other.tail_, nullptr);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    IntrusiveFifo(const IntrusiveFifo &) = delete;
    IntrusiveFifo &operator=(const IntrusiveFifo &) = delete;

    bool empty() const { return head_ == nullptr; }
    std::size_t size() const { return size_; }
    /** Oldest element, or nullptr when empty. */
    T *front() const { return head_; }

    void
    push_back(T *obj)
    {
        obj->*Link = nullptr;
        if (tail_ != nullptr)
            tail_->*Link = obj;
        else
            head_ = obj;
        tail_ = obj;
        ++size_;
    }

    /** Unlink and return the oldest element; the queue must not be empty. */
    T *
    pop_front()
    {
        T *obj = head_;
        head_ = obj->*Link;
        if (head_ == nullptr)
            tail_ = nullptr;
        obj->*Link = nullptr;
        --size_;
        return obj;
    }

  private:
    T *head_ = nullptr;
    T *tail_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace m2ndp
