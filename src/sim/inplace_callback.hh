/**
 * @file
 * A type-erased `void()` callable stored inside a fixed-size buffer.
 *
 * The simulator's hot path schedules millions of small continuations;
 * std::function puts every capture over its small-buffer limit (16
 * bytes in libstdc++) on the heap. InplaceCallback never allocates:
 * the callable is constructed in the object's own storage, and a
 * callable that does not fit is a compile-time error rather than a
 * silent heap fallback.
 */

#ifndef FLICK_SIM_INPLACE_CALLBACK_HH
#define FLICK_SIM_INPLACE_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace flick
{

/**
 * A `void()` callable of at most @p Capacity bytes, held in place.
 *
 * Move-only. Moving relocates the callable into the destination's
 * buffer (move-construct, then destroy the source); the moved-from
 * object is empty. Invoking an empty callback is undefined; test it
 * with operator bool first.
 */
template <std::size_t Capacity>
class InplaceCallback
{
  public:
    InplaceCallback() = default;
    InplaceCallback(std::nullptr_t) {}

    template <class F,
              class = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceCallback> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InplaceCallback(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    InplaceCallback(InplaceCallback &&o) noexcept { take(o); }

    InplaceCallback &
    operator=(InplaceCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    InplaceCallback(const InplaceCallback &) = delete;
    InplaceCallback &operator=(const InplaceCallback &) = delete;

    ~InplaceCallback() { reset(); }

    /** Construct @p f in the buffer, destroying any current callable. */
    template <class F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "callable captures more than the in-place buffer "
                      "holds; shrink the capture or raise the capacity");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callable");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "callable must be nothrow-move-constructible");
        reset();
        ::new (static_cast<void *>(_buf)) Fn(std::forward<F>(f));
        _ops = &opsFor<Fn>;
    }

    /** Destroy the held callable, leaving the callback empty. */
    void
    reset()
    {
        if (_ops) {
            _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    explicit operator bool() const { return _ops != nullptr; }

    /** Invoke the held callable in place. */
    void operator()() { _ops->invoke(_buf); }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <class Fn>
    static constexpr Ops opsFor = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, void *src) {
            Fn *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    void
    take(InplaceCallback &o) noexcept
    {
        if (o._ops) {
            o._ops->relocate(_buf, o._buf);
            _ops = o._ops;
            o._ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _buf[Capacity];
    const Ops *_ops = nullptr;
};

} // namespace flick

#endif // FLICK_SIM_INPLACE_CALLBACK_HH
