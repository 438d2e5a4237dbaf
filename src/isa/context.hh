/**
 * @file
 * Saved architectural state of a core.
 */

#ifndef FLICK_ISA_CONTEXT_HH
#define FLICK_ISA_CONTEXT_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "sim/logging.hh"

namespace flick
{

/**
 * A core's architectural state as a context switch saves it: the
 * general registers, then the PC, then any ISA-specific extras (HX64's
 * compare operands). Fixed capacity, so saving and restoring a context
 * on every migration allocates nothing.
 */
class CoreContext
{
  public:
    /** Words in the largest context (RV64: 32 registers + PC). */
    static constexpr std::size_t capacity = 33;

    CoreContext() = default;

    CoreContext(std::initializer_list<std::uint64_t> words)
    {
        for (std::uint64_t w : words)
            push(w);
    }

    /** Append one word. */
    void
    push(std::uint64_t w)
    {
        if (_size == capacity)
            panic("core context holds at most %zu words", capacity);
        _words[_size++] = w;
    }

    std::size_t size() const { return _size; }
    std::uint64_t operator[](std::size_t i) const { return _words[i]; }
    const std::uint64_t *begin() const { return _words.data(); }
    const std::uint64_t *end() const { return _words.data() + _size; }

    bool
    operator==(const CoreContext &o) const
    {
        return std::equal(begin(), end(), o.begin(), o.end());
    }

  private:
    std::array<std::uint64_t, capacity> _words{};
    std::size_t _size = 0;
};

} // namespace flick

#endif // FLICK_ISA_CONTEXT_HH
