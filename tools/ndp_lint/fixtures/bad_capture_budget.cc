// ndp-lint golden fixture: every violation below must be reported by the
// capture-budget rule. InlineCallback stores captures up to 48 B inline;
// larger captures silently fall back to the heap, defeating the
// allocation-free warm path.
//
// expect: capture-budget

#include <cstdint>
#include <utility>

template <typename Sig>
struct InlineCallback
{
    template <typename F> InlineCallback(F &&f) {}
    InlineCallback() = default;
};

using TickCallback = InlineCallback<void(long)>;
using EventCallback = InlineCallback<void()>;
using InstanceCompleteFn = InlineCallback<void(long, long)>;

struct EventQueue
{
    void schedule(long when, EventCallback cb) {}
};

struct Controller
{
    long launch(long kernel, InstanceCompleteFn on_complete) { return 0; }
};

struct Device
{
    EventQueue eq;
    Controller ctrl;

    void
    forwardCompletion(long now, TickCallback done)
    {
        std::uint64_t pa = 0x1000;
        std::uint32_t size = 64;
        unsigned unit = 3;
        // BAD: capturing a 56 B TickCallback by value plus scalars —
        // ~80 B estimated, far past the 48 B inline buffer.
        eq.schedule(now + 10, [this, pa, size, unit,
                               done = std::move(done)]() mutable {});
    }

    void
    launchWithFatHook(long kernel, TickCallback done)
    {
        std::uint64_t pa = 0x3000;
        // BAD: the kernel-instance completion hook handed to launch()
        // carries a 56 B TickCallback plus a pointer and a scalar.
        ctrl.launch(kernel, [this, pa, done = std::move(done)](long,
                                                               long) {});
    }

    void
    smallCapture(long now)
    {
        std::uint64_t pa = 0x2000;
        // OK: this + one scalar = 16 B, comfortably inline. No finding.
        eq.schedule(now + 1, [this, pa] { (void)pa; });
    }
};
