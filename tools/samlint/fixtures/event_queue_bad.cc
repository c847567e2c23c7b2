// Fixture: what an event queue must never be -- a "heap" whose order
// leaks allocation addresses or hash-table layout instead of a
// deterministic integer key such as (cycle, source, seq).
#include <cstdint>
#include <map>
#include <unordered_map>

struct BadEvent
{
    std::uint64_t cycle = 0;
    std::uint32_t source = 0;
};

struct BadEventQueue
{
    // Pointer-keyed ordering: pop order follows malloc addresses.
    std::map<const BadEvent *, int> byAddress_;

    // Hash-ordered storage walked for the "minimum".
    std::unordered_map<std::uint64_t, BadEvent> bySlot_;

    const BadEvent *
    popMin()
    {
        const BadEvent *best = nullptr;
        for (auto it = bySlot_.begin(); it != bySlot_.end(); ++it) {
            if (best == nullptr || it->second.cycle < best->cycle)
                best = &it->second;
        }
        return best;
    }
};
