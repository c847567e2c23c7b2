/**
 * @file
 * Process-wide cache of benchmark table images.
 *
 * A table pair's contents are a pure function of (schema, layout, base
 * address, gather factor): they depend neither on the design nor on
 * the ECC scheme, because an image holds data bytes only and the
 * installing store encodes parity on demand. The cache keeps one
 * TableImage per distinct pair, so every design and sweep point of a
 * campaign shares it, and each line is synthesized at most once per
 * process, on its first touch. Creating an image allocates only its
 * index directories, so a cold miss costs microseconds even for
 * paper-scale tables.
 *
 * Thread-safe: campaign workers share one cache and read its images
 * concurrently (see TableImage for the memo's locking).
 */

#ifndef SAM_SIM_TABLE_CACHE_HH
#define SAM_SIM_TABLE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>

#include "src/common/thread_annotations.hh"
#include "src/dram/backing_store.hh"
#include "src/dram/timing.hh"
#include "src/imdb/table.hh"

namespace sam {

class TableCache
{
  public:
    /**
     * The image of `ta` and `tb`, created on first request. It numbers
     * lines ta fully, then tb, both ascending -- the order fault-target
     * sampling walks. `ecc` is accepted for callers that key by
     * system; the image does not depend on it.
     */
    std::shared_ptr<const TableImage>
    materialized(const Table &ta, const Table &tb, EccScheme ecc);

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

    /**
     * Lines synthesized into every image's memo so far, and the bytes
     * the memos hold. Both depend on which runs touched which lines
     * first, hence on run order under parallel workers: report them,
     * never fold them into per-run results.
     */
    std::uint64_t linesSynthesized() const;
    std::uint64_t memoBytes() const;

  private:
    /** Everything the line bytes depend on. */
    using Key = std::tuple<LayoutKind, unsigned,                   // gather
                           Addr, std::uint64_t, unsigned,          // ta
                           Addr, std::uint64_t, unsigned>;         // tb

    mutable Mutex mutex_;
    std::map<Key, std::shared_ptr<const TableImage>>
        images_ SAM_GUARDED_BY(mutex_);
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace sam

#endif // SAM_SIM_TABLE_CACHE_HH
