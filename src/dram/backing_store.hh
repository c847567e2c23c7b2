/**
 * @file
 * Sparse functional byte storage for the simulated memory.
 *
 * Lines are stored ECC-encoded (data + parity blob) exactly as a real
 * rank would hold them, so chip-failure injection corrupts stored state
 * and the ECC engine's correction is exercised on the actual data path.
 *
 * The store is layered for campaign sharing: installed table images
 * are read-only base layers held by shared pointer (an image is
 * created once per table pair and installed into many systems in
 * O(1)), and every write lands in a small per-store overlay checked
 * first on reads. Corruption copies-on-write into the overlay, so
 * injected faults never leak into sibling systems sharing the image.
 *
 * Every stored line carries a clean tag: set when the blob is known to
 * be intact encoder output (a DataPath write, a verified scrub, or an
 * image line), cleared by corruptLine. The DataPath's clean-line fast
 * path uses it to skip ECC decode on lines no fault ever touched.
 */

#ifndef SAM_DRAM_BACKING_STORE_HH
#define SAM_DRAM_BACKING_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/random.hh"
#include "src/common/thread_annotations.hh"
#include "src/common/types.hh"

namespace sam {

class EccEngine;

/** One stored line's encoded bytes (data + parity). */
using Blob = std::vector<std::uint8_t>;

/**
 * The contents of a table pair as a read-only store layer, built one
 * line at a time on first touch.
 *
 * The image covers a fixed list of address ranges (one per table) and
 * numbers their lines in range order: the lines of range 0 ascending,
 * then those of range 1. That numbering is the image's only observable
 * order (size(), lineAddr(): fault-target sampling walks it); nothing
 * ever iterates the memo.
 *
 * The first touch of a line calls the builder once for the whole
 * process and memoizes its 64 data bytes -- never the parity, which
 * the installing store re-encodes on demand (see LineRef::lazyParity).
 * Memoized lines live in a chunked arena, filled in first-touch order
 * so a query's working set stays dense; a two-level index maps each
 * line to its arena slot. Index leaves and arena chunks are allocated
 * on first touch, so memory follows the touched regions, not the
 * table size.
 *
 * Thread-safe. A memo hit is two acquire loads and no lock. A miss
 * synthesizes the line outside the lock, then re-checks the slot and
 * appends + publishes under one mutex. The leaf and chunk directories
 * are sized up front and never reallocate under readers.
 */
class TableImage
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** `lines` consecutive 64B lines starting at `base`. */
    struct Range
    {
        Addr base = 0;
        std::size_t lines = 0;
    };

    /**
     * Writes the 64 data bytes of the line at byte offset `off` from
     * the base of range `range`. Must be a pure function of its
     * arguments: concurrent first touches of one line may each call
     * it, and only one result is kept.
     */
    using LineBuilder = std::function<void(
        std::size_t range, std::uint64_t off, std::uint8_t *line64)>;

    TableImage(std::vector<Range> ranges, LineBuilder build);
    ~TableImage();
    TableImage(const TableImage &) = delete;
    TableImage &operator=(const TableImage &) = delete;

    /** Lines covered (touched or not) across every range. */
    std::size_t size() const { return size_; }

    /** Image index of the aligned line `addr`, or npos if uncovered. */
    std::size_t find(Addr addr) const
    {
        for (const Span &s : spans_) {
            const Addr off = addr - s.base;
            if (off < s.bytes)
                return s.first + off / kCachelineBytes;
        }
        return npos;
    }

    /** Address of the line with image index `index` (< size()). */
    Addr lineAddr(std::size_t index) const;

    /** The 64 data bytes of line `index`, synthesized on first touch.
     *  The pointer stays valid for the image's lifetime. */
    const std::uint8_t *line(std::size_t index) const
    {
        const Leaf *leaf =
            leaves_[index >> kLeafShift].load(std::memory_order_acquire);
        if (leaf != nullptr) {
            const std::uint32_t s = leaf->slots[index & kLeafMask].load(
                std::memory_order_acquire);
            if (s != 0)
                return slotBytes(s - 1);
        }
        return synthesize(index);
    }

    /** Lines memoized so far (each synthesized once per process). */
    std::uint64_t linesSynthesized() const
    {
        return linesSynthesized_.load(std::memory_order_relaxed);
    }

    /** Bytes allocated for the memo: arena chunks plus index. */
    std::uint64_t memoBytes() const
    {
        return memoBytes_.load(std::memory_order_relaxed);
    }

  private:
    static constexpr unsigned kLeafShift = 12;
    static constexpr std::size_t kLeafLines = std::size_t{1} << kLeafShift;
    static constexpr std::size_t kLeafMask = kLeafLines - 1;
    static constexpr unsigned kChunkShift = 14;
    static constexpr std::size_t kChunkLines = std::size_t{1}
                                               << kChunkShift;

    /** One range in address terms, plus its first image index. */
    struct Span
    {
        Addr base = 0;
        Addr bytes = 0;
        std::size_t first = 0;
    };

    /** Arena slot + 1 of every line of one index block (0: unbuilt). */
    struct Leaf
    {
        std::atomic<std::uint32_t> slots[kLeafLines];
    };

    /** One memoized line, cache-line aligned so a read touches one. */
    struct alignas(kCachelineBytes) Line
    {
        std::uint8_t bytes[kCachelineBytes];
    };

    std::uint8_t *slotBytes(std::uint32_t slot) const
    {
        return chunks_[slot >> kChunkShift][slot & (kChunkLines - 1)]
            .bytes;
    }

    /** Slow path of line(): build, then append and publish. */
    const std::uint8_t *synthesize(std::size_t index) const;

    std::vector<Span> spans_;
    std::size_t size_ = 0;
    LineBuilder build_;

    /** Serializes leaf allocation and arena appends. */
    mutable Mutex mutex_;
    /** Leaf per kLeafLines lines; published with release stores. */
    mutable std::vector<std::atomic<Leaf *>> leaves_;
    /**
     * Arena chunks of kChunkLines lines (the last one shorter), in
     * slot order. Sized for every line up front; an entry is written
     * once, under mutex_, before the first slot in it is published.
     */
    mutable std::vector<std::unique_ptr<Line[]>> chunks_;
    /** Arena slots in use; advanced only under mutex_. */
    mutable std::atomic<std::uint64_t> linesSynthesized_{0};
    mutable std::atomic<std::uint64_t> memoBytes_{0};
};

/**
 * Sparse page-granular byte store addressed by flat physical address.
 * Unwritten bytes read as zero.
 */
class BackingStore
{
  public:
    /**
     * Borrowed view of one stored line. `data` points at the blob's
     * bytes (valid until the next store mutation) or is null for a
     * never-written line, which reads as all zero -- the all-zero blob
     * of every supported (linear) scheme is a valid codeword, so such
     * lines are clean by construction.
     */
    struct LineRef
    {
        const std::uint8_t *data = nullptr;
        bool clean = true;
        /**
         * `data` is a table-image line: only its 64 data bytes exist.
         * Callers that consume the full codeword must re-encode the
         * parity from them instead of reading past byte 64.
         */
        bool lazyParity = false;
    };

    /** @param blob_bytes Stored bytes per 64B line (data + parity). */
    explicit BackingStore(unsigned blob_bytes)
        : blobBytes_(blob_bytes)
    {}

    unsigned blobBytes() const { return blobBytes_; }

    /**
     * Read the stored blob for the line containing `line_addr` (must be
     * 64B aligned in data-address space).
     */
    std::vector<std::uint8_t> readLine(Addr line_addr) const;

    /** Borrow the stored blob and clean tag without copying. */
    LineRef refLine(Addr line_addr) const;

    /**
     * Store a blob for an aligned line address. `clean` asserts the
     * blob is intact encoder output (enables the decode fast path);
     * raw byte stores must leave it false.
     */
    void writeLine(Addr line_addr, const std::vector<std::uint8_t> &blob,
                   bool clean = false);

    /**
     * Store a blob from a raw pointer of blobBytes() bytes,
     * allocation-free when the line is already in the overlay (the
     * blob is copied into the overlay arena). The hot write path.
     */
    void writeLine(Addr line_addr, const std::uint8_t *blob,
                   bool clean = false);

    /** True if the line was ever written. */
    bool contains(Addr line_addr) const;

    /**
     * XOR a mask into stored bytes of a line (error injection). A
     * never-written line is materialized zero-filled first, so faults
     * land on untouched addresses instead of being silently dropped
     * relative to the all-zero read value. Clears the clean tag.
     */
    void corruptLine(Addr line_addr,
                     const std::vector<std::uint8_t> &xor_mask);

    /**
     * Number of distinct lines stored: every line an installed image
     * covers (touched or not), plus overlay lines outside the images.
     */
    std::size_t lineCount() const;

    /**
     * Pick a uniformly random stored line address (fault-injection
     * target selection). Lines are numbered from geometry alone --
     * each image's lines in image order, oldest image first, then the
     * overlay-only lines in insertion order -- so the pick never
     * depends on which lines were touched. lineCount() must be
     * nonzero.
     */
    Addr sampleLine(Rng &rng) const;

    /**
     * Mount a table image as a read-only base layer (O(1): the image
     * is shared, not copied). Re-installing an image that is already
     * mounted reverts any overlay writes to its lines (the dirty-table
     * rebuild path). Layers are expected to cover disjoint address
     * ranges (each table layout has its own base address).
     */
    void install(std::shared_ptr<const TableImage> image);

    /**
     * Encoder used to rebuild the parity of image lines on demand
     * (readLine, corruptLine). The pointer is borrowed; the DataPath
     * that owns this store installs its own engine and outlives it.
     * Required before an image line is materialized into a blob wider
     * than its 64 data bytes.
     */
    void setParityEncoder(const EccEngine *ecc) { parityEcc_ = ecc; }

  private:
    /** An overlay line's blob plus its clean tag. */
    struct OverlayLine
    {
        /** Byte offset of the blob in arena_. */
        std::size_t offset = 0;
        bool clean = false;
    };

    /**
     * Write the full codeword of image line `index` into `dst`
     * (blobBytes_ bytes), encoding the parity from its data bytes.
     */
    void materializeBlob(const TableImage &layer, std::size_t index,
                         std::uint8_t *dst) const;

    /** The overlay line for `addr`, or null if untouched. */
    const OverlayLine *findOverlay(Addr addr) const;
    /** The layer holding `addr` and its image index, or null. */
    const TableImage *findLayer(Addr addr, std::size_t &index) const;
    bool inAnyLayer(Addr addr) const;

    unsigned blobBytes_;
    /** Borrowed parity encoder for image lines (may be null). */
    const EccEngine *parityEcc_ = nullptr;
    /** Shared table images, oldest first. */
    std::vector<std::shared_ptr<const TableImage>> layers_;
    /** Lines written (or corrupted) in this store; checked first. */
    std::unordered_map<Addr, OverlayLine> overlay_;
    /**
     * Blob bytes of every overlay line, blobBytes_ per slot. One flat
     * allocation instead of a heap vector per written line: the write
     * path (writebacks, strided RMW) is the hottest store mutation in
     * a campaign. Slots orphaned by install()'s overlay revert are
     * simply leaked until the store dies -- reverts are rare and the
     * arena is per-system scratch, not shared state.
     */
    std::vector<std::uint8_t> arena_;
    /**
     * Insertion order of every overlay line (the deterministic
     * iteration view of overlay_ -- hash order must never become
     * observable, see sam-determinism in tools/samlint).
     */
    std::vector<Addr> overlayAll_;
    /** Insertion order of overlay lines not covered by any layer. */
    std::vector<Addr> overlayOrder_;
};

} // namespace sam

#endif // SAM_DRAM_BACKING_STORE_HH
