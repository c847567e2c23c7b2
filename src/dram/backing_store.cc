#include "src/dram/backing_store.hh"

#include <algorithm>
#include <cstring>

#include "src/common/logging.hh"
#include "src/ecc/ecc_engine.hh"

namespace sam {

TableImage::TableImage(std::vector<Range> ranges, LineBuilder build)
    : build_(std::move(build))
{
    for (const Range &r : ranges) {
        spans_.push_back(Span{r.base, Addr{r.lines} * kCachelineBytes,
                              size_});
        size_ += r.lines;
    }
    // Arena slots are 32-bit (slot + 1 in the index, 0 meaning
    // unbuilt); a 10M-record table pair is ~1.8e8 lines.
    sam_assert(size_ < (std::size_t{1} << 32) - 1,
               "table image too large for 32-bit slots: ", size_);
    leaves_ = std::vector<std::atomic<Leaf *>>(
        (size_ + kLeafLines - 1) >> kLeafShift);
    chunks_.resize((size_ + kChunkLines - 1) >> kChunkShift);
    memoBytes_ = leaves_.size() * sizeof(leaves_[0]) +
                 chunks_.size() * sizeof(chunks_[0]);
}

TableImage::~TableImage()
{
    for (auto &leaf : leaves_)
        delete leaf.load(std::memory_order_relaxed);
}

Addr
TableImage::lineAddr(std::size_t index) const
{
    sam_assert(index < size_, "image index out of range: ", index);
    for (const Span &s : spans_) {
        const std::size_t lines = s.bytes / kCachelineBytes;
        if (index - s.first < lines)
            return s.base + (index - s.first) * kCachelineBytes;
    }
    panic("image index ", index, " in no range");
}

const std::uint8_t *
TableImage::synthesize(std::size_t index) const
{
    sam_assert(index < size_, "image index out of range: ", index);
    // Build outside the lock so first touches of different lines
    // synthesize in parallel; the lock covers only the append.
    std::size_t range = 0;
    while (index - spans_[range].first >=
           spans_[range].bytes / kCachelineBytes)
        ++range;
    std::uint8_t line[kCachelineBytes];
    build_(range, (index - spans_[range].first) * kCachelineBytes, line);

    MutexLock lock(mutex_);
    std::atomic<Leaf *> &leaf_ref = leaves_[index >> kLeafShift];
    Leaf *leaf = leaf_ref.load(std::memory_order_relaxed);
    if (leaf == nullptr) {
        leaf = new Leaf();
        memoBytes_.fetch_add(sizeof(Leaf), std::memory_order_relaxed);
        leaf_ref.store(leaf, std::memory_order_release);
    }
    std::atomic<std::uint32_t> &slot_ref = leaf->slots[index & kLeafMask];
    if (const std::uint32_t s = slot_ref.load(std::memory_order_relaxed))
        return slotBytes(s - 1); // another thread published it first

    // Slots are handed out under the lock, in first-touch order.
    const auto slot = static_cast<std::uint32_t>(
        linesSynthesized_.load(std::memory_order_relaxed));
    std::unique_ptr<Line[]> &chunk = chunks_[slot >> kChunkShift];
    if (!chunk) {
        const std::size_t lines = std::min<std::size_t>(
            kChunkLines, size_ - (std::size_t{slot} & ~(kChunkLines - 1)));
        chunk = std::make_unique_for_overwrite<Line[]>(lines);
        memoBytes_.fetch_add(lines * sizeof(Line),
                             std::memory_order_relaxed);
    }
    std::uint8_t *dst = slotBytes(slot);
    std::memcpy(dst, line, kCachelineBytes);
    linesSynthesized_.fetch_add(1, std::memory_order_relaxed);
    slot_ref.store(slot + 1, std::memory_order_release);
    return dst;
}

void
BackingStore::materializeBlob(const TableImage &layer, std::size_t index,
                              std::uint8_t *dst) const
{
    const std::uint8_t *data = layer.line(index);
    if (blobBytes_ <= kCachelineBytes) {
        std::memcpy(dst, data, blobBytes_);
        return;
    }
    sam_assert(parityEcc_ != nullptr,
               "image line materialized with no parity encoder");
    parityEcc_->encodeLineInto(data, dst);
}

const BackingStore::OverlayLine *
BackingStore::findOverlay(Addr addr) const
{
    if (overlay_.empty())
        return nullptr;
    auto it = overlay_.find(addr);
    return it != overlay_.end() ? &it->second : nullptr;
}

const TableImage *
BackingStore::findLayer(Addr addr, std::size_t &index) const
{
    // Newest layer wins (matters only if layers ever overlapped).
    for (auto layer = layers_.rbegin(); layer != layers_.rend();
         ++layer) {
        const std::size_t i = (*layer)->find(addr);
        if (i != TableImage::npos) {
            index = i;
            return layer->get();
        }
    }
    return nullptr;
}

bool
BackingStore::inAnyLayer(Addr addr) const
{
    std::size_t index = 0;
    return findLayer(addr, index) != nullptr;
}

std::vector<std::uint8_t>
BackingStore::readLine(Addr line_addr) const
{
    sam_assert(line_addr % kCachelineBytes == 0,
               "unaligned line read: ", line_addr);
    if (const OverlayLine *o = findOverlay(line_addr)) {
        const std::uint8_t *p = arena_.data() + o->offset;
        return std::vector<std::uint8_t>(p, p + blobBytes_);
    }
    std::size_t index = 0;
    if (const TableImage *layer = findLayer(line_addr, index)) {
        std::vector<std::uint8_t> blob(blobBytes_);
        materializeBlob(*layer, index, blob.data());
        return blob;
    }
    return std::vector<std::uint8_t>(blobBytes_, 0);
}

BackingStore::LineRef
BackingStore::refLine(Addr line_addr) const
{
    sam_assert(line_addr % kCachelineBytes == 0,
               "unaligned line read: ", line_addr);
    if (const OverlayLine *o = findOverlay(line_addr))
        return LineRef{arena_.data() + o->offset, o->clean};
    std::size_t index = 0;
    if (const TableImage *layer = findLayer(line_addr, index)) {
        // Image lines are builder output, hence clean.
        return LineRef{layer->line(index), true,
                       blobBytes_ > kCachelineBytes};
    }
    return LineRef{};
}

void
BackingStore::writeLine(Addr line_addr,
                        const std::vector<std::uint8_t> &blob, bool clean)
{
    sam_assert(blob.size() == blobBytes_,
               "blob size mismatch: ", blob.size(), " vs ", blobBytes_);
    writeLine(line_addr, blob.data(), clean);
}

void
BackingStore::writeLine(Addr line_addr, const std::uint8_t *blob,
                        bool clean)
{
    sam_assert(line_addr % kCachelineBytes == 0,
               "unaligned line write: ", line_addr);
    auto [it, inserted] =
        overlay_.try_emplace(line_addr, OverlayLine{arena_.size(), clean});
    if (inserted) {
        arena_.insert(arena_.end(), blob, blob + blobBytes_);
        overlayAll_.push_back(line_addr);
        if (!inAnyLayer(line_addr))
            overlayOrder_.push_back(line_addr);
    } else {
        // Rewrite in place: the arena slot is exclusively ours.
        std::memcpy(arena_.data() + it->second.offset, blob, blobBytes_);
        it->second.clean = clean;
    }
}

bool
BackingStore::contains(Addr line_addr) const
{
    return findOverlay(line_addr) != nullptr || inAnyLayer(line_addr);
}

void
BackingStore::corruptLine(Addr line_addr,
                          const std::vector<std::uint8_t> &xor_mask)
{
    sam_assert(line_addr % kCachelineBytes == 0,
               "unaligned line corrupt: ", line_addr);
    sam_assert(xor_mask.size() == blobBytes_, "mask size mismatch");
    auto it = overlay_.find(line_addr);
    if (it == overlay_.end()) {
        // Copy-on-write into the overlay: the current line may come
        // from a table image installed into other systems.
        const std::size_t offset = arena_.size();
        arena_.resize(offset + blobBytes_, 0);
        std::size_t index = 0;
        if (const TableImage *layer = findLayer(line_addr, index))
            materializeBlob(*layer, index, arena_.data() + offset);
        it = overlay_.emplace(line_addr, OverlayLine{offset, false})
                 .first;
        overlayAll_.push_back(line_addr);
        if (!inAnyLayer(line_addr))
            overlayOrder_.push_back(line_addr);
    }
    it->second.clean = false;
    std::uint8_t *blob = arena_.data() + it->second.offset;
    for (std::size_t i = 0; i < blobBytes_; ++i)
        blob[i] ^= xor_mask[i];
}

std::size_t
BackingStore::lineCount() const
{
    std::size_t n = overlayOrder_.size();
    for (const auto &layer : layers_)
        n += layer->size();
    return n;
}

Addr
BackingStore::sampleLine(Rng &rng) const
{
    sam_assert(lineCount() > 0, "sampleLine on empty store");
    std::size_t idx = rng.below(lineCount());
    for (const auto &layer : layers_) {
        if (idx < layer->size())
            return layer->lineAddr(idx);
        idx -= layer->size();
    }
    return overlayOrder_[idx];
}

void
BackingStore::install(std::shared_ptr<const TableImage> image)
{
    sam_assert(image != nullptr, "installing a null table image");
    // Revert overlay writes to lines the image covers, so a
    // re-install after a write query restores the clean table. Walk
    // overlayAll_ (insertion order), not overlay_ itself: hash-order
    // iteration is flagged by sam-determinism, and although the erase
    // set is order-independent today, keeping hash order unobservable
    // is the invariant the bit-identity guarantee rests on.
    if (!overlay_.empty()) {
        const auto covered = [&](Addr a) {
            return image->find(a) != TableImage::npos;
        };
        bool erased = false;
        for (Addr a : overlayAll_) {
            if (covered(a))
                erased = overlay_.erase(a) != 0 || erased;
        }
        if (erased) {
            overlayAll_.erase(std::remove_if(overlayAll_.begin(),
                                             overlayAll_.end(), covered),
                              overlayAll_.end());
            overlayOrder_.erase(
                std::remove_if(overlayOrder_.begin(), overlayOrder_.end(),
                               covered),
                overlayOrder_.end());
        }
    }
    for (const auto &layer : layers_) {
        if (layer == image)
            return; // already mounted; overlay revert was the point
    }
    layers_.push_back(std::move(image));
}

} // namespace sam
