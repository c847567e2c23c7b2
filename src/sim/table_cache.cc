#include "src/sim/table_cache.hh"

#include "src/common/logging.hh"

namespace sam {

std::shared_ptr<const TableImage>
TableCache::materialized(const Table &ta, const Table &tb,
                         EccScheme /*ecc*/)
{
    sam_assert(ta.layout() == tb.layout(),
               "table pair with mixed layouts");
    const Key key{ta.layout(),          ta.gather(),
                  ta.base(),            ta.schema().numRecords,
                  ta.schema().numFields, tb.base(),
                  tb.schema().numRecords, tb.schema().numFields};

    MutexLock lock(mutex_);
    std::shared_ptr<const TableImage> &image = images_[key];
    if (image) {
        hits_.fetch_add(1);
        return image;
    }
    misses_.fetch_add(1);
    sam_assert(ta.footprintBytes() % kCachelineBytes == 0 &&
                   tb.footprintBytes() % kCachelineBytes == 0,
               "table footprint not line-aligned");
    std::vector<TableImage::Range> ranges{
        {ta.base(), ta.footprintBytes() / kCachelineBytes},
        {tb.base(), tb.footprintBytes() / kCachelineBytes}};
    image = std::make_shared<const TableImage>(
        std::move(ranges),
        [ta, tb](std::size_t range, std::uint64_t off,
                 std::uint8_t *line64) {
            (range == 0 ? ta : tb).buildLine(off, line64);
        });
    return image;
}

std::uint64_t
TableCache::linesSynthesized() const
{
    MutexLock lock(mutex_);
    std::uint64_t n = 0;
    for (const auto &[key, image] : images_)
        n += image->linesSynthesized();
    return n;
}

std::uint64_t
TableCache::memoBytes() const
{
    MutexLock lock(mutex_);
    std::uint64_t n = 0;
    for (const auto &[key, image] : images_)
        n += image->memoBytes();
    return n;
}

} // namespace sam
