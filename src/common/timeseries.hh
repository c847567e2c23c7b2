/**
 * @file
 * Windowed time series with a bounded ring of windows.
 *
 * Samples are accumulated into fixed-width cycle windows (sum, count,
 * peak). Only the most recent `maxWindows` windows are retained; the
 * series counts samples that arrive for already-evicted windows instead
 * of growing without bound, so long runs keep a fixed footprint.
 */

#ifndef SAM_COMMON_TIMESERIES_HH
#define SAM_COMMON_TIMESERIES_HH

#include <algorithm>
#include <cstdint>
#include <deque>

#include "src/common/logging.hh"
#include "src/common/types.hh"

namespace sam {

/** One aggregation window of a WindowSeries. */
struct SeriesWindow
{
    /** Window index: covers cycles [index*width, (index+1)*width). */
    std::uint64_t index = 0;
    double sum = 0.0;
    std::uint64_t count = 0;
    double peak = 0.0;

    double mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }
};

class WindowSeries
{
  public:
    WindowSeries(Cycle window_cycles, std::size_t max_windows)
        : windowCycles_(window_cycles), maxWindows_(max_windows)
    {
        sam_assert(window_cycles > 0, "window width must be non-zero");
        sam_assert(max_windows > 0, "window capacity must be non-zero");
    }

    /** Accumulate `value` into the window containing cycle `at`. */
    void add(Cycle at, double value)
    {
        const std::uint64_t idx = at / windowCycles_;
        if (!windows_.empty() && idx < windows_.front().index) {
            ++droppedOld_;
            return;
        }
        SeriesWindow &w = windowAt(idx);
        w.sum += value;
        ++w.count;
        w.peak = std::max(w.peak, value);
    }

    Cycle windowCycles() const { return windowCycles_; }
    std::size_t size() const { return windows_.size(); }
    const SeriesWindow &window(std::size_t i) const { return windows_[i]; }
    const std::deque<SeriesWindow> &windows() const { return windows_; }

    /** Samples discarded because their window was already evicted. */
    std::uint64_t droppedOld() const { return droppedOld_; }

    /** Windows evicted from the front to honour the capacity bound. */
    std::uint64_t evicted() const { return evicted_; }

    double totalSum() const
    {
        double s = 0.0;
        for (const SeriesWindow &w : windows_)
            s += w.sum;
        return s;
    }

  private:
    SeriesWindow &windowAt(std::uint64_t idx)
    {
        // Windows are appended in order; samples mostly arrive nearly
        // sorted in time, so scanning back a few entries finds the slot.
        if (windows_.empty() || idx > windows_.back().index) {
            // Zero-fill any skipped span so a sample that lands past
            // an idle stretch leaves the same window sequence a
            // ticking clock would: explicit idle windows, not holes.
            // The fill is capacity-bounded -- a gap wider than
            // maxWindows materializes only the trailing maxWindows
            // windows and counts the rest straight into evicted_.
            std::uint64_t next =
                windows_.empty() ? idx : windows_.back().index + 1;
            if (idx - next + 1 > maxWindows_) {
                evicted_ += idx - next + 1 - maxWindows_;
                next = idx + 1 - maxWindows_;
            }
            for (; next <= idx; ++next) {
                windows_.push_back(SeriesWindow{next, 0.0, 0, 0.0});
                while (windows_.size() > maxWindows_) {
                    windows_.pop_front();
                    ++evicted_;
                }
            }
            return windows_.back();
        }
        for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
            if (it->index == idx)
                return *it;
            if (it->index < idx)
                return *windows_.insert(it.base(),
                                        SeriesWindow{idx, 0.0, 0, 0.0});
        }
        return *windows_.insert(windows_.begin(),
                                SeriesWindow{idx, 0.0, 0, 0.0});
    }

    Cycle windowCycles_;
    std::size_t maxWindows_;
    std::deque<SeriesWindow> windows_;
    std::uint64_t droppedOld_ = 0;
    std::uint64_t evicted_ = 0;
};

} // namespace sam

#endif // SAM_COMMON_TIMESERIES_HH
