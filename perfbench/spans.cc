#include "spans.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::vector<double>
Spans::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_) {
        std::int64_t end = s.endNs.load(std::memory_order_acquire);
        if (s.name == name && end >= 0)
            out.push_back(double(end - s.startNs) * 1e-9);
    }
    return out;
}

std::map<std::string, double>
Spans::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size() + 1);
    for (const Span &s : spans_) {
        std::int64_t end = s.endNs.load(std::memory_order_acquire);
        if (s.parent != 0 && end >= 0)
            children[s.parent].push_back({s.startNs, end});
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        std::int64_t end = s.endNs.load(std::memory_order_acquire);
        if (end < 0)
            continue;
        // Union of the children's intervals, clipped to this span.
        auto &kids = children[i + 1];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0, reach = s.startNs;
        for (auto [a, b] : kids) {
            a = std::max(a, reach);
            b = std::min(b, end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        out[s.name] += double(end - s.startNs - covered) * 1e-9;
    }
    return out;
}

bool
Spans::dump(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        os << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs.load() << ",\"parent\":" << s.parent
           << ",\"step\":" << s.step << "}\n";
    }
    return bool(os);
}

} // namespace perfbench
