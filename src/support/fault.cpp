/**
 * @file
 * FaultInjector implementation.
 */
#include "support/fault.h"

namespace macross::support {

FaultInjector&
FaultInjector::instance()
{
    static FaultInjector fi;
    return fi;
}

void
FaultInjector::arm(const std::string& site, Action action,
                   std::int64_t max_fires, std::int64_t skip_fires)
{
    std::lock_guard<std::mutex> lk(mu_);
    Site& s = sites_[site];
    const bool wasLive = s.action && s.remaining != 0;
    s.action = std::move(action);
    s.remaining = max_fires;
    s.skip = skip_fires;
    const bool isLive = s.action && s.remaining != 0;
    if (isLive && !wasLive)
        armed_.fetch_add(1, std::memory_order_relaxed);
    else if (!isLive && wasLive)
        armed_.fetch_sub(1, std::memory_order_relaxed);
}

void
FaultInjector::disarm(const std::string& site)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end())
        return;
    if (it->second.action && it->second.remaining != 0)
        armed_.fetch_sub(1, std::memory_order_relaxed);
    it->second.action = nullptr;
    it->second.remaining = 0;
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    sites_.clear();
    armed_.store(0, std::memory_order_relaxed);
}

std::int64_t
FaultInjector::fireCount(const std::string& site) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.fires;
}

bool
FaultInjector::fireSlow(const char* site, std::int64_t* value)
{
    // The copy lives in a per-thread slot, overwritten on each fire,
    // not in a local: an action that crashes into a signal guard
    // siglongjmps past this frame, which would leak a local copy.
    thread_local Action action;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = sites_.find(site);
        if (it == sites_.end())
            return false;
        Site& s = it->second;
        if (!s.action || s.remaining == 0)
            return false;
        if (s.skip > 0) {
            --s.skip;
            return false;
        }
        ++s.fires;
        if (s.remaining > 0 && --s.remaining == 0)
            armed_.fetch_sub(1, std::memory_order_relaxed);
        action = s.action;  // Run outside the lock: it may sleep.
    }
    action(value);
    return true;
}

} // namespace macross::support
