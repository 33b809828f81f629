/**
 * @file
 * Site-keyed fault injection for robustness tests.
 *
 * Production code plants named fire() sites on paths whose failure
 * handling must be provable (SPSC index publication, worker batch
 * dispatch); tests arm a site with an action that corrupts the value
 * passing through it or stalls the calling thread, then assert the
 * detector downstream — ring invariant panic, watchdog fault record —
 * actually fires. Disarmed sites cost one relaxed atomic load, so the
 * hooks stay compiled into release builds and the tested binary is the
 * shipped binary.
 *
 * Bytecode corruption, the third fault family, lives next to the
 * verifier (interp/bytecode verify.h: injectCorruption) because support/
 * cannot depend on interp/.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

namespace macross::support {

/** Global registry of armed fault sites (thread-safe). */
class FaultInjector {
  public:
    /**
     * Armed behavior of one site. @p value is the site's payload —
     * e.g. the index an SPSC endpoint is about to publish, or the id
     * of the worker dispatching a batch — and may be null when the
     * site carries none. The action may mutate it (corruption faults)
     * or sleep (stall faults); it runs on the faulting thread, outside
     * the registry lock, and must not fire a site itself.
     */
    using Action = std::function<void(std::int64_t* value)>;

    static FaultInjector& instance();

    /**
     * Arm @p site: the next @p max_fires passages trigger @p action
     * (-1 = every passage until disarm). Re-arming replaces the
     * previous action. @p skip_fires passages are let through
     * untriggered first — this is how chaos runs wedge e.g. the
     * second host compile of a run (the tuner's first non-default
     * candidate) while leaving the first one healthy.
     */
    void arm(const std::string& site, Action action,
             std::int64_t max_fires = -1, std::int64_t skip_fires = 0);

    /** Disarm one site (no-op when not armed). */
    void disarm(const std::string& site);

    /** Disarm everything and clear fire counts (test teardown). */
    void reset();

    /** Times @p site actually triggered since the last reset. */
    std::int64_t fireCount(const std::string& site) const;

    /**
     * Production-side hook: trigger @p site if armed. Returns true
     * when an action ran. The disarmed fast path is one relaxed load
     * of the armed-site count — no lock, no string hashing.
     */
    static bool fire(const char* site, std::int64_t* value = nullptr)
    {
        FaultInjector& fi = instance();
        if (fi.armed_.load(std::memory_order_relaxed) == 0)
            return false;
        return fi.fireSlow(site, value);
    }

  private:
    struct Site {
        Action action;
        std::int64_t remaining = -1;  ///< Fires left (-1 = unlimited).
        std::int64_t skip = 0;        ///< Passages to let through first.
        std::int64_t fires = 0;
    };

    bool fireSlow(const char* site, std::int64_t* value);

    mutable std::mutex mu_;
    std::unordered_map<std::string, Site> sites_;
    /** Sites currently armed with fires remaining. */
    std::atomic<int> armed_{0};
};

} // namespace macross::support
