/**
 * @file
 * Memory modules for cache-less system configurations.
 *
 * Addresses are interleaved across modules (addr mod numModules). Each
 * module services one request at a time with a fixed service latency and
 * executes TestAndSet atomically — the classic "dance-hall" organization
 * assumed by Lamport's original analysis.
 */

#ifndef WO_MEM_MEMORY_MODULE_HH
#define WO_MEM_MEMORY_MODULE_HH

#include <map>

#include "mem/interconnect.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace wo {

class TraceSink;

/** One address-interleaved memory module on an interconnect. */
class MemoryModule
{
  public:
    MemoryModule(EventQueue &eq, Interconnect &net, StatSet &stats,
                 NodeId node);

    /** Handle an incoming request (attached to the interconnect). */
    void handle(const Msg &msg);

    /** Directly set backing-store contents (initialization). */
    void poke(Addr addr, Word value) { store_[addr] = value; }

    /** Directly read backing-store contents (final state inspection). */
    Word peek(Addr addr) const;

    /** Drop all contents and pending service time for reuse. */
    void
    reset()
    {
        store_.clear();
        free_at_ = 0;
    }

    /** Attach a structured trace sink (nullptr detaches). Emits one
     * MemService event per request. */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

  private:
    EventQueue &eq_;
    Interconnect &net_;
    StatSet &stats_;
    NodeId node_;
    StatHandle stat_requests_; ///< interned "mem.requests"
    std::map<Addr, Word> store_;
    Tick free_at_ = 0;

    /** Structured tracing (null = disabled path). */
    TraceSink *sink_ = nullptr;
};

} // namespace wo

#endif // WO_MEM_MEMORY_MODULE_HH
