/**
 * @file
 * Private mid-level (L2) cache: sits between one processor's L1 cache
 * and the directory, speaking the directory protocol on both sides.
 *
 * Toward its L1 (the inner port) a MidCache presents exactly the
 * directory's interface — the L1 is constructed with the L2's node id as
 * its only "directory" and needs no changes. Toward the real directory
 * (the outer port) it behaves as a cache: it acquires lines with
 * GetS/GetX/Upgrade, writes back with PutX/PutE, and services
 * Inv/Recall/RecallInv probes, forwarding them inward when the L1 holds
 * the line in a state the probe must demote.
 *
 * The L2 is inclusive of its L1: every L1 line has an L2 line, and the
 * L2 tracks the L1's holding state (none / shared / exclusive / owned)
 * so probes touch the L1 only when necessary. The tracking is exact for
 * owner states — L1 evictions of E/M/O lines always send PutE/PutX — and
 * a stale-superset for Shared (the L1 drops S silently, like the
 * directory's sharer lists).
 *
 * Per-line message ordering relies on the interconnect's per-(src,dst)
 * FIFO, exactly as the flat protocol does: a writeback racing a probe is
 * observed by the receiver in send order.
 */

#ifndef WO_COHERENCE_MID_CACHE_HH
#define WO_COHERENCE_MID_CACHE_HH

#include <deque>
#include <map>
#include <string>

#include "coherence/protocol.hh"
#include "mem/interconnect.hh"
#include "obs/trace_event.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wo {

class TraceSink;

/** Configuration of one mid-level cache. */
struct MidCacheConfig
{
    /** Number of sets; 0 models an unbounded L2 (no evictions). */
    int numSets = 0;

    /** Associativity (used when numSets > 0). */
    int ways = 8;

    bool operator==(const MidCacheConfig &) const = default;
};

/** One private L2, between one L1 cache and the directory banks. */
class MidCache
{
  public:
    /**
     * @param node      this L2's interconnect node id
     * @param inner     node id of the L1 this L2 is private to
     * @param dir_base  node id of directory bank 0
     * @param num_dirs  number of directory banks (addr mod num_dirs)
     * @param protocol  coherence protocol (must match the L1s and the
     *                  directory)
     */
    MidCache(EventQueue &eq, Interconnect &net, StatSet &stats, NodeId node,
             NodeId inner, NodeId dir_base, int num_dirs,
             ProtocolKind protocol, const MidCacheConfig &cfg,
             std::string name);

    /** Incoming message handler (attached to the interconnect). */
    void handle(const Msg &msg);

    /** True if no transaction, probe or stalled request is open. */
    bool idle() const;

    /** Directly install a line (warm-start setup only): the L2 holds
     * @p state and the L1 is recorded holding @p inner_shared. */
    void pokeLine(Addr addr, LineState state, Word data, bool inner_shared);

    /** Look up a line's state; returns false if not present. */
    bool peekLine(Addr addr, LineState *state, Word *data) const;

    /** Drop every line, MSHR and queue for reuse. Must only be called
     * between runs (no messages in flight). */
    void reset();

    /** Attach a structured trace sink (nullptr detaches). */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

  private:
    /** What the inner L1 holds (exact for E/M/O, stale-superset for S). */
    enum class InnerSt { None, Shared, Exclusive, Owned };

    /** Why an inner demotion is in flight for a line. */
    enum class Probe {
        None,
        OuterInv,          ///< outer Inv forwarded inward
        RecallViaInner,    ///< outer Recall forwarded inward
        RecallInvViaInner, ///< outer RecallInv forwarded inward
        RecallInvViaInv,   ///< outer RecallInv; L1 only Shared, Inv sent
        EvictInv,          ///< making room: Inv sent inward
        EvictRecall,       ///< making room: RecallInv sent inward
    };

    struct Line
    {
        LineState st = LineState::Shared;
        InnerSt inner = InnerSt::None;
        Word data = 0;
        /** A write committed here awaits the directory's WriteAck. */
        bool pendingGp = false;
        Probe probe = Probe::None;
        /** Outer probe that arrived during an eviction probe; answered
         * (with a nack — our writeback wins the race) once the eviction
         * completes. */
        std::deque<Msg> deferredProbes;
        Tick lastUse = 0;
    };

    struct Mshr
    {
        MsgType sent = MsgType::GetS; ///< outer request type
        Msg inner;                    ///< the L1 request being serviced
    };

    void process(const Msg &msg);

    /** Inner port: requests and writebacks from the L1. */
    void innerRequest(const Msg &msg);
    void innerPut(const Msg &msg);

    /** Inner port: the L1's answers to forwarded probes. */
    void innerProbeResponse(const Msg &msg);

    /** Outer port: fills and acks from the directory. */
    void outerFill(const Msg &msg);
    void outerWriteAck(const Msg &msg);

    /** Outer port: probes from the directory. */
    void outerInv(const Msg &msg);
    void outerRecall(const Msg &msg);

    /** Answer an outer Recall/RecallInv from this L2's own copy (the
     * inner state no longer blocks it). */
    void respondRecallFromSelf(Line &line, const Msg &msg);

    /** Finish an eviction probe: write the line back and retry. */
    void finishEvictProbe(Addr addr, Line &line);

    /** Evict @p addr's line according to the protocol table. */
    void writebackAndErase(Addr addr, Line &line);

    /** Ensure room in @p addr's set; false if the request must stall. */
    bool makeRoomFor(Addr addr);
    void retryStalled();

    void sendOut(MsgType type, const Msg &req, Word value);
    void sendIn(const Msg &inner_req, MsgType type, Word value,
                int ack_count = 0);
    /** @p why tags the trace event with the probe *translation* that
     * produced this inner message (outer stimulus vs capacity). */
    void sendProbeIn(MsgType type, Addr addr, bool for_sync, Probe why);

    /** Static name of a probe translation (trace-event detail). */
    static const char *probeName(Probe p);

    Line *findLine(Addr addr);
    int setOf(Addr addr) const;
    NodeId dirFor(Addr addr) const;

    /** Emit one structured trace event (sink_ must be non-null). */
    void emitEvent(TraceKind kind, Addr addr, std::int64_t aux = 0,
                   const char *detail = nullptr);
    void traceState(Addr addr, LineState from, LineState to);

    EventQueue &eq_;
    Interconnect &net_;
    StatSet &stats_;
    NodeId node_;
    NodeId inner_;
    NodeId dir_base_;
    int num_dirs_;
    MidCacheConfig cfg_;
    const CoherenceProtocol *proto_;
    std::string name_;

    struct StatHandles
    {
        StatHandle hits;
        StatHandle misses;
        StatHandle writebacks;
        StatHandle cleanRelinquishes;
        StatHandle silentDrops;
        StatHandle exclusiveGrants;
        StatHandle probesForwarded;
        StatHandle innerInvs;
        StatHandle evictStalls;
        StatHandle putacks;
    };
    StatHandles stat_;

    std::map<Addr, Line> lines_;
    std::map<Addr, Mshr> mshrs_;
    std::map<int, int> inflight_fills_; ///< per-set fills in flight
    std::deque<Msg> stalled_reqs_;      ///< inner requests awaiting room

    /** Structured tracing (null = disabled path). */
    TraceSink *sink_ = nullptr;
};

} // namespace wo

#endif // WO_COHERENCE_MID_CACHE_HH
