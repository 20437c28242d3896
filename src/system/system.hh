/**
 * @file
 * Whole-system assembly: processors x interconnect x memory organization
 * x consistency policy.
 *
 * The four hardware configurations of Figure 1 are all expressible:
 * {bus, general network} x {cache-less, cache-coherent}, each under any
 * of the consistency policies (where legal: the Definition 2
 * implementations need caches for their reserve bits).
 */

#ifndef WO_SYSTEM_SYSTEM_HH
#define WO_SYSTEM_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/cache.hh"
#include "coherence/directory.hh"
#include "coherence/mid_cache.hh"
#include "consistency/policy.hh"
#include "core/trace.hh"
#include "cpu/processor.hh"
#include "cpu/program.hh"
#include "mem/interconnect.hh"
#include "mem/memory_module.hh"
#include "mem/uncached_port.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace wo {

class CoverageMap;
class TraceSink;

/** Which interconnect family to build. */
enum class InterconnectKind { Bus, Network };

/** Full system configuration. */
struct SystemConfig
{
    bool cached = true;
    InterconnectKind interconnect = InterconnectKind::Network;
    PolicyKind policy = PolicyKind::Def2Drf0;

    /** Coherence protocol run by every cache, L2 and directory (cached
     * systems; passed to each at build time). */
    ProtocolKind protocol = ProtocolKind::Msi;

    /** Cache hierarchy depth: 1 = private L1 per processor (the seed
     * topology), 2 = private L1 + private L2 per processor, with the
     * directory behind the L2s. */
    int cacheLevels = 1;

    /** Enable processor write buffers (Relaxed policy only). */
    bool writeBuffer = false;

    int numMemModules = 2; ///< memory banks (cache-less systems)
    int numDirs = 1;       ///< directory banks (cache-coherent systems)

    Bus::Config bus;
    GeneralNetwork::Config net;
    CacheConfig cache;
    MidCacheConfig l2; ///< per-processor L2 (cacheLevels == 2)
    ProcessorConfig proc;

    /** Give up (livelock guard) after this many ticks. */
    Tick maxTicks = 5000000;

    /** Pre-load every touched location Shared into every cache (a warm
     * steady state; directory sharer lists are set to match). */
    bool warmCaches = false;

    /** Structured trace sink wired into every component (non-owning;
     * must outlive the System). Null = tracing disabled: no events, no
     * extra stats, byte-identical reports. */
    TraceSink *traceSink = nullptr;

    /**
     * Campaign coverage counters (non-owning; must outlive the run).
     * runStreaming installs it thread-locally for the run's duration,
     * so instrumented sites (protocol lookups, stall families, latency
     * buckets) record into it. Null = coverage disabled: one
     * thread-local load and branch per site, nothing recorded.
     * Recording is passive (never touches stats or simulator state),
     * so reports stay byte-identical either way. Like traceSink, the
     * pointer is exempt from structural compatibility: the map is the
     * campaign's, survives System::reset between pooled jobs, and owes
     * the System nothing when the pool drops it.
     */
    CoverageMap *coverage = nullptr;

    bool operator==(const SystemConfig &) const = default;
};

/** A complete simulated multiprocessor running one workload. */
class System
{
  public:
    /** Build the system; throws std::invalid_argument on illegal
     * configuration combinations. */
    System(const MultiProgram &program, const SystemConfig &cfg);

    /**
     * Run to completion.
     *
     * @return true if every processor halted, every access completed and
     *         the protocol drained before the tick limit.
     */
    bool run();

    /**
     * Run to completion in tick-bounded chunks, invoking @p onChunk
     * between chunks (and once after the final one). The callback may
     * inspect the event queue's current tick and retire the finalized
     * trace prefix through mutableTrace() — the trace-replay pipeline's
     * hook for keeping resident trace memory O(window) during a run.
     * With @p chunkTicks == 0 this is exactly run().
     *
     * @return true if every processor halted, every access completed and
     *         the protocol drained before the tick limit.
     */
    bool runStreaming(Tick chunkTicks,
                      const std::function<void(System &)> &onChunk);

    /** Mutable trace access for windowed retention (popFront) by the
     * streaming-run callback. Retiring accesses that are not yet
     * globally performed is a caller bug: the simulator still patches
     * their commit/gp ticks in place. */
    ExecutionTrace &mutableTrace() { return trace_; }

    /**
     * Restore construction-time state for reuse under @p cfg, which must
     * be structurally compatible with the built topology (every field
     * equal except net.seed, maxTicks, traceSink and coverage — the four
     * that can vary between jobs of one campaign cell). Throws
     * std::invalid_argument otherwise. All component state, statistics
     * and the trace are cleared; pooled event slabs are retained. A
     * program must be (re)installed with loadProgram() before run().
     */
    void reset(const SystemConfig &cfg);

    /** Reset and reload the current program and config: the next run()
     * replays the same job bit-identically. */
    void reset();

    /**
     * Install @p program as the next workload: initial memory values are
     * poked exactly as construction does (including warm-cache
     * pre-loading) and every processor is rebound and reset. The program
     * must have the same processor count as the one the system was built
     * with; throws std::invalid_argument otherwise.
     */
    void loadProgram(const MultiProgram &program);

    /** True if reset(cfg) + loadProgram(program) would succeed — the
     * pool's can-I-reuse-this-instance test. */
    bool compatibleWith(const MultiProgram &program,
                        const SystemConfig &cfg) const;

    /** Rewire the structured trace sink on every component (nullptr
     * detaches); reset(cfg) applies cfg.traceSink through this. */
    void setTraceSink(TraceSink *sink);

    /** Point the next run at @p cov (nullptr detaches); reset(cfg)
     * applies cfg.coverage through this. A pooled System outliving a
     * per-job CoverageMap must be detached before the map dies. */
    void setCoverage(CoverageMap *cov) { cfg_.coverage = cov; }

    /** Observable outcome (registers padded to the workload's register
     * count so results compare against idealized outcomes). */
    RunResult result() const;

    /** The recorded execution trace. */
    const ExecutionTrace &trace() const { return trace_; }

    /** Simulation statistics. */
    const StatSet &stats() const { return stats_; }

    /** Tick at which the last processor halted. */
    Tick finishTick() const;

    /** Access to one processor (stall counters, registers). */
    Processor &processor(ProcId p) { return *procs_.at(p); }
    const Processor &processor(ProcId p) const { return *procs_.at(p); }

    /** The cache of processor @p p (nullptr in cache-less systems). */
    Cache *cache(ProcId p);

    /** The private L2 of processor @p p (nullptr unless cacheLevels
     * is 2). */
    MidCache *midCache(ProcId p);

    /** The event queue (advanced diagnostics / tests). */
    EventQueue &eventQueue() { return eq_; }

    /** The interconnect (message-latency histogram access). */
    Interconnect &interconnect() { return *net_; }
    const Interconnect &interconnect() const { return *net_; }

    /** Human-readable configuration summary. */
    std::string description() const;

    /**
     * Audit end-of-run coherence invariants (cache-coherent systems):
     *  - at most one exclusive copy of each line, and the directory's
     *    owner matches;
     *  - every cached shared copy is listed in the directory's sharer
     *    set (the set may be a stale superset after silent drops);
     *  - shared copies hold the directory's memory value;
     *  - no directory line is still busy.
     *
     * @return human-readable violations; empty means coherent.
     */
    std::vector<std::string> auditCoherence() const;

  private:
    /** Every cfg field equal except net.seed, maxTicks, traceSink and
     * coverage. */
    bool structurallyCompatible(const SystemConfig &cfg) const;

    MultiProgram program_;
    SystemConfig cfg_;
    /** False between reset(cfg) and the next loadProgram(). */
    bool loaded_ = true;
    EventQueue eq_;
    StatSet stats_;
    ExecutionTrace trace_;
    std::unique_ptr<Interconnect> net_;
    std::vector<std::unique_ptr<Cache>> caches_;
    std::vector<std::unique_ptr<MidCache>> mids_;
    std::vector<std::unique_ptr<UncachedPort>> uncached_ports_;
    std::vector<std::unique_ptr<Directory>> dirs_;
    std::vector<std::unique_ptr<MemoryModule>> mems_;
    std::vector<std::unique_ptr<Processor>> procs_;
};

} // namespace wo

#endif // WO_SYSTEM_SYSTEM_HH
