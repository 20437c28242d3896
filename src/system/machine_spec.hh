/**
 * @file
 * Named machine registry: the single place where the simulated machines
 * of this repo are defined.
 *
 * Every tool, bench and example used to assemble its `SystemConfig`s by
 * hand, which duplicated the paper's hardware configurations in a dozen
 * places and let them drift. A MachineSpec is a named, documented recipe
 * for one machine; `config()` produces the corresponding SystemConfig.
 * Call sites obtain a base config from the registry and then apply
 * site-specific tuning (tick limits, cache geometry, sweep knobs) — they
 * never assemble a SystemConfig from scratch.
 *
 * Registered machines:
 *   bus        shared-bus, cache-coherent; write buffers under Relaxed
 *   bus-cap    shared-bus machine with tiny bounded L1s (evictions)
 *   bus-u      cache-less shared bus (Figure 1 case 1)
 *   bus-slow   contended shared bus: 3x latency, 4x occupancy
 *   bus-mesi   shared-bus machine under the MESI protocol
 *   bus-moesi  shared-bus machine under the MOESI protocol
 *   bus-mesif  shared-bus machine under the MESIF protocol
 *   bus-l2     shared-bus machine with private L2s (MSI)
 *   net        jittered-network, cache-coherent, warm caches
 *   net-cold   jittered-network, cache-coherent, cold caches
 *   net-u      cache-less banked-memory network (Figure 1 case 2)
 *   net-banked network machine with banked directories and memories
 *   net-mesi   network machine under the MESI protocol
 *   net-moesi  network machine under the MOESI protocol
 *   net-mesif  network machine under the MESIF protocol
 *   net-l2     network machine with private L2s (MESI)
 *   net-l2-moesi network machine with private L2s (MOESI)
 *
 * parseMachineList accepts glob-style patterns per element: `bus-*`
 * expands to every machine whose name matches, in registry order.
 */

#ifndef WO_SYSTEM_MACHINE_SPEC_HH
#define WO_SYSTEM_MACHINE_SPEC_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "system/system.hh"

namespace wo {

/** A named, documented recipe for one simulated machine. */
struct MachineSpec
{
    std::string name;
    std::string summary; ///< one-line description (--list-machines)

    InterconnectKind interconnect = InterconnectKind::Network;
    bool cached = true;

    /** Coherence protocol of the cache hierarchy. */
    ProtocolKind protocol = ProtocolKind::Msi;

    /** Cache hierarchy depth (1 = L1 only, 2 = private L1+L2). */
    int cacheLevels = 1;

    /** L1 sets; 0 models an unbounded cache (no capacity evictions). */
    int cacheSets = 0;

    /** L1 associativity (used when cacheSets > 0). */
    int cacheWays = 0;

    /** Start with warm caches (steady-state sharing). */
    bool warmCaches = false;

    /** Enable write buffers when the policy is Relaxed (the classic
     * Figure 1 reordering source on the bus). */
    bool writeBufferOnRelaxed = false;

    Tick netBase = 6;   ///< network minimum latency
    Tick netJitter = 8; ///< network jitter bound (ignored on the bus)
    Tick busLatency = 4;
    Tick busOccupancy = 1;

    int numMemModules = 2; ///< memory banks (cache-less systems)
    int numDirs = 1;       ///< directory banks (cache-coherent systems)

    /**
     * Produce this machine's SystemConfig for @p policy.
     *
     * @p netSeed seeds the network jitter stream (ignored on the bus);
     * the default matches a default-constructed GeneralNetwork::Config.
     */
    SystemConfig config(PolicyKind policy = PolicyKind::Def2Drf0,
                        std::uint64_t netSeed = 1) const;
};

/** All registered machines, in listing order. */
const std::vector<MachineSpec> &machineRegistry();

/** Look up a machine by name; nullptr if unknown. */
const MachineSpec *findMachine(const std::string &name);

/** Look up a machine by name; throws std::runtime_error (naming the
 * known machines) if unknown. */
const MachineSpec &machineOrThrow(const std::string &name);

/**
 * Parse a comma-separated machine-name list (the --machines=<list>
 * argument). Each element may be a glob-style pattern (`*` matches any
 * run, `?` one character): `bus-*,net-l2` expands against the registry
 * in listing order, deduplicating. Throws std::runtime_error on an
 * empty item (splitCommaList's rule), an unknown name or a pattern
 * matching nothing.
 */
std::vector<const MachineSpec *>
parseMachineList(const std::string &csv);

/** Print the registry as an aligned table: name, interconnect, cached,
 * protocol, levels, jitter, description (the --list-machines output). */
void printMachineList(std::ostream &os);

} // namespace wo

#endif // WO_SYSTEM_MACHINE_SPEC_HH
