/**
 * @file
 * Lock-throughput study: how the consistency implementation changes the
 * cost of synchronization-heavy code — the Section 6 discussion, live.
 *
 * N processors hammer a shared counter under a lock; we compare the four
 * conforming implementations (SC, old weak ordering, the DRF0 example
 * implementation, and its read-only-sync refinement) and both lock
 * flavours (pure TAS spin vs test-and-test&set).
 *
 *   $ ./lock_throughput [procs] [rounds]
 */

#include <iomanip>
#include <iostream>
#include <string_view>

#include "core/sc_verifier.hh"
#include "sim/cli_parse.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

int
main(int argc, char **argv)
{
    using namespace wo;
    int procs = 4;
    int rounds = 6;
    if (argc > 3 ||
        (argc > 1 && !parseDecimal(std::string_view(argv[1]), procs, 1,
                                   64)) ||
        (argc > 2 && !parseDecimal(std::string_view(argv[2]), rounds, 1))) {
        std::cerr << "usage: lock_throughput [procs 1-64] [rounds >= 1]\n";
        return 2;
    }

    std::cout << procs << " processors x " << rounds
              << " lock-protected increments\n\n";
    std::cout << std::left << std::setw(20) << "workload" << std::setw(16)
              << "policy" << std::setw(14) << "finish ticks"
              << std::setw(10) << "counter" << "appears SC\n";

    for (bool tttas : {false, true}) {
        MultiProgram mp = tttas ? tttasLockCounter(procs, rounds)
                                : tasLockCounter(procs, rounds);
        for (PolicyKind pk :
             {PolicyKind::Sc, PolicyKind::Def1, PolicyKind::Def2Drf0,
              PolicyKind::Def2Drf1}) {
            SystemConfig cfg = machineOrThrow("net-cold").config(pk);
            cfg.maxTicks = 50000000;
            System sys(mp, cfg);
            if (!sys.run()) {
                std::cout << std::setw(20) << mp.name() << std::setw(16)
                          << toString(pk) << "DID NOT FINISH\n";
                continue;
            }
            RunResult r = sys.result();
            bool sc = verifySc(sys.trace()).sc();
            std::cout << std::setw(20) << mp.name() << std::setw(16)
                      << toString(pk) << std::setw(14) << sys.finishTick()
                      << std::setw(10)
                      << r.finalMemory.at(litmus::kCounter)
                      << (sc ? "yes" : "NO") << "\n";
        }
    }
    std::cout << "\nEvery row must show counter == " << procs * rounds
              << " and appear SC: mutual exclusion built\nfrom DRF0 "
                 "primitives is exact on every conforming "
                 "implementation.\n";
    return 0;
}
