/**
 * @file
 * Litmus explorer: run the Figure 1 litmus (and friends) across every
 * hardware configuration and policy, showing exactly which combinations
 * of uniprocessor optimizations break sequential consistency — and that
 * the SC issue discipline never does.
 *
 *   $ ./litmus_explorer [seeds] [--threads=N]
 */

#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string_view>

#include "core/sc_verifier.hh"
#include "sim/decimal.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/litmus.hh"

namespace {

using namespace wo;

int g_threads = 0; // resolved in main() from --threads / WO_THREADS

struct Config
{
    std::string label;
    std::string machine; ///< machine-registry name
    bool cached;
};

int
violations(const MultiProgram &mp, const Config &c, PolicyKind pk,
           int seeds, bool (*bad)(const RunResult &))
{
    // Every seed is an independent campaign job; the count is merged
    // in seed order, so any --threads value prints identical numbers.
    Campaign campaign({g_threads, 1});
    return campaign.reduce<int, int>(
        seeds,
        [&](const CampaignJob &jb) {
            SystemConfig cfg =
                machineOrThrow(c.machine).config(pk, jb.index + 1);
            cfg.net.jitter = 8; // every config at the default jitter
            System sys(mp, cfg);
            if (!sys.run())
                return 0;
            return bad(sys.result()) ? 1 : 0;
        },
        0, [](int &acc, const int &one) { acc += one; });
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wo;
    try {
        g_threads = campaignThreads(consumeThreadsFlag(argc, argv));
    } catch (const std::invalid_argument &e) {
        std::cerr << "litmus_explorer: " << e.what() << "\n";
        return 2;
    }
    int seeds = 100;
    if (argc > 2 || (argc == 2 && !parseDecimal(std::string_view(argv[1]),
                                                 seeds, 1))) {
        std::cerr << "usage: litmus_explorer [seeds] [--threads=N]\n";
        return 2;
    }

    const Config configs[] = {
        {"bus/no-cache  +WB", "bus-u", false},
        {"net/no-cache     ", "net-u", false},
        {"bus/cache     +WB", "bus", true},
        {"net/cache  (warm)", "net", true},
    };

    std::cout << "Dekker litmus (" << seeds
              << " seeds): SC-forbidden both-zero outcomes\n\n";
    std::cout << std::left << std::setw(22) << "configuration"
              << std::setw(12) << "Relaxed" << std::setw(12) << "SC"
              << std::setw(14) << "WO-Def2-DRF0" << "\n";
    for (const Config &c : configs) {
        int relaxed = violations(dekkerLitmus(), c, PolicyKind::Relaxed,
                                 seeds, dekkerViolatesSc);
        int sc = violations(dekkerLitmus(), c, PolicyKind::Sc, seeds,
                            dekkerViolatesSc);
        std::cout << std::setw(22) << c.label << std::setw(12) << relaxed
                  << std::setw(12) << sc;
        if (c.cached) {
            int def2 = violations(dekkerLitmus(), c, PolicyKind::Def2Drf0,
                                  seeds, dekkerViolatesSc);
            std::cout << std::setw(14) << def2;
        } else {
            std::cout << std::setw(14) << "n/a";
        }
        std::cout << "\n";
    }
    std::cout << "\n(Dekker is racy, so even the DRF0 implementation "
                 "makes no promise about it —\n any zeros in the Def2 "
                 "column are contract-permitted.)\n";

    std::cout << "\nIRIW litmus (" << seeds
              << " seeds): opposite write orders observed\n\n";
    for (const Config &c : configs) {
        int relaxed = violations(iriwLitmus(), c, PolicyKind::Relaxed,
                                 seeds, iriwViolatesSc);
        int sc = violations(iriwLitmus(), c, PolicyKind::Sc, seeds,
                            iriwViolatesSc);
        std::cout << std::setw(22) << c.label << "Relaxed: " << std::setw(6)
                  << relaxed << "SC: " << sc << "\n";
    }
    return 0;
}
