/**
 * @file
 * Regression tests for the Relaxed policy's write buffer on a full
 * System.
 *
 * A buffered write is marked committed when it enters the buffer. When
 * its drain reached the cache, the globally-performed notification could
 * arrive before the commit notification and erase the processor's record
 * of the write, so the commit then looked up an op that no longer
 * existed: an assertion in debug builds, a use-after-erase otherwise.
 * Random lock-based programs on "bus" hit it at the seeds named below.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/trace.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

/** Run @p program on bus under Relaxed; every access must complete. */
void
expectCompletes(const MultiProgram &program, const std::string &what)
{
    System sys(program,
               machineOrThrow("bus").config(PolicyKind::Relaxed, 1));
    ASSERT_TRUE(sys.run()) << what;
    for (const Access &a : sys.trace().accesses()) {
        EXPECT_NE(a.commitTick, kNoTick) << what << " access #" << a.id;
        EXPECT_NE(a.gpTick, kNoTick) << what << " access #" << a.id;
    }
}

RandomWorkloadConfig
config(std::uint64_t seed)
{
    RandomWorkloadConfig cfg;
    cfg.sectionsPerProc = 3;
    cfg.seed = seed;
    return cfg;
}

TEST(WriteBuffer, GpBeforeDrainCommitKeepsTheRecord)
{
    // The seeds that crashed: DRF0 programs 4 and 22, racy program 4.
    for (std::uint64_t seed : {4, 22})
        expectCompletes(randomDrf0Program(config(seed)),
                        "drf0 seed " + std::to_string(seed));
    expectCompletes(randomRacyProgram(config(4)), "racy seed 4");
}

TEST(WriteBuffer, RandomProgramsCompleteOnBusUnderRelaxed)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        expectCompletes(randomDrf0Program(config(seed)),
                        "drf0 seed " + std::to_string(seed));
        expectCompletes(randomRacyProgram(config(seed)),
                        "racy seed " + std::to_string(seed));
    }
}

} // namespace
} // namespace wo
