#include "workload/campaign.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "sim/decimal.hh"

namespace wo {

std::uint64_t
campaignJobSeed(std::uint64_t baseSeed, int jobIndex)
{
    // splitmix64 finalizer over (baseSeed, index). Two rounds keep
    // adjacent indices' streams statistically independent.
    std::uint64_t z = baseSeed +
                      0x9e3779b97f4a7c15ull *
                          (static_cast<std::uint64_t>(jobIndex) + 1);
    for (int round = 0; round < 2; ++round) {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
    }
    return z;
}

namespace {

/** A thread count from @p text, which @p what names in the error. */
int
parseThreads(std::string_view text, const char *what)
{
    int n = 0;
    if (!parseDecimal(text, n, 1, kMaxCampaignThreads))
        throw std::invalid_argument(
            std::string("bad ") + what + " '" + std::string(text) +
            "': want an integer in [1, " +
            std::to_string(kMaxCampaignThreads) + "]");
    return n;
}

/**
 * Strip `--NAME=V` / `--NAME V` from argv (see consumeThreadsFlag) and
 * return the last V given, or nullptr if the flag was absent.
 */
const char *
consumeValueFlag(int &argc, char **argv, const char *flag)
{
    const std::size_t len = std::strlen(flag);
    const char *value = nullptr;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, flag, len) == 0 && arg[len] == '=') {
            value = arg + len + 1;
            continue;
        }
        if (std::strcmp(arg, flag) == 0 && i + 1 < argc) {
            value = argv[++i];
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    return value;
}

} // namespace

int
campaignThreads(int requested)
{
    if (requested > kMaxCampaignThreads)
        throw std::invalid_argument(
            "campaign of " + std::to_string(requested) +
            " threads: at most " + std::to_string(kMaxCampaignThreads));
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("WO_THREADS"))
        return parseThreads(env, "WO_THREADS");
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? std::min(static_cast<int>(hw), kMaxCampaignThreads) : 1;
}

int
consumeThreadsFlag(int &argc, char **argv)
{
    const char *value = consumeValueFlag(argc, argv, "--threads");
    return value ? parseThreads(value, "--threads") : 0;
}

System &
SystemPool::acquire(const std::string &key, const MultiProgram &program,
                    const SystemConfig &cfg)
{
    auto it = cells_.find(key);
    if (it != cells_.end() && it->second->compatibleWith(program, cfg)) {
        ++reuses_;
        System &sys = *it->second;
        sys.reset(cfg);
        sys.loadProgram(program);
        return sys;
    }
    ++builds_;
    auto sys = std::make_unique<System>(program, cfg);
    System &ref = *sys;
    cells_[key] = std::move(sys);
    return ref;
}

SystemPool &
workerSystemPool()
{
    thread_local SystemPool pool;
    return pool;
}

Drf0ProgramReport
Drf0Memo::check(const MultiProgram &program, int numSchedules,
                std::uint64_t seed, int maxStepsPerExecution)
{
    Key key{program.contentHash(), numSchedules, seed,
            maxStepsPerExecution};
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            ++hits_;
            return it->second;
        }
    }
    // Compute outside the lock; a concurrent duplicate of the same key
    // computes the identical report, so first-insert-wins is harmless.
    Drf0ProgramReport report = checkProgramSampled(
        program, numSchedules, seed, maxStepsPerExecution);
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    auto [it, inserted] = memo_.emplace(key, std::move(report));
    return it->second;
}

std::uint64_t
Drf0Memo::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

std::uint64_t
Drf0Memo::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

std::uint64_t
consumeSeedFlag(int &argc, char **argv, std::uint64_t fallback)
{
    const char *value = consumeValueFlag(argc, argv, "--seed");
    std::uint64_t seed = fallback;
    if (value && !parseDecimal(std::string_view(value), seed))
        throw std::invalid_argument(
            std::string("bad --seed '") + value +
            "': want an integer in [0, " +
            std::to_string(std::numeric_limits<std::uint64_t>::max()) +
            "]");
    return seed;
}

} // namespace wo
