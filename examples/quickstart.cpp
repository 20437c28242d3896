/**
 * @file
 * Quickstart: build a tiny data-race-free program, run it on the
 * weakly ordered (Definition 2 / DRF0) multiprocessor, and check the
 * contract — the execution must appear sequentially consistent.
 *
 *   $ ./quickstart
 */

#include <iostream>

#include "core/contract.hh"
#include "core/drf0_checker.hh"
#include "cpu/program_builder.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"

int
main()
{
    using namespace wo;

    // A producer/consumer pair synchronizing through a sync variable.
    // Data locations: 0 (the datum). Sync locations: 1 (the flag).
    const Addr kData = 0, kFlag = 1;

    ProgramBuilder producer;
    producer.store(kData, 42) // plain data write
        .unset(kFlag, 1)      // write-only synchronization: "publish"
        .halt();

    ProgramBuilder consumer;
    consumer.label("spin")
        .test(0, kFlag)      // read-only synchronization: "poll"
        .beq(0, 0, "spin")
        .load(1, kData)      // guaranteed to observe 42
        .halt();

    MultiProgram program("quickstart");
    program.addProgram(producer.build());
    program.addProgram(consumer.build());

    // 1. The software side of the contract: does the program obey DRF0?
    Drf0ProgramReport drf0 = checkProgramSampled(program, 200, /*seed=*/1);
    std::cout << "program obeys DRF0 (sampled over "
              << drf0.executions << " idealized executions): "
              << (drf0.obeysDrf0 ? "yes" : "NO") << "\n";

    // 2. Run it on weakly ordered hardware: a 2-processor cache-coherent
    //    system on a general interconnection network, using the paper's
    //    Section 5 implementation (counter + reserve bits).
    SystemConfig cfg =
        machineOrThrow("net-cold").config(PolicyKind::Def2Drf0);
    System sys(program, cfg);
    if (!sys.run()) {
        std::cerr << "simulation did not complete\n";
        return 1;
    }

    RunResult result = sys.result();
    std::cout << "consumer read: " << result.registers[1][1]
              << " (expected 42)\n";
    std::cout << "finished at tick " << sys.finishTick() << "\n";

    // 3. The hardware side of the contract: the execution appears
    //    sequentially consistent (Definition 2), and its result is one
    //    the idealized machine can produce.
    ContractReport report = checkExecution(program, sys.trace(), &result);
    std::cout << "contract check: " << report.toString() << "\n";

    return report.appearsSc && result.registers[1][1] == 42 ? 0 : 1;
}
