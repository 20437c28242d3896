/**
 * @file
 * The litmus DSL frontend: parser happy paths and diagnostics (every
 * malformed input must throw LitmusError with a file:line, never
 * crash), the compiler's data-then-sync address map, the expectation
 * evaluator, and the batch runner's thread-count determinism.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "litmus/parser.hh"
#include "litmus/runner.hh"

namespace wo {
namespace litmus_dsl {
namespace {

const char *kMp = R"(
# two-processor message passing
name mini-mp

init {
    data = 0;
    s = 1 sync;
}

P0              | P1              ;
store data, 42  | w: test r0, s   ;
unset s, 0      | bne r0, 0, w    ;
halt            | load r1, data   ;
                | halt            ;

forbidden (P1:r1 != 42)
)";

TEST(LitmusParser, ParsesMessagePassing)
{
    LitmusTest t = parseLitmus(kMp, "mini.litmus");
    EXPECT_EQ(t.name, "mini-mp");
    ASSERT_EQ(t.inits.size(), 2u);
    EXPECT_EQ(t.inits[0].loc, "data");
    EXPECT_EQ(t.inits[0].value, 0u);
    EXPECT_FALSE(t.inits[0].sync);
    EXPECT_EQ(t.inits[1].loc, "s");
    EXPECT_EQ(t.inits[1].value, 1u);
    EXPECT_TRUE(t.inits[1].sync);

    ASSERT_EQ(t.procs.size(), 2u);
    ASSERT_EQ(t.procs[0].size(), 3u);
    EXPECT_EQ(t.procs[0][0].mnemonic, "store");
    EXPECT_EQ(t.procs[0][0].loc, "data");
    EXPECT_EQ(t.procs[0][0].imm, 42u);
    ASSERT_EQ(t.procs[1].size(), 4u);
    EXPECT_EQ(t.procs[1][0].label, "w");
    EXPECT_EQ(t.procs[1][0].mnemonic, "test");
    EXPECT_EQ(t.procs[1][1].mnemonic, "bne");
    EXPECT_EQ(t.procs[1][1].target, "w");

    EXPECT_EQ(t.clause.kind, ClauseKind::Forbidden);
    EXPECT_FALSE(t.clause.always);
    EXPECT_EQ(toString(t.clause), "forbidden (P1:r1 != 42)");
}

TEST(LitmusParser, DefaultsNameToFileStem)
{
    LitmusTest t = parseLitmus(
        "init { x = 0; }\nP0 ;\nhalt ;\nexists (P0:r0 == 0)\n",
        "dir/some_test.litmus");
    EXPECT_EQ(t.name, "some_test");
}

TEST(LitmusParser, ParsesConditionGrammar)
{
    LitmusTest t = parseLitmus(
        "init { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "load r0, x | load r0, y ;\n"
        "halt | halt ;\n"
        "exists (!(P0:r0 == 1 && P1:r0 == 1) || x != 0)\n",
        "c.litmus");
    EXPECT_EQ(t.clause.kind, ClauseKind::Exists);
    EXPECT_EQ(toString(t.clause.cond),
              "(!(P0:r0 == 1 && P1:r0 == 1) || x != 0)");
}

/** Expects parse/compile of @p src to fail at @p line of f.litmus. */
void
expectErrorAt(const std::string &src, int line, const char *what_substr)
{
    try {
        compileLitmus(parseLitmus(src, "f.litmus"));
        FAIL() << "expected LitmusError: " << what_substr;
    } catch (const LitmusError &e) {
        EXPECT_EQ(e.file(), "f.litmus") << e.what();
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_NE(std::string(e.what()).find("f.litmus:"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find(what_substr),
                  std::string::npos)
            << e.what();
    }
}

TEST(LitmusParserErrors, MissingInitSection)
{
    expectErrorAt("name t\nP0 ;\nhalt ;\nexists (P0:r0 == 0)\n", 2,
                  "init");
}

TEST(LitmusParserErrors, MalformedInitLine)
{
    expectErrorAt("init {\n  x 1;\n}\nP0 ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  2, "'='");
}

TEST(LitmusParserErrors, DuplicateInitLocation)
{
    expectErrorAt("init { x = 0;\n  x = 1; }\nP0 ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  2, "already declared");
}

TEST(LitmusParserErrors, UnknownMnemonic)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nfrobnicate r0, x ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "unknown mnemonic");
}

TEST(LitmusParserErrors, BadRegisterName)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nload q7, x ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "register");
}

TEST(LitmusParserErrors, UnbalancedExistsClause)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P0:r0 == 0\n",
                  4, "')'");
}

TEST(LitmusParserErrors, ClauseMissingParenthesis)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\nexists P0:r0 == 0\n", 4,
                  "'('");
}

TEST(LitmusParserErrors, MissingClause)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n", 3, "clause");
}

TEST(LitmusParserErrors, TrailingGarbageAfterClause)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\nwhatever\n",
                  5, "after the final clause");
}

TEST(LitmusParserErrors, RowWithTooManyCells)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt | halt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "cells");
}

TEST(LitmusParserErrors, TrailingTokensInCell)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nnop nop ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "trailing tokens in cell");
}

TEST(LitmusParserErrors, StatementBeforeProcessorHeader)
{
    expectErrorAt("init { x = 0; }\nload r0, x ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  2, "processor header 'P0'");
}

// Numbers the DSL cannot represent are errors, not silently wrapped
// (a value is one 64-bit word; register and processor indices are ints).

TEST(LitmusParserErrors, InitValueOutOfRange)
{
    expectErrorAt("init {\n  x = 18446744073709551617;\n}\nP0 ;\nhalt ;\n"
                  "forbidden (x == 18446744073709551621)\n",
                  2, "'18446744073709551617' does not fit");
}

TEST(LitmusParserErrors, ImmediateOutOfRange)
{
    const char *insns[] = {
        "movi r0, 18446744073709551616",
        "addi r0, r0, 99999999999999999999",
        "store x, 18446744073709551616",
        "unset s, 18446744073709551616",
        "tas r0, s, 18446744073709551616",
        "beq r0, 18446744073709551616, l",
        "nop 18446744073709551617",
        "movi r0, -9223372036854775809",
    };
    for (const char *insn : insns) {
        SCOPED_TRACE(insn);
        expectErrorAt(std::string("init { x = 0; s = 0 sync; }\nP0 ;\n") +
                          "l: " + insn + " ;\nhalt ;\n"
                          "exists (P0:r0 == 0)\n",
                      3, "does not fit in a 64-bit word");
    }
}

TEST(LitmusParserErrors, ClauseConstantOutOfRange)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "forbidden (x == 18446744073709551621)\n",
                  4, "does not fit in a 64-bit word");
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P0:r0 != -9223372036854775809)\n",
                  4, "does not fit in a 64-bit word");
}

TEST(LitmusParserErrors, RegisterNumberOutOfRange)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nmovi r2147483648, 1 ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "register number in 'r2147483648' is out of range");
    expectErrorAt("init { x = 0; }\nP0 ;\nstore x, r99999999999 ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "register number");
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P0:r99999999999 == 0)\n",
                  4, "register number");
}

TEST(LitmusParserErrors, ProcessorNumberOutOfRange)
{
    expectErrorAt("init { x = 0; }\nP0 | P99999999999 ;\nhalt | halt ;\n"
                  "exists (P0:r0 == 0)\n",
                  2, "processor number in 'P99999999999' is out of range");
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P99999999999:r0 == 0)\n",
                  4, "processor number");
}

TEST(LitmusParser, AcceptsTheFullWordRange)
{
    LitmusTest t = parseLitmus(
        "init { x = 18446744073709551615; }\n"
        "P0 ;\n"
        "movi r2147483647, -9223372036854775808 ;\n"
        "halt ;\n"
        "exists (x == 18446744073709551615)\n",
        "w.litmus");
    EXPECT_EQ(t.inits[0].value, ~Word{0});
    EXPECT_EQ(t.procs[0][0].reg, 2147483647);
    EXPECT_EQ(t.procs[0][0].imm, Word{1} << 63);
    EXPECT_EQ(toString(t.clause), "exists (x == 18446744073709551615)");
}

TEST(LitmusCompilerErrors, UndeclaredLocation)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nload r0, y ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "undeclared");
}

TEST(LitmusCompilerErrors, SyncMnemonicOnDataLocation)
{
    expectErrorAt("init { x = 0; }\nP0 ;\ntas r0, x ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "sync");
}

TEST(LitmusCompilerErrors, UnknownBranchLabel)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nbeq r0, 0, nowhere ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  3, "label");
}

TEST(LitmusCompilerErrors, DuplicateLabel)
{
    expectErrorAt("init { x = 0; }\nP0 ;\na: nop ;\na: nop ;\nhalt ;\n"
                  "exists (P0:r0 == 0)\n",
                  4, "duplicate label");
}

TEST(LitmusCompilerErrors, ClauseProcOutOfRange)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\n"
                  "exists (P7:r0 == 0)\n",
                  4, "processor");
}

TEST(LitmusCompilerErrors, ClauseLocationUndeclared)
{
    expectErrorAt("init { x = 0; }\nP0 ;\nhalt ;\nexists (zz == 0)\n", 4,
                  "undeclared");
}

TEST(LitmusParserErrors, GarbageNeverCrashes)
{
    const char *garbage[] = {
        "",
        "}{",
        "name\n",
        "init {",
        "init { = ; }",
        "P0 | | P1 ;",
        "exists ()",
        "init { x = 99999999999999999999; }",
        "\xff\xfe\x00garbage",
        "init { x = 0; } P0 ; halt ; forbidden always P0:r0",
    };
    for (const char *src : garbage)
        EXPECT_THROW(parseLitmus(src, "g.litmus"), LitmusError) << src;
}

TEST(LitmusCompiler, InternsDataBeforeSyncInDeclarationOrder)
{
    CompiledLitmus c = compileLitmus(parseLitmus(
        "init { s = 1 sync; b = 0; a = 0; t = 0 sync; }\n"
        "P0 ;\n"
        "store a, 1 ;\n"
        "store b, 2 ;\n"
        "unset s, 0 ;\n"
        "tas r0, t ;\n"
        "halt ;\n"
        "forbidden (a == 0)\n",
        "order.litmus"));
    ASSERT_EQ(c.dataLocs.size(), 2u);
    ASSERT_EQ(c.syncLocs.size(), 2u);
    EXPECT_EQ(c.addrOf.at("b"), 0u);
    EXPECT_EQ(c.addrOf.at("a"), 1u);
    EXPECT_EQ(c.addrOf.at("s"), 2u);
    EXPECT_EQ(c.addrOf.at("t"), 3u);
    // Nonzero declared initials reach the program image.
    EXPECT_EQ(c.program.initialValue(c.addrOf.at("s")), 1u);
    EXPECT_EQ(c.program.initialValue(c.addrOf.at("a")), 0u);
}

TEST(LitmusCompiler, AppendsImplicitHalt)
{
    CompiledLitmus c = compileLitmus(parseLitmus(
        "init { x = 0; }\nP0 ;\nstore x, 1 ;\nexists (x == 1)\n",
        "h.litmus"));
    const Program &p = c.program.program(0);
    ASSERT_GE(p.size(), 2u);
    EXPECT_EQ(p.at(p.size() - 1).op, Opcode::Halt);
}

/** P0's compiled program for a single-processor test body. */
Program
compileP0(const std::string &init, const std::string &rows)
{
    return compileLitmus(parseLitmus("init { " + init + " }\nP0 ;\n" +
                                         rows + "exists (x == 0)\n",
                                     "p0.litmus"))
        .program.program(0);
}

TEST(LitmusCompiler, TasAndUnsetForms)
{
    Program p = compileP0("x = 0; s = 0 sync;",
                          "tas r0, s ;\n"
                          "tas r1, s, 0 ;\n"
                          "unset s ;\n"
                          "unset s, 5 ;\n"
                          "unset s, r1 ;\n");
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(p.at(i).op, Opcode::TestAndSet);
        EXPECT_EQ(p.at(i).dst, i);
    }
    EXPECT_EQ(p.at(0).imm, 1u); // tas writes 1 by default
    EXPECT_EQ(p.at(1).imm, 0u);
    for (int i = 2; i < 5; ++i)
        EXPECT_EQ(p.at(i).op, Opcode::SyncWrite);
    EXPECT_EQ(p.at(2).imm, 0u); // unset releases with 0 by default
    EXPECT_EQ(p.at(2).src, -1);
    EXPECT_EQ(p.at(3).imm, 5u);
    EXPECT_EQ(p.at(3).src, -1);
    EXPECT_EQ(p.at(4).src, 1);
}

TEST(LitmusCompiler, LowersFenceAndNopRepeat)
{
    Program p = compileP0("x = 0;", "store x, 1 ;\nfence ;\nnop 3 ;\n"
                                    "nop ;\nload r0, x ;\n");
    ASSERT_EQ(p.size(), 8);
    EXPECT_EQ(p.at(1).op, Opcode::Fence);
    for (int i = 2; i < 6; ++i)
        EXPECT_EQ(p.at(i).op, Opcode::Nop) << i;
    EXPECT_EQ(p.at(6).op, Opcode::Load);
    EXPECT_EQ(p.at(7).op, Opcode::Halt);
}

TEST(LitmusCompiler, LabelOnlyCellsShareABranchTarget)
{
    // Label-only cells bind to the next instruction, as the
    // round:/acq:/testspin: stack in tttas_counter.litmus does.
    Program p = compileP0("x = 0;", "movi r0, 0 ;\n"
                                    "a: ;\n"
                                    "b: ;\n"
                                    "c: addi r0, r0, 1 ;\n"
                                    "bne r0, 1, a ;\n"
                                    "bne r0, 2, b ;\n"
                                    "bne r0, 3, c ;\n");
    for (int i = 2; i < 5; ++i) {
        EXPECT_EQ(p.at(i).op, Opcode::Bne);
        EXPECT_EQ(p.at(i).target, 1) << i;
    }
}

RunResult
fakeResult()
{
    RunResult r;
    r.allHalted = true;
    r.registers = {{1, 0}, {0, 7}};
    r.finalMemory[0] = 42;
    return r;
}

TEST(LitmusExpect, EvaluatesBooleanStructure)
{
    std::map<std::string, Addr> addrs{{"x", 0}, {"y", 1}};
    RunResult r = fakeResult();
    LitmusTest t = parseLitmus(
        "init { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "halt | halt ;\n"
        "exists ((P0:r0 == 1 && P1:r1 == 7 && x == 42) || y != 0)\n",
        "e.litmus");
    EXPECT_TRUE(evalCond(t.clause.cond, r, addrs));

    LitmusTest f = parseLitmus(
        "init { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "halt | halt ;\n"
        "exists (!(P0:r0 == 1) || y == 3)\n",
        "e.litmus");
    EXPECT_FALSE(evalCond(f.clause.cond, r, addrs));
}

TEST(LitmusExpect, MissingRegistersAndMemoryReadAsZero)
{
    std::map<std::string, Addr> addrs{{"y", 9}};
    RunResult r = fakeResult();
    LitmusTest t = parseLitmus(
        "init { y = 0; }\nP0 ;\nhalt ;\n"
        "exists (P0:r63 == 0 && y == 0)\n",
        "z.litmus");
    EXPECT_TRUE(evalCond(t.clause.cond, r, addrs));
}

TEST(LitmusExpect, OutcomeKeyProjectsFirstMentionOrder)
{
    std::map<std::string, Addr> addrs{{"x", 0}};
    LitmusTest t = parseLitmus(
        "init { x = 0; }\n"
        "P0 | P1 ;\n"
        "halt | halt ;\n"
        "exists (P1:r1 == 7 && x == 42 && P0:r0 == 1 && P1:r1 == 0)\n",
        "k.litmus");
    std::vector<ObservedVar> vars = observedVars(t.clause.cond);
    ASSERT_EQ(vars.size(), 3u); // the duplicate P1:r1 deduplicates
    EXPECT_EQ(outcomeKey(vars, fakeResult(), addrs),
              "P1:r1=7 x=42 P0:r0=1");
}

TEST(LitmusRunner, ReportsAreIdenticalAcrossThreadCounts)
{
    std::vector<CompiledLitmus> corpus;
    corpus.push_back(compileLitmus(parseLitmus(kMp, "mini.litmus")));
    corpus.push_back(compileLitmus(parseLitmus(
        "name sb\ninit { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "store x, 1 | store y, 1 ;\n"
        "load r0, y | load r0, x ;\n"
        "halt | halt ;\n"
        "exists (P0:r0 == 0 && P1:r0 == 0)\n",
        "sb.litmus")));

    RunnerOptions opt;
    opt.seeds = 4;
    opt.drf0Schedules = 40;
    opt.coverage = true;
    opt.policies = {PolicyKind::Sc, PolicyKind::Relaxed};

    std::string out[2], json[2], cov[2];
    int threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        opt.threads = threads[i];
        CorpusReport rep = runCorpus(corpus, opt);
        std::ostringstream os, js, cs;
        printReport(os, rep, /*histograms=*/true, /*coverage=*/true);
        writeJsonReport(js, rep);
        writeCoverageReport(cs, rep);
        out[i] = os.str();
        json[i] = js.str();
        cov[i] = cs.str();
    }
    EXPECT_EQ(out[0], out[1]);
    EXPECT_EQ(json[0], json[1]);
    EXPECT_EQ(cov[0], cov[1]);
    EXPECT_NE(out[0].find("sb"), std::string::npos);
}

TEST(LitmusRunner, CoverageBreaksDownPerMachine)
{
    std::vector<CompiledLitmus> corpus;
    corpus.push_back(compileLitmus(parseLitmus(
        "name sb\ninit { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "store x, 1 | store y, 1 ;\n"
        "load r0, y | load r0, x ;\n"
        "halt | halt ;\n"
        "exists (P0:r0 == 0 && P1:r0 == 0)\n",
        "sb.litmus")));

    RunnerOptions opt;
    opt.seeds = 4;
    opt.threads = 2;
    opt.drf0Schedules = 40;
    opt.coverage = true;
    opt.policies = {PolicyKind::Sc, PolicyKind::Relaxed};

    CorpusReport rep = runCorpus(corpus, opt);
    ASSERT_EQ(rep.tests.size(), 1u);
    const TestReport &tr = rep.tests[0];
    ASSERT_TRUE(tr.axiomChecked);
    ASSERT_EQ(tr.coverage.size(), 2u);

    std::size_t machine_count = defaultMachines().size();
    for (const PolicyCoverage &pc : tr.coverage) {
        ASSERT_EQ(pc.machines.size(), machine_count);
        std::size_t allowed =
            pc.observed.size() + pc.unobserved.size();
        std::set<std::string> union_observed;
        for (const MachineCoverage &mc : pc.machines) {
            // Every machine slice partitions the same allowed set.
            EXPECT_EQ(mc.observed.size() + mc.unobserved.size(),
                      allowed);
            union_observed.insert(mc.observed.begin(),
                                  mc.observed.end());
        }
        // The aggregate observed set is exactly the per-machine union.
        EXPECT_EQ(union_observed,
                  std::set<std::string>(pc.observed.begin(),
                                        pc.observed.end()));
    }

    // The standing wocover rendering carries machine metadata, the
    // protocol transitions the fan exercised and the per-machine
    // outcome coverage rows (count 0 = allowed but unobserved).
    std::ostringstream cs;
    writeCoverageReport(cs, rep);
    const std::string doc = cs.str();
    EXPECT_EQ(doc.rfind("wocover\t1\n", 0), 0u);
    EXPECT_NE(doc.find("machine\tbus\tmsi\t1"), std::string::npos);
    EXPECT_NE(doc.find("machine\tnet-u\tnone\t0"), std::string::npos);
    EXPECT_NE(doc.find("trans\tmsi\t"), std::string::npos);
    EXPECT_NE(doc.find("outcome\tsb\t"), std::string::npos);
}

TEST(LitmusRunner, FindLitmusFilesRejectsMissingPath)
{
    EXPECT_THROW(findLitmusFiles({"/nonexistent/path.litmus"}),
                 std::runtime_error);
}

TEST(LitmusRunner, DefaultMachinesAreTheHistoricalVariants)
{
    std::vector<const MachineSpec *> machines = defaultMachines();
    ASSERT_EQ(machines.size(), 3u);
    EXPECT_EQ(machines[0]->name, "bus");
    EXPECT_EQ(machines[1]->name, "net");
    EXPECT_EQ(machines[2]->name, "net-u");
}

#ifdef WO_LITMUS_BIN
/** Exit status of the wo-litmus binary run with @p args. */
int
woLitmusExit(const std::string &args)
{
    std::string cmd = std::string(WO_LITMUS_BIN) + " " + args +
                      " > /dev/null 2> /dev/null";
    int rc = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << cmd;
    return WEXITSTATUS(rc);
}

TEST(WoLitmusTool, ListMachinesExitsZero)
{
    // --list-machines needs no corpus argument and must exit 0.
    EXPECT_EQ(woLitmusExit("--list-machines"), 0);
}

TEST(WoLitmusTool, UnknownMachineExitsTwo)
{
    EXPECT_EQ(woLitmusExit("--machines=warp-drive"), 2);
    EXPECT_EQ(woLitmusExit("--machines="), 2);
}

TEST(WoLitmusTool, BadUsageExitsTwo)
{
    EXPECT_EQ(woLitmusExit("--no-such-flag"), 2);
    EXPECT_EQ(woLitmusExit(""), 2); // no corpus paths
    EXPECT_EQ(woLitmusExit("--coverage-report="), 2); // empty file
}

TEST(WoLitmusTool, OutOfRangeNumbersExitTwo)
{
    const std::string dir = ::testing::TempDir();
    const struct
    {
        const char *name;
        const char *src;
    } cases[] = {
        {"wrap", "init { x = 18446744073709551617; }\nP0 ;\nhalt ;\n"
                 "forbidden (x == 18446744073709551621)\n"},
        {"reg", "init { x = 0; }\nP0 ;\nmovi r2147483648, 1 ;\n"
                "exists (x == 0)\n"},
        {"proc", "init { x = 0; }\nP0 | P99999999999 ;\n"
                 "exists (x == 0)\n"},
    };
    for (const auto &c : cases) {
        const std::string file = dir + "/wo_range_" + c.name + ".litmus";
        {
            std::ofstream out(file);
            ASSERT_TRUE(out);
            out << c.src;
        }
        EXPECT_EQ(woLitmusExit("--seeds=1 " + file), 2) << c.name;
    }
}

TEST(WoLitmusTool, MalformedNumericFlagsExitTwo)
{
    const std::string corpus = ::testing::TempDir() + "/wo_flags_mp.litmus";
    {
        std::ofstream out(corpus);
        ASSERT_TRUE(out);
        out << kMp;
    }
    // Each value is rejected while parsing, before any worker starts.
    for (const char *bad :
         {"--seeds=2x", "--seeds=0", "--seeds=", "--seed=abc", "--seed=-1",
          "--seed=18446744073709551616", "--threads=zz", "--threads=0",
          "--threads=100000"}) {
        EXPECT_EQ(woLitmusExit(std::string(bad) + " --seeds=1 " + corpus),
                  2)
            << bad;
    }
    EXPECT_EQ(woLitmusExit("--seeds=1 " + corpus), 0);
}

TEST(WoLitmusTool, MalformedWoThreadsExitsTwo)
{
    const std::string corpus = ::testing::TempDir() + "/wo_env_mp.litmus";
    {
        std::ofstream out(corpus);
        ASSERT_TRUE(out);
        out << kMp;
    }
    for (const char *bad : {"zz", "0", "100000"}) {
        std::string cmd = std::string("WO_THREADS=") + bad + " " +
                          WO_LITMUS_BIN + " --seeds=1 " + corpus +
                          " > /dev/null 2> /dev/null";
        int rc = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(rc)) << cmd;
        EXPECT_EQ(WEXITSTATUS(rc), 2) << bad;
    }
}

TEST(WoLitmusTool, CoverageReportFileIsWritten)
{
    const std::string dir = ::testing::TempDir();
    const std::string corpus = dir + "/wo_cov_mp.litmus";
    const std::string report = dir + "/wo_cov_report.wocover";
    {
        std::ofstream out(corpus);
        ASSERT_TRUE(out);
        out << kMp;
    }
    std::remove(report.c_str());
    EXPECT_EQ(woLitmusExit("--seeds=2 --coverage-report=" + report +
                           " " + corpus),
              0);
    std::ifstream in(report);
    ASSERT_TRUE(in) << "standing coverage report missing: " << report;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();
    EXPECT_EQ(doc.rfind("wocover\t1\n", 0), 0u);
    EXPECT_NE(doc.find("meta\truns\t1"), std::string::npos);
    EXPECT_NE(doc.find("machine\tbus\tmsi\t1"), std::string::npos);
    EXPECT_NE(doc.find("trans\tmsi\t"), std::string::npos);

    // A second run grows the same file instead of overwriting it.
    EXPECT_EQ(woLitmusExit("--seeds=2 --coverage-report=" + report +
                           " " + corpus),
              0);
    std::ifstream in2(report);
    ASSERT_TRUE(in2);
    std::stringstream buf2;
    buf2 << in2.rdbuf();
    EXPECT_NE(buf2.str().find("meta\truns\t2"), std::string::npos);

    // A malformed standing report is an error, not clobbered.
    {
        std::ofstream out(report);
        out << "not a wocover file\n";
    }
    EXPECT_EQ(woLitmusExit("--seeds=2 --coverage-report=" + report +
                           " " + corpus),
              2);
}
#endif // WO_LITMUS_BIN

} // namespace
} // namespace litmus_dsl
} // namespace wo
