/**
 * Structured pipeline observability: ring-buffer semantics, exporter
 * round-trips through the mini_json reader, determinism of the event
 * stream across batch worker counts, zero allocation while recording,
 * no perturbation of simulation results, and exact reconciliation of
 * interval statistics with the end-of-run scalar counters.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <sstream>

#include "common/mini_json.hh"
#include "common/trace.hh"
#include "driver/batch_runner.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"

using namespace mssr;
using minijson::JsonParser;
using minijson::JsonValue;

namespace
{

/** Hashed hard-to-predict branch loop: plenty of squashes and reuse. */
isa::Program
squashyProgram(int iterations = 300)
{
    std::ostringstream src;
    src << R"(
        li s0, 0
        li s1, )" << iterations << R"(
    loop:
        addi t0, s0, 999
        li t1, -0x61c8864680b583eb
        mul t0, t0, t1
        srli t1, t0, 31
        xor t0, t0, t1
        andi t1, t0, 1
        beqz t1, skip
        addi s2, s2, 1
    skip:
        addi s3, s3, 7
        xori s3, s3, 3
        addi s0, s0, 1
        blt s0, s1, loop
        halt
    )";
    return isa::assembleProgram(src.str());
}

bool
sameEvent(const TraceEvent &a, const TraceEvent &b)
{
    return a.cycle == b.cycle && a.seq == b.seq && a.pc == b.pc &&
           a.arg == b.arg && a.stage == b.stage && a.reuse == b.reuse &&
           a.squash == b.squash;
}

} // namespace

TEST(Tracer, RingWraparoundKeepsNewestEvents)
{
    Tracer t(8);
    EXPECT_EQ(t.capacity(), 8u);
    EXPECT_EQ(t.size(), 0u);

    for (std::uint64_t i = 1; i <= 20; ++i) {
        t.setCycle(i * 10);
        t.record(TraceStage::Fetch, i, 0x1000 + i * 4);
    }
    EXPECT_EQ(t.size(), 8u);
    EXPECT_EQ(t.recorded(), 20u);
    EXPECT_EQ(t.dropped(), 12u);
    // Oldest retained is seq 13, newest seq 20, strictly ordered.
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t.event(i).seq, 13u + i);
        EXPECT_EQ(t.event(i).cycle, (13u + i) * 10);
        EXPECT_EQ(t.event(i).pc, 0x1000 + (13u + i) * 4);
    }

    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.capacity(), 8u);
    t.record(TraceStage::Commit, 99, 0x42);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.event(0).seq, 99u);

    // Text rendering reports the drop count after wraparound.
    Tracer small(2);
    for (std::uint64_t i = 0; i < 5; ++i)
        small.record(TraceStage::Fetch, i, 0);
    std::ostringstream text;
    small.writeText(text);
    EXPECT_NE(text.str().find("3 older events dropped"),
              std::string::npos);
}

TEST(Tracer, RecordingNeverReallocates)
{
    Tracer t(64);
    const void *buf = t.bufferAddress();
    for (std::uint64_t i = 0; i < 10000; ++i)
        t.record(TraceStage::Writeback, i, i * 4, ReuseOutcome::Reused,
                 SquashReason::None, i);
    EXPECT_EQ(t.bufferAddress(), buf);
    EXPECT_EQ(t.capacity(), 64u);
    EXPECT_EQ(t.recorded(), 10000u);
}

TEST(Tracer, ChromeJsonParsesBack)
{
    const isa::Program prog = squashyProgram();
    Tracer tracer(1 << 15);
    SimConfig cfg = rgidConfig(4, 64);
    cfg.tracer = &tracer;
    runSim(prog, cfg);
    ASSERT_GT(tracer.size(), 0u);

    std::ostringstream os;
    tracer.writeChromeJson(os, "squashy");
    const JsonValue root = JsonParser(os.str()).parse();
    ASSERT_EQ(root.kind, JsonValue::Object);
    const auto events = root.object.find("traceEvents");
    ASSERT_NE(events, root.object.end());
    ASSERT_EQ(events->second.kind, JsonValue::Array);

    std::size_t complete = 0, metadata = 0;
    bool sawProcessName = false;
    for (const JsonValue &e : events->second.array) {
        ASSERT_EQ(e.kind, JsonValue::Object);
        const auto ph = e.object.find("ph");
        ASSERT_NE(ph, e.object.end());
        for (const char *key : {"name", "pid", "tid"})
            EXPECT_NE(e.object.find(key), e.object.end()) << key;
        if (ph->second.string == "X") {
            ++complete;
            const auto args = e.object.find("args");
            ASSERT_NE(args, e.object.end());
            EXPECT_NE(args->second.object.find("seq"),
                      args->second.object.end());
            EXPECT_NE(args->second.object.find("pc"),
                      args->second.object.end());
        } else {
            ASSERT_EQ(ph->second.string, "M");
            ++metadata;
            const auto name = e.object.find("name");
            if (name->second.string == "process_name") {
                sawProcessName = true;
                EXPECT_EQ(e.object.at("args").object.at("name").string,
                          "squashy");
            }
        }
    }
    EXPECT_EQ(complete, tracer.size());
    EXPECT_TRUE(sawProcessName);
    EXPECT_GT(metadata, 0u);

    // Multi-job export: one pid per job.
    Tracer other(16);
    other.record(TraceStage::Fetch, 1, 0x100);
    std::ostringstream multi;
    writeChromeJson(multi, {{"a", &tracer}, {"b", &other}});
    const JsonValue mroot = JsonParser(multi.str()).parse();
    std::set<double> pids;
    for (const JsonValue &e : mroot.object.at("traceEvents").array)
        pids.insert(e.object.at("pid").number);
    EXPECT_EQ(pids, (std::set<double>{0.0, 1.0}));
    // Ring-wraparound accounting: one entry per job, pid order.
    const auto mdrops = mroot.object.find("dropped_events");
    ASSERT_NE(mdrops, mroot.object.end());
    ASSERT_EQ(mdrops->second.array.size(), 2u);
    EXPECT_EQ(mdrops->second.array[0].number,
              static_cast<double>(tracer.dropped()));
    EXPECT_EQ(mdrops->second.array[1].number,
              static_cast<double>(other.dropped()));

    // JSONL: one parseable object per line, with a trailing
    // dropped_events marker.
    std::ostringstream jsonl;
    tracer.writeJsonl(jsonl);
    std::istringstream lines(jsonl.str());
    std::string line;
    std::size_t parsed = 0;
    JsonValue last;
    while (std::getline(lines, line)) {
        last = JsonParser(line).parse();
        EXPECT_EQ(last.kind, JsonValue::Object);
        ++parsed;
    }
    EXPECT_EQ(parsed, tracer.size() + 1);
    const auto jdrops = last.object.find("dropped_events");
    ASSERT_NE(jdrops, last.object.end());
    EXPECT_EQ(jdrops->second.number, static_cast<double>(tracer.dropped()));
}

TEST(Tracer, ChromeJsonEscapesControlCharactersInLabels)
{
    // The label is the job name, e.g. an --asm path, and may hold any
    // byte; the export must stay valid JSON and keep the name intact.
    Tracer tracer(16);
    tracer.record(TraceStage::Fetch, 1, 0x100);
    const std::string label = "dir\tname\n\x01" ".s";
    std::ostringstream os;
    tracer.writeChromeJson(os, label);
    EXPECT_EQ(os.str().find('\x01'), std::string::npos);
    const JsonValue root = JsonParser(os.str()).parse();
    bool sawProcessName = false;
    for (const JsonValue &e : root.object.at("traceEvents").array) {
        if (e.object.at("name").string == "process_name") {
            sawProcessName = true;
            EXPECT_EQ(e.object.at("args").object.at("name").string, label);
        }
    }
    EXPECT_TRUE(sawProcessName);
}

TEST(Tracer, EventStreamIdenticalAcrossWorkerCounts)
{
    // The per-job event stream must be bit-identical whether the batch
    // runs sequentially or on 4 workers.
    const isa::Program prog = squashyProgram();
    const std::vector<SimConfig> cfgs = {
        rgidConfig(4, 64), rgidConfig(1, 32), baselineConfig(),
        regIntConfig(64, 2)};

    auto runWith = [&](unsigned workers, std::deque<Tracer> &tracers) {
        std::vector<BatchJob> jobs;
        for (const SimConfig &cfg : cfgs) {
            tracers.emplace_back(1 << 14);
            SimConfig jobCfg = cfg;
            jobCfg.tracer = &tracers.back();
            jobs.push_back(
                {"job" + std::to_string(jobs.size()), &prog, jobCfg, {}});
        }
        BatchRunner(workers).run(jobs);
    };

    std::deque<Tracer> seq, par;
    runWith(1, seq);
    runWith(4, par);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t j = 0; j < seq.size(); ++j) {
        ASSERT_EQ(seq[j].recorded(), par[j].recorded()) << "job " << j;
        ASSERT_EQ(seq[j].size(), par[j].size()) << "job " << j;
        for (std::size_t i = 0; i < seq[j].size(); ++i)
            ASSERT_TRUE(sameEvent(seq[j].event(i), par[j].event(i)))
                << "job " << j << " event " << i;
    }
}

TEST(Tracer, TracingDoesNotPerturbSimulation)
{
    // Bit-identical architectural results and counters with tracing on,
    // off, and with a tiny ring that wraps constantly.
    const isa::Program prog = squashyProgram();
    const SimConfig cfg = rgidConfig(4, 64);

    const RunResult off = runSim(prog, cfg);

    Tracer big(1 << 15);
    SimConfig withBig = cfg;
    withBig.tracer = &big;
    const RunResult on = runSim(prog, withBig);

    Tracer tiny(4);
    SimConfig withTiny = cfg;
    withTiny.tracer = &tiny;
    const RunResult wrapped = runSim(prog, withTiny);

    for (const RunResult *r : {&on, &wrapped}) {
        EXPECT_EQ(off.cycles, r->cycles);
        EXPECT_EQ(off.insts, r->insts);
        EXPECT_EQ(off.archRegs, r->archRegs);
        EXPECT_EQ(off.stats.scalars(), r->stats.scalars());
    }
    EXPECT_EQ(big.recorded(), tiny.recorded());
}

TEST(IntervalStats, SumsReconcileWithScalarCounters)
{
    const isa::Program prog = squashyProgram();
    for (const Cycle interval : {64u, 100u, 1u << 20}) {
        SimConfig cfg = rgidConfig(4, 64);
        cfg.statsInterval = interval;
        const RunResult r = runSim(prog, cfg);
        ASSERT_FALSE(r.intervals.empty()) << "interval " << interval;

        Cycle cycles = 0;
        std::uint64_t commits = 0, squashedInsts = 0, squashEvents = 0,
                      reuseHits = 0;
        Cycle prevEnd = 0;
        for (const IntervalSample &s : r.intervals) {
            EXPECT_GT(s.cycleEnd, prevEnd);
            prevEnd = s.cycleEnd;
            EXPECT_GE(s.wpbOccupancy, 0.0);
            EXPECT_LE(s.wpbOccupancy, 1.0);
            EXPECT_GE(s.squashLogOccupancy, 0.0);
            EXPECT_LE(s.squashLogOccupancy, 1.0);
            cycles += s.cycles;
            commits += s.commits;
            squashedInsts += s.squashedInsts;
            squashEvents += s.squashEvents;
            reuseHits += s.reuseHits;
        }
        EXPECT_EQ(cycles, r.cycles) << "interval " << interval;
        EXPECT_EQ(commits, r.insts) << "interval " << interval;
        EXPECT_EQ(squashedInsts,
                  static_cast<std::uint64_t>(
                      r.stats.get("core.squashedInsts")))
            << "interval " << interval;
        EXPECT_EQ(squashEvents,
                  static_cast<std::uint64_t>(
                      r.stats.get("core.squashEvents")))
            << "interval " << interval;
        EXPECT_EQ(reuseHits,
                  static_cast<std::uint64_t>(r.stats.get("reuse.success")))
            << "interval " << interval;
    }
}

TEST(IntervalStats, DisabledByDefault)
{
    const isa::Program prog = squashyProgram(50);
    const RunResult r = runSim(prog, rgidConfig(2, 32));
    EXPECT_TRUE(r.intervals.empty());
}
