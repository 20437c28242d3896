#include "core/race_detector.hh"

#include <algorithm>

namespace wo {

RaceDetector::RaceDetector(int numProcs, RaceDetectMode mode)
    : mode_(mode)
{
    reset(numProcs);
}

void
RaceDetector::reset(int numProcs)
{
    nprocs_ = numProcs;
    clocks_.resize(static_cast<std::size_t>(numProcs));
    for (VectorClock &c : clocks_)
        c.clear();
    for (int slot : touched_) {
        Location &l = locs_[static_cast<std::size_t>(slot)];
        l.write = {};
        l.writeId = -1;
        l.read = {};
        l.readId = -1;
        l.readsByProc.clear();
        l.hist.clear();
        l.release.clear();
        l.touched = false;
    }
    touched_.clear();
    races_.clear();
    seen_ = 0;
}

int
RaceDetector::slotOf(Addr a)
{
    auto [it, fresh] = slots_.try_emplace(a, static_cast<int>(locs_.size()));
    if (fresh)
        locs_.emplace_back();
    return it->second;
}

void
RaceDetector::record(int a, int b)
{
    if (a > b)
        std::swap(a, b);
    races_.push_back({a, b});
}

void
RaceDetector::onAccess(const Access &a, int slot)
{
    if (a.proc < 0)
        return; // hypothetical initializing writes are hb-first
    if (mode_ == RaceDetectMode::FirstRace && hasRace())
        return;
    if (a.proc >= nprocs_) {
        nprocs_ = a.proc + 1;
        clocks_.resize(static_cast<std::size_t>(nprocs_));
    }
    ++seen_;

    VectorClock &cp = clocks_[static_cast<std::size_t>(a.proc)];
    Location &v = locs_[static_cast<std::size_t>(slot)];
    if (!v.touched) {
        v.touched = true;
        touched_.push_back(slot);
    }
    if (a.sync()) {
        // Acquire: the previous sync at this location (and everything
        // happening-before it) happens-before this access.
        cp.join(v.release);
    }
    const std::uint32_t c = cp.tick(a.proc);
    const bool rd = a.reads();
    const bool wr = a.writes();

    if (mode_ == RaceDetectMode::AllRaces) {
        // Check against every prior conflicting access here. Each test
        // is an O(1) epoch-vs-clock comparison; hb(h, a) is the only
        // possible ordering since we consume a linear extension.
        // The clock is read once (record() may reallocate, so reading cp
        // in the loop reloads it every step) and recording is kept off
        // the loop's hot path. Both keep this scan compact enough that
        // its speed does not swing ~2x with where the linker places it.
        const bool readOnly = rd && !wr;
        const std::vector<std::uint32_t> &clk = cp.components();
        const std::uint32_t *known = clk.data();
        const std::size_t nknown = clk.size();
        for (const HistEntry &h : v.hist) {
            if (readOnly && h.readOnly)
                continue; // two reads never conflict
            const std::size_t q = static_cast<std::size_t>(h.proc);
            if (h.clock > (q < nknown ? known[q] : 0)) [[unlikely]]
                record(h.id, a.id);
        }
        v.hist.push_back({c, a.proc, a.id, readOnly});
    } else {
        // FastTrack epochs. Any access conflicts with the last write;
        // earlier writes are dominated by it (each write, admitted
        // race-free, happens-after the previous one), so one epoch
        // test covers them all.
        if (v.write.some() && !cp.covers(v.write)) {
            record(v.writeId, a.id);
            return;
        }
        if (wr) {
            // A write also conflicts with reads. While reads are
            // totally ordered one epoch suffices; once concurrent,
            // check the latest read of every processor (earlier reads
            // are po-dominated).
            if (!v.readsByProc.empty()) {
                for (std::size_t q = 0; q < v.readsByProc.size(); ++q) {
                    const ReadSlot &r = v.readsByProc[q];
                    if (r.clock &&
                        r.clock > cp.get(static_cast<ProcId>(q))) {
                        record(r.id, a.id);
                        return;
                    }
                }
            } else if (v.read.some() && !cp.covers(v.read)) {
                record(v.readId, a.id);
                return;
            }
            v.write = {c, a.proc};
            v.writeId = a.id;
        }
        if (rd) {
            if (v.readsByProc.empty()) {
                if (!v.read.some() || v.read.proc == a.proc ||
                    cp.covers(v.read)) {
                    // Still totally ordered: the new read dominates.
                    v.read = {c, a.proc};
                    v.readId = a.id;
                } else {
                    // Concurrent reads: widen to one slot per proc.
                    v.readsByProc.assign(
                        static_cast<std::size_t>(nprocs_), {});
                    v.readsByProc[static_cast<std::size_t>(v.read.proc)] =
                        {v.read.clock, v.readId};
                    v.readsByProc[static_cast<std::size_t>(a.proc)] =
                        {c, a.id};
                }
            } else {
                if (v.readsByProc.size() <
                    static_cast<std::size_t>(nprocs_)) {
                    v.readsByProc.resize(
                        static_cast<std::size_t>(nprocs_), {});
                }
                v.readsByProc[static_cast<std::size_t>(a.proc)] =
                    {c, a.id};
            }
        }
    }

    if (a.sync()) {
        // Release: this access's full clock (own tick included) becomes
        // the so-edge source for the next sync at this location, copied
        // into the slot's existing storage.
        v.release = cp;
    }
}

} // namespace wo
