//! The banked-channel discrete-event timing model.
//!
//! [`TimingModel`] keeps the paper's Table 1 parameters as an `f64`
//! configuration surface; internally every replay runs on an integer
//! nanosecond clock (see [`LatNs`]) driven by the event queue in
//! [`crate::event`]. Integer time makes identical replays produce
//! bit-identical totals, not epsilon-close ones, and lets the engine
//! record exact per-op latencies for tail (p95/p99) reporting.

use std::collections::VecDeque;

use anubis::OpCost;

use crate::event::{Completion, Event, EventQueue};

/// Latency parameters and queue geometry for the memory channel.
///
/// Defaults follow the paper's Table 1 (PCM read 60 ns, write 150 ns).
#[derive(Clone, Debug, PartialEq)]
pub struct TimingModel {
    /// PCM array read latency per 64-byte block (ns).
    pub read_ns: f64,
    /// PCM array write latency per 64-byte block (ns).
    pub write_ns: f64,
    /// Latency of one hash/MAC/pad computation (ns). Metadata hash checks
    /// largely overlap with data fetch in real engines; a small serial
    /// component remains on the critical path.
    pub hash_ns: f64,
    /// Write-queue depth: posted writes stall the CPU only when this many
    /// writes are already posted but not yet completed (WPQ
    /// back-pressure).
    pub write_queue_depth: usize,
    /// Bank-level parallelism: the channel schedules accesses onto this
    /// many independently busy banks. Accesses to distinct idle banks
    /// overlap fully; a bank conflict serializes behind the bank's
    /// current access.
    pub banks: u32,
}

impl TimingModel {
    /// The paper's Table 1 configuration (read 60 ns, write 150 ns) with
    /// four banks and a pipelined hash engine.
    pub fn paper() -> Self {
        TimingModel {
            read_ns: 60.0,
            write_ns: 150.0,
            hash_ns: 5.0,
            write_queue_depth: 32,
            banks: 4,
        }
    }

    /// Quantizes the `f64` parameter surface to the integer-nanosecond
    /// domain the event engine runs in. Rounding happens once, up front,
    /// so all replay arithmetic is exact integer math.
    pub(crate) fn quantized(&self) -> LatNs {
        LatNs {
            read: self.read_ns.max(0.0).round() as u64,
            write: self.write_ns.max(0.0).round() as u64,
            hash: self.hash_ns.max(0.0).round() as u64,
            depth: self.write_queue_depth.max(1),
            banks: self.banks.max(1) as usize,
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::paper()
    }
}

/// [`TimingModel`] rounded to whole nanoseconds, with queue geometry
/// clamped to sane minimums (at least one bank, depth at least one).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LatNs {
    /// Array read latency (ns).
    pub read: u64,
    /// Array write latency (ns).
    pub write: u64,
    /// Serial hash latency (ns).
    pub hash: u64,
    /// WPQ depth (posted-but-incomplete writes before the CPU stalls).
    pub depth: usize,
    /// Bank count.
    pub banks: usize,
}

/// Discrete-event channel state threaded through a trace replay.
///
/// The channel owns `banks` independently busy banks, a bounded write
/// pending queue (WPQ), and a completion-event heap. Scheduling rules:
///
/// * **Writes are posted.** A write issues immediately onto an idle bank;
///   otherwise it parks in the WPQ. The CPU stalls only when the number
///   of posted-but-incomplete writes reaches `depth` (back-pressure).
/// * **Bank conflicts serialize.** An access to a busy bank starts when
///   the bank's current access completes; the bank with the earliest
///   free time wins, ties broken by lowest bank index (deterministic).
/// * **Reads have priority.** At a read's arrival instant, banks that
///   free exactly then are reserved for the read rather than handed to a
///   queued write; queued writes resume on banks the read did not take.
///   Reads never preempt an access that has already started.
///
/// Event processing is lazy: completions are applied when the CPU next
/// interacts with the channel, which keeps replay O(ops log ops) while
/// producing the same schedule as an eagerly stepped clock.
#[derive(Clone, Debug)]
pub(crate) struct Channel {
    lat: LatNs,
    /// CPU-visible clock (ns).
    pub now: u64,
    /// Per-bank completion time of the bank's latest scheduled access.
    bank_free: Vec<u64>,
    /// Pending completion events, keyed `(time, seq)`.
    events: EventQueue,
    /// Posted writes waiting for a bank, by post time (FIFO).
    wpq: VecDeque<u64>,
    /// Writes issued to a bank but not yet completed.
    inflight_writes: usize,
    /// Total CPU stall time waiting on reads (ns).
    pub read_stall_ns: u64,
    /// Total CPU stall time from WPQ back-pressure (ns).
    pub write_stall_ns: u64,
    /// Total bank occupancy: summed access latencies (ns). With `b`
    /// banks this can legitimately reach `b ×` the wall clock.
    pub busy_ns: u64,
    /// Latest completion time ever scheduled (ns).
    horizon: u64,
}

impl Channel {
    /// A fresh channel configured from `model`.
    pub fn new(model: &TimingModel) -> Self {
        let lat = model.quantized();
        Channel {
            bank_free: vec![0; lat.banks],
            lat,
            now: 0,
            events: EventQueue::new(),
            wpq: VecDeque::new(),
            inflight_writes: 0,
            read_stall_ns: 0,
            write_stall_ns: 0,
            busy_ns: 0,
            horizon: 0,
        }
    }

    /// Advances the CPU clock by the trace's compute gap. Channel
    /// completions that fall inside the gap are applied lazily on the
    /// next `execute`.
    pub fn advance(&mut self, gap_ns: u64) {
        self.now += gap_ns;
    }

    /// Schedules a write on `bank` starting at `start`.
    fn issue_write(&mut self, bank: usize, start: u64) {
        let done = start + self.lat.write;
        self.bank_free[bank] = done;
        self.busy_ns += self.lat.write;
        self.horizon = self.horizon.max(done);
        self.inflight_writes += 1;
        self.events.push(done, bank, Completion::Write);
    }

    /// Applies one completion: the bank frees and — unless the bank was
    /// re-claimed for a later access, or it frees exactly at a read's
    /// reserved arrival instant — the oldest queued write takes it.
    fn complete(&mut self, ev: Event, reserve_at: Option<u64>) {
        if ev.kind == Completion::Write {
            self.inflight_writes -= 1;
        }
        // A read may have claimed this bank's future slot already; the
        // bank is then not actually idle at the completion instant.
        if self.bank_free[ev.bank] > ev.at_ns {
            return;
        }
        if reserve_at == Some(ev.at_ns) {
            return;
        }
        if let Some(posted) = self.wpq.pop_front() {
            self.issue_write(ev.bank, ev.at_ns.max(posted));
        }
    }

    /// Processes every completion at or before `t`. With
    /// `reserve_for_read`, banks freeing exactly at `t` stay idle so the
    /// arriving read can claim them first.
    fn sync(&mut self, t: u64, reserve_for_read: bool) {
        let reserve = if reserve_for_read { Some(t) } else { None };
        while let Some(ev) = self.events.pop_until(t) {
            self.complete(ev, reserve);
        }
    }

    /// Lowest-indexed bank idle at `t`, if any.
    fn idle_bank_at(&self, t: u64) -> Option<usize> {
        (0..self.bank_free.len()).find(|&b| self.bank_free[b] <= t)
    }

    /// Bank with the earliest free time (ties to the lowest index).
    fn earliest_bank(&self) -> usize {
        let mut best = 0;
        for b in 1..self.bank_free.len() {
            if self.bank_free[b] < self.bank_free[best] {
                best = b;
            }
        }
        best
    }

    /// Starts queued writes on every bank idle at `t`, oldest first.
    fn issue_queued_at(&mut self, t: u64) {
        while !self.wpq.is_empty() {
            let Some(bank) = self.idle_bank_at(t) else {
                break;
            };
            if let Some(posted) = self.wpq.pop_front() {
                self.issue_write(bank, t.max(posted));
            }
        }
    }

    /// Writes posted but not yet completed (queued + in flight). This is
    /// the quantity the WPQ depth bounds.
    fn wpq_occupancy(&self) -> usize {
        self.wpq.len() + self.inflight_writes
    }

    /// Executes one operation's memory-controller work and returns the
    /// op's end-to-end critical-path latency (read waits + serial hash
    /// + any WPQ back-pressure stall).
    pub fn execute(&mut self, cost: OpCost) -> u64 {
        let begin = self.now;
        if cost.nvm_reads > 0 {
            self.sync(self.now, true);
            // All of the op's reads dispatch together; each claims the
            // earliest-free bank, so independent banks overlap and
            // conflicts serialize. The op completes when its last read
            // does.
            let mut op_done = self.now;
            for _ in 0..cost.nvm_reads {
                let bank = self.earliest_bank();
                let start = self.now.max(self.bank_free[bank]);
                let done = start + self.lat.read;
                self.bank_free[bank] = done;
                self.busy_ns += self.lat.read;
                self.horizon = self.horizon.max(done);
                self.events.push(done, bank, Completion::Read);
                op_done = op_done.max(done);
            }
            // Banks the reads did not claim may resume queued writes.
            self.issue_queued_at(self.now);
            self.read_stall_ns += op_done - self.now;
            self.now = op_done;
        }
        self.now += u64::from(cost.hash_ops) * self.lat.hash;
        if cost.nvm_writes > 0 {
            self.sync(self.now, false);
            for _ in 0..cost.nvm_writes {
                // Back-pressure: stall the CPU on completion events until
                // a WPQ slot frees. Completions in the lazy backlog (at
                // times before `now`) free slots without advancing time.
                while self.wpq_occupancy() >= self.lat.depth {
                    let Some(ev) = self.events.pop() else {
                        break;
                    };
                    let at = ev.at_ns;
                    self.complete(ev, None);
                    if at > self.now {
                        self.write_stall_ns += at - self.now;
                        self.now = at;
                    }
                }
                match self.idle_bank_at(self.now) {
                    Some(bank) => self.issue_write(bank, self.now),
                    None => self.wpq.push_back(self.now),
                }
            }
        }
        self.now - begin
    }

    /// Retires every scheduled and queued access, emptying the event
    /// heap and the WPQ. End-of-run only: a drained channel has lost its
    /// backlog.
    pub fn drain(&mut self) {
        while let Some(ev) = self.events.pop() {
            self.complete(ev, None);
        }
        debug_assert!(
            self.wpq.is_empty(),
            "queued writes with no pending completion event"
        );
    }

    /// Wall-clock end of the run: CPU done and every scheduled access
    /// complete. Exact only once drained; before that it is a lower
    /// bound that excludes still-queued writes.
    pub fn finish(&self) -> u64 {
        self.now.max(self.horizon)
    }

    /// Total bank-time (ns): `wall clock × banks`, the utilization
    /// denominator. With banked parallelism `busy_ns` can exceed the
    /// wall clock, so dividing by [`Channel::finish`] alone would
    /// inflate utilization by up to the bank count.
    pub fn channel_time_ns(&self) -> u64 {
        self.finish() * self.bank_free.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(r: u32, w: u32, h: u32) -> OpCost {
        OpCost {
            nvm_reads: r,
            nvm_writes: w,
            hash_ops: h,
            bg_hash_ops: 0,
        }
    }

    fn serial() -> TimingModel {
        TimingModel {
            banks: 1,
            ..TimingModel::paper()
        }
    }

    #[test]
    fn paper_model_quantizes_to_whole_ns() {
        let q = TimingModel::paper().quantized();
        assert_eq!((q.read, q.write, q.hash), (60, 150, 5));
        assert_eq!((q.depth, q.banks), (32, 4));
        // Degenerate geometry clamps instead of dividing by zero.
        let q = TimingModel {
            banks: 0,
            write_queue_depth: 0,
            ..TimingModel::paper()
        }
        .quantized();
        assert_eq!((q.depth, q.banks), (1, 1));
    }

    #[test]
    fn reads_stall_cpu() {
        let mut ch = Channel::new(&serial());
        let lat = ch.execute(cost(2, 0, 0));
        assert_eq!(lat, 120);
        assert_eq!(ch.now, 120);
        assert_eq!(ch.read_stall_ns, 120);
    }

    #[test]
    fn reads_overlap_across_banks_and_conflicts_serialize() {
        let m = TimingModel {
            banks: 2,
            ..serial()
        };
        // Two reads on two banks: fully overlapped.
        let mut ch = Channel::new(&m);
        assert_eq!(ch.execute(cost(2, 0, 0)), 60);
        // Four reads on two banks: two waves.
        let mut ch = Channel::new(&m);
        assert_eq!(ch.execute(cost(4, 0, 0)), 120);
        // Five reads: one bank runs a third wave.
        let mut ch = Channel::new(&m);
        assert_eq!(ch.execute(cost(5, 0, 0)), 180);
    }

    #[test]
    fn writes_are_posted_until_queue_fills() {
        let m = TimingModel {
            write_queue_depth: 2,
            ..serial()
        };
        let mut ch = Channel::new(&m);
        // Two writes fit in the queue: no stall.
        let lat = ch.execute(cost(0, 2, 0));
        assert_eq!(lat, 0);
        assert_eq!(ch.write_stall_ns, 0);
        // Two more exceed the depth: the CPU stalls on completions. The
        // first write completes at 150 and the second at 300, so posting
        // two more writes waits out both.
        let lat = ch.execute(cost(0, 2, 0));
        assert_eq!(lat, 300);
        assert_eq!(ch.write_stall_ns, 300);
    }

    #[test]
    fn reads_jump_ahead_of_queued_writes_but_wait_for_inflight() {
        let mut ch = Channel::new(&serial());
        // One write in flight (0..150), three parked in the WPQ.
        ch.execute(cost(0, 4, 0));
        // The read cannot preempt the in-flight write but schedules ahead
        // of the three queued ones: it claims the bank at 150.
        let lat = ch.execute(cost(1, 0, 0));
        assert_eq!(lat, 210, "read = wait for in-flight write + array read");
        // The queued writes then drain behind the read: 210..660.
        let mut drained = ch.clone();
        drained.drain();
        assert_eq!(drained.finish(), 660);
    }

    #[test]
    fn read_priority_wins_a_bank_freeing_at_arrival_instant() {
        let mut ch = Channel::new(&serial());
        ch.execute(cost(0, 2, 0)); // write A in flight 0..150, write B queued
        ch.advance(150);
        // At exactly t=150 the bank frees. Read priority: the read takes
        // it (150..210) and write B waits until 210, instead of the
        // write claiming the bank and pushing the read to 300.
        let lat = ch.execute(cost(1, 0, 0));
        assert_eq!(lat, 60);
        let mut drained = ch.clone();
        drained.drain();
        assert_eq!(drained.finish(), 360);
    }

    #[test]
    fn idle_gaps_let_writes_drain() {
        let mut ch = Channel::new(&serial());
        ch.execute(cost(0, 4, 0));
        ch.advance(10_000); // long compute gap
        let lat = ch.execute(cost(1, 0, 0));
        assert_eq!(lat, 60, "channel drained during gap");
    }

    #[test]
    fn hash_ops_add_serial_latency() {
        let mut ch = Channel::new(&serial());
        let lat = ch.execute(cost(1, 0, 3));
        assert_eq!(lat, 60 + 3 * 5);
    }

    #[test]
    fn finish_includes_pending_writes_after_drain() {
        let mut ch = Channel::new(&serial());
        ch.execute(cost(0, 3, 0));
        assert_eq!(ch.finish(), 150, "undrained finish is a lower bound");
        ch.drain();
        assert_eq!(ch.finish(), 450);
    }

    #[test]
    fn busy_tracks_occupancy_and_bounds_utilization() {
        let mut ch = Channel::new(&serial());
        ch.execute(cost(2, 3, 0));
        ch.drain();
        // 2 reads * 60 + 3 writes * 150 of occupancy, back-to-back on
        // one bank: the channel never idles.
        assert_eq!(ch.busy_ns, 120 + 450);
        assert_eq!(ch.finish(), 570);
        assert_eq!(ch.channel_time_ns(), 570);
    }

    #[test]
    fn banked_busy_can_exceed_wall_clock() {
        let m = TimingModel {
            banks: 4,
            ..TimingModel::paper()
        };
        let mut ch = Channel::new(&m);
        ch.execute(cost(4, 0, 0)); // fully overlapped: 60 ns wall clock
        ch.drain();
        assert_eq!(ch.finish(), 60);
        assert_eq!(ch.busy_ns, 240);
        assert_eq!(ch.channel_time_ns(), 240);
    }

    #[test]
    fn idle_channel_reports_zero_channel_time() {
        let mut ch = Channel::new(&TimingModel::paper());
        ch.drain();
        assert_eq!(ch.busy_ns, 0);
        assert_eq!(ch.channel_time_ns(), 0);
        assert_eq!(ch.finish(), 0);
    }

    #[test]
    fn replay_totals_are_exactly_reproducible() {
        // Same op sequence, two independent replays: every counter is
        // bit-identical (integer clock, no accumulation-order drift).
        let run = || {
            let mut ch = Channel::new(&TimingModel::paper());
            let mut lats = Vec::new();
            for i in 0..200u32 {
                ch.advance(u64::from(i % 7) * 10);
                lats.push(ch.execute(cost(1 + i % 3, i % 5, i % 2)));
            }
            ch.drain();
            let totals = (ch.finish(), ch.read_stall_ns, ch.write_stall_ns, ch.busy_ns);
            (totals, lats)
        };
        assert_eq!(run(), run());
    }
}
