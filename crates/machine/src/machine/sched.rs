//! Thread state and the deterministic scheduler.
//!
//! The machine always runs the runnable thread whose core has the smallest
//! local clock; ties break by thread index. This yields deterministic
//! interleavings that naturally model the ping-pong timing of contended cache
//! lines: a core stalled on a 90-cycle HITM transfer falls behind and the
//! other cores run ahead.
//!
//! [`crate::machine::Machine::run_steps`] is equivalent to `n` single steps
//! under that rule, but consults this scheduler only at *active*
//! instructions (memory, fence, halt): between them the scheduled core
//! retires its register-only instructions without touching the heap and is
//! repositioned once (see the `exec` module docs for why that is exact).
//! Inside a round every core in the heap is *parked* — its key is exactly the
//! `(pre-clock, thread index)` of its next active instruction — so the round
//! loop takes one decision from this scheduler per active instruction.
//!
//! [`CoreSched`] makes the decision in O(1) with O(log cores) maintenance
//! per reposition, instead of the naive O(threads) min-scan per instruction:
//!
//! * All threads on a core share that core's clock, so the per-thread minimum
//!   of `(clock, thread index)` equals the per-*core* minimum of
//!   `(clock, lowest runnable thread index on the core)`. Cores live in an
//!   indexed binary min-heap keyed by that pair.
//! * Keys only ever increase: clocks are monotone, and the front thread index
//!   of a core only moves forward (the scheduled thread is always its core's
//!   front, so threads halt strictly in front-to-back order per core). Every
//!   heap fix-up is therefore a sift-*down*.
//! * Uniform charges to all cores ([`crate::machine::Machine::charge_all_cores`])
//!   shift every key equally and need no heap maintenance at all.
//! * A key is built from two flat per-core arrays: the machine's clock slice
//!   and `front`, the front runnable thread of each core. Every heap
//!   comparison and [`CoreSched::front`] read those and nothing else; the
//!   per-core thread lists (`threads_on`) are read by construction and by
//!   [`CoreSched::on_halt`] alone, and `on_halt` — the only place a core's
//!   cursor moves — is the only writer of `front`.
//!
//! The heap's keys are always distinct (front thread indices partition across
//! cores), so the schedule it produces is exactly the naive scan's — the
//! `identical_to_naive_min_scan` property test below drives both through
//! randomized charge/halt sequences to pin that equivalence, `front(core)`
//! included, after every halt.

use laser_isa::inst::{Reg, NUM_REGS};
use laser_isa::program::BlockId;

use crate::machine::Machine;

/// Execution state of one simulated thread.
pub(crate) struct ThreadCtx {
    pub(crate) name: String,
    pub(crate) core: usize,
    pub(crate) block: BlockId,
    pub(crate) idx: usize,
    pub(crate) regs: [u64; NUM_REGS],
    pub(crate) halted: bool,
}

/// `pos` marker for a core that is not in the heap (no runnable threads).
const ABSENT: u32 = u32::MAX;

/// The incremental scheduling structure: an indexed binary min-heap of cores
/// keyed by `(core clock, lowest runnable thread index on the core)`.
///
/// Core clocks stay owned by the machine (`core_cycles`); every operation
/// that depends on them takes the clock slice as a parameter, so the heap
/// never holds stale key copies.
pub(crate) struct CoreSched {
    /// Core ids in binary min-heap order.
    heap: Vec<u32>,
    /// `pos[core]` is the core's index in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
    /// `front[core]` is the front runnable thread of a live core — the
    /// thread index half of its key ([`ABSENT`] for a core with none).
    /// Written by [`CoreSched::on_halt`] only.
    front: Vec<u32>,
    /// Thread ids placed on each core, ascending.
    threads_on: Vec<Vec<u32>>,
    /// `cursor[core]` indexes the first runnable thread in
    /// `threads_on[core]`; everything before it has halted.
    cursor: Vec<u32>,
    /// Number of threads that have not halted.
    live: usize,
}

impl CoreSched {
    /// Build the scheduler for threads placed on `thread_cores[i]`.
    pub(crate) fn new(thread_cores: &[usize], num_cores: usize) -> Self {
        let mut threads_on: Vec<Vec<u32>> = vec![Vec::new(); num_cores];
        for (ti, &core) in thread_cores.iter().enumerate() {
            threads_on[core].push(ti as u32);
        }
        let heap: Vec<u32> = (0..num_cores as u32)
            .filter(|&c| !threads_on[c as usize].is_empty())
            .collect();
        let mut sched = CoreSched {
            pos: vec![ABSENT; num_cores],
            front: threads_on
                .iter()
                .map(|on| on.first().copied().unwrap_or(ABSENT))
                .collect(),
            cursor: vec![0; num_cores],
            live: thread_cores.len(),
            threads_on,
            heap,
        };
        for (i, &c) in sched.heap.iter().enumerate() {
            sched.pos[c as usize] = i as u32;
        }
        // Heapify. All clocks are zero at construction, so only the front
        // thread indices order the cores.
        let zeros = vec![0u64; num_cores];
        for i in (0..sched.heap.len() / 2).rev() {
            sched.sift_down(&zeros, i);
        }
        sched
    }

    /// Number of threads that have not halted.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Number of cores that still have a runnable thread.
    pub(crate) fn live_cores(&self) -> usize {
        self.heap.len()
    }

    /// The heap's root core — the one whose `(clock, front thread)` key is
    /// smallest, so its clock is the minimum over all live cores. O(1).
    pub(crate) fn root(&self) -> Option<usize> {
        self.heap.first().map(|&c| c as usize)
    }

    /// The front runnable thread of a live `core`.
    pub(crate) fn front(&self, core: usize) -> usize {
        self.front[core] as usize
    }

    /// The front runnable thread of `core`, or `None` if the core has none
    /// (and so is not in the heap).
    pub(crate) fn live_front(&self, core: usize) -> Option<usize> {
        let front = self.front[core];
        (front != ABSENT).then_some(front as usize)
    }

    /// The scheduling decision: the front runnable thread of the heap's root
    /// core. O(1).
    pub(crate) fn pick(&self) -> Option<usize> {
        self.root().map(|core| self.front(core))
    }

    fn key(&self, clocks: &[u64], core: u32) -> (u64, u32) {
        let c = core as usize;
        (clocks[c], self.front[c])
    }

    /// Sink the entry at heap index `i` to where its key belongs. The sinking
    /// core is held out of the array — its key read once — while smaller
    /// children move up into the hole.
    fn sift_down(&mut self, clocks: &[u64], mut i: usize) {
        let len = self.heap.len();
        let core = self.heap[i];
        let key = self.key(clocks, core);
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let mut min = left;
            let mut min_key = self.key(clocks, self.heap[left]);
            let right = left + 1;
            if right < len {
                let right_key = self.key(clocks, self.heap[right]);
                if right_key < min_key {
                    min = right;
                    min_key = right_key;
                }
            }
            if min_key >= key {
                break;
            }
            let child = self.heap[min];
            self.heap[i] = child;
            self.pos[child as usize] = i as u32;
            i = min;
        }
        self.heap[i] = core;
        self.pos[core as usize] = i as u32;
    }

    /// Restore heap order after `core`'s clock increased (instruction cost or
    /// externally charged cycles). Keys only ever increase, so one sift-down
    /// suffices; cores with no runnable threads are not tracked and need no
    /// fix-up.
    pub(crate) fn reposition(&mut self, clocks: &[u64], core: usize) {
        let p = self.pos[core];
        if p != ABSENT {
            self.sift_down(clocks, p as usize);
        }
    }

    /// Record that the scheduled thread halted. The scheduled thread is
    /// always the front runnable thread of the root core, so this advances
    /// `core`'s cursor and re-sinks (or removes) the root. Returns the
    /// core's new front thread, or `None` if that was its last.
    pub(crate) fn on_halt(&mut self, clocks: &[u64], core: usize) -> Option<usize> {
        debug_assert_eq!(
            self.pos[core], 0,
            "only the scheduled core's thread can halt"
        );
        self.live -= 1;
        self.cursor[core] += 1;
        let next = self.threads_on[core]
            .get(self.cursor[core] as usize)
            .copied();
        self.front[core] = next.unwrap_or(ABSENT);
        if next.is_none() {
            // Core exhausted: remove it from the heap (pop the root).
            let last = self.heap.len() - 1;
            self.heap.swap(0, last);
            self.pos[self.heap[0] as usize] = 0;
            self.heap.pop();
            self.pos[core] = ABSENT;
        }
        if !self.heap.is_empty() {
            self.sift_down(clocks, 0);
        }
        next.map(|t| t as usize)
    }
}

impl Machine {
    /// True if every thread has halted. O(1): the scheduler counts live
    /// threads.
    pub fn is_done(&self) -> bool {
        self.sched.live() == 0
    }

    /// Names of the threads, in spawn order (for reports and tests).
    pub fn thread_names(&self) -> Vec<&str> {
        self.threads.iter().map(|t| t.name.as_str()).collect()
    }

    /// Register value of a thread (for tests).
    pub fn thread_reg(&self, thread: usize, reg: Reg) -> u64 {
        self.threads[thread].regs[reg.0 as usize]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The naive reference scheduler: a linear min-scan over all runnable
    /// threads keyed by `(core clock, thread index)` — exactly what
    /// `Machine::pick_thread` did before the heap.
    struct NaiveSched {
        thread_cores: Vec<usize>,
        halted: Vec<bool>,
    }

    impl NaiveSched {
        fn pick(&self, clocks: &[u64]) -> Option<usize> {
            self.thread_cores
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.halted[*i])
                .min_by_key(|(i, &core)| (clocks[core], *i))
                .map(|(i, _)| i)
        }

        /// The lowest runnable thread index on `core`.
        fn front(&self, core: usize) -> Option<usize> {
            (0..self.thread_cores.len()).find(|&i| self.thread_cores[i] == core && !self.halted[i])
        }
    }

    /// After a halt: the flat `front` array and the decision agree with the
    /// naive scan on every core, the halted thread's included (which may
    /// have lost its last thread).
    fn assert_fronts_agree(sched: &CoreSched, naive: &NaiveSched, clocks: &[u64], what: &str) {
        for core in 0..clocks.len() {
            assert_eq!(
                sched.live_front(core),
                naive.front(core),
                "{what}: front of core {core}"
            );
        }
        assert_eq!(sched.pick(), naive.pick(clocks), "{what}: pick after halt");
        if let Some(root) = sched.root() {
            assert_eq!(
                Some(sched.front(root)),
                sched.pick(),
                "{what}: root's front"
            );
        }
        let live_cores = (0..clocks.len())
            .filter(|&c| naive.front(c).is_some())
            .count();
        assert_eq!(sched.live_cores(), live_cores, "{what}: live cores");
    }

    /// A tiny deterministic xorshift PRNG so the property test needs no
    /// external randomness source.
    pub(crate) struct XorShift(pub(crate) u64);

    impl XorShift {
        pub(crate) fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Drive the heap and the naive scan through randomized charge/halt
    /// sequences and assert they schedule the identical thread at every step.
    /// Zero-cost charges keep clocks tied across cores, exercising the
    /// `(clock, index)` tie-break. Odd seeds pile many threads onto few cores
    /// and halt them in bursts, so cores change their front thread — and
    /// lose their last one — back to back; after every halt the flat `front`
    /// array is compared with the naive scan on every core.
    #[test]
    fn identical_to_naive_min_scan() {
        for seed in 1..=200u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let crowded = seed % 2 == 1;
            let num_cores = 1 + rng.below(if crowded { 3 } else { 8 }) as usize;
            let num_threads = if crowded { 6 } else { 1 } + rng.below(24) as usize;
            let thread_cores: Vec<usize> = (0..num_threads)
                .map(|_| rng.below(num_cores as u64) as usize)
                .collect();

            let mut clocks = vec![0u64; num_cores];
            let mut sched = CoreSched::new(&thread_cores, num_cores);
            let mut naive = NaiveSched {
                thread_cores: thread_cores.clone(),
                halted: vec![false; num_threads],
            };

            let mut halts = 0usize;
            loop {
                let a = sched.pick();
                let b = naive.pick(&clocks);
                assert_eq!(a, b, "seed {seed}: heap and naive scan disagree");
                let Some(ti) = a else { break };
                let core = thread_cores[ti];

                match rng.below(10) {
                    // Halt the scheduled thread (the only thread that can
                    // halt in the real machine).
                    0 | 1 => {
                        clocks[core] += rng.below(4);
                        // On crowded seeds a burst: keep halting whatever
                        // is scheduled next, free of charge, so that a core's
                        // successors (and its last thread) halt with nothing
                        // in between.
                        let mut scheduled = Some(ti);
                        while let Some(ti) = scheduled {
                            let core = thread_cores[ti];
                            naive.halted[ti] = true;
                            let next = sched.on_halt(&clocks, core);
                            halts += 1;
                            assert_eq!(next, naive.front(core), "seed {seed}: new front");
                            assert_fronts_agree(&sched, &naive, &clocks, &format!("seed {seed}"));
                            scheduled = if crowded && rng.below(3) != 0 {
                                sched.pick()
                            } else {
                                None
                            };
                        }
                    }
                    // Externally charge some other core, like
                    // Machine::charge_cycles does.
                    2 => {
                        let victim = rng.below(num_cores as u64) as usize;
                        clocks[victim] += rng.below(50);
                        sched.reposition(&clocks, victim);
                        clocks[core] += 1 + rng.below(90);
                        sched.reposition(&clocks, core);
                    }
                    // Uniform charge to every core: order-preserving, no
                    // heap maintenance required.
                    3 => {
                        for c in clocks.iter_mut() {
                            *c += 17;
                        }
                        clocks[core] += rng.below(5);
                        sched.reposition(&clocks, core);
                    }
                    // Plain instruction charge — zero cost is common (a
                    // hook-handled op) and keeps clocks tied.
                    _ => {
                        clocks[core] += rng.below(91);
                        sched.reposition(&clocks, core);
                    }
                }
            }
            assert_eq!(sched.live(), 0);
            assert_eq!(halts, num_threads, "every thread halts exactly once");
        }
    }

    /// The tie-break alone: many threads, all clocks pinned equal, must
    /// schedule strictly by thread index.
    #[test]
    fn equal_clocks_schedule_by_thread_index() {
        let thread_cores = vec![3, 1, 0, 2, 1, 3, 0, 2, 0, 1];
        let clocks = vec![0u64; 4];
        let mut sched = CoreSched::new(&thread_cores, 4);
        for (expect, &core) in thread_cores.iter().enumerate() {
            assert_eq!(sched.pick(), Some(expect));
            sched.on_halt(&clocks, core);
        }
        assert_eq!(sched.pick(), None);
    }

    /// Cores with no threads at all never appear in the schedule and the
    /// heap survives them.
    #[test]
    fn empty_cores_are_skipped() {
        let thread_cores = vec![5, 5, 2];
        let mut clocks = vec![0u64; 8];
        let mut sched = CoreSched::new(&thread_cores, 8);
        assert_eq!(sched.pick(), Some(0));
        clocks[5] += 100;
        sched.reposition(&clocks, 5);
        assert_eq!(sched.pick(), Some(2), "core 2 is now earliest");
        sched.on_halt(&clocks, 2);
        assert_eq!(sched.pick(), Some(0));
        sched.on_halt(&clocks, 5);
        assert_eq!(sched.pick(), Some(1));
        sched.on_halt(&clocks, 5);
        assert_eq!(sched.pick(), None);
        assert_eq!(sched.live(), 0);
    }
}
