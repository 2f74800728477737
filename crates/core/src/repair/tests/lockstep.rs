//! Real plans in lock-step: for every registry workload on which a default
//! session attaches repair, on `flat`, `2s` and `8s`, two fresh machines
//! carry an [`SsbHook`] applying the session's plan. One runs ahead
//! (`run_steps(n)`, seeded `n`), the other takes `n` single steps
//! (`run_steps(1)` is below the round threshold, so it is `step()`), and
//! after every quantum they must agree on the status, the HITM batch, the
//! run result, the memory and the hook's own counters.

use laser_machine::{Machine, RunStatus};

use super::super::{SsbCosts, SsbHook, SsbStats};
use super::{repaired_cases, RepairedCase, XorShift};

/// Seeded quantum sequences over all cases together.
const SEEDS: u64 = if cfg!(debug_assertions) { 150 } else { 3_000 };
/// Quanta per seed, each of `1..=MAX_QUANTUM` steps.
const QUANTA_PER_SEED: u64 = 20;
const MAX_QUANTUM: u64 = 700;

fn hooked(case: &RepairedCase, costs: SsbCosts) -> Machine {
    let mut machine = Machine::new(case.config.clone(), &case.image);
    let hook = SsbHook::with_costs(case.plan.clone(), case.config.num_cores, costs);
    machine.attach_hook(Box::new(hook));
    machine
}

fn ssb_stats(machine: &Machine) -> SsbStats {
    SsbHook::attached_to(machine)
        .expect("an SsbHook is attached")
        .stats()
}

/// One quantum of `n` steps on both machines, and everything they must agree
/// on after it.
fn quantum_in_lockstep(fast: &mut Machine, slow: &mut Machine, n: u64, what: &str) -> RunStatus {
    let yielded = fast.run_quantum(n);
    let mut status = RunStatus::Running;
    for _ in 0..n {
        status = slow.run_steps(1);
        if status == RunStatus::Done {
            break;
        }
    }
    let at = fast.steps();
    assert_eq!(yielded.status, status, "{what} at step {at}: status");
    assert_eq!(
        yielded.events,
        slow.take_hitm_events(),
        "{what} at step {at}: HITM batch"
    );
    let (f, s) = (fast.result(), slow.result());
    assert_eq!(
        (f.steps, f.cycles, f.per_core_cycles, f.stats),
        (s.steps, s.cycles, s.per_core_cycles, s.stats),
        "{what} at step {at}: run result"
    );
    assert_eq!(
        ssb_stats(fast),
        ssb_stats(slow),
        "{what} at step {at}: SSB counters"
    );
    assert!(
        fast.memory() == slow.memory(),
        "{what} at step {at}: memory"
    );
    status
}

#[test]
fn real_plans_run_ahead_in_lockstep_with_single_steps() {
    let cases = repaired_cases();
    assert_eq!(cases.len(), 9, "three workloads on three topologies");
    let mut buffered = 0;
    for (i, case) in cases.iter().enumerate() {
        // The case's share of the seeds continues one run, and starts the
        // next from fresh machines when that finishes.
        let mut pair = None;
        for seed in (1 + i as u64..=SEEDS).step_by(cases.len()) {
            let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            for _ in 0..QUANTA_PER_SEED {
                let (fast, slow) = pair.get_or_insert_with(|| {
                    (
                        hooked(case, SsbCosts::default()),
                        hooked(case, SsbCosts::default()),
                    )
                });
                let n = 1 + rng.below(MAX_QUANTUM);
                let what = format!("{}, seed {seed}", case.what);
                if quantum_in_lockstep(fast, slow, n, &what) == RunStatus::Done {
                    buffered += ssb_stats(fast).buffered_stores;
                    pair = None;
                }
            }
        }
        if let Some((fast, _)) = &pair {
            buffered += ssb_stats(fast).buffered_stores;
        }
    }
    assert!(buffered > 0, "no store was ever buffered");
}

/// A zero cost is no floor to run ahead on: the machine dispatches per
/// instruction, the run terminates and equals the single-stepped one — where
/// running ahead anyway would overshoot its step budgets on the free stores.
#[test]
fn a_zero_cost_falls_back_to_per_instruction_dispatch() {
    let case = repaired_cases()
        .iter()
        .find(|case| case.what == "linear_regression on Flat")
        .expect("linear_regression is repaired on flat");
    for free in 0..3 {
        let mut costs = SsbCosts::default();
        match free {
            0 => costs.store = 0,
            1 => costs.load = 0,
            _ => costs.alias_check = 0,
        }
        let (mut fast, mut slow) = (hooked(case, costs), hooked(case, costs));
        let mut rng = XorShift(0x5eed + free);
        let what = format!("{} with {costs:?}", case.what);
        while quantum_in_lockstep(&mut fast, &mut slow, 1 + rng.below(5_000), &what)
            == RunStatus::Running
        {}
        assert!(ssb_stats(&fast).buffered_stores > 0);
    }
}
