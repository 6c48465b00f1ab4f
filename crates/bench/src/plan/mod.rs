//! The shared run-plan layer: one machinery for "enumerate work units,
//! run them deterministically in parallel, render to a sink".
//!
//! The experiment registry (paper figures), the design-space sweep, and
//! any future consumer (a served job queue, a pipelined-schedule study)
//! are the same shape: a [`RunPlan`] enumerates [`WorkUnit`]s — each
//! carrying a stable key and its own deterministic seed — [`execute`]
//! fans the pending units out over the global thread pool with an
//! order-preserving collect (so output is byte-identical to a serial
//! run at any thread count, the same contract as `core::par`), and a
//! [`UnitSink`] consumes the outputs *sequentially in unit order*. Sinks
//! decide what persistence means: an in-memory [`TableSink`] behind the
//! `report` renderers (text and `escalate-report/v1` JSON), the golden
//! check/update sinks of the report runner, or the append-only
//! [`jsonl::JsonlSink`] whose [`UnitSink::recorded`] set makes a run
//! resumable — already-recorded unit keys are skipped, not re-run.
//!
//! Failure semantics mirror the historical report runner: every pending
//! unit runs to completion, then outputs are fed to the sink in unit
//! order and the first failing unit *in that order* aborts the feed —
//! earlier units' sink effects persist, later ones are discarded.

pub mod jsonl;

pub use jsonl::JsonlSink;

use crate::experiments::{ExpError, Table};
use escalate_models::hash::{splitmix64_mix, SPLITMIX_GAMMA};
use rayon::prelude::*;

/// One schedulable unit of work inside a [`RunPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkUnit {
    /// Stable identity of the unit: the resume key a sink records, and
    /// the name failures are reported under. Two runs of the same plan
    /// with the same inputs must enumerate the same keys.
    pub key: String,
    /// The unit's own deterministic seed (derive via [`unit_seed`]); what
    /// makes a unit reproducible independently of which other units run.
    pub seed: u64,
    /// Position in the plan's enumeration order (the order sinks see).
    pub index: usize,
}

/// What one executed unit hands to the sink.
#[derive(Debug, Clone, Default)]
pub struct UnitOutput {
    /// Structured table fragment (text lines + typed records) — the
    /// report renderers consume this.
    pub table: Table,
    /// Stream records (one complete JSON object per line) for JSONL
    /// sinks. Each line should carry a `"key"` field equal to the unit's
    /// key so a later run can resume past it.
    pub jsonl: Vec<String>,
}

impl UnitOutput {
    /// An output that is just a table (the experiment-registry case).
    pub fn from_table(table: Table) -> UnitOutput {
        UnitOutput {
            table,
            jsonl: Vec::new(),
        }
    }
}

/// A plan: work-unit enumeration separated from per-unit execution.
///
/// Implementations must be pure in the harness sense: `run_unit` derives
/// everything from the unit (key/seed/index) and the plan's own
/// configuration, never from execution order — that is what lets
/// [`execute`] fan units out in parallel and lets a resumed run skip
/// recorded units without changing the survivors.
pub trait RunPlan: Sync {
    /// Plan name, for error messages and logs.
    fn name(&self) -> &str;

    /// Enumerates the plan's units, in sink order.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpError`] when the plan's inputs are invalid.
    fn units(&self) -> Result<Vec<WorkUnit>, ExpError>;

    /// Runs one unit.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpError`] on pipeline failures.
    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError>;

    /// Optionally reorders *execution* of the pending units (the ones the
    /// sink has not recorded): returns a permutation of `0..pending.len()`
    /// giving the order workers should claim work in, or `None` for
    /// enumeration order. The sink feed always stays in unit order, so a
    /// schedule changes cache locality — units sharing expensive derived
    /// state run adjacently — but never a single output byte. A returned
    /// vector that is not a permutation of `0..pending.len()` is ignored.
    fn schedule(&self, _pending: &[&WorkUnit]) -> Option<Vec<usize>> {
        None
    }
}

/// Consumes executed units, sequentially in unit order.
pub trait UnitSink {
    /// Whether `key` is already recorded — recorded units are skipped by
    /// [`execute`] (the resume path). Default: nothing is recorded.
    fn recorded(&self, _key: &str) -> bool {
        false
    }

    /// Writes one unit's output.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpError`] when the sink cannot persist the output.
    fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError>;
}

/// What [`execute`] did: how many units ran vs. resumed past.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSummary {
    /// Units that executed this run.
    pub ran: usize,
    /// Units skipped because the sink had already recorded their keys.
    pub skipped: usize,
}

/// Derives a work unit's seed from a plan-level master seed and the
/// unit's enumeration index (splitmix64 finalizer): sample `i` draws the
/// same seed whether the plan enumerates 2 units or 2000, and regardless
/// of which units a resumed run skips.
pub fn unit_seed(master: u64, index: u64) -> u64 {
    splitmix64_mix(master ^ index.wrapping_mul(SPLITMIX_GAMMA))
}

/// Checks that `order` is a permutation of `0..n`.
fn is_permutation(order: &[usize], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &i in order {
        if i >= n || seen[i] {
            return false;
        }
        seen[i] = true;
    }
    true
}

/// Drives a plan into a sink: enumerate, drop units the sink already
/// recorded, run the rest (in parallel when there is more than one — the
/// collect is order-preserving, so the sink feed and therefore every
/// rendered byte is identical to a serial run), then feed outputs to the
/// sink in unit order.
///
/// When the plan provides a [`RunPlan::schedule`], units *execute* in the
/// scheduled order (so cache-friendly neighbours run adjacently) while
/// outputs are scattered back and fed to the sink in unit order — the
/// schedule is invisible in the output bytes.
///
/// # Errors
///
/// Returns the first failing unit's error *in unit order* (outputs of
/// earlier units have already reached the sink), or the sink's own write
/// failure.
pub fn execute(plan: &dyn RunPlan, sink: &mut dyn UnitSink) -> Result<ExecSummary, ExpError> {
    let units = plan.units()?;
    let mut pending: Vec<&WorkUnit> = Vec::with_capacity(units.len());
    let mut skipped = 0usize;
    for unit in &units {
        if sink.recorded(&unit.key) {
            skipped += 1;
        } else {
            pending.push(unit);
        }
    }
    let order: Vec<usize> = match plan.schedule(&pending) {
        Some(o) if is_permutation(&o, pending.len()) => o,
        _ => (0..pending.len()).collect(),
    };
    let mut outputs: Vec<Option<Result<UnitOutput, ExpError>>> =
        (0..pending.len()).map(|_| None).collect();
    let executed: Vec<(usize, Result<UnitOutput, ExpError>)> = if pending.len() > 1 {
        order
            .par_iter()
            .map(|&i| (i, plan.run_unit(pending[i])))
            .collect()
    } else {
        order
            .iter()
            .map(|&i| (i, plan.run_unit(pending[i])))
            .collect()
    };
    for (i, out) in executed {
        outputs[i] = Some(out);
    }
    let ran = pending.len();
    for (unit, output) in pending.into_iter().zip(outputs) {
        sink.write_unit(unit, output.expect("every pending slot filled")?)?;
    }
    Ok(ExecSummary { ran, skipped })
}

/// Drives a plan into a sink like [`execute`], but feeds each unit to
/// the sink *as soon as it (and every unit before it) has finished* —
/// the streaming-consumer variant behind served jobs, where the sink is
/// a client socket that should see records while later units still run.
///
/// The sink feed is still strictly in unit order, so every byte a sink
/// sees is identical to [`execute`]'s batch feed (and to a serial run).
/// Failure semantics differ deliberately: the first failing unit *in
/// unit order* (or the first sink write failure) aborts the run early —
/// in-flight units finish, but unclaimed units never start. A one-shot
/// run wants every output it paid for; a streaming consumer is gone the
/// moment the stream errors, so finishing the tail would be pure waste.
///
/// Units run on scoped worker threads sized to the global pool
/// (`rayon::current_num_threads`), pulling units in enumeration order;
/// nested parallelism inside `run_unit` still shares the global pool's
/// token budget, so total concurrency stays bounded.
///
/// # Errors
///
/// Returns the first failing unit's error in unit order, or the sink's
/// own write failure (earlier units' sink effects persist).
///
/// # Panics
///
/// Propagates a panicking `run_unit` after the remaining workers drain.
pub fn execute_streaming(
    plan: &dyn RunPlan,
    sink: &mut dyn UnitSink,
) -> Result<ExecSummary, ExpError> {
    let units = plan.units()?;
    let mut pending: Vec<&WorkUnit> = Vec::with_capacity(units.len());
    let mut skipped = 0usize;
    for unit in &units {
        if sink.recorded(&unit.key) {
            skipped += 1;
        } else {
            pending.push(unit);
        }
    }
    let ran = pending.len();
    if pending.len() <= 1 {
        for unit in pending {
            sink.write_unit(unit, plan.run_unit(unit)?)?;
        }
        return Ok(ExecSummary { ran, skipped });
    }

    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex as StdMutex};

    struct Shared {
        /// One slot per pending unit, filled when that unit finishes.
        slots: StdMutex<Vec<Option<Result<UnitOutput, ExpError>>>>,
        /// Signals the feeder that a slot was filled.
        ready: Condvar,
        /// Next pending index a worker should claim.
        next: AtomicUsize,
        /// Set by the feeder on the first error: workers stop claiming.
        abort: AtomicBool,
    }

    let shared = Shared {
        slots: StdMutex::new((0..pending.len()).map(|_| None).collect()),
        ready: Condvar::new(),
        next: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
    };
    let workers = rayon::current_num_threads().clamp(1, pending.len());
    let mut fed = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if shared.abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = shared.next.fetch_add(1, Ordering::Relaxed);
                if i >= pending.len() {
                    break;
                }
                // Fill the slot even if `run_unit` panics, so the feeder
                // (waiting on this very slot) wakes up instead of
                // deadlocking; the panic itself resurfaces at scope join.
                struct FillOnUnwind<'a> {
                    shared: &'a Shared,
                    index: usize,
                    armed: bool,
                }
                impl Drop for FillOnUnwind<'_> {
                    fn drop(&mut self) {
                        if !self.armed {
                            return;
                        }
                        let mut slots = self
                            .shared
                            .slots
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        slots[self.index] = Some(Err(ExpError::Msg("work unit panicked".into())));
                        self.shared.ready.notify_all();
                    }
                }
                let mut guard = FillOnUnwind {
                    shared: &shared,
                    index: i,
                    armed: true,
                };
                let out = plan.run_unit(pending[i]);
                guard.armed = false;
                let mut slots = shared
                    .slots
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                slots[i] = Some(out);
                shared.ready.notify_all();
            });
        }
        // The feeder: consume slots strictly in unit order.
        for (i, unit) in pending.iter().enumerate() {
            let out = {
                let mut slots = shared
                    .slots
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                loop {
                    if let Some(out) = slots[i].take() {
                        break out;
                    }
                    slots = shared
                        .ready
                        .wait(slots)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            fed = out.and_then(|o| sink.write_unit(unit, o));
            if fed.is_err() {
                shared.abort.store(true, Ordering::Relaxed);
                break;
            }
        }
    });
    fed.map(|()| ExecSummary { ran, skipped })
}

/// A sink that accumulates every unit's table in unit order — the
/// in-memory backend of the report renderers.
#[derive(Debug, Default)]
pub struct TableSink {
    /// Collected tables, in unit order.
    pub tables: Vec<Table>,
}

impl UnitSink for TableSink {
    fn write_unit(&mut self, _unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        self.tables.push(out.table);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tline;

    /// A cheap deterministic plan: unit i renders one line derived from
    /// its own seed.
    struct Toy {
        n: usize,
        master: u64,
    }

    impl RunPlan for Toy {
        fn name(&self) -> &str {
            "toy"
        }

        fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
            Ok((0..self.n)
                .map(|i| WorkUnit {
                    key: format!("u{i}"),
                    seed: unit_seed(self.master, i as u64),
                    index: i,
                })
                .collect())
        }

        fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
            if unit.key == "u-poison" {
                return Err(ExpError::Msg("poisoned unit".into()));
            }
            let mut t = Table::new("toy", "test");
            tline!(t, "{} -> {:016x}", unit.key, unit.seed);
            Ok(UnitOutput::from_table(t))
        }
    }

    #[test]
    fn unit_seeds_are_stable_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| unit_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| unit_seed(42, i)).collect();
        assert_eq!(a, b, "same master + index must reproduce");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "64 units drew a colliding seed");
        assert_ne!(unit_seed(1, 0), unit_seed(2, 0), "master seed matters");
    }

    #[test]
    fn execute_preserves_unit_order_in_the_sink() {
        let plan = Toy { n: 8, master: 7 };
        let mut sink = TableSink::default();
        let summary = execute(&plan, &mut sink).expect("runs");
        assert_eq!(summary, ExecSummary { ran: 8, skipped: 0 });
        let rendered: Vec<String> = sink.tables.iter().map(|t| t.lines()[0].clone()).collect();
        for (i, line) in rendered.iter().enumerate() {
            assert!(line.starts_with(&format!("u{i} ->")), "{line}");
        }
    }

    /// A sink that pretends some keys are already recorded.
    struct Skipping {
        have: Vec<String>,
        inner: TableSink,
    }

    impl UnitSink for Skipping {
        fn recorded(&self, key: &str) -> bool {
            self.have.iter().any(|k| k == key)
        }

        fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
            self.inner.write_unit(unit, out)
        }
    }

    #[test]
    fn execute_skips_exactly_the_recorded_keys() {
        let plan = Toy { n: 5, master: 3 };
        let mut sink = Skipping {
            have: vec!["u1".into(), "u3".into()],
            inner: TableSink::default(),
        };
        let summary = execute(&plan, &mut sink).expect("runs");
        assert_eq!(summary, ExecSummary { ran: 3, skipped: 2 });
        let keys: Vec<&str> = sink
            .inner
            .tables
            .iter()
            .map(|t| t.lines()[0].split_whitespace().next().expect("key"))
            .collect();
        assert_eq!(keys, ["u0", "u2", "u4"], "survivors keep their order");
    }

    struct Poisoned;

    impl RunPlan for Poisoned {
        fn name(&self) -> &str {
            "poisoned"
        }

        fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
            Ok(["u0", "u-poison", "u2"]
                .iter()
                .enumerate()
                .map(|(i, k)| WorkUnit {
                    key: (*k).into(),
                    seed: unit_seed(0, i as u64),
                    index: i,
                })
                .collect())
        }

        fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
            if unit.key == "u-poison" {
                return Err(ExpError::Msg("poisoned unit".into()));
            }
            let mut t = Table::new("p", "t");
            tline!(t, "{}", unit.key);
            Ok(UnitOutput::from_table(t))
        }
    }

    #[test]
    fn first_failure_in_unit_order_aborts_after_earlier_writes() {
        let mut sink = TableSink::default();
        let err = execute(&Poisoned, &mut sink).expect_err("must fail");
        assert!(err.to_string().contains("poisoned unit"));
        // u0 (before the failure) reached the sink; u2 (after) did not.
        assert_eq!(sink.tables.len(), 1);
        assert_eq!(sink.tables[0].lines()[0], "u0");
    }

    #[test]
    fn streaming_feed_is_byte_identical_to_the_batch_feed() {
        let plan = Toy { n: 16, master: 11 };
        let mut batch = TableSink::default();
        execute(&plan, &mut batch).expect("batch");
        let mut streamed = TableSink::default();
        let summary = execute_streaming(&plan, &mut streamed).expect("streaming");
        assert_eq!(
            summary,
            ExecSummary {
                ran: 16,
                skipped: 0
            }
        );
        let render = |s: &TableSink| -> Vec<String> {
            s.tables.iter().map(|t| t.lines()[0].clone()).collect()
        };
        assert_eq!(render(&batch), render(&streamed));
    }

    #[test]
    fn streaming_skips_recorded_keys_like_execute() {
        let plan = Toy { n: 5, master: 3 };
        let mut sink = Skipping {
            have: vec!["u0".into(), "u4".into()],
            inner: TableSink::default(),
        };
        let summary = execute_streaming(&plan, &mut sink).expect("runs");
        assert_eq!(summary, ExecSummary { ran: 3, skipped: 2 });
        let keys: Vec<&str> = sink
            .inner
            .tables
            .iter()
            .map(|t| t.lines()[0].split_whitespace().next().expect("key"))
            .collect();
        assert_eq!(keys, ["u1", "u2", "u3"]);
    }

    #[test]
    fn streaming_aborts_on_the_first_failure_in_unit_order() {
        let mut sink = TableSink::default();
        let err = execute_streaming(&Poisoned, &mut sink).expect_err("must fail");
        assert!(err.to_string().contains("poisoned unit"));
        // u0 reached the sink before the failure; u2 never did.
        assert_eq!(sink.tables.len(), 1);
        assert_eq!(sink.tables[0].lines()[0], "u0");
    }

    /// A sink whose write fails on a chosen unit — exercises the abort
    /// path where the *sink*, not the unit, errors mid-stream (the
    /// disconnected-client case of a served job).
    struct FailingSink {
        fail_on: String,
        written: Vec<String>,
    }

    impl UnitSink for FailingSink {
        fn write_unit(&mut self, unit: &WorkUnit, _out: UnitOutput) -> Result<(), ExpError> {
            if unit.key == self.fail_on {
                return Err(ExpError::Msg(format!("sink lost {}", unit.key)));
            }
            self.written.push(unit.key.clone());
            Ok(())
        }
    }

    /// A plan with a custom execution schedule (reverse order, or a
    /// deliberately malformed one) that records what `schedule` was
    /// offered.
    struct Scheduled {
        inner: Toy,
        order: Vec<usize>,
        offered: std::sync::Mutex<Vec<String>>,
    }

    impl RunPlan for Scheduled {
        fn name(&self) -> &str {
            "scheduled"
        }

        fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
            self.inner.units()
        }

        fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
            self.inner.run_unit(unit)
        }

        fn schedule(&self, pending: &[&WorkUnit]) -> Option<Vec<usize>> {
            *self.offered.lock().expect("lock") = pending.iter().map(|u| u.key.clone()).collect();
            Some(self.order.clone())
        }
    }

    #[test]
    fn schedule_sees_only_pending_units_and_never_changes_sink_order() {
        // u1/u3 are already recorded; the schedule is offered the other
        // three and reverses their execution order — the sink feed must
        // come out in unit order regardless.
        let plan = Scheduled {
            inner: Toy { n: 5, master: 9 },
            order: vec![2, 1, 0],
            offered: std::sync::Mutex::new(Vec::new()),
        };
        let mut sink = Skipping {
            have: vec!["u1".into(), "u3".into()],
            inner: TableSink::default(),
        };
        let summary = execute(&plan, &mut sink).expect("runs");
        assert_eq!(summary, ExecSummary { ran: 3, skipped: 2 });
        assert_eq!(
            *plan.offered.lock().expect("lock"),
            ["u0", "u2", "u4"],
            "schedule is offered exactly the pending units"
        );
        let keys: Vec<&str> = sink
            .inner
            .tables
            .iter()
            .map(|t| t.lines()[0].split_whitespace().next().expect("key"))
            .collect();
        assert_eq!(keys, ["u0", "u2", "u4"], "sink order is unit order");
    }

    #[test]
    fn scheduled_and_unscheduled_runs_render_identically() {
        let plain = Toy { n: 8, master: 21 };
        let mut a = TableSink::default();
        execute(&plain, &mut a).expect("plain");
        let scheduled = Scheduled {
            inner: Toy { n: 8, master: 21 },
            order: (0..8).rev().collect(),
            offered: std::sync::Mutex::new(Vec::new()),
        };
        let mut b = TableSink::default();
        execute(&scheduled, &mut b).expect("scheduled");
        let render = |s: &TableSink| -> Vec<String> {
            s.tables.iter().map(|t| t.lines()[0].clone()).collect()
        };
        assert_eq!(render(&a), render(&b), "a schedule may not change bytes");
    }

    #[test]
    fn malformed_schedules_fall_back_to_enumeration_order() {
        for bad in [vec![0, 0, 2], vec![0, 1], vec![0, 1, 7]] {
            let plan = Scheduled {
                inner: Toy { n: 3, master: 1 },
                order: bad,
                offered: std::sync::Mutex::new(Vec::new()),
            };
            let mut sink = TableSink::default();
            let summary = execute(&plan, &mut sink).expect("runs");
            assert_eq!(summary, ExecSummary { ran: 3, skipped: 0 });
            assert_eq!(sink.tables.len(), 3, "all units still ran");
        }
    }

    #[test]
    fn streaming_stops_feeding_after_a_sink_failure() {
        let plan = Toy { n: 6, master: 5 };
        let mut sink = FailingSink {
            fail_on: "u2".into(),
            written: Vec::new(),
        };
        let err = execute_streaming(&plan, &mut sink).expect_err("sink fails");
        assert!(err.to_string().contains("sink lost u2"));
        assert_eq!(sink.written, ["u0", "u1"], "writes stop at the failure");
    }
}
