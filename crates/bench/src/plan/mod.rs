//! The shared run-plan layer: one machinery for "enumerate work units,
//! run them deterministically in parallel, render to a sink".
//!
//! The experiment registry (paper figures), the design-space sweep, and
//! the serve daemon's jobs are the same shape: a [`RunPlan`] enumerates
//! [`WorkUnit`]s — each carrying a stable key and its own deterministic
//! seed — [`execute`] fans the pending units out over the global thread
//! pool, and a [`UnitSink`] consumes the outputs *sequentially in unit
//! order*, each as soon as it and every unit before it have finished (so
//! output is byte-identical to a serial run at any thread count, the
//! same contract as `core::par`). Sinks decide what persistence means:
//! an in-memory [`TableSink`] behind the `report` renderers (text and
//! `escalate-report/v1` JSON), the golden check/update sinks of the
//! report runner, a served job's client socket, or the append-only
//! [`jsonl::JsonlSink`] whose [`UnitSink::recorded`] set makes a run
//! resumable — already-recorded unit keys are skipped, not re-run, and
//! an interrupted run keeps every record it had fed.
//!
//! Failure semantics: the first failing unit *in unit order* (a panic
//! inside `run_unit` counts as a failure naming the unit), or the first
//! sink write failure, ends the feed — earlier units' sink effects
//! persist, later outputs are discarded, and workers stop claiming new
//! units.

pub mod jsonl;

pub use jsonl::JsonlSink;

use crate::experiments::{ExpError, Table};
use escalate_models::hash::{splitmix64_mix, SPLITMIX_GAMMA};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

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

    /// Execution-order sort key: [`execute`] claims pending units in
    /// ascending key order, ties kept in enumeration order. The sink feed
    /// always stays in unit order, so a key changes cache locality —
    /// units sharing expensive derived state run adjacently — but never
    /// a single output byte. Default: enumeration order.
    fn exec_key(&self, _unit: &WorkUnit) -> u64 {
        0
    }
}

/// Consumes executed units, sequentially in unit order, on the thread
/// that called [`execute`] (so a sink need not be `Send`).
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

/// Runs one unit, turning a panic into a typed error naming the unit —
/// a panicking unit fails its run like any other failing unit instead
/// of taking the executing thread (or a serve worker) down with it.
fn run_caught(plan: &dyn RunPlan, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.run_unit(unit))).unwrap_or_else(
        |payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(ExpError::Msg(format!(
                "work unit {} panicked: {msg}",
                unit.key
            )))
        },
    )
}

/// Drives a plan into a sink: enumerate, drop units the sink already
/// recorded, run the rest over the global pool, and feed each output to
/// the sink *as soon as it and every unit before it have finished*.
///
/// Units are claimed in [`RunPlan::exec_key`] order (a stable sort, so
/// cache-friendly neighbours run adjacently) through the global pool's
/// `par_iter`, driven from one scoped thread — nested parallel calls
/// inside `run_unit` draw on the same token budget, so they degrade to
/// sequential once it is spent. The sink stays on the calling thread and
/// is fed strictly in unit order, so every byte it sees is identical to a
/// serial run at any thread count, and an interrupted run keeps every
/// record that was complete before the interrupt.
///
/// # Errors
///
/// Returns the first failing unit's error *in unit order* (a panicking
/// unit fails as `work unit <key> panicked: …`), or the sink's own write
/// failure. Earlier units' sink effects persist; once the feed errors,
/// workers stop claiming units.
pub fn execute(plan: &dyn RunPlan, sink: &mut dyn UnitSink) -> Result<ExecSummary, ExpError> {
    let units = plan.units()?;
    let (recorded, pending): (Vec<&WorkUnit>, Vec<&WorkUnit>) =
        units.iter().partition(|u| sink.recorded(&u.key));
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by_cached_key(|&i| plan.exec_key(pending[i]));

    // One slot per pending unit, filled by whichever worker ran it.
    let slots: Mutex<Vec<Option<Result<UnitOutput, ExpError>>>> =
        Mutex::new((0..pending.len()).map(|_| None).collect());
    let filled = Condvar::new();
    // Set once the feed has failed: workers skip every unclaimed unit.
    let stop = AtomicBool::new(false);
    let mut fed = Ok(());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            order.par_iter().for_each(|&i| {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let out = run_caught(plan, pending[i]);
                slots.lock().expect("slots lock poisoned")[i] = Some(out);
                filled.notify_all();
            });
        });
        for (i, unit) in pending.iter().enumerate() {
            // No code panics while holding the lock, so it never poisons.
            let out = filled
                .wait_while(slots.lock().expect("slots lock poisoned"), |s| {
                    s[i].is_none()
                })
                .expect("slots lock poisoned")[i]
                .take()
                .expect("slot filled");
            fed = out.and_then(|o| sink.write_unit(unit, o));
            if fed.is_err() {
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
    });
    fed.map(|()| ExecSummary {
        ran: pending.len(),
        skipped: recorded.len(),
    })
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
        for (have, survivors) in [
            (["u1", "u3"], ["u0", "u2", "u4"]),
            (["u0", "u4"], ["u1", "u2", "u3"]),
        ] {
            let plan = Toy { n: 5, master: 3 };
            let mut sink = Skipping {
                have: have.iter().map(|k| (*k).to_string()).collect(),
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
            assert_eq!(keys, survivors, "survivors keep their order");
        }
    }

    /// Units `u0`, a bad middle unit, `u2`: the middle unit fails with an
    /// error or, when `panics` is set, panics.
    struct Poisoned {
        panics: bool,
    }

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
                assert!(!self.panics, "unit exploded");
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
        let err = execute(&Poisoned { panics: false }, &mut sink).expect_err("must fail");
        assert!(err.to_string().contains("poisoned unit"));
        // u0 (before the failure) reached the sink; u2 (after) did not.
        assert_eq!(sink.tables.len(), 1);
        assert_eq!(sink.tables[0].lines()[0], "u0");
    }

    #[test]
    fn a_panicking_unit_fails_the_run_naming_the_unit() {
        let mut sink = TableSink::default();
        let err = execute(&Poisoned { panics: true }, &mut sink).expect_err("must fail");
        let msg = err.to_string();
        assert!(
            msg.contains("work unit u-poison panicked") && msg.contains("unit exploded"),
            "{msg}"
        );
        // Units before the panic in unit order already reached the sink.
        assert_eq!(sink.tables.len(), 1);
        assert_eq!(sink.tables[0].lines()[0], "u0");
    }

    /// Set by the sink once unit 0 has been written.
    #[derive(Default)]
    struct Fed {
        done: std::sync::Mutex<bool>,
        changed: std::sync::Condvar,
    }

    /// A plan whose last unit only succeeds once unit 0 has reached the
    /// sink — possible only when the feed is incremental.
    struct WaitsForFeed<'a> {
        inner: Toy,
        fed: &'a Fed,
    }

    impl RunPlan for WaitsForFeed<'_> {
        fn name(&self) -> &str {
            "waits-for-feed"
        }

        fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
            self.inner.units()
        }

        fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
            if unit.index + 1 == self.inner.n {
                let done = self.fed.done.lock().expect("lock");
                let (done, _) = self
                    .fed
                    .changed
                    .wait_timeout_while(done, std::time::Duration::from_secs(10), |d| !*d)
                    .expect("lock");
                if !*done {
                    return Err(ExpError::Msg("unit 0 never reached the sink".into()));
                }
            }
            self.inner.run_unit(unit)
        }
    }

    struct SignalingSink<'a> {
        fed: &'a Fed,
        inner: TableSink,
    }

    impl UnitSink for SignalingSink<'_> {
        fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
            if unit.index == 0 {
                *self.fed.done.lock().expect("lock") = true;
                self.fed.changed.notify_all();
            }
            self.inner.write_unit(unit, out)
        }
    }

    #[test]
    fn the_sink_is_fed_before_the_last_unit_finishes() {
        let fed = Fed::default();
        let plan = WaitsForFeed {
            inner: Toy { n: 4, master: 13 },
            fed: &fed,
        };
        let mut sink = SignalingSink {
            fed: &fed,
            inner: TableSink::default(),
        };
        let summary = execute(&plan, &mut sink).expect("feed is incremental");
        assert_eq!(summary, ExecSummary { ran: 4, skipped: 0 });
        assert_eq!(sink.inner.tables.len(), 4);
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

    #[test]
    fn execute_stops_feeding_after_a_sink_failure() {
        let plan = Toy { n: 6, master: 5 };
        let mut sink = FailingSink {
            fail_on: "u2".into(),
            written: Vec::new(),
        };
        let err = execute(&plan, &mut sink).expect_err("sink fails");
        assert!(err.to_string().contains("sink lost u2"));
        assert_eq!(sink.written, ["u0", "u1"], "writes stop at the failure");
    }

    /// A plan that executes in reverse enumeration order and records
    /// which units its execution key was asked for.
    struct Scheduled {
        inner: Toy,
        keyed: std::sync::Mutex<Vec<String>>,
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

        fn exec_key(&self, unit: &WorkUnit) -> u64 {
            self.keyed.lock().expect("lock").push(unit.key.clone());
            (self.inner.n - unit.index) as u64
        }
    }

    #[test]
    fn exec_keys_see_only_pending_units_and_never_change_sink_order() {
        // u1/u3 are already recorded; the other three are keyed in
        // reverse execution order — the sink feed must come out in unit
        // order regardless.
        let plan = Scheduled {
            inner: Toy { n: 5, master: 9 },
            keyed: std::sync::Mutex::new(Vec::new()),
        };
        let mut sink = Skipping {
            have: vec!["u1".into(), "u3".into()],
            inner: TableSink::default(),
        };
        let summary = execute(&plan, &mut sink).expect("runs");
        assert_eq!(summary, ExecSummary { ran: 3, skipped: 2 });
        assert_eq!(
            *plan.keyed.lock().expect("lock"),
            ["u0", "u2", "u4"],
            "each pending unit is keyed exactly once"
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
    fn keyed_and_unkeyed_runs_render_identically() {
        let plain = Toy { n: 8, master: 21 };
        let mut a = TableSink::default();
        execute(&plain, &mut a).expect("plain");
        let scheduled = Scheduled {
            inner: Toy { n: 8, master: 21 },
            keyed: std::sync::Mutex::new(Vec::new()),
        };
        let mut b = TableSink::default();
        execute(&scheduled, &mut b).expect("scheduled");
        let render = |s: &TableSink| -> Vec<String> {
            s.tables.iter().map(|t| t.lines()[0].clone()).collect()
        };
        assert_eq!(
            render(&a),
            render(&b),
            "an execution key may not change bytes"
        );
    }
}
