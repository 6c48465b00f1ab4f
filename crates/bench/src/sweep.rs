//! The design-space sweep behind `escalate sweep`: the second consumer of
//! the [`crate::plan`] layer (the first is the experiment registry).
//!
//! The sweep samples accelerator design points — `M`, PE count, input bus
//! width, the four buffer capacities, and the host `sample_channels`
//! fidelity knob — from declared ranges, runs each point through the
//! ESCALATE simulator on each requested zoo network, and streams one
//! JSONL record per `(network, sample)` to an append-only file. Sampling
//! is deterministic: sample `i` derives its own seed via
//! [`plan::unit_seed`] from the master seed, so the same command line
//! enumerates the same design points at any thread count, and a resumed
//! run (the [`plan::JsonlSink`] skips already-recorded keys) appends
//! exactly the missing records — byte-identical to an uninterrupted run.
//!
//! The summary is always computed from the *parsed stream* (resumed and
//! fresh records alike), so a cold run and a resumed one render the same
//! Pareto frontier: per network, the sampled points not strictly
//! dominated on (cycles, energy, area).

use crate::experiments::{ExpError, Table};
use crate::plan::{self, JsonlSink, RunPlan, UnitOutput, WorkUnit};
use escalate_core::pipeline::CompressionConfig;
use escalate_models::hash::splitmix64;
use escalate_models::ModelProfile;
use escalate_obs::{json_f64_field, json_string_field, json_u64_field, JsonWriter};
use escalate_sim::{DesignPoint, ScheduleKind};
use std::io::Write;
use std::path::PathBuf;

/// Schema identifier of one sweep stream record (sibling of
/// `escalate-report/v1`).
pub const SWEEP_SCHEMA: &str = "escalate-sweep/v1";

/// Candidate input bus widths (bytes).
const BUS_CHOICES: [usize; 4] = [8, 16, 32, 64];
/// Candidate per-buffer input-buffer capacities (bytes).
const INPUT_BUF_CHOICES: [usize; 3] = [4096, 8192, 16384];
/// Candidate coefficient-buffer capacities (bytes).
const COEF_BUF_CHOICES: [usize; 3] = [256, 512, 1024];
/// Candidate partial-sum-buffer capacities (bytes).
const PSUM_BUF_CHOICES: [usize; 3] = [1024, 2048, 4096];
/// Candidate output-buffer capacities (bytes).
const OUTPUT_BUF_CHOICES: [usize; 3] = [2048, 4096, 8192];
/// Candidate `sample_channels` fidelity settings.
const SAMPLE_CH_CHOICES: [usize; 3] = [4, 8, 16];

/// How the sweep draws design points from the declared ranges
/// (`--sampler`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sampler {
    /// Independent pseudo-random draws per sample (the original sampler;
    /// streams and frontiers are byte-identical to earlier releases).
    #[default]
    Uniform,
    /// Low-discrepancy Halton draws: sample `i` takes dimension `d` from
    /// the radical inverse of `i` in the `d`-th prime base, so small grids
    /// cover the design space far more evenly than independent draws
    /// (uniform sampling leaves clusters and holes at a few hundred
    /// points). The master seed offsets the sequence start.
    Halton,
}

impl Sampler {
    /// Parses a `--sampler` value.
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything but `uniform` / `halton`.
    pub fn parse(s: &str) -> Result<Sampler, String> {
        match s {
            "uniform" => Ok(Sampler::Uniform),
            "halton" => Ok(Sampler::Halton),
            other => Err(format!("unknown sampler {other:?} (uniform, halton)")),
        }
    }
}

/// What to do with a frontier golden file (`--check` / `--update`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenMode {
    /// Compare the rendered frontier tables against the file; any drift
    /// is an error (the CI path).
    Check,
    /// Rewrite the file with the rendered frontier tables.
    Update,
}

/// What `escalate sweep` was asked to do.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Network specs to evaluate every sampled point on (sweep positional
    /// arguments; default: the full evaluated zoo). Each spec goes through
    /// [`escalate_models::resolve`], so `@FILE` descriptions and
    /// `gen:NAME` generators work alongside zoo names.
    pub networks: Vec<String>,
    /// Design points sampled per network (`--samples`).
    pub samples: usize,
    /// Master seed the per-sample seeds derive from (`--seed`).
    pub master_seed: u64,
    /// Input seeds averaged per simulation (`--seeds`).
    pub input_seeds: u64,
    /// Host threads (`--threads`; `0` = auto).
    pub threads: usize,
    /// JSONL stream path (`--out`); appended to on resume.
    pub out: PathBuf,
    /// Inclusive range of `M` (`--m A..B`).
    pub m_range: (usize, usize),
    /// Inclusive range of PE counts (`--pe A..B`); only powers of two in
    /// the range are sampled.
    pub pe_range: (usize, usize),
    /// Design-point sampler (`--sampler`).
    pub sampler: Sampler,
    /// Frontier golden file to check or update, if any.
    pub golden: Option<(PathBuf, GoldenMode)>,
    /// Layer schedule every sampled point simulates under (`--schedule`).
    pub schedule: ScheduleKind,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            networks: ModelProfile::all().iter().map(|p| p.name.clone()).collect(),
            samples: 8,
            master_seed: 42,
            input_seeds: 2,
            threads: 0,
            out: PathBuf::from("sweep.jsonl"),
            m_range: (4, 8),
            pe_range: (8, 64),
            sampler: Sampler::Uniform,
            golden: None,
            schedule: ScheduleKind::default(),
        }
    }
}

/// Parses an inclusive `A..B` range (e.g. `--m 4..8`).
///
/// # Errors
///
/// Returns a usage message when the syntax or ordering is invalid.
pub fn parse_range(s: &str) -> Result<(usize, usize), String> {
    let (lo, hi) = s
        .split_once("..")
        .ok_or_else(|| format!("expected an inclusive range like 4..8, got {s:?}"))?;
    let lo: usize = lo
        .trim()
        .parse()
        .map_err(|_| format!("bad range start {lo:?}"))?;
    let hi: usize = hi
        .trim()
        .parse()
        .map_err(|_| format!("bad range end {hi:?}"))?;
    if lo == 0 || lo > hi {
        return Err(format!("range must satisfy 1 <= A <= B, got {lo}..{hi}"));
    }
    Ok((lo, hi))
}

/// A tiny splitmix64 stream for drawing one design point from one seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn pick(&mut self, options: &[usize]) -> usize {
        options[(self.next() % options.len() as u64) as usize]
    }

    fn in_range(&mut self, (lo, hi): (usize, usize)) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// Powers of two inside the inclusive PE range.
fn pe_choices((lo, hi): (usize, usize)) -> Vec<usize> {
    let mut out = Vec::new();
    let mut p = 1usize;
    while p <= hi {
        if p >= lo {
            out.push(p);
        }
        p *= 2;
    }
    out
}

/// Draws sample `i`'s design point from its derived seed. The draw
/// depends only on the seed and the declared ranges — never on which
/// other samples run — so resumed runs reproduce the same grid.
fn sample_point(seed: u64, opts: &SweepOptions, pes: &[usize]) -> DesignPoint {
    let mut rng = SplitMix(seed);
    DesignPoint {
        m: rng.in_range(opts.m_range),
        n_pe: rng.pick(pes),
        input_bus_bytes: rng.pick(&BUS_CHOICES),
        input_buf_bytes: rng.pick(&INPUT_BUF_CHOICES),
        coef_buf_bytes: rng.pick(&COEF_BUF_CHOICES),
        psum_buf_bytes: rng.pick(&PSUM_BUF_CHOICES),
        output_buf_bytes: rng.pick(&OUTPUT_BUF_CHOICES),
        sample_channels: rng.pick(&SAMPLE_CH_CHOICES),
    }
}

/// Prime bases of the eight Halton dimensions (one per design knob, in
/// draw order).
const HALTON_PRIMES: [u64; 8] = [2, 3, 5, 7, 11, 13, 17, 19];

/// The radical inverse of `i` in `base`: reflect `i`'s base-`base` digits
/// across the radix point. Uniform in `[0, 1)` and low-discrepancy over
/// consecutive `i`.
fn radical_inverse(base: u64, mut i: u64) -> f64 {
    let mut inv = 0.0;
    let mut denom = 1.0;
    while i > 0 {
        denom *= base as f64;
        inv += (i % base) as f64 / denom;
        i /= base;
    }
    inv
}

/// Maps a `[0, 1)` fraction onto one of `options` (equal-width bins).
fn frac_pick(v: f64, options: &[usize]) -> usize {
    options[((v * options.len() as f64) as usize).min(options.len() - 1)]
}

/// Maps a `[0, 1)` fraction into an inclusive range (equal-width bins).
fn frac_in_range(v: f64, (lo, hi): (usize, usize)) -> usize {
    lo + ((v * (hi - lo + 1) as f64) as usize).min(hi - lo)
}

/// Draws sample `i`'s design point from the Halton sequence. The master
/// seed picks where in the (infinite) sequence the sweep starts, so
/// different seeds still explore different grids; like [`sample_point`]
/// the draw depends only on `(sample, master seed, ranges)`.
fn halton_point(sample: usize, opts: &SweepOptions, pes: &[usize]) -> DesignPoint {
    // Offset past the degenerate i=0 prefix; bounded so the radical
    // inverse stays cheap.
    let i = sample as u64 + 1 + opts.master_seed % 8191;
    let dim = |d: usize| radical_inverse(HALTON_PRIMES[d], i);
    DesignPoint {
        m: frac_in_range(dim(0), opts.m_range),
        n_pe: frac_pick(dim(1), pes),
        input_bus_bytes: frac_pick(dim(2), &BUS_CHOICES),
        input_buf_bytes: frac_pick(dim(3), &INPUT_BUF_CHOICES),
        coef_buf_bytes: frac_pick(dim(4), &COEF_BUF_CHOICES),
        psum_buf_bytes: frac_pick(dim(5), &PSUM_BUF_CHOICES),
        output_buf_bytes: frac_pick(dim(6), &OUTPUT_BUF_CHOICES),
        sample_channels: frac_pick(dim(7), &SAMPLE_CH_CHOICES),
    }
}

/// One evaluated `(network, design point)` — the record a stream line
/// round-trips.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Resume key (`{network}/s{sample:03}-{seed:016x}-n{input_seeds}`).
    pub key: String,
    /// Zoo network name.
    pub network: String,
    /// Sample index within the sweep.
    pub sample: u64,
    /// The sample's derived seed.
    pub seed: u64,
    /// The sampled design point.
    pub point: DesignPoint,
    /// Input seeds averaged.
    pub input_seeds: u64,
    /// Mean total cycles.
    pub cycles: f64,
    /// Mean DRAM traffic in MB.
    pub dram_mb: f64,
    /// Mean total energy in mJ.
    pub energy_mj: f64,
    /// Modeled chip area in mm².
    pub area_mm2: f64,
}

impl SweepRecord {
    /// Renders the record as one `escalate-sweep/v1` JSON line.
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", SWEEP_SCHEMA);
        w.field_str("key", &self.key);
        w.field_str("network", &self.network);
        w.field_u64("sample", self.sample);
        w.field_u64("seed", self.seed);
        w.field_u64("m", self.point.m as u64);
        w.field_u64("n_pe", self.point.n_pe as u64);
        w.field_u64("input_bus_bytes", self.point.input_bus_bytes as u64);
        w.field_u64("input_buf_bytes", self.point.input_buf_bytes as u64);
        w.field_u64("coef_buf_bytes", self.point.coef_buf_bytes as u64);
        w.field_u64("psum_buf_bytes", self.point.psum_buf_bytes as u64);
        w.field_u64("output_buf_bytes", self.point.output_buf_bytes as u64);
        w.field_u64("sample_channels", self.point.sample_channels as u64);
        w.field_u64("input_seeds", self.input_seeds);
        w.field_f64("cycles", self.cycles);
        w.field_f64("dram_mb", self.dram_mb);
        w.field_f64("energy_mj", self.energy_mj);
        w.field_f64("area_mm2", self.area_mm2);
        w.end_object();
        w.finish()
    }

    /// Parses one stream line back into a record (`None` on any missing
    /// or mistyped field — e.g. a torn tail line).
    pub fn from_json_line(line: &str) -> Option<SweepRecord> {
        if json_string_field(line, "schema")? != SWEEP_SCHEMA {
            return None;
        }
        let u = |k: &str| json_u64_field(line, k);
        Some(SweepRecord {
            key: json_string_field(line, "key")?,
            network: json_string_field(line, "network")?,
            sample: u("sample")?,
            seed: u("seed")?,
            point: DesignPoint {
                m: u("m")? as usize,
                n_pe: u("n_pe")? as usize,
                input_bus_bytes: u("input_bus_bytes")? as usize,
                input_buf_bytes: u("input_buf_bytes")? as usize,
                coef_buf_bytes: u("coef_buf_bytes")? as usize,
                psum_buf_bytes: u("psum_buf_bytes")? as usize,
                output_buf_bytes: u("output_buf_bytes")? as usize,
                sample_channels: u("sample_channels")? as usize,
            },
            input_seeds: u("input_seeds")?,
            cycles: json_f64_field(line, "cycles")?,
            dram_mb: json_f64_field(line, "dram_mb")?,
            energy_mj: json_f64_field(line, "energy_mj")?,
            area_mm2: json_f64_field(line, "area_mm2")?,
        })
    }
}

/// The sweep grid as a [`RunPlan`]: networks outer, samples inner, so the
/// stream groups each network's records together. Sample `i` draws the
/// same design point on every network (same derived seed), which is what
/// makes per-network frontiers comparable.
pub struct SweepPlan {
    opts: SweepOptions,
}

impl SweepPlan {
    /// Wraps validated options (validation itself happens in `units`).
    pub fn new(opts: SweepOptions) -> SweepPlan {
        SweepPlan { opts }
    }

    fn key(&self, network: &str, sample: usize, seed: u64) -> String {
        // The key pins everything that changes the record's bytes:
        // network, sample index, the derived seed (covers master seed and
        // ranges only through the draw — the seed alone already
        // distinguishes master seeds), and the input-seed count. The
        // Halton sampler marks its keys `h` instead of `s`, so a resumed
        // stream can never splice records from the other sampler's grid.
        let marker = match self.opts.sampler {
            Sampler::Uniform => 's',
            Sampler::Halton => 'h',
        };
        // A pipelined sweep reports different cycle numbers, so its keys
        // carry a suffix — a resumed stream can never splice serial
        // records into a pipelined run (serial keys stay unchanged, which
        // keeps every pre-existing stream resumable).
        let schedule = match self.opts.schedule {
            ScheduleKind::LayerSerial => "",
            ScheduleKind::Pipelined => "-pipelined",
        };
        format!(
            "{network}/{marker}{sample:03}-{seed:016x}-n{}{schedule}",
            self.opts.input_seeds
        )
    }

    /// Draws the design point for `(sample, seed)` under the configured
    /// sampler.
    fn point_for(&self, sample: usize, seed: u64, pes: &[usize]) -> DesignPoint {
        match self.opts.sampler {
            Sampler::Uniform => sample_point(seed, &self.opts, pes),
            Sampler::Halton => halton_point(sample, &self.opts, pes),
        }
    }
}

impl RunPlan for SweepPlan {
    fn name(&self) -> &str {
        "sweep"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        if self.opts.samples == 0 {
            return Err(ExpError::Msg("--samples must be positive".into()));
        }
        if pe_choices(self.opts.pe_range).is_empty() {
            return Err(ExpError::Msg(format!(
                "no power-of-two PE count in {}..{}",
                self.opts.pe_range.0, self.opts.pe_range.1
            )));
        }
        let mut units = Vec::with_capacity(self.opts.networks.len() * self.opts.samples);
        for (ni, network) in self.opts.networks.iter().enumerate() {
            if let Err(e) = escalate_models::resolve(network) {
                return Err(ExpError::Msg(e.to_string()));
            }
            for s in 0..self.opts.samples {
                let seed = plan::unit_seed(self.opts.master_seed, s as u64);
                units.push(WorkUnit {
                    key: self.key(network, s, seed),
                    seed,
                    index: ni * self.opts.samples + s,
                });
            }
        }
        Ok(units)
    }

    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        let sample = unit.index % self.opts.samples;
        let network = &self.opts.networks[unit.index / self.opts.samples];
        let profile =
            escalate_models::resolve(network).map_err(|e| ExpError::Msg(e.to_string()))?;
        let pes = pe_choices(self.opts.pe_range);
        let point = self.point_for(sample, unit.seed, &pes);
        let mut cfg = point.to_config();
        cfg.threads = self.opts.threads;
        cfg.schedule = self.opts.schedule;
        // The sweep's whole point is thousands of design points over a few
        // `(network, M)` pairs: share every hardware-invariant derived
        // artifact — compression, the workload, activation masks, compiled
        // position plans — across points. Results are bit-identical to a
        // cold run (the caches replay/verify, never approximate).
        cfg.share_derived = true;
        let workload = crate::workload_cached(
            &profile,
            &CompressionConfig {
                m: cfg.m,
                reuse_units: true,
                ..CompressionConfig::default()
            },
        )?;
        let run = crate::run_escalate_workload(&workload, &cfg, self.opts.input_seeds);
        let record = SweepRecord {
            key: unit.key.clone(),
            network: network.clone(),
            sample: sample as u64,
            seed: unit.seed,
            point,
            input_seeds: self.opts.input_seeds,
            cycles: run.cycles,
            dram_mb: run.dram_bytes / 1e6,
            energy_mj: run.energy_pj / 1e9,
            area_mm2: escalate_energy::chip_area_mm2(&cfg),
        };
        Ok(UnitOutput {
            table: Table::default(),
            jsonl: vec![record.to_json_line()],
        })
    }

    fn exec_key(&self, unit: &WorkUnit) -> u64 {
        // Execute points grouped by their shared derived state: first by
        // network, then by `M` (the compression/workload cache key), then
        // by the fidelity knob (the plan-cache key includes the channel
        // sample). Adjacent units hit the caches while their entries are
        // hot, so small capacities stop thrashing on large grids. The
        // executor's sort is stable, so enumeration order holds inside
        // each group. Each field gets 21 bits; a value past that only
        // coarsens the grouping, never the output bytes.
        let field = |v: usize| (v as u64).min((1 << 21) - 1);
        let sample = unit.index % self.opts.samples;
        let point = self.point_for(sample, unit.seed, &pe_choices(self.opts.pe_range));
        field(unit.index / self.opts.samples) << 42
            | field(point.m) << 21
            | field(point.sample_channels)
    }
}

/// Whether `a` strictly dominates `b` when minimizing every coordinate:
/// no worse on all three, strictly better on at least one.
fn dominates(a: &(f64, f64, f64), b: &(f64, f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2)
}

/// Indices of the Pareto-optimal points when minimizing every coordinate
/// of `(cycles, energy, area)`: a point survives unless some other point
/// is no worse on all three and strictly better on at least one.
///
/// The batch reference implementation — O(n²) over the whole set every
/// call. Streaming consumers use [`ParetoFrontier`], which maintains the
/// identical set online; this stays as the differential oracle.
pub fn pareto_indices(points: &[(f64, f64, f64)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().any(|p| dominates(p, &points[i])))
        .collect()
}

/// An online Pareto frontier over `(cycles, energy, area)`: points stream
/// in one at a time and the structure keeps exactly the undominated ones.
///
/// Each insert compares the candidate against current *members only*
/// (frontiers are tiny next to the streams that feed them), discarding it
/// if any member strictly dominates it — by transitivity nothing the
/// member already beat needs re-checking — and otherwise evicting the
/// members it strictly dominates. Equal points never dominate each other,
/// so duplicates coexist, exactly as in [`pareto_indices`]; the final
/// member set is identical to the batch recompute for every input order.
#[derive(Debug, Default)]
pub struct ParetoFrontier {
    /// Undominated `(insertion index, metrics)` pairs, in insertion order.
    members: Vec<(usize, (f64, f64, f64))>,
    /// Dominance comparisons performed so far (the frontier-update cost a
    /// sweep reports as `sweep.frontier_comparisons`).
    comparisons: u64,
}

impl ParetoFrontier {
    /// An empty frontier.
    pub fn new() -> ParetoFrontier {
        ParetoFrontier::default()
    }

    /// Offers one point; keeps the frontier exactly Pareto-optimal.
    pub fn insert(&mut self, index: usize, point: (f64, f64, f64)) {
        for (_, member) in &self.members {
            self.comparisons += 1;
            if dominates(member, &point) {
                return;
            }
        }
        let mut evictions = 0u64;
        self.members.retain(|(_, member)| {
            evictions += 1;
            !dominates(&point, member)
        });
        self.comparisons += evictions;
        self.members.push((index, point));
    }

    /// Indices of the surviving points, ascending — the same order
    /// [`pareto_indices`] returns.
    pub fn indices(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = self.members.iter().map(|&(i, _)| i).collect();
        idx.sort_unstable();
        idx
    }

    /// Frontier size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no point survived (or none was offered).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Total dominance comparisons across all inserts.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

/// Renders one network's Pareto frontier table (rows sorted by cycles).
fn render_frontier(
    out: &mut dyn Write,
    network: &str,
    records: &[SweepRecord],
) -> std::io::Result<()> {
    let mut front = ParetoFrontier::new();
    for (i, r) in records.iter().enumerate() {
        front.insert(i, (r.cycles, r.energy_mj, r.area_mm2));
    }
    escalate_obs::counter_add("sweep.frontier_comparisons", front.comparisons());
    let mut frontier = front.indices();
    frontier.sort_by(|&a, &b| {
        records[a]
            .cycles
            .total_cmp(&records[b].cycles)
            .then(records[a].sample.cmp(&records[b].sample))
    });
    writeln!(
        out,
        "Pareto frontier - {network} ({} of {} sampled point(s), minimizing cycles/energy/area)",
        frontier.len(),
        records.len()
    )?;
    writeln!(
        out,
        "{:>6} {:>3} {:>5} {:>4} {:>7} {:>5} {:>5} {:>7} {:>3} {:>12} {:>10} {:>9}",
        "sample",
        "m",
        "n_pe",
        "bus",
        "in_buf",
        "coef",
        "psum",
        "out_buf",
        "ch",
        "cycles",
        "energy_mj",
        "area_mm2"
    )?;
    for &i in &frontier {
        let r = &records[i];
        writeln!(
            out,
            "{:>6} {:>3} {:>5} {:>4} {:>7} {:>5} {:>5} {:>7} {:>3} {:>12.0} {:>10.3} {:>9.2}",
            r.sample,
            r.point.m,
            r.point.n_pe,
            r.point.input_bus_bytes,
            r.point.input_buf_bytes,
            r.point.coef_buf_bytes,
            r.point.psum_buf_bytes,
            r.point.output_buf_bytes,
            r.point.sample_channels,
            r.cycles,
            r.energy_mj,
            r.area_mm2
        )?;
    }
    Ok(())
}

/// Runs (or resumes) a sweep: executes the grid through the shared plan
/// layer with the JSONL sink — units scheduled by shared `(network, M)`
/// state, each point simulating with the derived-state caches on — then
/// renders each network's Pareto frontier from the full parsed stream, so
/// a resumed run prints exactly what the uninterrupted run would have.
/// With a golden configured, the frontier bytes are checked against (or
/// rewritten to) the file.
///
/// # Errors
///
/// Returns an [`ExpError`] on invalid options, simulation failures,
/// stream I/O failures, or frontier drift from a checked golden.
pub fn run_sweep(opts: &SweepOptions, out: &mut dyn Write) -> Result<(), ExpError> {
    escalate_core::par::configure_threads(opts.threads);
    let plan = SweepPlan::new(opts.clone());
    let units = plan.units()?; // validate before touching the stream
    let mut sink = JsonlSink::open(&opts.out)?;
    let summary = plan::execute(&plan, &mut sink)?;
    writeln!(
        out,
        "sweep: {} sample(s) ran, {} resumed -> {}",
        summary.ran,
        summary.skipped,
        sink.path().display()
    )?;
    // Frontiers render into a buffer first, so the same bytes can serve
    // the terminal and the golden check/update.
    let mut front_buf: Vec<u8> = Vec::new();
    for network in &opts.networks {
        let mut records = Vec::with_capacity(opts.samples);
        for unit in units
            .iter()
            .filter(|u| u.key.starts_with(&format!("{network}/")))
        {
            let lines = sink.lines_for(&unit.key).ok_or_else(|| {
                ExpError::Msg(format!("stream is missing a record for {}", unit.key))
            })?;
            for line in lines {
                records.push(SweepRecord::from_json_line(line).ok_or_else(|| {
                    ExpError::Msg(format!("unparseable stream record for {}", unit.key))
                })?);
            }
        }
        writeln!(front_buf)?;
        render_frontier(&mut front_buf, network, &records)?;
    }
    out.write_all(&front_buf)?;
    match &opts.golden {
        None => {}
        Some((path, GoldenMode::Update)) => {
            std::fs::write(path, &front_buf)
                .map_err(|e| ExpError::Msg(format!("cannot write {}: {e}", path.display())))?;
            writeln!(out, "frontier golden updated -> {}", path.display())?;
        }
        Some((path, GoldenMode::Check)) => {
            let want = std::fs::read(path)
                .map_err(|e| ExpError::Msg(format!("cannot read {}: {e}", path.display())))?;
            if want != front_buf {
                return Err(ExpError::Msg(format!(
                    "frontier drift vs {} (rerun with --update to accept the new frontier)",
                    path.display()
                )));
            }
            writeln!(out, "frontier matches {}", path.display())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_range_accepts_inclusive_ranges_only() {
        assert_eq!(parse_range("4..8"), Ok((4, 8)));
        assert_eq!(parse_range("6..6"), Ok((6, 6)));
        assert!(parse_range("8..4").is_err(), "reversed");
        assert!(parse_range("0..4").is_err(), "zero start");
        assert!(parse_range("4-8").is_err(), "wrong separator");
        assert!(parse_range("a..b").is_err(), "not numbers");
    }

    #[test]
    fn pe_choices_are_the_powers_of_two_in_range() {
        assert_eq!(pe_choices((8, 64)), [8, 16, 32, 64]);
        assert_eq!(pe_choices((9, 31)), [16]);
        assert!(pe_choices((33, 63)).is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let opts = SweepOptions::default();
        let pes = pe_choices(opts.pe_range);
        for s in 0..64u64 {
            let seed = plan::unit_seed(opts.master_seed, s);
            let a = sample_point(seed, &opts, &pes);
            let b = sample_point(seed, &opts, &pes);
            assert_eq!(a, b, "same seed must redraw the same point");
            assert!(a.m >= opts.m_range.0 && a.m <= opts.m_range.1);
            assert!(pes.contains(&a.n_pe));
            assert!(BUS_CHOICES.contains(&a.input_bus_bytes));
            assert!(INPUT_BUF_CHOICES.contains(&a.input_buf_bytes));
        }
        // Distinct seeds explore the space (not a constant draw).
        let pts: Vec<DesignPoint> = (0..16)
            .map(|s| sample_point(plan::unit_seed(42, s), &opts, &pes))
            .collect();
        assert!(pts.iter().any(|p| p != &pts[0]), "sampler never varied");
    }

    #[test]
    fn sweep_units_group_by_network_and_share_sample_seeds() {
        let opts = SweepOptions {
            networks: vec!["MobileNet".into(), "VGG16".into()],
            samples: 3,
            ..SweepOptions::default()
        };
        let units = SweepPlan::new(opts).units().expect("units");
        assert_eq!(units.len(), 6);
        assert!(units[0].key.starts_with("MobileNet/s000"));
        assert!(units[3].key.starts_with("VGG16/s000"));
        // Sample i draws the same seed on every network.
        assert_eq!(units[0].seed, units[3].seed);
        assert_ne!(units[0].seed, units[1].seed);
        assert_eq!(units[4].index, 4);
    }

    #[test]
    fn sweep_units_reject_bad_inputs() {
        let unknown = SweepOptions {
            networks: vec!["NotANet".into()],
            ..SweepOptions::default()
        };
        assert!(SweepPlan::new(unknown).units().is_err());
        let no_pe = SweepOptions {
            pe_range: (33, 63),
            ..SweepOptions::default()
        };
        assert!(SweepPlan::new(no_pe).units().is_err());
        let no_samples = SweepOptions {
            samples: 0,
            ..SweepOptions::default()
        };
        assert!(SweepPlan::new(no_samples).units().is_err());
    }

    #[test]
    fn sweep_records_round_trip_through_jsonl() {
        let rec = SweepRecord {
            key: "MobileNet/s001-00000000deadbeef-n2".into(),
            network: "MobileNet".into(),
            sample: 1,
            seed: 0xdead_beef,
            point: DesignPoint::table2(),
            input_seeds: 2,
            cycles: 123456.0,
            dram_mb: 12.5,
            energy_mj: 3.25,
            area_mm2: 7.5,
        };
        let line = rec.to_json_line();
        assert!(line.contains("\"schema\": \"escalate-sweep/v1\""));
        assert_eq!(SweepRecord::from_json_line(&line), Some(rec));
        assert_eq!(SweepRecord::from_json_line("{\"key\": \"torn"), None);
        let wrong_schema = line.replace("escalate-sweep/v1", "escalate-other/v9");
        assert_eq!(SweepRecord::from_json_line(&wrong_schema), None);
    }

    #[test]
    fn halton_sampling_is_deterministic_in_range_and_seed_sensitive() {
        let opts = SweepOptions {
            sampler: Sampler::Halton,
            ..SweepOptions::default()
        };
        let pes = pe_choices(opts.pe_range);
        for s in 0..64 {
            let a = halton_point(s, &opts, &pes);
            assert_eq!(a, halton_point(s, &opts, &pes), "same sample redraws");
            assert!(a.m >= opts.m_range.0 && a.m <= opts.m_range.1);
            assert!(pes.contains(&a.n_pe));
            assert!(BUS_CHOICES.contains(&a.input_bus_bytes));
            assert!(INPUT_BUF_CHOICES.contains(&a.input_buf_bytes));
            assert!(COEF_BUF_CHOICES.contains(&a.coef_buf_bytes));
            assert!(PSUM_BUF_CHOICES.contains(&a.psum_buf_bytes));
            assert!(OUTPUT_BUF_CHOICES.contains(&a.output_buf_bytes));
            assert!(SAMPLE_CH_CHOICES.contains(&a.sample_channels));
        }
        let pts: Vec<DesignPoint> = (0..16).map(|s| halton_point(s, &opts, &pes)).collect();
        assert!(pts.iter().any(|p| p != &pts[0]), "sampler never varied");
        let other = SweepOptions {
            master_seed: 7,
            ..opts.clone()
        };
        let moved: Vec<DesignPoint> = (0..16).map(|s| halton_point(s, &other, &pes)).collect();
        assert_ne!(pts, moved, "master seed must move the sequence");
    }

    #[test]
    fn halton_covers_the_m_range_evenly_at_small_sample_counts() {
        // 16 consecutive base-2 radical inverses hit every one of the 5
        // M bins — the whole point of a low-discrepancy draw.
        let opts = SweepOptions {
            sampler: Sampler::Halton,
            ..SweepOptions::default()
        };
        let pes = pe_choices(opts.pe_range);
        let mut seen: Vec<usize> = (0..16).map(|s| halton_point(s, &opts, &pes).m).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, [4, 5, 6, 7, 8], "every M bin visited");
    }

    #[test]
    fn sampler_parses_and_marks_keys_distinctly() {
        assert_eq!(Sampler::parse("uniform"), Ok(Sampler::Uniform));
        assert_eq!(Sampler::parse("halton"), Ok(Sampler::Halton));
        assert!(Sampler::parse("sobol").is_err());
        let uniform = SweepPlan::new(SweepOptions {
            networks: vec!["MobileNet".into()],
            samples: 1,
            ..SweepOptions::default()
        });
        let halton = SweepPlan::new(SweepOptions {
            networks: vec!["MobileNet".into()],
            samples: 1,
            sampler: Sampler::Halton,
            ..SweepOptions::default()
        });
        let uk = &uniform.units().expect("units")[0].key;
        let hk = &halton.units().expect("units")[0].key;
        assert!(uk.starts_with("MobileNet/s000"), "{uk}");
        assert!(hk.starts_with("MobileNet/h000"), "{hk}");
        assert_ne!(uk, hk, "the two samplers may never share resume keys");
    }

    #[test]
    fn exec_keys_group_units_by_network_then_m() {
        let opts = SweepOptions {
            networks: vec!["MobileNet".into(), "VGG16".into()],
            samples: 16,
            ..SweepOptions::default()
        };
        let plan = SweepPlan::new(opts.clone());
        let mut units = plan.units().expect("units");
        units.sort_by_cached_key(|u| plan.exec_key(u));
        // (network, M) never interleaves: each pair appears as one run.
        let pes = pe_choices(opts.pe_range);
        let keys: Vec<(usize, usize)> = units
            .iter()
            .map(|u| {
                let p = plan.point_for(u.index % opts.samples, u.seed, &pes);
                (u.index / opts.samples, p.m)
            })
            .collect();
        let mut seen: Vec<(usize, usize)> = Vec::new();
        for k in keys {
            if seen.last() != Some(&k) {
                assert!(!seen.contains(&k), "group {k:?} appeared twice");
                seen.push(k);
            }
        }
    }

    #[test]
    fn online_frontier_matches_the_batch_oracle() {
        // Pseudo-random points (LCG; no external entropy) in several
        // orders — the online structure must agree with the O(n²) oracle
        // on every prefix-independent final set.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64
        };
        let pts: Vec<(f64, f64, f64)> = (0..200).map(|_| (next(), next(), next())).collect();
        let mut front = ParetoFrontier::new();
        for (i, p) in pts.iter().enumerate() {
            front.insert(i, *p);
        }
        assert_eq!(front.indices(), pareto_indices(&pts));
        assert!(front.comparisons() > 0);
        // Duplicates of a frontier point coexist, as in the oracle.
        let dup = [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (2.0, 3.0, 4.0)];
        let mut f = ParetoFrontier::new();
        for (i, p) in dup.iter().enumerate() {
            f.insert(i, *p);
        }
        assert_eq!(f.indices(), pareto_indices(&dup));
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert!(ParetoFrontier::new().is_empty());
    }

    #[test]
    fn pareto_keeps_exactly_the_undominated_points() {
        let pts = [
            (10.0, 5.0, 2.0), // frontier (fastest)
            (20.0, 1.0, 3.0), // frontier (lowest energy)
            (15.0, 6.0, 2.5), // dominated by #0
            (10.0, 5.0, 2.0), // duplicate of #0: neither strictly dominates
            (25.0, 2.0, 1.0), // frontier (smallest)
        ];
        assert_eq!(pareto_indices(&pts), [0, 1, 3, 4]);
        assert!(pareto_indices(&[]).is_empty());
        assert_eq!(pareto_indices(&[(1.0, 1.0, 1.0)]), [0]);
    }
}
