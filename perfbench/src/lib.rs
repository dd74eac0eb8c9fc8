//! The repository's benchmark: seeded closed-loop workloads that drive the
//! public APIs of `circuit`, `weaksim` (broker, cache, artifacts, router,
//! trajectory engine) and, through them, the `dd`, `statevector` and
//! `tableau` engines, along the path `weaksim-cli` takes: QASM bytes →
//! `circuit::qasm::parse` → `ServiceBroker::serve` → top-outcome render.
//!
//! A run sets up several times, serves whole *rounds* of requests until both
//! the time budget and the minimum request count are met, then sets up
//! several times more; `setup_s` is the median of both batches.  Every
//! response is checked ([`check`]).  An untraced run reports the end-to-end
//! metrics ([`END_TO_END`]); a traced run alternates traced and untraced
//! rounds and reports the per-layer metrics ([`layers::PER_LAYER`]) from the
//! traced ones, plus the tracing overhead.

pub mod check;
pub mod layers;
pub mod rng;
pub mod trace;
mod workloads;

use std::time::{Duration, Instant};

pub use workloads::Workload;

/// Names and units of the end-to-end metrics, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("shots_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Fewest requests a run measures: the report's `latency_p90_ms` needs ten
/// samples beyond the 90th percentile.
pub const MIN_REQUESTS: usize = 100;

/// Fewest set-ups in each of a run's two set-up batches; `setup_s` is the
/// median over both.
pub const SETUP_REPEATS: usize = 5;

/// A batch keeps setting up until its set-ups have taken this long in total
/// (or [`SETUP_MAX_REPEATS`] is reached), so a cheap set-up is timed often
/// enough for its median to be steady.
pub const SETUP_MIN_TOTAL_S: f64 = 2.0;

/// Most set-ups in one batch.
pub const SETUP_MAX_REPEATS: usize = 200;

/// How a run is sized and what it reports.
#[derive(Debug, Clone)]
pub struct Config {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Least measured time, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Shrink every input to a smoke-test size (set by the benchmark's own
    /// tests; the binary always runs full size).
    pub tiny: bool,
    /// Directory for the span dump and scratch files (a snapshot).
    pub out_dir: Option<std::path::PathBuf>,
    /// Test hook: every tenth response of a client loses one shot before it
    /// is checked, so the run must count it as failed.
    pub tamper: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value (finite).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value is reported as 0.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_owned(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Requests attempted in measured rounds.
    pub attempted: u64,
    /// Requests that returned a typed error or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Further figures for the human-readable report: tail percentiles with
    /// their sample counts, per-outcome latencies, failure share.
    pub details: Vec<Metric>,
    /// Spans of the traced rounds (empty when untraced).
    pub spans: Vec<trace::Span>,
    /// Thread counts that actually ran, by role.
    pub threads: Vec<(&'static str, usize)>,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

/// Nearest-rank percentile of `values` (`q` in `0..=1`).
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Whether at least ten of `n` samples lie beyond the `q` percentile.
#[must_use]
pub fn percentile_supported(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + 10
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Outcome class of one request, for the per-outcome latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    Hit,
    Miss,
    Coalesced,
    Bypass,
    Failed,
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    /// Parse, serve and render.
    pub latency: Duration,
    /// Time the benchmark spent checking the response (not in `latency`,
    /// nor in the round's wall time).
    pub check: Duration,
    pub shots: u64,
    pub served: Served,
    pub ok: bool,
}

/// One measured round.
#[derive(Debug)]
pub(crate) struct Round {
    /// Wall time of the round, response checks left out.
    pub wall: Duration,
    pub traced: bool,
    pub records: Vec<Record>,
}

/// Sets the workload up [`SETUP_REPEATS`] times or more (see
/// [`SETUP_MIN_TOTAL_S`]), appends each set-up's time to `times` and returns
/// the last set-up.
fn set_up_batch(config: &Config, times: &mut Vec<f64>) -> workloads::State {
    let mut batch: Vec<f64> = Vec::new();
    let mut state = None;
    while batch.len() < SETUP_REPEATS
        || (batch.iter().sum::<f64>() < SETUP_MIN_TOTAL_S && batch.len() < SETUP_MAX_REPEATS)
    {
        // Drop the previous set-up before building the next one, so peak
        // memory reflects one set-up, not several.
        drop(state.take());
        let start = Instant::now();
        state = Some(workloads::setup(config));
        batch.push(start.elapsed().as_secs_f64());
    }
    times.extend(batch);
    state.expect("SETUP_REPEATS is positive")
}

/// Runs one configured workload.
#[must_use]
pub fn run(config: &Config) -> Report {
    let mut setup_times: Vec<f64> = Vec::new();
    let mut state = set_up_batch(config, &mut setup_times);
    state.prepare_checks();

    let min_rounds = if config.trace { 2 } else { 1 };
    let rounds = state.serve_rounds(|rounds| {
        let measured: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
        let requests: usize = rounds.iter().map(|r| r.records.len()).sum();
        let done =
            rounds.len() >= min_rounds && measured >= config.seconds && requests >= MIN_REQUESTS;
        // Traced runs alternate: even rounds traced, odd rounds untraced.
        (!done).then(|| config.trace && rounds.len().is_multiple_of(2))
    });
    let finish = state.finish(config);
    // Peak memory is read when the workload ends, before the second batch of
    // set-ups.  That batch times set-up again at the other end of the run,
    // so `setup_s` samples the host at both ends rather than in one burst.
    let peak_rss = peak_rss_mb();
    drop(set_up_batch(config, &mut setup_times));

    let all: Vec<Record> = rounds
        .iter()
        .flat_map(|r| r.records.iter().copied())
        .collect();
    // A failure outside the measured rounds (a set-up response that failed
    // its check, a failed snapshot round trip) counts as a failed request.
    let attempted = (all.len() + finish.untimed_failed) as u64;
    let failed = (all.iter().filter(|r| !r.ok).count() + finish.untimed_failed) as u64;
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let wall: f64 = untraced.iter().map(|r| r.wall.as_secs_f64()).sum();
    let records: Vec<Record> = untraced
        .iter()
        .flat_map(|r| r.records.iter().copied())
        .collect();
    let latencies: Vec<f64> = records
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    let pct = |q| percentile(&latencies, q).unwrap_or(0.0);

    let mut details = vec![
        Metric::new(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        Metric::new("requests", records.len() as f64, "count"),
        Metric::new("rounds", untraced.len() as f64, "count"),
        Metric::new("measured_s", wall, "s"),
    ];
    // Tail percentiles go to the report line, not the gated metrics: a
    // tail is a handful of short requests, and on a shared host their
    // latencies jitter by more than any useful bound.
    for (q, name) in [(0.9, "latency_p90_ms"), (0.99, "latency_p99_ms")] {
        if percentile_supported(latencies.len(), q) {
            details.push(Metric::new(name, pct(q), "ms"));
        }
    }
    for (served, name) in [
        (Served::Hit, "hit"),
        (Served::Miss, "miss"),
        (Served::Coalesced, "coalesced"),
        (Served::Bypass, "bypass"),
    ] {
        let class: Vec<f64> = records
            .iter()
            .filter(|r| r.served == served)
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect();
        if let Some(p50) = percentile(&class, 0.5) {
            details.push(Metric::new(&format!("{name}_latency_p50_ms"), p50, "ms"));
            details.push(Metric::new(
                &format!("{name}_requests"),
                class.len() as f64,
                "count",
            ));
        }
    }

    let traced_walls: Vec<f64> = rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.wall.as_secs_f64())
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall.as_secs_f64()).collect();
    let trace_overhead = if traced_walls.is_empty() {
        0.0
    } else {
        mean(&traced_walls) / mean(&untraced_walls) - 1.0
    };

    let metrics = if config.trace {
        layers::per_layer_metrics(&layers::LayerInput {
            layers: &finish.layers,
            spans: &finish.spans,
            traced_rounds: traced_walls.len(),
            trace_overhead,
        })
    } else {
        // Rates are medians over rounds, so a burst of load from outside
        // the process moves them less than it would a total.
        let per_round = |count: &dyn Fn(&Round) -> f64| {
            let rates: Vec<f64> = untraced
                .iter()
                .map(|r| count(r) / r.wall.as_secs_f64())
                .collect();
            percentile(&rates, 0.5).unwrap_or(0.0)
        };
        let values = [
            percentile(&setup_times, 0.5).unwrap_or(0.0),
            per_round(&|r| r.records.len() as f64),
            per_round(&|r| {
                r.records
                    .iter()
                    .filter(|x| x.ok)
                    .map(|x| x.shots)
                    .sum::<u64>() as f64
            }),
            pct(0.5),
            peak_rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect()
    };
    Report {
        attempted,
        failed,
        metrics,
        details,
        spans: finish.spans,
        threads: finish.threads,
        failures: finish.failures,
    }
}

/// Formats `value` as a JSON number with all its digits.
#[must_use]
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
#[must_use]
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
