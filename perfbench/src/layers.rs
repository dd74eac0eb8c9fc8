//! Per-layer accounting for the traced run: counts and durations read at
//! the public-API boundaries, plus span self times, folded into the
//! per-layer metrics.

use std::collections::BTreeMap;
use std::time::Duration;

use weaksim::{Backend, CacheOutcome, EngineKind, RunOutcome};

use crate::trace::{self_times_ns, Span};
use crate::Metric;

/// Sums, samples and maxima keyed by metric-ish names.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    maxima: BTreeMap<&'static str, f64>,
}

/// The engine that prepared (or ran) a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Dd,
    StateVector,
    Tableau,
}

impl Engine {
    fn of(outcome: &RunOutcome) -> Self {
        let segments = &outcome.route.segments;
        if !segments.is_empty() && segments.iter().all(|s| s.engine == EngineKind::Tableau) {
            Engine::Tableau
        } else if outcome.backend == Backend::StateVector {
            Engine::StateVector
        } else {
            Engine::Dd
        }
    }

    /// Span names for (strong simulation, sampler preparation).
    fn phase_names(self) -> (&'static str, &'static str) {
        match self {
            Engine::Dd => ("dd.simulate", "dd.compile"),
            Engine::StateVector => ("statevector.simulate", "statevector.prefix_build"),
            Engine::Tableau => ("tableau.simulate", "tableau.simulate"),
        }
    }
}

/// The program-reported phases of `outcome`, in execution order, as
/// (span name, duration) pairs for [`crate::trace::Tracer::derived_children`].
#[must_use]
pub fn phases(outcome: &RunOutcome) -> Vec<(&'static str, Duration)> {
    if outcome.cache.is_none() {
        return vec![(
            "trajectory.run",
            outcome.strong_time + outcome.precompute_time + outcome.sampling_time,
        )];
    }
    let (strong, prepare) = Engine::of(outcome).phase_names();
    vec![
        (strong, outcome.strong_time),
        (prepare, outcome.precompute_time),
        ("artifact.sample", outcome.sampling_time),
    ]
}

fn family_nodes_key(family: &str) -> &'static str {
    match family {
        "supremacy" => "dd.nodes.supremacy",
        "qft" => "dd.nodes.qft",
        "shor" => "dd.nodes.shor",
        "jellium" => "dd.nodes.jellium",
        "grover" => "dd.nodes.grover",
        _ => "dd.nodes.other",
    }
}

impl Layers {
    /// Adds `value` to the sum `key`.
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    /// Records one sample of `key`.
    pub fn push(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    /// Raises the maximum `key` to `value`.
    pub fn max(&mut self, key: &'static str, value: f64) {
        let slot = self.maxima.entry(key).or_insert(value);
        *slot = slot.max(value);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Layers) {
        for (k, v) in other.sums {
            self.add(k, v);
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.maxima {
            self.max(k, v);
        }
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.sum(den);
        if d > 0.0 {
            self.sum(num) / d
        } else {
            0.0
        }
    }

    fn median(&self, key: &str) -> f64 {
        self.samples
            .get(key)
            .map_or(0.0, |v| crate::percentile(v, 0.5).unwrap_or(0.0))
    }

    fn mean(&self, key: &str) -> f64 {
        self.samples
            .get(key)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }

    /// Records the counts a response carries: which engine served it, the
    /// phase times and diagram statistics it reports, and the serve call's
    /// wall time as the benchmark measured it.
    pub fn absorb(&mut self, family: &str, outcome: &RunOutcome, serve_wall: Duration) {
        let shots = outcome.histogram.shots() as f64;
        self.push(
            "shots.distinct",
            outcome.histogram.distinct_outcomes() as f64,
        );
        let wall = serve_wall.as_secs_f64();
        let Some(cache) = outcome.cache else {
            self.push("service.serve_bypass_ms", wall * 1e3);
            self.add("trajectory.run_s", wall);
            self.add("trajectory.shots", shots);
            if outcome.backend == Backend::DecisionDiagram {
                self.max("trajectory.peak_nodes", outcome.representation_size as f64);
            }
            if let Some(stats) = outcome.dd_stats {
                self.add("trajectory.unique_hits", stats.vector_unique_hits as f64);
                self.add(
                    "trajectory.unique_lookups",
                    (stats.vector_unique_hits + stats.vector_unique_misses) as f64,
                );
                self.add("trajectory.compute_hits", stats.compute_hits() as f64);
                self.add(
                    "trajectory.compute_lookups",
                    (stats.compute_hits() + stats.compute_misses()) as f64,
                );
            }
            return;
        };
        let engine = Engine::of(outcome);
        let sampling = outcome.sampling_time.as_secs_f64();
        let strong = outcome.strong_time.as_secs_f64();
        let prepare = outcome.precompute_time.as_secs_f64();
        self.add("router.requests", 1.0);
        if engine == Engine::Tableau {
            self.add("router.tableau", 1.0);
        }
        self.add("artifact.sample_s", sampling);
        let (shot_key, time_key) = match engine {
            Engine::Dd => ("dd.sample_shots", "dd.sample_s"),
            Engine::StateVector => ("statevector.sample_shots", "statevector.sample_s"),
            Engine::Tableau => ("tableau.sample_shots", "tableau.sample_s"),
        };
        self.add(shot_key, shots);
        self.add(time_key, sampling);
        let serve_key = match cache {
            CacheOutcome::Hit => "service.serve_hit_ms",
            CacheOutcome::Miss => "service.serve_miss_ms",
            CacheOutcome::Coalesced => "service.serve_coalesced_ms",
        };
        self.push(serve_key, wall * 1e3);
        if cache == CacheOutcome::Hit {
            return;
        }
        let wait = (wall - strong - prepare - sampling).max(0.0);
        self.push("service.wait_ms", wait * 1e3);
        if cache != CacheOutcome::Miss {
            return;
        }
        self.push("service.overhead_s", wait);
        match engine {
            Engine::Dd => {
                self.add("dd.simulate_s", strong);
                self.add("dd.compile_s", prepare);
                self.add(family_nodes_key(family), outcome.representation_size as f64);
                if let Some(stats) = outcome.dd_stats {
                    self.add("dd.unique_hits", stats.vector_unique_hits as f64);
                    self.add(
                        "dd.unique_lookups",
                        (stats.vector_unique_hits + stats.vector_unique_misses) as f64,
                    );
                    self.add("dd.compute_hits", stats.compute_hits() as f64);
                    self.add(
                        "dd.compute_lookups",
                        (stats.compute_hits() + stats.compute_misses()) as f64,
                    );
                    let evictions = [
                        stats.add_cache,
                        stats.mv_cache,
                        stats.madd_cache,
                        stats.mm_cache,
                        stats.operator_cache,
                    ]
                    .iter()
                    .map(|c| c.evictions)
                    .sum::<u64>();
                    self.add("dd.compute_evictions", evictions as f64);
                    self.add("dd.gc_runs", stats.garbage_collections as f64);
                }
            }
            Engine::StateVector => {
                self.add("statevector.simulate_s", strong);
                self.add("statevector.prefix_build_s", prepare);
            }
            Engine::Tableau => self.add("tableau.simulate_s", strong + prepare),
        }
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInput<'a> {
    /// Counts from traced rounds (plus set-up builds where noted).
    pub layers: &'a Layers,
    /// Spans of traced rounds.
    pub spans: &'a [Span],
    /// Traced rounds, the divisor of per-round totals.
    pub traced_rounds: usize,
    /// Traced round time over untraced round time, minus one.
    pub trace_overhead: f64,
}

/// Names, units and directions of the per-layer metrics, in output order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("circuit.parse_us", "us", "lower"),
    ("circuit.qasm_bytes", "bytes", "lower"),
    ("circuit.fingerprint_us", "us", "lower"),
    ("dd.simulate_s", "s", "lower"),
    ("dd.nodes.supremacy", "count", "lower"),
    ("dd.nodes.qft", "count", "lower"),
    ("dd.nodes.shor", "count", "lower"),
    ("dd.nodes.jellium", "count", "lower"),
    ("dd.nodes.grover", "count", "lower"),
    ("dd.vector_unique_hit_rate", "fraction", "higher"),
    ("dd.compute_hit_rate", "fraction", "higher"),
    ("dd.compute_evictions", "count", "lower"),
    ("dd.gc_runs", "count", "lower"),
    ("dd.compile_s", "s", "lower"),
    ("dd.compiled_bytes", "bytes", "lower"),
    ("dd.sample_shots_per_s", "1/s", "higher"),
    ("statevector.simulate_s", "s", "lower"),
    ("statevector.prefix_build_s", "s", "lower"),
    ("statevector.sample_shots_per_s", "1/s", "higher"),
    ("tableau.simulate_s", "s", "lower"),
    ("tableau.sample_shots_per_s", "1/s", "higher"),
    ("artifact.hit_ratio", "fraction", "higher"),
    ("artifact.evictions", "count", "lower"),
    ("artifact.bytes", "bytes", "lower"),
    ("artifact.sample_s", "s", "lower"),
    ("service.serve_hit_ms", "ms", "lower"),
    ("service.serve_miss_ms", "ms", "lower"),
    ("service.serve_coalesced_ms", "ms", "lower"),
    ("service.serve_bypass_ms", "ms", "lower"),
    ("service.wait_ms", "ms", "lower"),
    ("service.overhead_s", "s", "lower"),
    ("service.builds", "count", "lower"),
    ("service.coalesced", "count", "higher"),
    ("service.shed", "count", "lower"),
    ("service.coalesce_ratio", "fraction", "higher"),
    ("service.snapshot_write_s", "s", "lower"),
    ("service.snapshot_load_s", "s", "lower"),
    ("router.tableau_share", "fraction", "higher"),
    ("trajectory.run_s", "s", "lower"),
    ("trajectory.peak_nodes", "count", "lower"),
    ("trajectory.compute_hit_rate", "fraction", "higher"),
    ("trajectory.vector_unique_hit_rate", "fraction", "higher"),
    ("shots.distinct", "count", "lower"),
    ("shots.render_us", "us", "lower"),
    ("circuit.parse.share", "fraction", "lower"),
    ("circuit.fingerprint.share", "fraction", "lower"),
    ("service.serve.share", "fraction", "lower"),
    ("dd.simulate.share", "fraction", "lower"),
    ("dd.compile.share", "fraction", "lower"),
    ("statevector.simulate.share", "fraction", "lower"),
    ("statevector.prefix_build.share", "fraction", "lower"),
    ("tableau.simulate.share", "fraction", "lower"),
    ("artifact.sample.share", "fraction", "lower"),
    ("trajectory.run.share", "fraction", "lower"),
    ("shots.render.share", "fraction", "lower"),
    ("trace.overhead", "fraction", "lower"),
];

/// Span names whose self time is reported as a share of request wall time,
/// keyed by the share metric's name.
const SHARES: &[(&str, &str)] = &[
    ("circuit.parse.share", "circuit.parse"),
    ("circuit.fingerprint.share", "circuit.fingerprint"),
    ("service.serve.share", "service.serve"),
    ("dd.simulate.share", "dd.simulate"),
    ("dd.compile.share", "dd.compile"),
    ("statevector.simulate.share", "statevector.simulate"),
    ("statevector.prefix_build.share", "statevector.prefix_build"),
    ("tableau.simulate.share", "tableau.simulate"),
    ("artifact.sample.share", "artifact.sample"),
    ("trajectory.run.share", "trajectory.run"),
    ("shots.render.share", "shots.render"),
];

/// Computes every per-layer metric, in [`PER_LAYER`] order.
#[must_use]
pub fn per_layer_metrics(input: &LayerInput<'_>) -> Vec<Metric> {
    let l = input.layers;
    let rounds = input.traced_rounds.max(1) as f64;
    let own = self_times_ns(input.spans);
    let mut self_total: BTreeMap<&str, f64> = BTreeMap::new();
    let mut self_samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut request_wall = 0.0;
    for (span, &t) in input.spans.iter().zip(&own) {
        let secs = t as f64 * 1e-9;
        *self_total.entry(span.name).or_default() += secs;
        self_samples.entry(span.name).or_default().push(secs);
        if span.name == "request" {
            request_wall += span.duration_ns() as f64 * 1e-9;
        }
    }
    let span_median_us = |name: &str| {
        self_samples
            .get(name)
            .map_or(0.0, |v| crate::percentile(v, 0.5).unwrap_or(0.0) * 1e6)
    };
    let rate = |shots: &str, secs: &str| l.ratio(shots, secs);
    let value = |name: &str| -> f64 {
        if let Some(&(_, span)) = SHARES.iter().find(|(n, _)| *n == name) {
            return if request_wall > 0.0 {
                self_total.get(span).copied().unwrap_or(0.0) / request_wall
            } else {
                0.0
            };
        }
        match name {
            "circuit.parse_us" => span_median_us("circuit.parse"),
            "circuit.qasm_bytes" => l.ratio("circuit.qasm_bytes", "circuit.parsed"),
            "circuit.fingerprint_us" => span_median_us("circuit.fingerprint"),
            "shots.render_us" => span_median_us("shots.render"),
            "dd.vector_unique_hit_rate" => l.ratio("dd.unique_hits", "dd.unique_lookups"),
            "dd.compute_hit_rate" => l.ratio("dd.compute_hits", "dd.compute_lookups"),
            "dd.compiled_bytes" => l.mean("dd.compiled_bytes"),
            "dd.sample_shots_per_s" => rate("dd.sample_shots", "dd.sample_s"),
            "statevector.sample_shots_per_s" => {
                rate("statevector.sample_shots", "statevector.sample_s")
            }
            "tableau.sample_shots_per_s" => rate("tableau.sample_shots", "tableau.sample_s"),
            "artifact.hit_ratio" => l.ratio("artifact.hits", "artifact.lookups"),
            "artifact.bytes" => l.maxima.get("artifact.bytes").copied().unwrap_or(0.0),
            "service.serve_hit_ms"
            | "service.serve_miss_ms"
            | "service.serve_coalesced_ms"
            | "service.serve_bypass_ms"
            | "service.wait_ms" => l.median(name),
            "service.overhead_s" => l.mean(name),
            "service.coalesce_ratio" => {
                let coalesced = l.sum("service.coalesced");
                let builds = l.sum("service.builds");
                if coalesced + builds > 0.0 {
                    coalesced / (coalesced + builds)
                } else {
                    0.0
                }
            }
            "service.snapshot_write_s" | "service.snapshot_load_s" => {
                l.maxima.get(name).copied().unwrap_or(0.0)
            }
            "router.tableau_share" => l.ratio("router.tableau", "router.requests"),
            "trajectory.peak_nodes" => l.maxima.get(name).copied().unwrap_or(0.0),
            "trajectory.compute_hit_rate" => {
                l.ratio("trajectory.compute_hits", "trajectory.compute_lookups")
            }
            "trajectory.vector_unique_hit_rate" => {
                l.ratio("trajectory.unique_hits", "trajectory.unique_lookups")
            }
            "shots.distinct" => l.mean(name),
            "trace.overhead" => input.trace_overhead,
            // Per-round totals: times and counts summed over traced rounds.
            _ => l.sum(name) / rounds,
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric::new(name, value(name), unit))
        .collect()
}
