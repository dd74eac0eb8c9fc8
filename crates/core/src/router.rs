//! The segmented Clifford router: runs Clifford circuit segments on the
//! polynomial-time stabilizer-tableau engine (the `tableau` crate) and
//! stitches the boundary into the configured dense backend.
//!
//! Routing is opt-in
//! ([`WeakSimulator::with_clifford_router`](crate::WeakSimulator::with_clifford_router))
//! and noiseless-only; it never changes *what* is sampled, only *which
//! engine* does the work:
//!
//! * a **fully-Clifford** circuit (per
//!   [`Circuit::clifford_segments`]) runs entirely on the tableau —
//!   thousand-qubit GHZ and stabilizer-code circuits sample in
//!   milliseconds where a dense backend could not even allocate the state;
//! * a circuit with a **unitary Clifford prefix** whose boundary state is a
//!   computational basis state (the cheap-injection case of
//!   [`Tableau::as_basis_state`]) is *stitched*: the prefix is replayed as
//!   `X` preparations on the dense backend, which then runs the remaining
//!   operations — the prefix costs `O(n)` tableau updates instead of dense
//!   gate applications;
//! * anything else **falls back** to whole-circuit dense execution.
//!
//! Whichever way a run goes, [`RunOutcome::route`](crate::RunOutcome::route)
//! reports the engine that executed each segment.  [`route_plan`] alone
//! makes the decision: static requests prepare a
//! [`SimArtifact`](crate::SimArtifact) for the chosen route, and dynamic
//! ones execute it shot by shot.
//!
//! Tableau-routed sampling follows the workspace seeding scheme — shots are
//! split into [`PARALLEL_CHUNK_SHOTS`] chunks and chunk `i` draws from a
//! [`chunk_stream_seed`]-derived stream — so routed histograms are
//! seed-deterministic and independent of the worker-thread count (the
//! tableau path is single-threaded; per-shot work is a handful of word
//! operations, far below any parallelization threshold).

use crate::simulator::{Backend, RunOutcome};
use crate::ShotHistogram;
use circuit::{Circuit, Operation, Qubit};
use dd::{chunk_stream_seed, PARALLEL_CHUNK_SHOTS};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::time::{Duration, Instant};
use tableau::{Tableau, TableauError};

/// The engine that executed one routed segment (a superset of [`Backend`]:
/// the stabilizer tableau is a router-only engine with no dense strong
/// state, so it is not a [`Backend`] variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The Gottesman–Knill stabilizer-tableau engine (`tableau` crate).
    Tableau,
    /// The edge-weighted decision-diagram engine.
    DecisionDiagram,
    /// The dense statevector engine.
    StateVector,
}

impl From<Backend> for EngineKind {
    fn from(backend: Backend) -> Self {
        match backend {
            Backend::DecisionDiagram => EngineKind::DecisionDiagram,
            Backend::StateVector => EngineKind::StateVector,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Tableau => write!(f, "tableau"),
            EngineKind::DecisionDiagram => write!(f, "DD-based"),
            EngineKind::StateVector => write!(f, "vector-based"),
        }
    }
}

/// One contiguous block of circuit operations executed by a single engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSegment {
    /// The engine that executed the block.
    pub engine: EngineKind,
    /// Number of original circuit operations in the block (state-injection
    /// gates synthesized by the router are not counted).
    pub ops: usize,
}

/// How a run was routed: which engine executed each contiguous segment of
/// the circuit, in order.  Unrouted (and fallback) runs report a single
/// segment on the configured dense backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRoute {
    /// The executed segments, in circuit order.
    pub segments: Vec<RouteSegment>,
}

impl RunRoute {
    /// The single-segment route of an unrouted dense run.
    pub(crate) fn dense(backend: Backend, ops: usize) -> Self {
        Self {
            segments: vec![RouteSegment {
                engine: backend.into(),
                ops,
            }],
        }
    }

    /// The single-segment route of a run executed entirely on the tableau.
    pub(crate) fn tableau(ops: usize) -> Self {
        Self {
            segments: vec![RouteSegment {
                engine: EngineKind::Tableau,
                ops,
            }],
        }
    }

    /// Whether any segment ran on the stabilizer-tableau engine.
    #[must_use]
    pub fn used_tableau(&self) -> bool {
        self.segments
            .iter()
            .any(|s| s.engine == EngineKind::Tableau)
    }

    /// Total operations across all segments.
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.segments.iter().map(|s| s.ops).sum()
    }
}

impl fmt::Display for RunRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, segment) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{}({})", segment.engine, segment.ops)?;
        }
        Ok(())
    }
}

/// The router's decision for one noiseless run (pure: no simulation runs).
pub(crate) enum RoutePlan {
    /// Fully Clifford: prepare a sampler on (or, for dynamic circuits,
    /// execute shot by shot on) the tableau engine.
    FullyClifford,
    /// A Clifford prefix was folded into basis-state preparations; run
    /// `stitched` on the dense backend and report `route`.
    Stitched {
        /// The remainder circuit, prefixed with `X` preparations.
        stitched: Circuit,
        /// The two-segment route to surface in the outcome.
        route: RunRoute,
    },
    /// No tableau-eligible segment: run the original circuit densely.
    Dense,
}

/// Decides the route for a validated circuit (pure: no simulation runs).
pub(crate) fn route_plan(circuit: &Circuit, backend: Backend) -> RoutePlan {
    let segments = circuit.clifford_segments();
    if segments.is_fully_clifford() {
        return RoutePlan::FullyClifford;
    }
    if segments.prefix_len > 0 {
        if let Some(stitched) = stitch_prefix(circuit, segments.prefix_len) {
            return RoutePlan::Stitched {
                stitched,
                route: RunRoute {
                    segments: vec![
                        RouteSegment {
                            engine: EngineKind::Tableau,
                            ops: segments.prefix_len,
                        },
                        RouteSegment {
                            engine: backend.into(),
                            ops: segments.len - segments.prefix_len,
                        },
                    ],
                },
            };
        }
    }
    RoutePlan::Dense
}

/// Evolves the leading `prefix_len` Clifford operations on a tableau and, if
/// they leave the register in a computational basis state, returns the
/// remainder circuit prefixed with the `X` gates preparing that state (the
/// basis-state injection of the stitching contract).  Returns `None` when
/// the prefix contains non-unitary operations (their outcome belongs to the
/// shot, not the plan) or ends in superposition.
pub(crate) fn stitch_prefix(circuit: &Circuit, prefix_len: usize) -> Option<Circuit> {
    let ops = circuit.operations();
    if ops[..prefix_len].iter().any(|op| {
        matches!(
            op,
            Operation::Measure { .. } | Operation::Reset { .. } | Operation::Conditioned { .. }
        )
    }) {
        return None;
    }
    let mut tab = Tableau::zero_state(usize::from(circuit.num_qubits()).max(1));
    // The RNG and record are never consulted: the prefix is unitary-only.
    let mut rng = SmallRng::seed_from_u64(0);
    let mut record = 0u64;
    for (i, op) in ops[..prefix_len].iter().enumerate() {
        tableau::apply_operation(&mut tab, op, i, &mut record, &mut rng).ok()?;
    }
    let basis = tab.as_basis_state()?;
    let mut stitched = Circuit::with_name(
        circuit.num_qubits(),
        format!("{}__stitched", circuit.name()),
    );
    stitched.set_num_clbits(circuit.num_clbits());
    for q in 0..circuit.num_qubits() {
        if basis[usize::from(q) / 64] >> (usize::from(q) % 64) & 1 == 1 {
            stitched.x(Qubit(q));
        }
    }
    for op in &ops[prefix_len..] {
        stitched.push(op.clone());
    }
    Some(stitched)
}

/// Draws `shots` shots with the workspace chunk-seeding scheme: chunk `i`
/// (of [`PARALLEL_CHUNK_SHOTS`] shots) uses its own RNG stream seeded with
/// [`chunk_stream_seed`]`(seed, i)`.  Shared by the tableau trajectories
/// below and the tableau arm of [`SimArtifact::sample`](crate::SimArtifact::sample).
pub(crate) fn draw_chunked<E>(
    shots: u64,
    seed: u64,
    mut shot: impl FnMut(&mut SmallRng) -> Result<(), E>,
) -> Result<(), E> {
    let chunk_len = PARALLEL_CHUNK_SHOTS as u64;
    let total_chunks = shots.div_ceil(chunk_len);
    for chunk_index in 0..total_chunks {
        let chunk_shots = chunk_len.min(shots - chunk_index * chunk_len);
        let mut rng = SmallRng::seed_from_u64(chunk_stream_seed(seed, chunk_index));
        for _ in 0..chunk_shots {
            shot(&mut rng)?;
        }
    }
    Ok(())
}

/// Reads the classical record of one full-register sample through the
/// trailing-measurement mapping (the packed-words analogue of the
/// simulator's `map_terminal_record`, needed because tableau registers can
/// exceed 64 qubits).
pub(crate) fn map_terminal_words(sample: &[u64], mapping: &[(Qubit, u16)]) -> u64 {
    let mut out = 0u64;
    for &(qubit, cbit) in mapping {
        let q = usize::from(qubit.0);
        let bit = (sample[q / 64] >> (q % 64) & 1) as u8;
        out = crate::trajectory::record_bit(out, cbit, bit);
    }
    out
}

/// Runs a *dynamic* fully-Clifford circuit shot by shot on the stabilizer
/// tableau: each shot is a fresh `O(n)`-per-gate tableau walk, so even
/// thousand-qubit trajectories are cheap.  (Static fully-Clifford circuits
/// are prepared once into a tableau [`SimArtifact`](crate::SimArtifact)
/// instead.)  Registers wider than 64 qubits histogram the low 64 bits of
/// each sample — the documented truncation of the `u64`-keyed
/// [`ShotHistogram`].
pub(crate) fn run_tableau(
    circuit: &Circuit,
    backend: Backend,
    shots: u64,
    seed: u64,
) -> Result<RunOutcome, TableauError> {
    let num_qubits = usize::from(circuit.num_qubits()).max(1);
    // Circuits without any `Measure` report a terminal full-register
    // sample, exactly like the dense trajectory engine.
    let has_measurements = circuit.has_measurements();
    let width = if has_measurements {
        circuit.num_clbits()
    } else {
        circuit.num_qubits()
    };
    let mut histogram = ShotHistogram::new(width);
    let sampling_start = Instant::now();
    draw_chunked(shots, seed, |rng| {
        let mut tab = Tableau::zero_state(num_qubits);
        let record = tableau::apply_circuit(&mut tab, circuit, rng)?;
        let outcome = if has_measurements {
            record
        } else {
            tab.measurement_sampler().sample_u64(rng)
        };
        histogram.record(outcome);
        Ok(())
    })?;
    let sampling_time = sampling_start.elapsed();
    Ok(RunOutcome {
        backend,
        histogram,
        strong_time: Duration::ZERO,
        precompute_time: Duration::ZERO,
        sampling_time,
        // The stabilizer generator count: the tableau analogue of DD node
        // count / dense amplitude count.
        representation_size: 2 * num_qubits as u128,
        dd_stats: None,
        state: None,
        interruption: None,
        route: RunRoute::tableau(circuit.len()),
        cache: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_display_chains_segments() {
        let route = RunRoute {
            segments: vec![
                RouteSegment {
                    engine: EngineKind::Tableau,
                    ops: 17,
                },
                RouteSegment {
                    engine: EngineKind::DecisionDiagram,
                    ops: 3,
                },
            ],
        };
        assert_eq!(route.to_string(), "tableau(17) -> DD-based(3)");
        assert!(route.used_tableau());
        assert_eq!(route.total_ops(), 20);
        let dense = RunRoute::dense(Backend::StateVector, 5);
        assert_eq!(dense.to_string(), "vector-based(5)");
        assert!(!dense.used_tableau());
    }

    #[test]
    fn stitching_requires_a_basis_state_boundary() {
        // X-prefix ending in |01>: stitchable.
        let mut c = Circuit::new(2);
        c.x(Qubit(0)).t(Qubit(1));
        let seg = c.clifford_segments();
        assert_eq!(seg.prefix_len, 1);
        let stitched = stitch_prefix(&c, seg.prefix_len).unwrap();
        // One X preparation plus the T gate.
        assert_eq!(stitched.len(), 2);

        // H-prefix ends in superposition: not stitchable.
        let mut h = Circuit::new(2);
        h.h(Qubit(0)).t(Qubit(1));
        assert!(stitch_prefix(&h, 1).is_none());
    }

    #[test]
    fn fully_clifford_circuits_route_to_the_tableau() {
        let ghz = algorithms::ghz(4);
        assert!(matches!(
            route_plan(&ghz, Backend::DecisionDiagram),
            RoutePlan::FullyClifford
        ));
        let outcome = crate::WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .run(&ghz, 2000, 3)
            .unwrap();
        assert!(outcome.route.used_tableau());
        assert_eq!(outcome.histogram.shots(), 2000);
        assert!(outcome
            .histogram
            .counts()
            .keys()
            .all(|&k| k == 0 || k == 0b1111));
    }

    #[test]
    fn non_clifford_circuits_without_clifford_prefix_stay_dense() {
        let mut c = Circuit::new(1);
        c.t(Qubit(0));
        assert!(matches!(
            route_plan(&c, Backend::DecisionDiagram),
            RoutePlan::Dense
        ));
    }
}
