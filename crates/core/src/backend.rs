//! The engine abstraction behind [`Backend`]: trait dispatch for every
//! backend-specific step of a run.
//!
//! [`WeakSimulator`](crate::WeakSimulator) and the
//! [`trajectory`](crate::trajectory) module never match on [`Backend`]
//! themselves.  Each backend ships an [`Engine`] — the strong-simulation
//! entry point plus the governor and memory hooks — and a
//! [`TrajectoryRunner`] — the per-shot measure/reset/collapse primitives —
//! and [`Backend::engine`] is the single dispatch table.  The trajectory
//! shot loop (decision drawing, classical-record bookkeeping, event walk)
//! is written once against [`TrajectoryRunner`], so the decision-diagram
//! and statevector runners share one generic code path and a new engine
//! only has to implement the two traits.  Static sampling is not an engine
//! step: a strong state is turned into a prepared
//! [`SimArtifact`](crate::SimArtifact), which draws every static shot.

use crate::govern::RunGovernor;
use crate::simulator::{Backend, RunError, StrongState};
use crate::trajectory::{DdRunner, Event, SvRunner, TrajectoryPlan};
use circuit::{Circuit, Qubit};
use dd::{DdError, DdPackage, DdStats, Governor};
use rand::rngs::SmallRng;
use statevector::MemoryBudget;

/// A strong-simulation engine: everything [`WeakSimulator`] needs from a
/// backend outside the per-shot trajectory loop.
///
/// Implementations are stateless unit structs ([`DdEngine`], [`SvEngine`]);
/// all run state lives in the [`StrongState`] / [`TrajectoryRunner`] values
/// they produce.
///
/// [`WeakSimulator`]: crate::WeakSimulator
pub(crate) trait Engine: Sync {
    /// Strong-simulates `circuit` to its final state (the strong-apply
    /// hook).  `budget` bounds dense allocations; `governor` is armed for
    /// the duration of the simulation on engines that support governance.
    /// `construction_threads` fans gate construction out over a worker pool
    /// on engines that support it (`None` = sequential; `Some(0)` = one
    /// worker per CPU); engines without parallel construction ignore it.
    fn strong(
        &self,
        circuit: &Circuit,
        budget: MemoryBudget,
        governor: &RunGovernor,
        construction_threads: Option<usize>,
    ) -> Result<StrongState, RunError>;

    /// Pre-checks the peak memory a trajectory run with `workers` concurrent
    /// workers would allocate against `budget` (engines whose memory grows
    /// with state structure rather than `2^n` accept unconditionally).
    fn check_trajectory_memory(
        &self,
        num_qubits: u16,
        workers: usize,
        budget: MemoryBudget,
    ) -> Result<(), RunError>;

    /// Builds this engine's per-worker trajectory runner for `plan`, under
    /// one worker's armed governor clone.  Fails only when the governor
    /// interrupts the shared-prefix construction — before any shot has run.
    fn trajectory_runner<'p>(
        &self,
        plan: &'p TrajectoryPlan,
        governor: Governor,
    ) -> Result<Box<dyn TrajectoryRunner + 'p>, DdError>;
}

/// The per-shot primitive surface of one backend, owned by a single worker
/// thread: collapse, reset, noise realization and terminal read-out.
///
/// The trajectory shot loop in [`trajectory`](crate::trajectory) drives
/// these primitives identically for every engine; only the state
/// representation behind them differs.
pub(crate) trait TrajectoryRunner {
    /// Rewinds to the shared prefix state, starting a fresh shot.
    fn begin_shot(&mut self);

    /// `P(qubit = 1)` of the current state — consulted by the
    /// state-dependent decision draws (measure, reset, amplitude damping).
    fn p_one(&mut self, qubit: Qubit) -> Result<f64, DdError>;

    /// Applies event `k` under the drawn `decision` — collapse for a
    /// measurement, collapse-and-flip for a reset, the Kraus branch of a
    /// noise site, nothing for the skipped marker — then applies the unitary
    /// segment that follows, resolving classical conditions against
    /// `record`.
    fn advance(&mut self, k: usize, event: Event, decision: u8, record: u64)
        -> Result<(), DdError>;

    /// Draws one terminal full-register sample from the current state.
    fn terminal_sample(&mut self, rng: &mut SmallRng) -> Result<u64, DdError>;

    /// Housekeeping between chunks (garbage collection).
    fn end_of_chunk(&mut self) {}

    /// Peak representation size observed so far.
    fn representation_size(&self) -> u128;

    /// Package table statistics (decision-diagram engines only).
    fn dd_stats(&self) -> Option<DdStats> {
        None
    }
}

impl Backend {
    /// The engine implementing this backend — the one place a [`Backend`]
    /// value is resolved to executable code.
    pub(crate) fn engine(self) -> &'static dyn Engine {
        match self {
            Backend::DecisionDiagram => &DdEngine,
            Backend::StateVector => &SvEngine,
        }
    }
}

/// The decision-diagram engine (the method proposed by the paper).
pub(crate) struct DdEngine;

/// The dense statevector engine (the baseline method).
pub(crate) struct SvEngine;

impl Engine for DdEngine {
    fn strong(
        &self,
        circuit: &Circuit,
        _budget: MemoryBudget,
        governor: &RunGovernor,
        construction_threads: Option<usize>,
    ) -> Result<StrongState, RunError> {
        // Decision diagrams grow with the state's structure, not with 2^n,
        // so the dense memory budget never applies; their memory is bounded
        // by the governor's node/byte budget instead.
        let mut package = Box::new(DdPackage::new());
        package.set_governor(governor.arm());
        let state = match construction_threads {
            None => dd::simulate(&mut package, circuit)?,
            Some(workers) => dd::simulate_with_threads(&mut package, circuit, workers)?,
        };
        Ok(StrongState::DecisionDiagram { package, state })
    }

    fn check_trajectory_memory(
        &self,
        _num_qubits: u16,
        _workers: usize,
        _budget: MemoryBudget,
    ) -> Result<(), RunError> {
        Ok(())
    }

    fn trajectory_runner<'p>(
        &self,
        plan: &'p TrajectoryPlan,
        governor: Governor,
    ) -> Result<Box<dyn TrajectoryRunner + 'p>, DdError> {
        Ok(Box::new(DdRunner::new(plan, governor)?))
    }
}

impl Engine for SvEngine {
    fn strong(
        &self,
        circuit: &Circuit,
        budget: MemoryBudget,
        _governor: &RunGovernor,
        _construction_threads: Option<usize>,
    ) -> Result<StrongState, RunError> {
        // Dense evolution has no construction worker pool; the knob is a
        // decision-diagram concept and is deliberately ignored here.
        let state = statevector::simulate_with_budget(circuit, budget)?;
        Ok(StrongState::StateVector(state))
    }

    fn check_trajectory_memory(
        &self,
        num_qubits: u16,
        workers: usize,
        budget: MemoryBudget,
    ) -> Result<(), RunError> {
        // Each worker holds the shared base vector *plus* the per-shot clone
        // it evolves, so peak concurrent allocation is two vectors per
        // worker — account for all of them, not just one.
        let required = MemoryBudget::state_vector_bytes(num_qubits) * 2 * workers as u128;
        if !budget.allows(required) {
            return Err(RunError::MemoryOut {
                num_qubits,
                required_bytes: required,
            });
        }
        Ok(())
    }

    fn trajectory_runner<'p>(
        &self,
        plan: &'p TrajectoryPlan,
        _governor: Governor,
    ) -> Result<Box<dyn TrajectoryRunner + 'p>, DdError> {
        // Dense evolution is infallible (memory is pre-checked up front);
        // deadline and cancellation are honoured at chunk boundaries.
        Ok(Box::new(SvRunner::new(plan)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_tags_round_trip() {
        let circuit = algorithms::bell_pair();
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let state = backend
                .engine()
                .strong(
                    &circuit,
                    MemoryBudget::unlimited(),
                    &RunGovernor::unlimited(),
                    None,
                )
                .unwrap();
            assert_eq!(state.backend(), backend);
        }
    }

    #[test]
    fn dd_engine_ignores_the_dense_memory_budget() {
        let circuit = algorithms::ghz(12);
        let tight = MemoryBudget::from_bytes(64);
        let governor = RunGovernor::unlimited();
        assert!(Backend::DecisionDiagram
            .engine()
            .strong(&circuit, tight, &governor, None)
            .is_ok());
        assert!(matches!(
            Backend::StateVector
                .engine()
                .strong(&circuit, tight, &governor, None),
            Err(RunError::MemoryOut { .. })
        ));
    }

    #[test]
    fn trajectory_memory_check_scales_with_workers() {
        let sv = Backend::StateVector.engine();
        let one_vector = MemoryBudget::state_vector_bytes(10);
        // Two vectors per worker: a budget of exactly two allows one worker
        // but not two.
        let budget = MemoryBudget::from_bytes(u64::try_from(one_vector * 2).unwrap());
        assert!(sv.check_trajectory_memory(10, 1, budget).is_ok());
        assert!(matches!(
            sv.check_trajectory_memory(10, 2, budget),
            Err(RunError::MemoryOut { .. })
        ));
        // The decision-diagram engine never fails the dense pre-check.
        let dd = Backend::DecisionDiagram.engine();
        assert!(dd
            .check_trajectory_memory(50, 64, MemoryBudget::from_bytes(1))
            .is_ok());
    }
}
