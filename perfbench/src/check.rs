//! Response checks: every histogram the program returns is checked, and
//! every failure is counted against the requests attempted.
//!
//! * the shot count is exact and the register width is the expected one;
//! * a repeated `(request_fingerprint, seed, shots)` triple returns an
//!   identical histogram digest, whether it was served as a hit, a miss,
//!   a coalesced wait or a bypass;
//! * static circuits of at most [`EXACT_MAX_QUBITS`] qubits stay within a
//!   total-variation-distance bound of the exact distribution.
//!
//! # The TVD bound
//!
//! For `N` shots drawn from `p`, the empirical distribution `p̂` satisfies
//! `E[TVD(p̂, p)] ≤ ½ Σ_i √(p_i (1 − p_i) / N)` (Jensen on each term), which
//! is at most `½ √(K / N)` for a support of `K` outcomes.  One shot moves
//! the TVD by at most `1/N`, so by McDiarmid's inequality
//! `P(TVD > E + t) ≤ exp(−2 N t²)`.  With `t = √(ln(1/α) / (2N))` and the
//! false-alarm rate `α = 1e-9` per check, a correct sampler fails a check
//! about once in a billion responses.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use circuit::Circuit;
use weaksim::ShotHistogram;

/// False-alarm rate of one TVD check on a correct sampler.
pub const FALSE_ALARM: f64 = 1e-9;

/// Largest static circuit whose exact distribution is computed for the TVD
/// check (a 2^16-entry probability vector).
pub const EXACT_MAX_QUBITS: u16 = 16;

/// An exact output distribution and its precomputed TVD bound term.
#[derive(Debug)]
pub struct Exact {
    probabilities: Vec<f64>,
    /// `Σ_i √(p_i (1 − p_i))`.
    root_sum: f64,
}

impl Exact {
    /// The exact distribution of a static, measurement-free circuit of at
    /// most [`EXACT_MAX_QUBITS`] qubits (computed on the state-vector
    /// engine), or `None` for any other circuit.
    #[must_use]
    pub fn of(circuit: &Circuit) -> Option<Arc<Self>> {
        if circuit.num_qubits() > EXACT_MAX_QUBITS
            || circuit.is_dynamic()
            || circuit.has_measurements()
        {
            return None;
        }
        let state = statevector::simulate(circuit).ok()?;
        Some(Arc::new(Self::from_probabilities(state.probabilities())))
    }

    /// Wraps a probability vector indexed by outcome.
    #[must_use]
    pub fn from_probabilities(probabilities: Vec<f64>) -> Self {
        let root_sum = probabilities
            .iter()
            .map(|&p| (p * (1.0 - p)).max(0.0).sqrt())
            .sum();
        Self {
            probabilities,
            root_sum,
        }
    }

    /// Number of outcomes with non-zero probability.
    #[must_use]
    pub fn support(&self) -> usize {
        self.probabilities.iter().filter(|&&p| p > 0.0).count()
    }

    /// The largest TVD a correct `shots`-shot histogram reaches with
    /// probability above [`FALSE_ALARM`].
    #[must_use]
    pub fn tvd_bound(&self, shots: u64) -> f64 {
        let n = shots as f64;
        0.5 * self.root_sum / n.sqrt() + ((1.0 / FALSE_ALARM).ln() / (2.0 * n)).sqrt()
    }

    /// Total variation distance between `histogram` and this distribution.
    #[must_use]
    pub fn tvd(&self, histogram: &ShotHistogram) -> f64 {
        let n = histogram.shots() as f64;
        let mut covered = 0.0;
        let mut distance = 0.0;
        for (&outcome, &count) in histogram.counts() {
            let p = usize::try_from(outcome)
                .ok()
                .and_then(|i| self.probabilities.get(i))
                .copied()
                .unwrap_or(0.0);
            covered += p;
            distance += (count as f64 / n - p).abs();
        }
        0.5 * (distance + (1.0 - covered).max(0.0))
    }
}

/// What a response to one request must look like.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Shots requested.
    pub shots: u64,
    /// Histogram register width.
    pub width: u16,
    /// Exact distribution, for circuits small enough to have one.
    pub exact: Option<Arc<Exact>>,
}

impl Expect {
    /// The expectation for `shots` shots of `circuit`: the classical
    /// register when the circuit measures, the full qubit register
    /// otherwise.
    #[must_use]
    pub fn new(circuit: &Circuit, shots: u64, exact: Option<Arc<Exact>>) -> Self {
        let width = if circuit.has_measurements() {
            circuit.num_clbits()
        } else {
            circuit.num_qubits()
        };
        Self {
            shots,
            width,
            exact,
        }
    }
}

/// Order-independent digest of a histogram's register width and counts.
#[must_use]
pub fn digest(histogram: &ShotHistogram) -> u64 {
    let mut sum = crate::rng::mix(u64::from(histogram.num_qubits()));
    for (&outcome, &count) in histogram.counts() {
        sum = sum.wrapping_add(crate::rng::mix(
            crate::rng::mix(outcome) ^ count.rotate_left(32),
        ));
    }
    sum
}

/// A request's identity for the repeat check: fingerprint, seed, shots.
type RequestKey = ([u64; 2], u64, u64);

/// Checks responses and remembers digests across clients and rounds.
#[derive(Debug, Default)]
pub struct Checker {
    digests: Mutex<HashMap<RequestKey, u64>>,
}

impl Checker {
    /// Checks one response to a request with key `fingerprint` and `seed`.
    ///
    /// # Errors
    ///
    /// Describes the first check the response failed.
    pub fn check(
        &self,
        expect: &Expect,
        fingerprint: [u64; 2],
        seed: u64,
        histogram: &ShotHistogram,
    ) -> Result<(), String> {
        if histogram.shots() != expect.shots {
            return Err(format!(
                "shot count {} != requested {}",
                histogram.shots(),
                expect.shots
            ));
        }
        let tallied: u64 = histogram.counts().values().sum();
        if tallied != expect.shots {
            return Err(format!("counts sum to {tallied}, not {}", expect.shots));
        }
        if histogram.num_qubits() != expect.width {
            return Err(format!(
                "register width {} != expected {}",
                histogram.num_qubits(),
                expect.width
            ));
        }
        if expect.width < 64 {
            if let Some((&outcome, _)) = histogram
                .counts()
                .iter()
                .find(|(&o, _)| o >> expect.width != 0)
            {
                return Err(format!("outcome {outcome:#x} exceeds the register"));
            }
        }
        let value = digest(histogram);
        let key = (fingerprint, seed, expect.shots);
        let previous = *self
            .digests
            .lock()
            .expect("a checker thread panicked")
            .entry(key)
            .or_insert(value);
        if previous != value {
            return Err(format!(
                "repeated request (fingerprint {:016x}{:016x}, seed {seed}) changed its histogram",
                fingerprint[0], fingerprint[1]
            ));
        }
        if let Some(exact) = &expect.exact {
            let tvd = exact.tvd(histogram);
            let bound = exact.tvd_bound(expect.shots);
            if tvd > bound {
                return Err(format!("TVD {tvd:.5} exceeds the bound {bound:.5}"));
            }
        }
        Ok(())
    }
}
