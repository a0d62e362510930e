use fastmon_netlist::{Circuit, NodeId};
use fastmon_sim::Stimulus;

use crate::AtpgError;

/// One two-vector (enhanced-scan) test: a launch vector and a capture
/// vector, each one bit per combinational source (primary inputs and
/// flip-flops), in [`TestSet::sources`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestPattern {
    /// First vector: circuit state before the launch edge.
    pub launch: Vec<bool>,
    /// Second vector: applied at the launch edge; responses are captured
    /// against this vector.
    pub capture: Vec<bool>,
}

impl TestPattern {
    /// Creates a pattern.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length. Use
    /// [`TestPattern::try_new`] to handle untrusted vectors without
    /// panicking.
    #[must_use]
    pub fn new(launch: Vec<bool>, capture: Vec<bool>) -> Self {
        match Self::try_new(launch, capture) {
            Ok(p) => p,
            Err(e) => panic!("invalid test pattern: {e}"),
        }
    }

    /// Fallible variant of [`TestPattern::new`].
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::VectorLengthMismatch`] if the two vectors
    /// differ in length.
    pub fn try_new(launch: Vec<bool>, capture: Vec<bool>) -> Result<Self, AtpgError> {
        if launch.len() != capture.len() {
            return Err(AtpgError::VectorLengthMismatch {
                launch: launch.len(),
                capture: capture.len(),
            });
        }
        Ok(TestPattern { launch, capture })
    }

    /// Number of source bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.launch.len()
    }
}

/// An ordered collection of two-vector test patterns for one circuit.
///
/// # Example
///
/// ```
/// use fastmon_atpg::{TestPattern, TestSet};
/// use fastmon_netlist::library;
///
/// let circuit = library::s27();
/// let mut set = TestSet::new(&circuit);
/// let width = set.sources().len();
/// set.push(TestPattern::new(vec![false; width], vec![true; width]));
/// assert_eq!(set.len(), 1);
/// let stim = set.stimulus(&circuit, 0);
/// let pi = circuit.inputs()[0];
/// assert_eq!(stim.launch(pi), false);
/// assert_eq!(stim.capture(pi), true);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSet {
    sources: Vec<NodeId>,
    patterns: Vec<TestPattern>,
}

impl TestSet {
    /// Creates an empty test set for `circuit`.
    #[must_use]
    pub fn new(circuit: &Circuit) -> Self {
        TestSet {
            sources: Self::source_order(circuit),
            patterns: Vec::new(),
        }
    }

    /// Creates an empty test set over an explicit source order (e.g. one
    /// decoded from a persisted artifact). Whether `sources` belongs to a
    /// given circuit is the caller's check: compare it with
    /// [`TestSet::source_order`].
    #[must_use]
    pub fn from_sources(sources: Vec<NodeId>) -> Self {
        TestSet {
            sources,
            patterns: Vec::new(),
        }
    }

    /// The canonical source order used by all `fastmon-atpg` vectors:
    /// primary inputs and flip-flops in node-id order (constants excluded —
    /// they carry no test bit).
    #[must_use]
    pub fn source_order(circuit: &Circuit) -> Vec<NodeId> {
        circuit
            .iter()
            .filter(|(_, n)| {
                matches!(
                    n.kind(),
                    fastmon_netlist::GateKind::Input | fastmon_netlist::GateKind::Dff
                )
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// The sources, in vector-bit order.
    #[must_use]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Appends a pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the source count. Use
    /// [`TestSet::try_push`] to handle untrusted patterns without
    /// panicking.
    pub fn push(&mut self, pattern: TestPattern) {
        if let Err(e) = self.try_push(pattern) {
            panic!("invalid test pattern: {e}");
        }
    }

    /// Fallible variant of [`TestSet::push`].
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::WidthMismatch`] if the pattern width does not
    /// match the source count; the set is left unchanged.
    pub fn try_push(&mut self, pattern: TestPattern) -> Result<(), AtpgError> {
        if pattern.width() != self.sources.len() {
            return Err(AtpgError::WidthMismatch {
                got: pattern.width(),
                expected: self.sources.len(),
            });
        }
        self.patterns.push(pattern);
        Ok(())
    }

    /// Number of patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` if the set holds no patterns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The `i`-th pattern.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn pattern(&self, i: usize) -> &TestPattern {
        &self.patterns[i]
    }

    /// Iterates over the patterns.
    pub fn iter(&self) -> impl Iterator<Item = &TestPattern> {
        self.patterns.iter()
    }

    /// Converts pattern `i` into a dense [`Stimulus`] for the waveform
    /// simulator.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the set does not belong to
    /// `circuit`.
    #[must_use]
    pub fn stimulus(&self, circuit: &Circuit, i: usize) -> Stimulus {
        let p = &self.patterns[i];
        let mut v1 = vec![false; circuit.len()];
        let mut v2 = vec![false; circuit.len()];
        for (k, &src) in self.sources.iter().enumerate() {
            v1[src.index()] = p.launch[k];
            v2[src.index()] = p.capture[k];
        }
        // constants keep their fixed value in both vectors
        for id in circuit.combinational_sources() {
            match circuit.node(id).kind() {
                fastmon_netlist::GateKind::Const1 => {
                    v1[id.index()] = true;
                    v2[id.index()] = true;
                }
                fastmon_netlist::GateKind::Const0 => {}
                _ => {}
            }
        }
        Stimulus::from_vectors(v1, v2)
    }

    /// Keeps only the patterns at the given indices (ascending), dropping
    /// the rest — used by static compaction.
    pub fn retain_indices(&mut self, keep: &[usize]) {
        let mut keep_mask = vec![false; self.patterns.len()];
        for &i in keep {
            keep_mask[i] = true;
        }
        let mut i = 0;
        self.patterns.retain(|_| {
            let k = keep_mask[i];
            i += 1;
            k
        });
    }

    /// Truncates the set to at most `n` patterns.
    pub fn truncate(&mut self, n: usize) {
        self.patterns.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_netlist::library;

    #[test]
    fn source_order_is_stable() {
        let c = library::s27();
        let s = TestSet::source_order(&c);
        assert_eq!(s.len(), 7); // 4 PIs + 3 FFs
        let mut sorted = s.clone();
        sorted.sort();
        assert_eq!(s, sorted, "id order");
    }

    #[test]
    fn stimulus_round_trip() {
        let c = library::s27();
        let mut set = TestSet::new(&c);
        let w = set.sources().len();
        let launch: Vec<bool> = (0..w).map(|i| i % 2 == 0).collect();
        let capture: Vec<bool> = (0..w).map(|i| i % 3 == 0).collect();
        set.push(TestPattern::new(launch.clone(), capture.clone()));
        let stim = set.stimulus(&c, 0);
        for (k, &src) in set.sources().iter().enumerate() {
            assert_eq!(stim.launch(src), launch[k]);
            assert_eq!(stim.capture(src), capture[k]);
        }
    }

    #[test]
    fn retain_indices_filters() {
        let c = library::c17();
        let mut set = TestSet::new(&c);
        let w = set.sources().len();
        for i in 0..5 {
            set.push(TestPattern::new(vec![i % 2 == 0; w], vec![true; w]));
        }
        set.retain_indices(&[0, 3]);
        assert_eq!(set.len(), 2);
        assert!(set.pattern(0).launch[0]);
        assert!(!set.pattern(1).launch[0]);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn wrong_width_rejected() {
        let c = library::c17();
        let mut set = TestSet::new(&c);
        set.push(TestPattern::new(vec![true], vec![false]));
    }
}
