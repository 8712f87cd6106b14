//! Aggregated measurement samples.

use mathkit::FxHashMap;
use std::fmt;

/// A histogram of measurement outcomes (basis-state index -> count).
///
/// Recording goes through a hash accumulator (`FxHashMap`), so the per-shot
/// cost is a single cheap hash insert even for millions of shots; ordered
/// views for display and export are produced on demand by
/// [`sorted_counts`](Self::sorted_counts).
///
/// # Examples
///
/// ```
/// use weaksim::ShotHistogram;
///
/// let hist = ShotHistogram::from_samples(3, [0b101, 0b101, 0b000].into_iter());
/// assert_eq!(hist.shots(), 3);
/// assert_eq!(hist.count(0b101), 2);
/// assert_eq!(hist.bitstring(0b101), "101");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShotHistogram {
    num_qubits: u16,
    counts: FxHashMap<u64, u64>,
    shots: u64,
}

impl ShotHistogram {
    /// Creates an empty histogram for `num_qubits`-bit outcomes.
    #[must_use]
    pub fn new(num_qubits: u16) -> Self {
        Self {
            num_qubits,
            counts: FxHashMap::default(),
            shots: 0,
        }
    }

    /// Builds a histogram from raw samples.
    pub fn from_samples(num_qubits: u16, samples: impl Iterator<Item = u64>) -> Self {
        let mut hist = Self::new(num_qubits);
        for s in samples {
            hist.record(s);
        }
        hist
    }

    /// Records one sample.
    pub fn record(&mut self, outcome: u64) {
        *self.counts.entry(outcome).or_insert(0) += 1;
        self.shots += 1;
    }

    /// Prepares for `shots` more samples: reserves one slot per shot up
    /// front (at most 2^20) only when nearly every shot will be a new
    /// outcome, i.e. `shots` is at most 1/64 of the `2^width` outcome
    /// space.  Otherwise the table grows with the outcomes actually seen:
    /// the 356k distinct outcomes of 1M shots of a 20-qubit supremacy state
    /// fill a quarter of the slots a per-shot reservation would take, and
    /// peaked distributions far fewer.  The cap bounds what a peaked
    /// distribution over a wide register (a 60-qubit GHZ state) can waste.
    pub(crate) fn reserve_for_shots(&mut self, shots: u64) {
        let space = 1u128
            .checked_shl(u32::from(self.num_qubits))
            .unwrap_or(u128::MAX);
        if u128::from(shots) * 64 <= space {
            self.counts.reserve(shots.min(1 << 20) as usize);
        }
    }

    /// Records a whole batch of samples (the bulk path of the static
    /// samplers).
    pub fn record_many(&mut self, outcomes: &[u64]) {
        for &outcome in outcomes {
            *self.counts.entry(outcome).or_insert(0) += 1;
        }
        self.shots += outcomes.len() as u64;
    }

    /// Merges another histogram into this one (used to combine the
    /// per-worker histograms of parallel trajectory simulation).
    ///
    /// # Panics
    ///
    /// Panics if the two histograms record outcomes of different widths.
    pub fn merge(&mut self, other: &ShotHistogram) {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "cannot merge histograms of different outcome widths"
        );
        for (&outcome, &count) in &other.counts {
            *self.counts.entry(outcome).or_insert(0) += count;
        }
        self.shots += other.shots;
    }

    /// The number of qubits per outcome.
    #[must_use]
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// The total number of recorded shots.
    #[must_use]
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// The raw counts, keyed by basis-state index (unordered; use
    /// [`sorted_counts`](Self::sorted_counts) for an index-ordered view).
    #[must_use]
    pub fn counts(&self) -> &FxHashMap<u64, u64> {
        &self.counts
    }

    /// The counts as `(basis-state index, count)` pairs in index order.
    #[must_use]
    pub fn sorted_counts(&self) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = self.counts.iter().map(|(&o, &c)| (o, c)).collect();
        pairs.sort_unstable_by_key(|&(outcome, _)| outcome);
        pairs
    }

    /// The count of a specific outcome.
    #[must_use]
    pub fn count(&self, outcome: u64) -> u64 {
        self.counts.get(&outcome).copied().unwrap_or(0)
    }

    /// The empirical frequency of a specific outcome.
    #[must_use]
    pub fn frequency(&self, outcome: u64) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.count(outcome) as f64 / self.shots as f64
        }
    }

    /// The number of distinct outcomes observed.
    #[must_use]
    pub fn distinct_outcomes(&self) -> usize {
        self.counts.len()
    }

    /// The most frequent outcome, if any shots were recorded (ties resolve
    /// to the smallest basis-state index).
    #[must_use]
    pub fn most_common(&self) -> Option<(u64, u64)> {
        self.counts
            .iter()
            .max_by_key(|(outcome, count)| (*count, std::cmp::Reverse(*outcome)))
            .map(|(&o, &c)| (o, c))
    }

    /// Formats an outcome as a bitstring `q_{n-1} ... q_1 q_0` (most
    /// significant qubit first), matching the notation of the paper.
    /// Positions 64 and up lie outside the `u64` key and render as `?`.
    #[must_use]
    pub fn bitstring(&self, outcome: u64) -> String {
        (0..u32::from(self.num_qubits))
            .rev()
            .map(|bit| match outcome.checked_shr(bit) {
                None => '?',
                Some(shifted) if shifted & 1 != 0 => '1',
                Some(_) => '0',
            })
            .collect()
    }

    /// Iterates over `(bitstring, count)` pairs in index order.
    #[must_use]
    pub fn to_bitstring_counts(&self) -> Vec<(String, u64)> {
        self.sorted_counts()
            .into_iter()
            .map(|(o, c)| (self.bitstring(o), c))
            .collect()
    }
}

impl Extend<u64> for ShotHistogram {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for s in iter {
            self.record(s);
        }
    }
}

impl fmt::Display for ShotHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} shots over {} qubits", self.shots, self.num_qubits)?;
        for (outcome, count) in self.sorted_counts() {
            writeln!(
                f,
                "  |{}> : {count} ({:.4})",
                self.bitstring(outcome),
                self.frequency(outcome)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut h = ShotHistogram::new(2);
        h.record(0);
        h.record(3);
        h.record(3);
        assert_eq!(h.shots(), 3);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(1), 0);
        assert!((h.frequency(3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.distinct_outcomes(), 2);
        assert_eq!(h.most_common(), Some((3, 2)));
    }

    #[test]
    fn record_many_matches_individual_records() {
        let mut bulk = ShotHistogram::new(3);
        bulk.record_many(&[1, 2, 2, 7, 7, 7]);
        let single = ShotHistogram::from_samples(3, [1, 2, 2, 7, 7, 7].into_iter());
        assert_eq!(bulk, single);
        assert_eq!(bulk.shots(), 6);
        bulk.record_many(&[]);
        assert_eq!(bulk.shots(), 6);
    }

    #[test]
    fn merge_combines_counts_and_shots() {
        let mut a = ShotHistogram::from_samples(2, [0, 1, 1].into_iter());
        let b = ShotHistogram::from_samples(2, [1, 3].into_iter());
        a.merge(&b);
        assert_eq!(a.shots(), 5);
        assert_eq!(a.count(1), 3);
        assert_eq!(a.count(3), 1);
    }

    #[test]
    #[should_panic(expected = "different outcome widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = ShotHistogram::new(2);
        a.merge(&ShotHistogram::new(3));
    }

    #[test]
    fn bitstring_formatting_is_msb_first() {
        let h = ShotHistogram::new(4);
        assert_eq!(h.bitstring(0b0101), "0101");
        assert_eq!(h.bitstring(0b1000), "1000");
        assert_eq!(h.bitstring(0), "0000");
    }

    #[test]
    fn bitstring_marks_positions_beyond_the_key_as_unknown() {
        let h = ShotHistogram::new(70);
        let s = h.bitstring(u64::MAX);
        assert_eq!(s.len(), 70);
        assert_eq!(&s[..6], "??????");
        assert_eq!(&s[6..], "1".repeat(64));
        assert_eq!(h.bitstring(1), format!("??????{:064b}", 1));
    }

    #[test]
    fn from_samples_and_extend() {
        let mut h = ShotHistogram::from_samples(3, [1, 2, 2, 7].into_iter());
        h.extend([7, 7]);
        assert_eq!(h.shots(), 6);
        assert_eq!(h.count(7), 3);
        let pairs = h.to_bitstring_counts();
        assert_eq!(pairs[0], ("001".to_string(), 1));
        assert_eq!(pairs.last().unwrap(), &("111".to_string(), 3));
    }

    #[test]
    fn sorted_counts_are_index_ordered() {
        let mut h = ShotHistogram::new(4);
        h.record_many(&[9, 1, 5, 1, 9, 9]);
        assert_eq!(h.sorted_counts(), vec![(1, 2), (5, 1), (9, 3)]);
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = ShotHistogram::new(2);
        assert_eq!(h.shots(), 0);
        assert_eq!(h.frequency(0), 0.0);
        assert_eq!(h.most_common(), None);
    }

    #[test]
    fn display_lists_outcomes() {
        let h = ShotHistogram::from_samples(2, [0, 3, 3].into_iter());
        let text = h.to_string();
        assert!(text.contains("|00>"));
        assert!(text.contains("|11>"));
    }
}
