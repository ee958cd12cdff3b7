//! The benchmark's own self-interested DC1 scan: the reference the
//! program's deliveries are checked against on every pass.
//!
//! Rule: the first tuple of an epoch is a reference, and so is every
//! later tuple whose value moved by at least `delta` from the last
//! reference. Under group-aware filtering each reference opens exactly
//! one candidate set, and each candidate set delivers exactly one tuple
//! to its subscription, so a subscription's delivered count equals its
//! reference count, and its k-th delivery (in timestamp order) lies
//! within `slack` of its k-th reference value.

use gasf_core::quality::{FilterKind, FilterSpec};

/// `(attr, delta, slack)` of a DC1 spec.
pub fn dc1_params(spec: &FilterSpec) -> (&str, f64, f64) {
    match &spec.kind {
        FilterKind::Delta {
            attr, delta, slack, ..
        } => (attr.as_str(), *delta, *slack),
        other => panic!("the benchmark only subscribes DC1 filters, got {other:?}"),
    }
}

/// Positions of the references of one scan over `values`.
pub fn dc1_refs(values: &[f64], delta: f64) -> Vec<usize> {
    let mut refs = Vec::new();
    let mut base = f64::NAN;
    for (i, &v) in values.iter().enumerate() {
        if refs.is_empty() || (v - base).abs() >= delta {
            refs.push(i);
            base = v;
        }
    }
    refs
}

/// Rows that are a reference of at least one scan: what self-interested
/// filtering would output.
#[derive(Debug)]
pub struct SiOutputs {
    hit: Vec<bool>,
}

impl SiOutputs {
    pub fn new(rows: usize) -> Self {
        SiOutputs {
            hit: vec![false; rows],
        }
    }

    pub fn mark(&mut self, offset: usize, refs: &[usize]) {
        for &r in refs {
            self.hit[offset + r] = true;
        }
    }

    pub fn count(&self) -> u64 {
        self.hit.iter().filter(|&&h| h).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_tuple_and_moves_of_delta_are_references() {
        let v = [0.0, 0.5, 1.0, 1.4, 2.0, 0.9];
        assert_eq!(dc1_refs(&v, 1.0), vec![0, 2, 4, 5]);
        assert!(dc1_refs(&[], 1.0).is_empty());
    }
}
