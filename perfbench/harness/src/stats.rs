//! Sampling helpers, the correctness tally, the metric table and the
//! seeded generator shared by every path.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Median of a sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of a sample (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// The `q`-quantile, but only when at least ten samples lie beyond it.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    (!xs.is_empty() && xs.len() - rank(xs.len(), q) >= 10).then(|| quantile(xs, q))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// splitmix64: the benchmark's own input generator, so inputs depend only
/// on `--seed` and never on the program under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A set of atom ids with O(1) membership, insertion, removal and uniform
/// sampling — the benchmark's mirror of a base relation.
#[derive(Clone, Debug, Default)]
pub struct Mirror {
    items: Vec<u64>,
    index: HashMap<u64, usize>,
}

impl Mirror {
    pub fn from_ids(ids: impl IntoIterator<Item = u64>) -> Mirror {
        let mut m = Mirror::default();
        for id in ids {
            m.insert(id);
        }
        m
    }

    pub fn contains(&self, id: u64) -> bool {
        self.index.contains_key(&id)
    }

    pub fn insert(&mut self, id: u64) -> bool {
        if self.contains(id) {
            return false;
        }
        self.index.insert(id, self.items.len());
        self.items.push(id);
        true
    }

    pub fn remove(&mut self, id: u64) -> bool {
        let Some(pos) = self.index.remove(&id) else {
            return false;
        };
        self.items.swap_remove(pos);
        if let Some(&moved) = self.items.get(pos) {
            self.index.insert(moved, pos);
        }
        true
    }

    pub fn sample(&self, rng: &mut Rng) -> Option<u64> {
        (!self.items.is_empty()).then(|| self.items[rng.below(self.items.len() as u64) as usize])
    }

    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.items.iter().copied()
    }
}

/// Operations checked against the benchmark's own references.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed or wrong.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }
}

/// Named metrics in emission order, with their unit and sample count.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str, Option<usize>)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        debug_assert!(!self.items.iter().any(|(n, ..)| n == name), "{name} twice");
        self.items.push((name.to_string(), value, unit, samples));
    }

    /// A timing sample set: its median under `name`.
    pub fn put_median(&mut self, name: &str, xs: &[f64], unit: &'static str) {
        self.put(name, median(xs), unit, Some(xs.len()));
    }

    pub fn all_finite(&self) -> bool {
        self.items.iter().all(|(_, v, ..)| v.is_finite())
    }

    pub fn print_table(&self, focus: crate::Path, trace: bool) {
        eprintln!(
            "focus path {focus:?}, {} metrics:",
            if trace { "per-layer" } else { "end-to-end" }
        );
        for (name, value, unit, samples) in &self.items {
            match samples {
                Some(n) => eprintln!("  {name:<40} {value:>14.4} {unit:<6} (n={n})"),
                None => eprintln!("  {name:<40} {value:>14.4} {unit}"),
            }
        }
    }

    pub fn to_json(&self, tally: &Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed
        );
        for (i, (name, value, unit, _)) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips.
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(tail_quantile(&xs, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&many, 0.99), Some(990.0));
    }

    #[test]
    fn mirror_tracks_membership() {
        let mut m = Mirror::from_ids([1, 2, 3]);
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert!(m.insert(7));
        let mut ids: Vec<u64> = m.ids().collect();
        ids.sort();
        assert_eq!(ids, vec![2, 3, 7]);
        assert!(m.contains(7) && !m.contains(1));
    }
}
