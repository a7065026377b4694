//! Training-history digests: the benchmark's output check.

use fl_sim::history::TrainingHistory;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn word(&mut self, w: u64) {
        self.update(&w.to_le_bytes());
    }
}

/// FNV-1a over a history's CSV, followed by the exact bit pattern of
/// every record field. The CSV prints floats to six decimals, so the
/// bit-pattern tail is what makes a one-ulp change visible.
pub fn history_digest(history: &TrainingHistory) -> String {
    let mut h = Fnv(FNV_OFFSET);
    h.update(history.to_csv().as_bytes());
    for r in history.records() {
        h.word(r.round as u64);
        for ids in [&r.selected, &r.delivered] {
            h.word(ids.len() as u64);
            for id in ids {
                h.word(id.0 as u64);
            }
        }
        h.word(r.alive_devices as u64);
        for x in [
            r.round_time.get(),
            r.eq10_time.get(),
            r.round_energy.get(),
            r.compute_energy.get(),
            r.slack.get(),
            r.wasted_energy.get(),
            r.cumulative_time.get(),
            r.cumulative_energy.get(),
            r.test_accuracy.unwrap_or(f64::NAN),
        ] {
            h.word(x.to_bits());
        }
        h.word(u64::from(r.train_loss.to_bits()));
        h.word(r.faults as u64);
        h.word(u64::from(r.aggregated));
    }
    format!("{:016x}", h.0)
}

/// Digests recorded for [`crate::workloads::DEFAULT_SEED`], one
/// `workload scheme digest` line each.
const GOLDEN: &str = include_str!("../golden_digests.txt");

/// The recorded default-seed digest of `scheme` on `workload`.
pub fn golden(workload: &str, scheme: &str) -> Option<&'static str> {
    GOLDEN.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        match (it.next(), it.next(), it.next()) {
            (Some(w), Some(s), Some(d)) if w == workload && s == scheme => Some(d),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_sim::history::RoundRecord;
    use mec_sim::device::DeviceId;
    use mec_sim::units::{Joules, Seconds};

    fn history() -> TrainingHistory {
        let mut h = TrainingHistory::new("helcfl");
        for round in 1..=3 {
            h.push(RoundRecord {
                round,
                selected: vec![DeviceId(round), DeviceId(7)],
                delivered: vec![DeviceId(round)],
                alive_devices: 10,
                round_time: Seconds::new(12.5 + round as f64),
                eq10_time: Seconds::new(13.0),
                round_energy: Joules::new(4.25),
                compute_energy: Joules::new(3.0),
                slack: Seconds::new(0.5),
                wasted_energy: Joules::new(0.125),
                faults: 1,
                aggregated: true,
                train_loss: 2.0,
                test_accuracy: Some(0.3),
                cumulative_time: Seconds::new(40.0),
                cumulative_energy: Joules::new(12.75),
            });
        }
        h
    }

    #[test]
    fn digest_is_stable_for_equal_histories() {
        assert_eq!(
            history_digest(&history()),
            history_digest(&history().clone())
        );
    }

    #[test]
    fn digest_refuses_a_one_bit_perturbation() {
        let base = history_digest(&history());
        let mut h = history();
        let mut records = h.records().to_vec();
        // Lowest mantissa bit: invisible in the six-decimal CSV.
        let bits = records[1].round_time.get().to_bits() ^ 1;
        records[1].round_time = Seconds::new(f64::from_bits(bits));
        h = TrainingHistory::new(h.scheme());
        for r in records.iter().cloned() {
            h.push(r);
        }
        assert_eq!(
            history().to_csv(),
            h.to_csv(),
            "the perturbation must be below CSV precision for this test to mean anything"
        );
        assert_ne!(history_digest(&h), base);

        let mut loss = history();
        let mut records = loss.records().to_vec();
        records[2].train_loss = f32::from_bits(records[2].train_loss.to_bits() ^ 1);
        loss = TrainingHistory::new("helcfl");
        for r in records {
            loss.push(r);
        }
        assert_ne!(history_digest(&loss), base);
    }

    #[test]
    fn golden_lookup_matches_whole_fields() {
        assert!(golden("paper-iid", "no-such-scheme").is_none());
        assert!(golden("no-such-workload", "helcfl").is_none());
    }
}
