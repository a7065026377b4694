//! End-to-end bit-identity of the production Alg. 2 selector: a full
//! fast-scale HELCFL run (GreedyDecaySelector + SlackFrequencyPolicy)
//! must produce a training history byte-identical to the committed
//! golden CSV — the same artifact `ci.sh` pins the pipeline against —
//! and to a run of the same setup driven by the full-rescan oracle.

#[path = "../../core/tests/support/reference_selector.rs"]
mod reference_selector;

use fl_sim::runner::run_federated;
use helcfl::{GreedyDecaySelector, SlackFrequencyPolicy};
use helcfl_bench::scenario::{PaperScenario, Setting};
use reference_selector::ReferenceSelector;

#[test]
fn indexed_selector_reproduces_the_golden_history() {
    let scenario = PaperScenario::fast();
    let config = scenario.training_config();

    let mut setup = scenario.setup(Setting::Iid).unwrap();
    let mut selector = GreedyDecaySelector::default();
    let history =
        run_federated(&mut setup, &config, &mut selector, &SlackFrequencyPolicy).unwrap();

    // The CSV embeds the scheme name per row; name parity ("helcfl")
    // is part of the byte identity being asserted here.
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/golden/history_fast_iid_helcfl.csv"
    );
    let golden = std::fs::read_to_string(golden_path).unwrap();
    assert_eq!(
        history.to_csv(),
        golden,
        "production selector diverged from the golden history"
    );

    // And against a same-process oracle run, for a diagnosable
    // failure mode should the golden file ever be regenerated.
    let mut setup = scenario.setup(Setting::Iid).unwrap();
    let mut reference = ReferenceSelector::default();
    let ref_history =
        run_federated(&mut setup, &config, &mut reference, &SlackFrequencyPolicy).unwrap();
    assert_eq!(history.to_csv(), ref_history.to_csv());
}
