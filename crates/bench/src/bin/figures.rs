//! Regenerates the illustrative figures of the paper on its 3-qubit running
//! example.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin figures -- [fig2|fig3|fig4|all]
//! ```
//!
//! With no argument it prints all three; any other name, or more than one,
//! prints a usage error and exits 2.
//!
//! * `fig2` — the weak-simulation flow: circuit, amplitudes/probabilities
//!   from strong simulation, and sampled measurement outcomes.
//! * `fig3` — biased random selection via a prefix array and binary search,
//!   including the worked example with `p_hat = 1/2`.
//! * `fig4` — the state decision diagram: left-most normalization (4b),
//!   branch probabilities from the downstream/upstream traversals (4c) and
//!   the proposed 2-norm normalization (4d), as Graphviz DOT.

use dd::{DdPackage, EdgeProbabilities, Normalization};
use statevector::PrefixSampler;
use std::process::ExitCode;
use weaksim::{Backend, WeakSimulator};

const USAGE: &str = "usage: figures [fig2|fig3|fig4|all]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = match args.as_slice() {
        [] => "all",
        [which] if matches!(which.as_str(), "fig2" | "fig3" | "fig4" | "all") => which,
        [other] => {
            eprintln!("figures: unknown figure `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
        _ => {
            eprintln!("figures: expected at most one figure name\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match draw(which) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints figure `which` (`fig2`, `fig3`, `fig4`), or all three for `all`.
fn draw(which: &str) -> Result<(), weaksim::RunError> {
    if matches!(which, "fig2" | "all") {
        figure_2()?;
    }
    if matches!(which, "fig3" | "all") {
        figure_3()?;
    }
    if matches!(which, "fig4" | "all") {
        figure_4();
    }
    Ok(())
}

/// Fig. 2: circuit -> strong simulation -> probabilities -> samples.
fn figure_2() -> Result<(), weaksim::RunError> {
    println!("=== Fig. 2: mimicking a physical quantum computer ===\n");
    let circuit = algorithms::running_example();
    println!("quantum circuit description:\n{circuit}");

    let strong = WeakSimulator::new(Backend::StateVector).strong(&circuit)?;
    println!("strong simulation (amplitudes -> probabilities):");
    for index in 0..8u64 {
        println!("  p(|{index:03b}>) = {:.4}", strong.probability(index));
    }

    let outcome = WeakSimulator::new(Backend::DecisionDiagram).run(&circuit, 10, 1)?;
    let samples: Vec<String> = outcome
        .histogram
        .to_bitstring_counts()
        .into_iter()
        .flat_map(|(bits, count)| std::iter::repeat_n(bits, count as usize))
        .collect();
    println!(
        "\nweak simulation (ten measurement outcomes): {}\n",
        samples.join(" ")
    );
    Ok(())
}

/// Fig. 3: prefix array and binary search.
fn figure_3() -> Result<(), weaksim::RunError> {
    println!("=== Fig. 3: biased random selection via binary search ===\n");
    let circuit = algorithms::running_example();
    let strong = WeakSimulator::new(Backend::StateVector).strong(&circuit)?;
    let weaksim::StrongState::StateVector(vector) = &strong else {
        unreachable!("the state-vector backend returns a dense state");
    };
    println!("amplitudes   probabilities   prefix sums");
    let sampler = PrefixSampler::new(vector);
    for index in 0..8u64 {
        println!(
            "  {:>12}   {:>6.4}          {:>6.4}",
            format!("{}", vector.amplitude(index)),
            vector.probability(index),
            sampler.prefix_sums()[index as usize],
        );
    }
    println!(
        "\nbinary search with p_hat = 1/2 selects index {} -> |011> (Example 8)\n",
        sampler.locate(0.5)
    );
    Ok(())
}

/// Fig. 4: the decision diagram under both normalizations, with edge
/// probabilities.
fn figure_4() {
    println!("=== Fig. 4: decision-diagram representations ===\n");
    let circuit = algorithms::running_example();

    println!("--- Fig. 4b: left-most normalization ---");
    let mut leftmost = DdPackage::with_normalization(Normalization::LeftMost);
    let state = dd::simulate(&mut leftmost, &circuit).expect("valid circuit");
    println!("{}", dd::to_dot(&leftmost, &state, None));

    println!("--- Fig. 4c: branch probabilities from downstream/upstream traversals ---");
    let probabilities = EdgeProbabilities::new(&leftmost, &state);
    println!("{}", dd::to_dot(&leftmost, &state, Some(&probabilities)));

    println!("--- Fig. 4d: proposed 2-norm normalization ---");
    let mut two_norm = DdPackage::with_normalization(Normalization::TwoNorm);
    let state = dd::simulate(&mut two_norm, &circuit).expect("valid circuit");
    println!("{}", dd::to_dot(&two_norm, &state, None));
}
