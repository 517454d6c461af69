//! `rvm_bench <scenario> [--quick]`: runs one experiment of the RadixVM
//! reproduction (the scenarios are listed in the library docs).
//!
//! Figure and table scenarios print CSV tables. Record scenarios print a
//! JSON record and exit 1 when one of their gates fails. An unknown
//! scenario, a second scenario or a malformed `RVM_*` input exits 2.

use std::process::exit;

use rvm_bench::{fastpath, figures, huge, numa, pressure, refcount, scale, Gate, Inputs, Record};

/// How a scenario reports.
enum Scenario {
    /// Prints its own CSV tables.
    Csv(fn(&Inputs)),
    /// Returns a JSON record for the driver to print and gate.
    Json(fn(&Inputs) -> Record),
}

use Scenario::{Csv, Json};

const SCENARIOS: &[(&str, Scenario)] = &[
    ("fig4_metis", Csv(figures::fig4_metis)),
    ("fig5_micro", Csv(figures::fig5_micro)),
    ("fig6_skiplist", Csv(figures::fig6_skiplist)),
    ("fig7_radix", Csv(figures::fig7_radix)),
    ("fig8_refcount", Csv(figures::fig8_refcount)),
    ("fig9_tlb", Csv(figures::fig9_tlb)),
    ("table1_loc", Csv(figures::table1_loc)),
    ("table2_memory", Csv(figures::table2_memory)),
    ("fastpath", Json(fastpath::record)),
    ("scale", Json(scale::record)),
    ("huge", Json(huge::record)),
    ("refcount", Json(refcount::record)),
    ("numa", Json(numa::record)),
    ("pressure", Json(pressure::record)),
];

/// Prints `why` and the usage line, then exits 2.
fn usage(why: &str) -> ! {
    let names: Vec<&str> = SCENARIOS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "rvm_bench: {why}\nusage: rvm_bench <scenario> [--quick]\nscenarios: {}",
        names.join(" ")
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut names = args.iter().filter(|a| *a != "--quick");
    let (Some(name), None) = (names.next(), names.next()) else {
        usage("expected one scenario")
    };
    let Some((_, scenario)) = SCENARIOS.iter().find(|(n, _)| n == name) else {
        usage(&format!("unknown scenario {name:?}"))
    };
    let inputs = Inputs::from_env(quick).unwrap_or_else(|e| usage(&e));
    let record = match scenario {
        Csv(run) => return run(&inputs),
        Json(run) => run(&inputs),
    };
    print!("{}", record.json.pretty());
    for gate in &record.gates {
        if gate.passed() {
            eprintln!("{} gate passed", gate.name);
        } else {
            eprintln!("{} GATE FAILED:", gate.name);
            for failure in &gate.failures {
                eprintln!("  {failure}");
            }
        }
    }
    if !record.gates.iter().all(Gate::passed) {
        exit(1);
    }
}
