//! The metrics a run prints match `BENCHMARK.json`: untraced runs give
//! exactly its `end_to_end` metrics, traced runs exactly its `per_layer`
//! metrics, each with the unit listed there.

use perfbench::report::Spans;
use perfbench::{check, sim, Report};

/// `(name, unit)` of every entry in the `key` array of `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\": [")).expect("array present");
    let body = &text[start..start + text[start..].find(']').expect("array closed")];
    let field = |entry: &str, name: &str| -> String {
        let at = entry
            .find(&format!("\"{name}\": \""))
            .expect("field present")
            + name.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closed")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn printed(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn untraced_runs_print_the_end_to_end_metrics() {
    let want = listed("end_to_end");
    let mut spans = Spans::default();
    for r in [
        sim::run(1, 0.1, false, &mut spans),
        check::run(1, 0.1, false, &mut spans),
    ] {
        assert!(r.correct, "{:?}", r.errors);
        assert_eq!(printed(&r), want);
    }
}

#[test]
fn traced_runs_print_the_per_layer_metrics() {
    let want = listed("per_layer");
    let mut spans = Spans::default();
    for mut r in [
        sim::run(1, 0.1, true, &mut spans),
        check::run(1, 0.1, true, &mut spans),
    ] {
        assert!(r.correct, "{:?}", r.errors);
        r.fill_per_layer();
        assert_eq!(printed(&r), want);
    }
    assert!(!spans.is_empty());
}
